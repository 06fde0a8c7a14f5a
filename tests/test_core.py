"""Tests for the core value types, normalization, and dominance."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from bibench.core import (
    NormalizedObjectives,
    ObjectiveVector,
    ProblemSpec,
    dominates,
    normalize,
    ulp_distance,
)


def _spec(
    ideal: tuple[float, float] = (0.0, 0.0),
    nadir: tuple[float, float] = (1.0, 1.0),
    i_ref: float = -0.5,
) -> ProblemSpec:
    return ProblemSpec(
        function_id="f1",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(*ideal),
        nadir=ObjectiveVector(*nadir),
        i_ref=i_ref,
        refset_version="test",
    )


def test_normalize_maps_bounds_to_unit_corners() -> None:
    p = _spec(ideal=(1.0, -2.0), nadir=(5.0, 6.0))
    assert normalize(p.ideal, p) == NormalizedObjectives(0.0, 0.0)
    assert normalize(p.nadir, p) == NormalizedObjectives(1.0, 1.0)


def test_normalize_worked_example() -> None:
    p = _spec(ideal=(0.0, 0.0), nadir=(4.0, 2.0))
    assert normalize(ObjectiveVector(1.0, 1.0), p) == NormalizedObjectives(0.25, 0.5)


def test_normalize_rejects_non_finite_naming_coordinate() -> None:
    p = _spec()
    with pytest.raises(ValueError, match="f_alpha"):
        normalize(ObjectiveVector(math.nan, 0.0), p)
    with pytest.raises(ValueError, match="f_beta"):
        normalize(ObjectiveVector(0.0, math.inf), p)


def test_problem_spec_validates_bounds_and_i_ref() -> None:
    with pytest.raises(ValueError, match="strictly below"):
        _spec(ideal=(1.0, 0.0), nadir=(1.0, 1.0))
    with pytest.raises(ValueError, match="strictly below"):
        _spec(ideal=(0.0, 2.0), nadir=(1.0, 1.0))
    with pytest.raises(ValueError, match="i_ref"):
        _spec(i_ref=0.5)
    with pytest.raises(ValueError, match="i_ref"):
        _spec(i_ref=-1.5)
    # The closed endpoints are legal.
    _spec(i_ref=0.0)
    _spec(i_ref=-1.0)


def test_dominates_examples() -> None:
    assert dominates(NormalizedObjectives(0.2, 0.3), NormalizedObjectives(0.2, 0.4))
    assert not dominates(NormalizedObjectives(0.2, 0.4), NormalizedObjectives(0.2, 0.3))
    # Equal points do not dominate in either direction.
    assert not dominates(NormalizedObjectives(0.5, 0.5), NormalizedObjectives(0.5, 0.5))
    # Incomparable points.
    assert not dominates(NormalizedObjectives(0.1, 0.9), NormalizedObjectives(0.9, 0.1))
    assert not dominates(NormalizedObjectives(0.9, 0.1), NormalizedObjectives(0.1, 0.9))


_coords = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)


@given(_coords, _coords, _coords, _coords)
def test_dominance_is_irreflexive_and_antisymmetric(
    au: float, av: float, bu: float, bv: float
) -> None:
    a = NormalizedObjectives(au, av)
    b = NormalizedObjectives(bu, bv)
    assert not dominates(a, a)
    assert not (dominates(a, b) and dominates(b, a))


@given(st.lists(st.tuples(_coords, _coords), min_size=3, max_size=3))
def test_dominance_is_transitive(coords: list[tuple[float, float]]) -> None:
    a, b, c = (NormalizedObjectives(u, v) for u, v in coords)
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_ulp_distance_basics() -> None:
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(1.0, math.nextafter(1.0, 0.0)) == 1
    assert ulp_distance(-0.0, 0.0) == 0
    assert ulp_distance(-math.nextafter(0.0, 1.0), math.nextafter(0.0, 1.0)) == 2
    with pytest.raises(ValueError):
        ulp_distance(math.nan, 1.0)
