"""Indicator tests: anchors, branch transition, incremental equivalence."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bibench.archive import Archive
from bibench.core import NormalizedObjectives
from bibench.indicator import (
    EMPTY_ARCHIVE_VALUE,
    Branch,
    IndicatorValue,
    evaluate,
    evaluate_incremental,
)


def _nz(u: float, v: float) -> NormalizedObjectives:
    return NormalizedObjectives(u, v)


def test_empty_archive_sentinel() -> None:
    assert evaluate(Archive()) == EMPTY_ARCHIVE_VALUE
    assert EMPTY_ARCHIVE_VALUE.value == math.inf
    assert EMPTY_ARCHIVE_VALUE.branch is Branch.DISTANCE


def test_anchor_values() -> None:
    at_nadir = Archive()
    at_nadir.insert(_nz(1.0, 1.0), 1)
    got = evaluate(at_nadir)
    assert got.value == 0.0 and got.branch is Branch.HYPERVOLUME
    assert not math.copysign(1.0, got.value) < 0  # never -0.0

    at_ideal = Archive()
    at_ideal.insert(_nz(0.0, 0.0), 1)
    got = evaluate(at_ideal)
    assert got.value == -1.0 and got.branch is Branch.HYPERVOLUME


def test_distance_branch_before_reaching_roi() -> None:
    arch = Archive()
    arch.insert(_nz(1.5, 0.5), 1)
    got = evaluate(arch)
    assert got.branch is Branch.DISTANCE and got.value == 0.5

    arch2 = Archive()
    arch2.insert(_nz(1.3, 1.4), 1)
    got2 = evaluate(arch2)
    assert got2.branch is Branch.DISTANCE
    assert got2.value == pytest.approx(0.5)


def test_transition_to_hypervolume_branch() -> None:
    arch = Archive()
    prev = EMPTY_ARCHIVE_VALUE
    out = arch.insert(_nz(1.5, 0.5), 1)
    prev = evaluate_incremental(prev, out, arch)
    assert prev == IndicatorValue(0.5) and prev.branch is Branch.DISTANCE
    out = arch.insert(_nz(0.9, 0.9), 2)
    prev = evaluate_incremental(prev, out, arch)
    assert prev.branch is Branch.HYPERVOLUME
    assert prev.value == pytest.approx(-0.01)


def test_transition_is_one_way() -> None:
    arch = Archive()
    prev = EMPTY_ARCHIVE_VALUE
    out = arch.insert(_nz(0.9, 0.9), 1)
    prev = evaluate_incremental(prev, out, arch)
    assert prev.branch is Branch.HYPERVOLUME
    # Later points far outside the box never flip the branch back.
    out = arch.insert(_nz(0.1, 5.0), 2)
    prev = evaluate_incremental(prev, out, arch)
    assert prev.branch is Branch.HYPERVOLUME


def test_rejected_insert_returns_prev_unchanged() -> None:
    arch = Archive()
    prev = EMPTY_ARCHIVE_VALUE
    out = arch.insert(_nz(0.5, 0.5), 1)
    prev = evaluate_incremental(prev, out, arch)
    out = arch.insert(_nz(0.6, 0.6), 2)  # dominated -> rejected
    assert evaluate_incremental(prev, out, arch) is prev


def test_value_range_validation() -> None:
    # The branch follows from the value's sign, so only a value below -1,
    # or NaN, is invalid.
    with pytest.raises(ValueError):
        IndicatorValue(-1.5)
    with pytest.raises(ValueError):
        IndicatorValue(math.nan)
    assert IndicatorValue(-1.0).branch is Branch.HYPERVOLUME
    assert IndicatorValue(0.0).branch is Branch.HYPERVOLUME
    assert IndicatorValue(5e-324).branch is Branch.DISTANCE
    assert IndicatorValue(math.inf).branch is Branch.DISTANCE


_COORD = st.one_of(
    st.sampled_from([-0.5, -0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)]),
    st.floats(-1.0, 3.0),
    st.floats(1.0, 1e300),
)


@st.composite
def _stream(draw) -> list[tuple[float, float]]:
    """Normalized points with exact duplicates, points on the nadir and
    one ULP either side of it, and negative coordinates."""
    points = draw(st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40))
    points += draw(st.lists(st.sampled_from(points + [(1.0, 1.0)]), max_size=10))
    return draw(st.permutations(points))


@settings(max_examples=200, deadline=None)
@given(_stream())
def test_branch_is_hypervolume_iff_archive_reaches_roi(points) -> None:
    arch = Archive()
    prev = EMPTY_ARCHIVE_VALUE
    for t, (u, v) in enumerate(points, 1):
        prev = evaluate_incremental(prev, arch.insert(_nz(u, v), t), arch)
        assert (prev.branch is Branch.HYPERVOLUME) is arch.reaches_roi
        assert (evaluate(arch).branch is Branch.HYPERVOLUME) is arch.reaches_roi


def test_incremental_matches_full_evaluation() -> None:
    for seed in range(15):
        rng = random.Random(seed)
        arch = Archive()
        prev = EMPTY_ARCHIVE_VALUE
        for t in range(1, 401):
            out = arch.insert(
                _nz(rng.uniform(0.0, 2.5), rng.uniform(0.0, 2.5)), t
            )
            prev = evaluate_incremental(prev, out, arch)
            full = evaluate(arch)
            if prev.branch is Branch.HYPERVOLUME:
                # Once inside, incremental stays on the hypervolume branch even
                # if the current front no longer weakly dominates the corner.
                assert prev.value == -arch.hypervolume() or prev.value == 0.0
            else:
                assert prev == full


def test_trajectory_non_increasing() -> None:
    for seed in range(10):
        rng = random.Random(100 + seed)
        arch = Archive()
        prev = EMPTY_ARCHIVE_VALUE
        last = math.inf
        for t in range(1, 1001):
            out = arch.insert(
                _nz(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)), t
            )
            prev = evaluate_incremental(prev, out, arch)
            assert prev.value <= last
            last = prev.value


def test_batched_and_stepwise_agree() -> None:
    """Evaluating once at the end equals stepping through every insertion,
    provided the stepwise path has entered the box (both on the same branch)."""
    rng = random.Random(42)
    points = [
        _nz(rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2)) for _ in range(300)
    ]
    stepped = Archive()
    prev = EMPTY_ARCHIVE_VALUE
    for t, p in enumerate(points, 1):
        prev = evaluate_incremental(prev, stepped.insert(p, t), stepped)
    batch = Archive()
    for t, p in enumerate(points, 1):
        batch.insert(p, t)
    assert prev == evaluate(batch)
