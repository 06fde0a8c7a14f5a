"""Tests for the core value types and normalization."""

from __future__ import annotations

import copy
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bibench.archive import InsertOutcome
from bibench.core import (
    NormalizedObjectives,
    ObjectiveVector,
    ProblemSpec,
    normalize,
    normalize_columns,
    ulp_distance,
)
from bibench.datalog import RecordColumns, RunHeader, RunLog
from bibench.indicator import IndicatorValue
from bibench.refset import PointColumns, merge


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _axis(draw) -> tuple[float, float, list[float]]:
    """An ideal below a nadir, at least one ULP apart or as far apart as two
    doubles get, and values on both, at signed zero, and anywhere else."""
    ideal = draw(st.floats(-1e300, 1e300) | st.sampled_from((-1e308, -math.pi, -0.0, 0.0, 1.5)))
    nadir = draw(
        st.sampled_from((math.nextafter(ideal, math.inf), 1e308))
        | st.floats(ideal, 1e308, exclude_min=True)
    )
    values = draw(st.lists(st.sampled_from((ideal, nadir, -0.0, 0.0, 1e308, -1e308)) | _FINITE,
                           min_size=1, max_size=30))
    return ideal, nadir, values


@settings(max_examples=300, deadline=None)
@given(alpha=_axis(), beta=_axis())
def test_normalize_columns_matches_normalize_bit_for_bit(alpha, beta) -> None:
    # One-ULP spans and huge values make quotients that overflow to inf, and
    # a span that overflows makes inf / inf = nan, as Python floats do; none
    # of it may warn.
    (lo_a, hi_a, f_alpha), (lo_b, hi_b, f_beta) = alpha, beta
    n = min(len(f_alpha), len(f_beta))
    f_alpha, f_beta = f_alpha[:n], f_beta[:n]
    p = _spec(ideal=(lo_a, lo_b), nadir=(hi_a, hi_b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, v = normalize_columns(f_alpha, f_beta, p.ideal, p.nadir)
    assert (u.dtype, v.dtype, u.shape, v.shape) == (float, float, (n,), (n,))
    for a, b, got_u, got_v in zip(f_alpha, f_beta, u.tolist(), v.tolist()):
        want = normalize(ObjectiveVector(a, b), p)
        assert (got_u.hex(), got_v.hex()) == (want.u.hex(), want.v.hex())


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["ideal", "nadir"])
def test_problem_spec_refuses_a_non_finite_bound(which, bad) -> None:
    bounds = {"ideal": (0.0, 0.0), "nadir": (1.0, 1.0)}
    bounds[which] = (0.0, bad) if which == "ideal" else (bad, 1.0)
    coord = "f_beta" if which == "ideal" else "f_alpha"
    with pytest.raises(ValueError, match=f"ideal/nadir {coord} must be finite"):
        _spec(**bounds)


@pytest.mark.parametrize(
    "columns",
    [([0.5, 0.25], [0.75]), ([[0.5, 0.25]], [[0.75, 0.5]]), ([[0.5]], [0.75])],
    ids=["unequal-length", "two-dimensional", "one-two-dimensional"],
)
def test_columns_refuse_unequal_or_multidimensional_columns(columns) -> None:
    with pytest.raises(ValueError, match="PointColumns needs 1-D columns of equal length"):
        PointColumns(*columns)


@pytest.mark.parametrize(
    ("cls", "columns", "message"),
    [
        (RecordColumns, ([1.5], [1.0], [1.0]), "eval_count must hold int64 values, got float64"),
        (RecordColumns, (["3"], [1.0], [1.0]), "eval_count must hold int64 values, got <U1"),
        (RecordColumns, (np.array([2**64 - 1], dtype=np.uint64), [1.0], [1.0]),
         "eval_count must hold int64 values, got uint64"),
        (PointColumns, ([0.5], ["0.5"]), "f_beta must hold float64 values, got <U3"),
    ],
    ids=["float-count", "text-count", "uint64-count", "text-value"],
)
def test_columns_refuse_values_of_another_kind(cls, columns, message) -> None:
    # Before, each was cast: 1.5 was truncated to the count 1, "3" parsed as
    # 3, and 2**64 - 1 wrapped to -1.
    with pytest.raises(TypeError, match=f"^{message}$"):
        cls(*columns)
    assert PointColumns([1, 2], [True, False]).f_beta.tolist() == [1.0, 0.0]


def test_ulp_distance_basics() -> None:
    assert ulp_distance(1.0, 1.0) == 0
    assert ulp_distance(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulp_distance(1.0, math.nextafter(1.0, 0.0)) == 1
    assert ulp_distance(-0.0, 0.0) == 0
    assert ulp_distance(-math.nextafter(0.0, 1.0), math.nextafter(0.0, 1.0)) == 2
    with pytest.raises(ValueError):
        ulp_distance(math.nan, 1.0)


def test_columns_stay_read_only_through_pickle_and_deepcopy() -> None:
    # Before, unpickling restored the slots without the constructor, so the
    # copies' columns were writeable.
    records = RecordColumns([1, 2], [0.5, 0.25], [0.1, 0.2])
    points = PointColumns([0.25, 0.75], [0.75, 0.25])
    spec = _spec()
    log = RunLog(RunHeader.for_run(spec, "random", 10), records)
    rs = merge([points], function_id="f1", instance_id=1, dimension=2,
               ideal=spec.ideal, nadir=spec.nadir)
    for value in (records, points, log, rs):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            columns = getattr(copied, "records", getattr(copied, "points", copied))
            assert type(columns) in (RecordColumns, PointColumns)
            assert not any(a.flags.writeable for a in columns._arrays())


@pytest.mark.parametrize(
    ("cls", "values", "other", "refused"),
    [
        (ObjectiveVector, (1.5, -2.0), (1.5, -2.5), ()),
        (NormalizedObjectives, (0.25, 1.5), (0.5, 1.5), ()),
        (InsertOutcome, (True, 2, 0.125), (True, 1, 0.125), ()),
        (IndicatorValue, (-0.5,), (0.5,), ((-1.5,), (math.nan,))),
    ],
    ids=["ObjectiveVector", "NormalizedObjectives", "InsertOutcome", "IndicatorValue"],
)
def test_per_record_value_types_are_frozen_values(cls, values, other, refused) -> None:
    # Each type has its own __init__, which stores through the slots; it must
    # keep everything the generated one gave.
    names = [f.name for f in fields(cls)]
    kwargs = dict(zip(names, values, strict=True))
    obj = cls(*values)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
    assert obj == cls(**kwargs) and hash(obj) == hash(cls(**kwargs))
    assert obj != cls(*other) and cls(*other) == cls(*other)
    assert repr(obj) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    assert replace(obj, **dict(zip(names, other))) == cls(*other)
    for copied in (replace(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copied) is cls and copied == obj
        with pytest.raises(FrozenInstanceError):
            setattr(copied, names[0], values[0])
    for bad in refused:
        with pytest.raises(ValueError, match="indicator value must be at least -1"):
            cls(*bad)
        with pytest.raises(ValueError, match="indicator value must be at least -1"):
            replace(obj, **dict(zip(names, bad)))
