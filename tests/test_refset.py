"""Reference-set tests: merge semantics, versioning, i_ref, file format."""

from __future__ import annotations

import hashlib
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from bibench.core import ObjectiveVector
from bibench.datalog import LogParseError
from bibench.refset import (
    ReferenceSet,
    merge,
    nondominated_filter,
    read_reference_set,
    refset_path,
    version_of,
    write_reference_set,
)

UNIT_BOUNDS = dict(ideal=ObjectiveVector(0.0, 0.0), nadir=ObjectiveVector(1.0, 1.0))
KEY = dict(function_id="f1", instance_id=1, dimension=2)


def _ov(a: float, b: float) -> ObjectiveVector:
    return ObjectiveVector(a, b)


def test_merge_keeps_mutually_nondominated_points() -> None:
    rs = merge(
        [[_ov(0.2, 0.8)], [_ov(0.8, 0.2), _ov(0.5, 0.5)]], **KEY, **UNIT_BOUNDS
    )
    assert [(p.f_alpha, p.f_beta) for p in rs.points] == [
        (0.2, 0.8), (0.5, 0.5), (0.8, 0.2)
    ]
    assert not rs.bounds_estimated


def test_merge_drops_dominated_point() -> None:
    rs = merge([[_ov(0.2, 0.8)], [_ov(0.3, 0.9)]], **KEY, **UNIT_BOUNDS)
    assert [(p.f_alpha, p.f_beta) for p in rs.points] == [(0.2, 0.8)]


def test_merge_equals_brute_force_filter(brute_force_filter) -> None:
    rng = random.Random(4)
    for _ in range(10):
        groups = [
            [_ov(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(1, 40))]
            for _ in range(rng.randint(1, 4))
        ]
        rs = merge(groups, **KEY, **UNIT_BOUNDS)
        pool = [p for g in groups for p in g]
        want = sorted({(p.u, p.v) for p in brute_force_filter(pool)})
        assert [(p.f_alpha, p.f_beta) for p in rs.points] == want


def test_merge_order_independent_and_idempotent() -> None:
    rng = random.Random(9)
    pool = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(60)]
    a = merge([pool[:30], pool[30:]], **KEY, **UNIT_BOUNDS)
    b = merge([pool[30:], pool[:30]], **KEY, **UNIT_BOUNDS)
    assert a == b
    assert merge([a.points, a.points], **KEY, **UNIT_BOUNDS) == a


def test_merge_superset_never_raises_i_ref() -> None:
    rng = random.Random(13)
    pool = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(50)]
    base = merge([pool], **KEY, **UNIT_BOUNDS)
    extra = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(50)]
    grown = merge([base.points, extra], **KEY, **UNIT_BOUNDS)
    assert grown.i_ref <= base.i_ref


def test_merge_requires_points_and_key() -> None:
    with pytest.raises(ValueError, match="no points"):
        merge([[], []], **KEY, **UNIT_BOUNDS)
    with pytest.raises(TypeError, match="function_id"):
        merge([[_ov(0.5, 0.5)]], instance_id=1, dimension=2, **UNIT_BOUNDS)
    with pytest.raises(TypeError, match="ideal"):
        merge([[_ov(0.5, 0.5)]], **KEY, nadir=_ov(1.0, 1.0))


def test_merge_estimates_missing_bounds_from_front() -> None:
    ideal = _ov(2.0, 3.0)
    rs = merge([[_ov(2.0, 10.0), _ov(4.0, 3.0)]], **KEY, ideal=ideal, nadir=None)
    assert rs.bounds_estimated
    assert rs.ideal == ideal
    assert (rs.nadir.f_alpha, rs.nadir.f_beta) == (4.0, 10.0)
    # Both extremes sit on the bound lines, so the clipped area is 0.
    assert rs.i_ref == 0.0
    # An interior third point covers real area under the same estimation rule.
    rs3 = merge([[_ov(2.0, 10.0), _ov(3.0, 4.0), _ov(4.0, 3.0)]], **KEY, ideal=ideal, nadir=None)
    assert rs3.bounds_estimated and rs3.i_ref < 0.0


def test_merge_rejects_degenerate_estimated_bounds() -> None:
    # A single point is its own estimated nadir, which an explicit ideal on
    # either of its bound lines cannot lie strictly below.
    for ideal in (_ov(1.0, 0.0), _ov(0.0, 2.0)):
        with pytest.raises(ValueError, match="degenerate bounds"):
            merge([[_ov(1.0, 2.0)]], **KEY, ideal=ideal, nadir=None)


def test_nondominated_filter_collapses_duplicates() -> None:
    pts = nondominated_filter([_ov(0.5, 0.5), _ov(0.5, 0.5), _ov(0.2, 0.9)])
    assert [(p.f_alpha, p.f_beta) for p in pts] == [(0.2, 0.9), (0.5, 0.5)]


def _set_sort_loop_filter(points) -> tuple[ObjectiveVector, ...]:
    """The filter ``nondominated_filter`` replaced, kept as its oracle: a set
    of unique tuples, sorted, then a loop keeping each strictly lower
    ``f_beta``."""
    unique = sorted({(p.f_alpha, p.f_beta) for p in points})
    kept: list[ObjectiveVector] = []
    best_beta = math.inf
    for f_alpha, f_beta in unique:
        if f_beta < best_beta:
            kept.append(ObjectiveVector(f_alpha, f_beta))
            best_beta = f_beta
    return tuple(kept)


def _bits(points) -> list[bytes]:
    return [struct.pack("<dd", p.f_alpha, p.f_beta) for p in points]


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0])
_VALUE = st.one_of(_SPECIAL, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _point_lists(draw) -> list[ObjectiveVector]:
    """0-40 points whose coordinates often repeat a few drawn values, so
    equal-``f_alpha`` and equal-``f_beta`` ties and signed zeros are
    common, plus some exact duplicates of earlier points."""
    pool = draw(st.lists(_VALUE, min_size=1, max_size=6))
    coord = st.one_of(st.sampled_from(pool), _VALUE)
    points = draw(st.lists(st.builds(ObjectiveVector, coord, coord), max_size=35))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=5))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(_point_lists())
def test_nondominated_filter_equals_set_sort_loop(points) -> None:
    got = nondominated_filter(points)
    assert _bits(got) == _bits(_set_sort_loop_filter(points))
    # Each kept point is the input's own first-seen object among those equal
    # to it (0.0 == -0.0), never a copy.
    assert all(p is next(q for q in points if q == p) for p in got)


def test_merge_rejects_non_finite_points_naming_the_problem() -> None:
    # Before, (inf, 0.5) was kept and written to a file that reads back as
    # an error, and (0.2, nan) vanished without a word.
    for bad in (_ov(math.inf, 0.5), _ov(0.2, math.nan), _ov(-math.inf, 0.1)):
        with pytest.raises(ValueError, match="merge f1:2:1: non-finite objective value"):
            merge([[_ov(0.1, 0.9)], [bad, _ov(0.9, 0.1)]], **KEY, **UNIT_BOUNDS)


def test_compute_i_ref_anchors() -> None:
    nadir_only = merge([[_ov(1.0, 1.0)]], **KEY, **UNIT_BOUNDS)
    assert nadir_only.i_ref == 0.0

    ideal_only = merge([[_ov(0.0, 0.0)]], **KEY, **UNIT_BOUNDS)
    assert ideal_only.i_ref == -1.0


def test_i_ref_of_dense_double_sphere_front() -> None:
    # The normalized trade-off curve sqrt(u) + sqrt(v) = 1 leaves area
    # integral of (1 - sqrt(u))^2 du = 1/6 uncovered, so i_ref -> -5/6.
    n = 10_000
    pts = [_ov((k / n) ** 2, (1 - k / n) ** 2) for k in range(n + 1)]
    rs = merge([pts], **KEY, **UNIT_BOUNDS)
    assert rs.i_ref == pytest.approx(-5.0 / 6.0, abs=1e-3)


def test_version_canonical_and_sensitive() -> None:
    pts = [_ov(0.2, 0.8), _ov(0.8, 0.2)]
    v1 = version_of(nondominated_filter(pts))
    v2 = version_of(nondominated_filter(list(reversed(pts))))
    assert v1 == v2
    assert len(v1) == 16 and all(c in "0123456789abcdef" for c in v1)
    perturbed = [_ov(0.2, 0.8), _ov(0.8, 0.2 + 1e-15)]
    assert version_of(nondominated_filter(perturbed)) != v1
    assert version_of(nondominated_filter([_ov(0.2, 0.8)])) != v1


def test_version_of_equals_hash_of_joined_text() -> None:
    # version_of hashes line by line; the digest is that of the joined text.
    rng = random.Random(13)
    pts = [_ov(rng.uniform(-1e3, 1e3), rng.random()) for _ in range(3000)]
    pts += [_ov(-0.0, 5e-324), _ov(1e300, -2.5e-8)]
    joined = "\n".join(f"{p.f_alpha:.17g}\t{p.f_beta:.17g}" for p in pts)
    assert version_of(pts) == hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]
    assert version_of(iter(pts)) == version_of(pts)
    assert version_of([]) == hashlib.sha256(b"").hexdigest()[:16]


def test_reference_set_validation() -> None:
    with pytest.raises(ValueError, match="at least one point"):
        ReferenceSet(
            function_id="f1", instance_id=1, dimension=2, points=(),
            ideal=_ov(0, 0), nadir=_ov(1, 1), i_ref=0.0, version="x" * 16,
            bounds_estimated=False,
        )
    with pytest.raises(ValueError, match="non-dominated"):
        ReferenceSet(
            function_id="f1", instance_id=1, dimension=2,
            points=(_ov(0.2, 0.8), _ov(0.3, 0.9)),
            ideal=_ov(0, 0), nadir=_ov(1, 1), i_ref=0.0, version="x" * 16,
            bounds_estimated=False,
        )


def test_file_round_trip(tmp_path) -> None:
    rng = random.Random(21)
    pool = [_ov(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(40)]
    rs = merge([pool], function_id="f2", instance_id=3, dimension=5,
               ideal=_ov(0.0, 0.0), nadir=_ov(3.0, 3.0))
    path = refset_path(tmp_path, "f2", 5, 3)
    assert path.name == "f2_d5_i3.tsv"
    write_reference_set(rs, path)
    back = read_reference_set(path)
    assert back == rs  # bitwise: points, bounds, i_ref, version, flag


def test_read_rejects_tampered_point(tmp_path) -> None:
    rs = merge([[_ov(0.25, 0.75), _ov(0.75, 0.25)]], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    text = path.read_text()
    path.write_text(text.replace("0.75\t0.25", "0.75\t0.24"))
    with pytest.raises(ValueError, match="version"):
        read_reference_set(path)


def test_read_rejects_tampered_i_ref(tmp_path) -> None:
    rs = merge([[_ov(0.25, 0.75), _ov(0.75, 0.25)]], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    text = path.read_text()
    assert "i_ref=-0.3125" in text
    path.write_text(text.replace("i_ref=-0.3125", "i_ref=-0.3125000000000001"))
    with pytest.raises(ValueError, match="i_ref"):
        read_reference_set(path)


def test_read_rejects_missing_header(tmp_path) -> None:
    path = tmp_path / "rs.tsv"
    path.write_text("# function=f1 instance=1\n0.5\t0.5\n")
    with pytest.raises(ValueError, match="missing header keys"):
        read_reference_set(path)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("instance=1 ", "instance=one ", r"rs\.tsv:1: instance: invalid literal"),
        ("bounds=analytic", "bounds=guessed", r"rs\.tsv:2: bounds: expected analytic or estimated"),
        ("0.75\t0.25", "0.75\tinf", r"rs\.tsv:5: point: non-finite"),
        ("dimension=2", "dimension=0", r"rs\.tsv:2: dimension must be positive"),
        ("0.25\t0.75\n0.75\t0.25", "0.75\t0.25\n0.25\t0.75", r"rs\.tsv:2: reference points must"),
        ("instance=1 ", "instance=0 ", r"rs\.tsv:2: instance must be positive"),
    ],
    ids=["instance", "bounds", "non-finite", "dimension", "order", "instance-zero"],
)
def test_read_reports_bad_value_with_line(tmp_path, old, new, message) -> None:
    rs = merge([[_ov(0.25, 0.75), _ov(0.75, 0.25)]], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(LogParseError, match=message):
        read_reference_set(path)


def test_problem_spec_bridges_to_core() -> None:
    rs = merge([[_ov(0.25, 0.75), _ov(0.75, 0.25)]], **KEY, **UNIT_BOUNDS)
    spec = rs.problem_spec()
    assert spec.i_ref == rs.i_ref == -0.3125
    assert spec.refset_version == rs.version
    assert math.isfinite(spec.i_ref)
