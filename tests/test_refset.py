"""Reference-set tests: merge semantics, versioning, i_ref, file format."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct
import subprocess
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import point_columns, record_columns, whole_text_table
from hypothesis import example, given, reject, settings, strategies as st

from bibench import datalog, refset
from bibench.core import NormalizedObjectives, ObjectiveVector, RowError
from bibench.datalog import (
    INDEX_FILENAME,
    ExperimentWriter,
    LogParseError,
    LogVersionError,
    RunHeader,
    RunLog,
    read_experiment_index,
    read_log,
    write_lines,
    write_log,
)
from bibench.refset import (
    PointColumns,
    ReferenceSet,
    front,
    merge,
    nondominated_rows,
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
        [point_columns([_ov(0.2, 0.8)]), point_columns([_ov(0.8, 0.2), _ov(0.5, 0.5)])],
        **KEY, **UNIT_BOUNDS,
    )
    assert [(p.f_alpha, p.f_beta) for p in rs.points] == [
        (0.2, 0.8), (0.5, 0.5), (0.8, 0.2)
    ]
    assert not rs.bounds_estimated


def test_merge_drops_dominated_point() -> None:
    rs = merge([point_columns([_ov(0.2, 0.8)]), point_columns([_ov(0.3, 0.9)])],
               **KEY, **UNIT_BOUNDS)
    assert [(p.f_alpha, p.f_beta) for p in rs.points] == [(0.2, 0.8)]


def test_merge_equals_brute_force_filter(brute_force_filter) -> None:
    rng = random.Random(4)
    for _ in range(10):
        groups = [
            [_ov(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(rng.randint(1, 40))]
            for _ in range(rng.randint(1, 4))
        ]
        rs = merge([point_columns(g) for g in groups], **KEY, **UNIT_BOUNDS)
        pool = [p for g in groups for p in g]
        want = sorted({(p.u, p.v) for p in brute_force_filter(pool)})
        assert [(p.f_alpha, p.f_beta) for p in rs.points] == want


def test_merge_order_independent_and_idempotent() -> None:
    rng = random.Random(9)
    pool = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(60)]
    a = merge([point_columns(pool[:30]), point_columns(pool[30:])], **KEY, **UNIT_BOUNDS)
    b = merge([point_columns(pool[30:]), point_columns(pool[:30])], **KEY, **UNIT_BOUNDS)
    assert a == b
    assert merge([a.points, a.points], **KEY, **UNIT_BOUNDS) == a


def test_merge_superset_never_raises_i_ref() -> None:
    rng = random.Random(13)
    pool = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(50)]
    base = merge([point_columns(pool)], **KEY, **UNIT_BOUNDS)
    extra = [_ov(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(50)]
    grown = merge([base.points, point_columns(extra)], **KEY, **UNIT_BOUNDS)
    assert grown.i_ref <= base.i_ref


def test_merge_requires_points_and_key() -> None:
    with pytest.raises(ValueError, match="no points"):
        merge([point_columns([]), point_columns([])], **KEY, **UNIT_BOUNDS)
    with pytest.raises(TypeError, match="function_id"):
        merge([point_columns([_ov(0.5, 0.5)])], instance_id=1, dimension=2, **UNIT_BOUNDS)
    with pytest.raises(TypeError, match="ideal"):
        merge([point_columns([_ov(0.5, 0.5)])], **KEY, nadir=_ov(1.0, 1.0))


def test_merge_estimates_missing_bounds_from_front() -> None:
    ideal = _ov(2.0, 3.0)
    rs = merge([point_columns([_ov(2.0, 10.0), _ov(4.0, 3.0)])], **KEY, ideal=ideal, nadir=None)
    assert rs.bounds_estimated
    assert rs.ideal == ideal
    assert (rs.nadir.f_alpha, rs.nadir.f_beta) == (4.0, 10.0)
    # Both extremes sit on the bound lines, so the clipped area is 0.
    assert rs.i_ref == 0.0
    # An interior third point covers real area under the same estimation rule.
    rs3 = merge([point_columns([_ov(2.0, 10.0), _ov(3.0, 4.0), _ov(4.0, 3.0)])],
                **KEY, ideal=ideal, nadir=None)
    assert rs3.bounds_estimated and rs3.i_ref < 0.0


def test_merge_rejects_degenerate_estimated_bounds() -> None:
    # A single point is its own estimated nadir, which an explicit ideal on
    # either of its bound lines cannot lie strictly below.
    for ideal in (_ov(1.0, 0.0), _ov(0.0, 2.0)):
        with pytest.raises(ValueError, match=r"merge f1:2:1: ideal must be strictly below nadir"):
            merge([point_columns([_ov(1.0, 2.0)])], **KEY, ideal=ideal, nadir=None)


def test_merge_collapses_duplicates() -> None:
    rs = merge([point_columns([_ov(0.5, 0.5), _ov(0.5, 0.5), _ov(0.2, 0.9)])],
               **KEY, **UNIT_BOUNDS)
    assert [(p.f_alpha, p.f_beta) for p in rs.points] == [(0.2, 0.9), (0.5, 0.5)]


def _set_sort_loop_filter(points) -> tuple[ObjectiveVector, ...]:
    """The filter ``nondominated_rows`` replaced, kept as its oracle: a set
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
def test_nondominated_rows_equals_set_sort_loop(points) -> None:
    alpha = np.array([p.f_alpha for p in points], dtype=float)
    beta = np.array([p.f_beta for p in points], dtype=float)
    rows = nondominated_rows(alpha, beta).tolist()
    assert _bits(points[i] for i in rows) == _bits(_set_sort_loop_filter(points))
    # Each kept row is the first seen of the points equal to it (0.0 == -0.0).
    assert all(i == next(j for j, q in enumerate(points) if q == points[i]) for i in rows)


@settings(max_examples=100, deadline=None)
@given(_point_lists(), st.integers(min_value=0, max_value=40))
def test_front_of_one_set_or_of_its_parts_is_one_filter(points, cut) -> None:
    # One path for every call: a lone PointColumns set is copied and
    # filtered like a union, so the front never shares memory with a set.
    whole = point_columns(points)
    fronts = [front([whole]), front([point_columns(points[:cut]), point_columns(points[cut:])])]
    assert [_bits(f) for f in fronts] == [_bits(_set_sort_loop_filter(points))] * 2
    assert not any(np.shares_memory(f.f_alpha, whole.f_alpha) for f in fronts)
    assert len(front([])) == 0


def test_merge_rejects_non_finite_points_naming_the_problem() -> None:
    # Before, (inf, 0.5) was kept and written to a file that reads back as
    # an error, and (0.2, nan) vanished without a word.
    for bad in (_ov(math.inf, 0.5), _ov(0.2, math.nan), _ov(-math.inf, 0.1)):
        with pytest.raises(ValueError, match="merge f1:2:1: non-finite objective value"):
            merge([point_columns([_ov(0.1, 0.9)]), point_columns([bad, _ov(0.9, 0.1)])],
                  **KEY, **UNIT_BOUNDS)


@pytest.mark.parametrize("function_id", ["f 1", "f\t1"], ids=["space", "tab"])
def test_merge_refuses_a_function_id_holding_whitespace(function_id) -> None:
    # The "#" header is split on whitespace: "f 1" was written and read back
    # as function "f".
    key = {**KEY, "function_id": function_id}
    with pytest.raises(
        ValueError, match=f"^merge {function_id}:2:1: function_id must hold no whitespace, got "
    ):
        merge([point_columns([_ov(0.5, 0.5)])], **key, **UNIT_BOUNDS)


def test_compute_i_ref_anchors() -> None:
    nadir_only = merge([point_columns([_ov(1.0, 1.0)])], **KEY, **UNIT_BOUNDS)
    assert nadir_only.i_ref == 0.0

    ideal_only = merge([point_columns([_ov(0.0, 0.0)])], **KEY, **UNIT_BOUNDS)
    assert ideal_only.i_ref == -1.0


def test_i_ref_of_dense_double_sphere_front() -> None:
    # The normalized trade-off curve sqrt(u) + sqrt(v) = 1 leaves area
    # integral of (1 - sqrt(u))^2 du = 1/6 uncovered, so i_ref -> -5/6.
    n = 10_000
    pts = [_ov((k / n) ** 2, (1 - k / n) ** 2) for k in range(n + 1)]
    rs = merge([point_columns(pts)], **KEY, **UNIT_BOUNDS)
    assert rs.i_ref == pytest.approx(-5.0 / 6.0, abs=1e-3)


def test_version_canonical_and_sensitive() -> None:
    def front(pts):
        return merge([point_columns(pts)], **KEY, **UNIT_BOUNDS).points

    pts = [_ov(0.2, 0.8), _ov(0.8, 0.2)]
    v1 = version_of(front(pts))
    v2 = version_of(front(list(reversed(pts))))
    assert v1 == v2
    assert len(v1) == 16 and all(c in "0123456789abcdef" for c in v1)
    perturbed = [_ov(0.2, 0.8), _ov(0.8, 0.2 + 1e-15)]
    assert version_of(front(perturbed)) != v1
    assert version_of(front([_ov(0.2, 0.8)])) != v1


def test_version_of_equals_hash_of_joined_text() -> None:
    # version_of hashes line by line; the digest is that of the joined text.
    rng = random.Random(13)
    pts = [_ov(rng.uniform(-1e3, 1e3), rng.random()) for _ in range(3000)]
    pts += [_ov(-0.0, 5e-324), _ov(1e300, -2.5e-8)]
    joined = "\n".join(f"{p.f_alpha:.17g}\t{p.f_beta:.17g}" for p in pts)
    digest = hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]
    assert version_of(point_columns(pts)) == digest
    assert version_of(point_columns()) == hashlib.sha256(b"").hexdigest()[:16]


def test_reference_set_validation() -> None:
    with pytest.raises(ValueError, match="at least one point"):
        ReferenceSet(
            function_id="f1", instance_id=1, dimension=2, points=point_columns(),
            ideal=_ov(0, 0), nadir=_ov(1, 1), bounds_estimated=False,
        )
    with pytest.raises(ValueError, match="non-dominated"):
        ReferenceSet(
            function_id="f1", instance_id=1, dimension=2,
            points=point_columns([_ov(0.2, 0.8), _ov(0.3, 0.9)]),
            ideal=_ov(0, 0), nadir=_ov(1, 1), bounds_estimated=False,
        )


_POINTS = ((0.25, 0.75), (0.5, 0.5), (0.75, 0.25))
# The row replaced, and its new point, tied with the row before it.
_TIED = {
    "f_alpha": (1, (0.25, 0.5)),  # the new point dominates the one before it
    "f_beta": (2, (0.75, 0.5)),  # the point before dominates the new one
}


@pytest.mark.parametrize("tied", sorted(_TIED))
def test_reference_set_refuses_neighbours_tied_in_one_objective(tied) -> None:
    """Points tied in one objective are not mutually non-dominated: the
    ordering check is strict on both sides."""
    row, point = _TIED[tied]
    points = [point if k == row else p for k, p in enumerate(_POINTS)]
    with pytest.raises(RowError, match="mutually non-dominated") as info:
        ReferenceSet(**KEY, points=point_columns([_ov(*p) for p in points]), **UNIT_BOUNDS,
                     bounds_estimated=False)
    assert info.value.row == row


@pytest.mark.parametrize("tied", sorted(_TIED))
def test_read_refuses_neighbours_tied_in_one_objective_at_the_second_line(
    tmp_path, tied
) -> None:
    row, point = _TIED[tied]
    rs = merge([point_columns([_ov(*p) for p in _POINTS])], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    old, new = ("%r\t%r" % p for p in (_POINTS[row], point))
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    # Points start on line 12, after the format line and ten header keys.
    with pytest.raises(LogParseError, match=rf"rs\.tsv:{12 + row}: reference points must be "
                                            "mutually non-dominated"):
        read_reference_set(path)


def test_file_round_trip(tmp_path) -> None:
    rng = random.Random(21)
    pool = [_ov(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(40)]
    rs = merge([point_columns(pool)], function_id="f2", instance_id=3, dimension=5,
               ideal=_ov(0.0, 0.0), nadir=_ov(3.0, 3.0))
    path = refset_path(tmp_path, "f2", 5, 3)
    assert path.name == "f2_d5_i3.tsv"
    write_reference_set(rs, path)
    back = read_reference_set(path)
    assert back == rs  # bitwise: points, bounds, i_ref, version, flag


def test_read_rejects_tampered_point(tmp_path) -> None:
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    text = path.read_text()
    path.write_text(text.replace("0.75\t0.25", "0.75\t0.24"))
    with pytest.raises(ValueError, match="version"):
        read_reference_set(path)


def test_read_rejects_tampered_i_ref(tmp_path) -> None:
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    text = path.read_text()
    assert "i_ref=-0.3125" in text
    path.write_text(text.replace("i_ref=-0.3125", "i_ref=-0.3125000000000001"))
    with pytest.raises(ValueError, match="i_ref"):
        read_reference_set(path)


def test_read_rejects_missing_header(tmp_path) -> None:
    path = tmp_path / "rs.tsv"
    path.write_text("% format=refset-v2\n% function=f1\n% instance=1\n0.5\t0.5\n")
    with pytest.raises(ValueError, match=r"rs\.tsv:4: missing header keys: dimension, version, "):
        read_reference_set(path)


def test_a_set_in_the_old_layout_is_refused(tmp_path) -> None:
    # "#" header lines of space-separated keys, without a format line: README
    # gives the one-line conversion to refset-v2.
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    old = dict(**KEY, points=list(rs.points), ideal=rs.ideal, nadir=rs.nadir, i_ref=rs.i_ref,
               version=rs.version, bounds_estimated=False)
    _old_write_reference_set(old, tmp_path / "rs.tsv")
    with pytest.raises(LogVersionError, match=r"rs\.tsv: missing format declaration on line 1$"):
        read_reference_set(tmp_path / "rs.tsv")


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("instance=1\n", "instance=one\n", r"rs\.tsv:3: instance: invalid literal"),
        ("bounds=analytic", "bounds=guessed", r"rs\.tsv:11: bounds: expected analytic or estimated"),
        ("0.75\t0.25", "0.75\tinf", r"rs\.tsv:13: non-finite reference point$"),
        # A value ProblemSpec refuses is named at the last header line.
        ("dimension=2", "dimension=0", r"rs\.tsv:11: dimension must be positive"),
        ("0.25\t0.75\n0.75\t0.25", "0.75\t0.25\n0.25\t0.75", r"rs\.tsv:13: reference points must"),
        ("instance=1\n", "instance=0\n", r"rs\.tsv:11: instance must be positive"),
        # Before, a "#" note among the points was skipped; a "%" line there is refused.
        ("0.75\t0.25", "% note\n0.75\tinf", r"rs\.tsv:13: header line after the first row$"),
        ("0.25\t0.75\n0.75\t0.25", "0.75\t0.25\n% note\n0.25\t0.75",
         r"rs\.tsv:13: header line after the first row$"),
    ],
    ids=["instance", "bounds", "non-finite", "dimension", "order", "instance-zero",
         "non-finite-after-a-note", "order-after-a-note"],
)
def test_read_reports_bad_value_with_line(tmp_path, old, new, message) -> None:
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(LogParseError, match=message):
        read_reference_set(path)


def test_problem_spec_bridges_to_core() -> None:
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    spec = rs.problem_spec()
    assert spec.i_ref == rs.i_ref == -0.3125
    assert spec.refset_version == rs.version
    assert math.isfinite(spec.i_ref)


def test_reference_set_rejects_non_finite_point() -> None:
    # Before, such a set was accepted and written, and its file did not read
    # back (":4: point: non-finite value").
    for bad in (_ov(math.nan, 0.5), _ov(0.5, math.inf), _ov(-math.inf, -math.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            ReferenceSet(
                function_id="f1", instance_id=1, dimension=2, points=point_columns([bad]),
                ideal=_ov(0, 0), nadir=_ov(1, 1), bounds_estimated=False,
            )


def test_points_are_a_read_only_sequence_view() -> None:
    pts = (_ov(0.2, 0.8), _ov(0.5, 0.5), _ov(0.8, 0.2))
    rs = merge([point_columns(pts)], **KEY, **UNIT_BOUNDS)
    assert isinstance(rs.points, PointColumns)
    assert len(rs.points) == 3
    assert tuple(rs.points) == pts and rs.points == point_columns(pts)
    with pytest.raises(ValueError):
        rs.points.f_alpha[0] = 0.0
    # Equal columns make equal sets; -0.0 equals 0.0.
    made = replace(rs, points=point_columns(pts))
    assert made == rs and isinstance(made.points, PointColumns)
    assert PointColumns([0.0], [1.0]) == PointColumns([-0.0], [1.0])
    assert PointColumns([0.0], [1.0]) != PointColumns([0.0, 1.0], [1.0, 0.0])


def test_sets_of_points_are_point_columns_only() -> None:
    points = [_ov(0.25, 0.75), _ov(0.75, 0.25)]
    with pytest.raises(TypeError, match="^points must be PointColumns, got tuple$"):
        ReferenceSet(**KEY, points=tuple(points), **UNIT_BOUNDS, bounds_estimated=False)
    with pytest.raises(TypeError, match="^each set must be PointColumns, got list$"):
        merge([points], **KEY, **UNIT_BOUNDS)
    with pytest.raises(TypeError, match="^each set must be PointColumns, got RecordColumns$"):
        front([point_columns(points), record_columns([(1, 0.5, 0.5)])])
    with pytest.raises(TypeError, match="^points must be PointColumns, got generator$"):
        version_of(p for p in points)


@pytest.mark.parametrize("seed", [1, 2])
def test_line_chunks_match_one_f_string_per_value(seed) -> None:
    """Lines formatted one block of points per ``%`` operation are those of
    one ``f"{v:.17g}"`` per value: on random finite bit patterns, on values of
    a reference set's usual range, and on zeros, subnormals and the largest
    doubles.  200 000 points span many blocks and end in a partial one."""
    rng = np.random.default_rng(seed)
    patterns = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 1e16, 1e17]
    alpha = np.concatenate([edges, rng.uniform(0.0, 1000.0, 10_000),
                            patterns[np.isfinite(patterns)]])
    beta = alpha[::-1]
    got = "\n".join(refset._line_chunks(PointColumns(alpha, beta))).split("\n")
    assert got == [f"{a:.17g}\t{b:.17g}" for a, b in zip(alpha.tolist(), beta.tolist())]


# -- the object path this module replaced, kept as the columns' oracle --------


def _old_line(p: ObjectiveVector) -> str:
    return f"{p.f_alpha:.17g}\t{p.f_beta:.17g}"


def _old_version_of(points) -> str:
    digest = hashlib.sha256()
    separator = ""
    for p in points:
        digest.update(f"{separator}{_old_line(p)}".encode("ascii"))
        separator = "\n"
    return digest.hexdigest()[:16]


def _old_staircase_hypervolume(points) -> float:
    uv = np.fromiter(((p.u, p.v) for p in points), dtype=np.dtype((float, 2)))
    uv = np.where(uv > 0.0, uv, 0.0)
    uv = uv[(uv[:, 0] < 1.0) & (uv[:, 1] < 1.0)]
    u, v = uv[:, 0], uv[:, 1]
    order = np.lexsort((-v, u))
    u, v = u[order], v[order]
    prev = np.minimum.accumulate(np.concatenate(([1.0], v)))[:-1]
    keep = v < prev
    return math.fsum(((1.0 - u[keep]) * (prev[keep] - v[keep])).tolist())


def _old_i_ref_from(points, ideal, nadir) -> float:
    span_alpha = nadir.f_alpha - ideal.f_alpha
    span_beta = nadir.f_beta - ideal.f_beta
    hv = _old_staircase_hypervolume(
        NormalizedObjectives(
            (p.f_alpha - ideal.f_alpha) / span_alpha,
            (p.f_beta - ideal.f_beta) / span_beta,
        )
        for p in points
    )
    if hv >= 1.0:
        return -1.0
    return -hv if hv > 0.0 else 0.0


def _old_nondominated_filter(points) -> tuple[ObjectiveVector, ...]:
    points = list(points)
    alpha = np.fromiter((p.f_alpha for p in points), float, len(points))
    beta = np.fromiter((p.f_beta for p in points), float, len(points))
    return tuple(points[i] for i in nondominated_rows(alpha, beta).tolist())


def _old_merge(sets, *, function_id, instance_id, dimension, ideal, nadir=None) -> dict:
    """The object-path ``merge`` the columns replaced, returning the fields
    it set."""
    key = f"{function_id}:{dimension}:{instance_id}"
    try:
        front = _old_nondominated_filter(p for s in sets for p in s)
    except ValueError as exc:
        raise ValueError(f"merge {key}: {exc}") from None
    if not front:
        raise ValueError("merge: no points supplied")
    estimated = nadir is None
    if estimated:
        nadir = ObjectiveVector(front[-1].f_alpha, front[0].f_beta)
    if not (ideal.f_alpha < nadir.f_alpha and ideal.f_beta < nadir.f_beta):
        coord = "f_alpha" if not ideal.f_alpha < nadir.f_alpha else "f_beta"
        raise ValueError(
            f"merge {key}: ideal must be strictly below nadir in {coord}: "
            f"{getattr(ideal, coord)} !< {getattr(nadir, coord)}"
        )
    return dict(
        function_id=function_id, instance_id=instance_id, dimension=dimension,
        points=front, ideal=ideal, nadir=nadir, i_ref=_old_i_ref_from(front, ideal, nadir),
        version=_old_version_of(front), bounds_estimated=estimated,
    )


def _old_write_reference_set(rs: dict, path) -> None:
    """The writer of the layout before ``refset-v2``: two ``#`` lines of
    space-separated keys and a note on clipping, then the points."""
    bounds = "estimated" if rs["bounds_estimated"] else "analytic"
    ideal, nadir = rs["ideal"], rs["nadir"]
    header = (
        f"# function={rs['function_id']} instance={rs['instance_id']} "
        f"dimension={rs['dimension']} version={rs['version']} i_ref={rs['i_ref']:.17g}",
        f"# ideal_alpha={ideal.f_alpha:.17g} ideal_beta={ideal.f_beta:.17g} "
        f"nadir_alpha={nadir.f_alpha:.17g} nadir_beta={nadir.f_beta:.17g} "
        f"bounds={bounds}",
        "# clipping: hypervolume counts the ROI box only; negative normalized "
        "coordinates are clamped to 0",
    )
    write_lines(path, itertools.chain(header, map(_old_line, rs["points"])))


def _readme_conversion(path) -> bytes:
    """The bytes README's one-line ``awk`` conversion gives for the old-layout
    set at ``path``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    line = next(line for line in readme.splitlines()
                if line.startswith("awk '") and "refset-v2" in line)
    return subprocess.run(["awk", line.split("'")[1], str(path)], capture_output=True,
                          check=True).stdout


def _finite_neighbours(values) -> list[float]:
    """``values`` and their 1-ULP neighbours, the finite ones."""
    near = [y for x in values for y in (x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))]
    return [x for x in near if math.isfinite(x)]


@st.composite
def _merge_inputs(draw):
    """1-3 point sets over a few drawn values, their 1-ULP neighbours, signed
    zeros and 5e-324, so equal-``f_alpha`` ties, exact duplicates and
    near-ties are common; plus bounds, the nadir analytic or estimated."""
    base = draw(st.lists(st.one_of(_SPECIAL, st.floats(-0.5, 2.0)), min_size=1, max_size=4))
    coord = st.one_of(st.sampled_from(_finite_neighbours(base)), _VALUE)
    points = draw(st.lists(st.builds(ObjectiveVector, coord, coord), min_size=1, max_size=40))
    points += draw(st.lists(st.sampled_from(points), max_size=5))
    points = draw(st.permutations(points))
    cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=2)))
    sets = [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]
    ideal = draw(st.sampled_from([_ov(0.0, 0.0), _ov(-1e-3, -2.0), _ov(-0.0, 5e-324)]))
    nadir = draw(st.sampled_from([None, _ov(1.0, 1.0), _ov(0.5, 2.0)]))
    return sets, ideal, nadir


@settings(max_examples=300, deadline=None)
@given(_merge_inputs())
@example(([[_ov(0.25, 0.5)]], _ov(0.0, 0.0), None))
@example(([[_ov(0.25, 0.5)]], _ov(0.0, 0.0), _ov(1.0, 1.0)))
@example(([[_ov(0.0, 0.5), _ov(-0.0, 0.5), _ov(0.0, 0.25)]], _ov(-1e-3, -2.0), None))
def test_columns_equal_the_object_path(tmp_path_factory, inputs) -> None:
    sets, ideal, nadir = inputs
    bounds = dict(function_id="f2", instance_id=3, dimension=5, ideal=ideal, nadir=nadir)
    columns = [point_columns(s) for s in sets]
    try:
        old = _old_merge(sets, **bounds)
    except ValueError as exc:
        with pytest.raises(ValueError) as new_exc:
            merge(columns, **bounds)
        assert str(new_exc.value) == str(exc)
        return
    directory = tmp_path_factory.mktemp("oracle")
    _old_write_reference_set(old, directory / "old.tsv")
    rs = merge(columns, **bounds)
    assert _bits(rs.points) == _bits(old["points"])
    # vars(rs) holds the version only once it is read, so it is read here.
    assert {**{k: v for k, v in vars(rs).items() if k != "points"}, "version": rs.version} == {
        k: v for k, v in old.items() if k != "points"
    }
    assert rs.i_ref.hex() == old["i_ref"].hex()
    path = write_reference_set(rs, directory / "new.tsv")
    assert path.read_bytes() == _readme_conversion(directory / "old.tsv")
    assert read_reference_set(path) == rs


@settings(max_examples=300, deadline=None)
@given(_merge_inputs())
def test_every_merged_set_reads_back_equal(tmp_path_factory, inputs) -> None:
    sets, ideal, nadir = inputs
    try:
        rs = merge([point_columns(s) for s in sets], **KEY, ideal=ideal, nadir=nadir)
    except ValueError:
        reject()
    back = read_reference_set(write_reference_set(rs, tmp_path_factory.mktemp("back") / "rs.tsv"))
    assert back == rs
    assert back.i_ref.hex() == rs.i_ref.hex() and back.version == rs.version


def test_reference_set_derives_i_ref_and_version(tmp_path) -> None:
    pts = (_ov(0.25, 0.75), _ov(0.75, 0.25))
    made = dict(**KEY, points=point_columns(pts), **UNIT_BOUNDS, bounds_estimated=False)
    rs = ReferenceSet(**made)
    assert (rs.i_ref, rs.version) == (-0.3125, version_of(point_columns(pts)))
    for name, value in (("i_ref", -0.9), ("version", "x" * 16)):
        with pytest.raises(TypeError, match=name):
            ReferenceSet(**made, **{name: value})
    # Before, a hand-built set could carry any i_ref and version, and its
    # file did not read back.
    assert read_reference_set(write_reference_set(rs, tmp_path / "rs.tsv")) == rs


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("version=eaef2d0a33d4bbd3", "version=0000000000000000",
         r"rs\.tsv:5: stored version 0000000000000000 does not match point content eaef2d0a33d4bbd3$"),
        ("i_ref=-0.3125", "i_ref=-0.3125000000000001",
         r"rs\.tsv:6: stored i_ref -0\.3125000000000001 does not match recomputation -0\.3125$"),
        # Before, an i_ref outside [-1, 0] failed at the last header line.
        ("i_ref=-0.3125", "i_ref=0.5",
         r"rs\.tsv:6: stored i_ref 0\.5 does not match recomputation -0\.3125$"),
    ],
    ids=["version", "i_ref", "i_ref-out-of-range"],
)
def test_stored_version_and_i_ref_fail_at_their_own_lines(tmp_path, old, new, message) -> None:
    rs = merge([point_columns([_ov(0.25, 0.75), _ov(0.75, 0.25)])], **KEY, **UNIT_BOUNDS)
    path = write_reference_set(rs, tmp_path / "rs.tsv")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(LogParseError, match=message):
        read_reference_set(path)


def _strict_set(n: int) -> ReferenceSet:
    """A set of ``n`` points with full 17-digit values, ascending ``f_alpha``."""
    rng = np.random.default_rng(n)
    alpha = np.cumsum(rng.uniform(1e-3, 1.0, n))
    beta = np.cumsum(rng.uniform(1e-3, 1.0, n))[::-1].copy()
    return ReferenceSet(**KEY, points=PointColumns(alpha, beta), ideal=_ov(0.0, 0.0),
                        nadir=_ov(float(alpha[-1]) + 1.0, float(beta[0]) + 1.0),
                        bounds_estimated=False)


@pytest.mark.parametrize("read", ["before", "after"])
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1024, 1025])
def test_one_pass_writer_equals_the_old_writer_across_blocks(tmp_path, n, read) -> None:
    """The writer formats and hashes each point once, 512 points a block;
    sets ending on either side of a block boundary are written byte for byte
    as README's conversion turns the object path's file into, and the version
    it fills in is the set's whether ``rs.version`` was read before the write
    or only after it."""
    rs = _strict_set(n)
    if read == "before":
        assert len(rs.version) == 16
    else:
        assert "version" not in vars(rs)
    points = list(rs.points)
    old = dict(**KEY, points=points, ideal=rs.ideal, nadir=rs.nadir, i_ref=rs.i_ref,
               version=_old_version_of(points), bounds_estimated=False)
    _old_write_reference_set(old, tmp_path / "old.tsv")
    path = write_reference_set(rs, tmp_path / "new.tsv")
    assert path.read_bytes() == _readme_conversion(tmp_path / "old.tsv")
    stored = path.read_text().split("% version=")[1].split("\n")[0]
    assert stored == version_of(rs.points) == rs.version == old["version"]
    assert read_reference_set(path) == rs


@pytest.mark.parametrize("existing", [True, False], ids=["over-old-file", "into-new-dirs"])
def test_a_reference_set_write_failing_part_way_leaves_the_old_file(
    tmp_path, monkeypatch, existing
) -> None:
    rs = _strict_set(1025)  # three blocks: the failure comes after the first is written
    path = tmp_path / "rs.tsv" if existing else tmp_path / "new" / "deeper" / "rs.tsv"
    if existing:
        path.write_bytes(b"old\n")
    blocks = refset._line_chunks

    def failing(points):
        yield next(blocks(points))
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(refset, "_line_chunks", failing)
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_reference_set(rs, path)
    if existing:
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rs.tsv"]
    else:
        assert list(tmp_path.iterdir()) == []


# -- the reader: columns, line numbers and memory ------------------------------


def _old_read_reference_set(path) -> ReferenceSet:
    """The whole-text reader the streaming one replaced, kept as its oracle:
    every line parsed on its own, then the line of the first point
    ``ReferenceSet`` refuses named from a line number kept per point."""
    return whole_text_table(path, refset.REFSET_FORMAT, "dd", refset._HEADER,
                            refset._reference_set)


def _outcome(reader, path):
    try:
        return reader(path)
    except (LogParseError, ValueError) as exc:
        return type(exc), str(exc)


# Line ends and separators that split lines differently in bytes and in
# text, blank space, a comment, and bytes that are not ASCII.
_SPLICES = st.sampled_from(
    ["\r\n", "\r", "\n", "\n\n", "\x0b", "\x0c", "\x1c", "\x85", " ", "\t", "\n   \n",
     "\n# note\n", "\n% note\n", "\n% k=v\n", "#", "%", "é", "\xff", "0.5\t0.5\n", "x"]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_equals_whole_text_reader(tmp_path_factory, data) -> None:
    rs = merge(
        [point_columns([_ov(k / 8, 1 - k / 8) for k in range(9)])], **KEY, **UNIT_BOUNDS
    )
    directory = tmp_path_factory.mktemp("parity")
    text = write_reference_set(rs, directory / "rs.tsv").read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        splice = data.draw(_SPLICES).encode("latin-1")
        text = text[:at] + splice + text[at:]
    if data.draw(st.booleans()):
        text = text.replace(b"\n", b"\r\n")
    path = directory / "mangled.tsv"
    path.write_bytes(text)
    assert _outcome(read_reference_set, path) == _outcome(_old_read_reference_set, path)


def _written_by_each_writer(directory) -> dict:
    """A run log, an experiment index and a reference set, each as its
    writer produces it, keyed by its reader."""
    header = RunHeader(
        function_id="f1", instance_id=1, dimension=2, ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(2.0, 2.0), i_ref=-0.4, refset_version="ab12cd34ef56ab78",
        algorithm="random", budget=100,
    )
    records = record_columns(
        (t, 2.0 - k * 0.3, 0.2 + k * 0.3) for k, t in enumerate((1, 4, 9, 30, 31))
    )
    with ExperimentWriter(directory / "exp") as writer:
        for i in (1, 2, 3):
            writer.write(RunLog(replace(header, instance_id=i), records))
    rs = merge([point_columns([_ov(k / 8, 1 - k / 8) for k in range(9)])],
               **KEY, **UNIT_BOUNDS)
    return {
        read_log: directory / "exp" / "random" / "f1_d2_i1.tsv",
        read_experiment_index: directory / "exp" / "random" / INDEX_FILENAME,
        read_reference_set: write_reference_set(rs, directory / "rs.tsv"),
    }


def _whole_text_numbered_batches(path):
    """``datalog.numbered_batches`` as the whole text's lines in one batch from
    line 1, after the same non-ASCII check, kept as its oracle."""
    path = Path(path)
    data = path.read_bytes()
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").decode("ascii").splitlines())
        raise LogParseError(path, line, "non-ASCII byte") from None
    yield from [(1, lines)] if lines else []


@settings(max_examples=300, deadline=None)
@given(
    reader=st.sampled_from([read_log, read_experiment_index, read_reference_set]),
    chunk=st.sampled_from([1, 2, 3, 5, 16, 1 << 16]),
    data=st.data(),
)
def test_every_reader_equals_its_one_batch_twin(tmp_path_factory, reader, chunk, data) -> None:
    # The readers take their lines from numbered_batches, so its twin here is
    # one batch of the whole text: small read chunks then put batch edges,
    # "\r\n" pairs and non-ASCII bytes where a streamed reader could go wrong.
    directory = tmp_path_factory.mktemp("batches")
    text = _written_by_each_writer(directory)[reader].read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(_SPLICES).encode("latin-1") + text[at:]
    if data.draw(st.booleans()):
        text = text.replace(b"\n", b"\r\n")
    path = directory / "exp" / "random" / "mangled.tsv"
    path.write_bytes(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datalog, "_READ_CHUNK", chunk)
        streamed = _outcome(reader, path)
        patch.setattr(datalog, "numbered_batches", _whole_text_numbered_batches)
        assert streamed == _outcome(reader, path)


@pytest.mark.parametrize(
    ("reader", "after", "line", "message"),
    [
        (read_log, 12, "% budget=5", "header key budget repeats line 12"),
        (read_log, 12, "% function=f2", "header key function repeats line 2"),
        (read_reference_set, 11, "% dimension=3", "header key dimension repeats line 4"),
    ],
    ids=["log-budget", "log-function", "refset-dimension"],
)
def test_a_header_key_given_twice_is_refused(tmp_path, reader, after, line, message) -> None:
    # Before, the last value won: the log read as budget 5 or function f2,
    # and the set as dimension 3.
    path = _written_by_each_writer(tmp_path)[reader]
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:after], line, *lines[after:]]) + "\n")
    with pytest.raises(LogParseError, match=rf"{path.name}:{after + 1}: {message}$"):
        reader(path)


@pytest.mark.parametrize("reader", [read_log, read_reference_set, read_experiment_index])
def test_every_table_follows_one_rule_set(tmp_path, reader) -> None:
    # Before, a reference set allowed "#" header lines among its points and
    # named a missing key at its last point, and an index skipped "%" lines
    # anywhere and took a key given twice.
    path = _written_by_each_writer(tmp_path)[reader]
    lines = path.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if not line.startswith("%"))  # first row
    key = lines[first - 1][2:].partition("=")[0]  # the last header key, on line `first`

    def refused(edited: list[str], line: int, message: str) -> None:
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(LogParseError, match=rf"{path.name}:{line}: {message}$"):
            reader(path)

    refused([*lines[:first + 1], "% note=late", *lines[first + 1:]], first + 2,
            "header line after the first row")
    refused([*lines[:first], lines[first - 1], *lines[first:]], first + 1,
            f"header key {key} repeats line {first}")
    refused([lines[0], "% format=other", *lines[1:]], 2, "header key format repeats line 1")
    if reader is not read_experiment_index:  # an index requires no key
        refused([*lines[:first - 1], *lines[first:]], first, f"missing header keys: {key}")
        refused(lines[:first - 1], first - 1, f"missing header keys: {key}")


def _numbered_file(tmp_path, n: int) -> tuple[ReferenceSet, "Path"]:
    rs = merge([PointColumns(np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n))],
               **KEY, **UNIT_BOUNDS)
    return rs, write_reference_set(rs, tmp_path / "rs.tsv")


def test_non_ascii_byte_on_a_deep_line_names_that_line(tmp_path) -> None:
    _, path = _numbered_file(tmp_path, 10_000)
    lines = path.read_bytes().split(b"\n")
    lines[8999] = lines[8999].replace(b"\t", "\té".encode("utf-8"))
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(LogParseError, match=r"rs\.tsv:9000: non-ASCII byte"):
        read_reference_set(path)
    # A bad point before it does not hide it: the whole file is decoded first.
    lines[100] = b"0.5"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(LogParseError, match=r"rs\.tsv:9000: non-ASCII byte"):
        read_reference_set(path)


def _long_files(directory) -> dict:
    """``_written_by_each_writer``'s files, with the run log rewritten to 2 000
    records and the reference set to 3 000 points, each longer than ``_READ_CHUNK``."""
    files = _written_by_each_writer(directory)
    header = replace(read_log(files[read_log]).header, budget=2000)
    records = record_columns((t, 2.0 - t / 1000, t / 1000) for t in range(1, 2001))
    write_log(RunLog(header, records), files[read_log])
    points = PointColumns(np.linspace(0.0, 1.0, 3000), np.linspace(1.0, 0.0, 3000))
    write_reference_set(merge([points], **KEY, **UNIT_BOUNDS), files[read_reference_set])
    return files


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r", b"\x0c"], ids=["lf", "crlf", "cr", "ff"])
@pytest.mark.parametrize("reader", [read_log, read_reference_set, read_experiment_index])
def test_non_ascii_byte_is_named_at_its_line_for_every_line_end(
    tmp_path, monkeypatch, reader, end
) -> None:
    # The non-ASCII scan once counted "\n" bytes, so with "\r" or "\f" ends
    # a byte on any line was named at line 1.
    if reader is read_experiment_index:  # a few lines: a small chunk puts some past it
        monkeypatch.setattr(datalog, "_READ_CHUNK", 64)
    path = _long_files(tmp_path)[reader]
    lines = path.read_bytes().split(b"\n")[:-1]
    deep = len(lines) - 1  # line 2 starts in the first chunk, the last line past it
    starts = list(itertools.accumulate((len(line) + len(end) for line in lines), initial=0))
    assert starts[1] < datalog._READ_CHUNK < starts[deep]
    row = next(k for k, line in enumerate(lines) if not line.startswith((b"%", b"#")))
    for k, bad in [(0, None), (1, None), (deep, None), (deep, row)]:
        mangled = [b"\xe9" + line if j == k else b"bad" if j == bad else line
                   for j, line in enumerate(lines)]
        path.write_bytes(end.join(mangled) + end)
        with pytest.raises(LogParseError, match=rf"{path.name}:{k + 1}: non-ASCII byte$"):
            reader(path)


def test_crlf_file_reads_equal_to_its_lf_twin(tmp_path) -> None:
    rs, path = _numbered_file(tmp_path, 500)
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_reference_set(crlf) == read_reference_set(path) == rs


def test_blank_and_header_lines_keep_their_meaning(tmp_path) -> None:
    rs, path = _numbered_file(tmp_path, 5)
    lines = path.read_text().splitlines()
    header, points = lines[:11], lines[11:]
    # Blank lines are skipped, header keys may come in any order after the
    # format line, and a "%" line without a key is a comment.
    moved = tmp_path / "moved.tsv"
    moved.write_text("\n".join(
        [header[0], "", header[4], "  ", "% just a note", *header[1:4], *header[5:], "",
         *points[:2], "\t", *points[2:], ""]
    ))
    assert read_reference_set(moved) == rs
    # Before, header lines could also follow points; now one is refused there,
    # and a key that only comes after them is missing at the first point.
    late = tmp_path / "late.tsv"
    late.write_text("\n".join([*header, *points[:2], "% note=late", *points[2:]]) + "\n")
    with pytest.raises(LogParseError, match=r"late\.tsv:14: header line after the first row$"):
        read_reference_set(late)
    late.write_text("\n".join([*header[:-1], *points[:2], header[-1], *points[2:]]) + "\n")
    with pytest.raises(LogParseError, match=r"late\.tsv:11: missing header keys: bounds$"):
        read_reference_set(late)
    # Blank lines still count towards the line number of an error.
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join([*header, "", "", points[0], "0.5 0.5", *points[1:]]) + "\n")
    with pytest.raises(LogParseError, match=r"bad\.tsv:15: expected 2 columns, got 1$"):
        read_reference_set(bad)
    # A file without the format line is refused before any key is looked for.
    bare = tmp_path / "bare.tsv"
    bare.write_text("\n".join(points) + "\n\n")
    with pytest.raises(LogVersionError, match=r"bare\.tsv: missing format declaration on line 1$"):
        read_reference_set(bare)


@pytest.mark.parametrize(
    ("reader", "drop", "key"),
    [(read_log, "% budget=100\n", "budget"), (read_reference_set, "% dimension=2\n", "dimension")],
    ids=["log", "refset"],
)
def test_a_header_only_file_names_a_missing_key_at_its_last_line(tmp_path, reader, drop, key):
    # No row is read, so the last line is the last header line read_table met.
    path = _written_by_each_writer(tmp_path)[reader]
    lines = [line for line in path.read_text().replace(drop, "").splitlines()
             if line.startswith("%")]
    path.write_text("\n".join([*lines, "", "  "]) + "\n")
    with pytest.raises(LogParseError, match=rf"{path.name}:{len(lines)}: missing header keys: {key}$"):
        reader(path)


@pytest.mark.parametrize("tail", ["", "\n  \n"], ids=["no-tail", "blank-tail"])
@pytest.mark.parametrize("n", [9, 3_000])
def test_a_missing_reference_set_key_is_named_at_the_first_point(tmp_path, n, tail) -> None:
    # Before, the keys were checked after the last point and a missing one was
    # named there.  Blank lines after the header count towards the line.
    _, path = _numbered_file(tmp_path, n)
    lines = path.read_text().replace("% dimension=2\n", "").splitlines()
    path.write_text("\n".join(lines[:10]) + tail + "\n" + "\n".join(lines[10:]) + "\n")
    first = 11 + tail.count("\n")
    with pytest.raises(LogParseError, match=rf"rs\.tsv:{first}: missing header keys: dimension$"):
        read_reference_set(path)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_merge_and_write_of_a_large_front_hold_no_object_per_point(tmp_path) -> None:
    # One ObjectiveVector per point of this 50 000-point front takes 4.8 MB
    # (the object and its two floats); building them and running the object
    # path's merge and write peaked at 10.9 MB.  The filter, the sweep's
    # temporaries and one chunk of text lines take 2.5 MB.
    n = 50_000
    front = PointColumns(np.linspace(0.0, 1.0, n), np.linspace(1.0, 0.0, n))

    def merge_and_write() -> None:
        write_reference_set(merge([front], **KEY, **UNIT_BOUNDS), tmp_path / "rs.tsv")

    assert _traced_peak(merge_and_write) < 3_000_000
    assert read_reference_set(tmp_path / "rs.tsv").points == front


def test_read_of_a_large_set_holds_no_object_per_point(tmp_path) -> None:
    # The whole-text reader peaked at 19.1 MB on this file: its text, the list
    # of lines, a (number, line) tuple per line and an object per point.  The
    # columns and the i_ref check's temporaries take 2.5 MB.
    _, path = _numbered_file(tmp_path, 50_000)
    assert _traced_peak(lambda: read_reference_set(path)) < 4_000_000
