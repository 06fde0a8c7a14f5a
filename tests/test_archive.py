"""Archive tests: worked examples, oracle equivalence, cache consistency."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bibench.archive import Archive, recompute_from_scratch, roi_distance, staircase_hypervolume
from bibench.core import NormalizedObjectives, ulp_distance
from bibench.indicator import Branch, evaluate


def _nz(u: float, v: float) -> NormalizedObjectives:
    return NormalizedObjectives(u, v)


def _filled(points) -> Archive:
    arch = Archive()
    for t, (u, v) in enumerate(points, 1):
        arch.insert(_nz(u, v), t)
    return arch


def test_insert_into_empty() -> None:
    arch = Archive()
    out = arch.insert(_nz(0.5, 0.5), 1)
    assert out.accepted and out.removed_count == 0
    assert out.hv_gain == 0.25
    assert arch.hypervolume() == 0.25


def test_insert_incomparable_point_no_removal() -> None:
    # Inclusion-exclusion oracle: areas 0.1875 + 0.25 + 0.1875, pairwise
    # overlaps 0.125 + 0.0625 + 0.125, triple overlap 0.0625 -> union 0.375.
    arch = _filled([(0.25, 0.75), (0.75, 0.25)])
    assert arch.hypervolume() == 0.3125  # 0.1875 + 0.1875 - 0.0625
    out = arch.insert(_nz(0.5, 0.5), 3)
    assert out.accepted and out.removed_count == 0
    assert arch.hypervolume() == 0.375
    assert out.hv_gain == pytest.approx(0.0625, abs=1e-15)


def test_three_point_union_against_monte_carlo(mc_hypervolume) -> None:
    arch = _filled([(0.25, 0.75), (0.75, 0.25), (0.5, 0.5)])
    assert mc_hypervolume(arch.entries, n_samples=1_000_000) == pytest.approx(
        0.375, abs=3e-3
    )


def test_insert_dominated_point_rejected() -> None:
    arch = _filled([(0.25, 0.75), (0.75, 0.25), (0.5, 0.5)])
    before = arch.hypervolume()
    out = arch.insert(_nz(0.6, 0.6), 4)
    assert (out.accepted, out.removed_count, out.hv_gain) == (False, 0, 0.0)
    assert arch.hypervolume() == before
    assert len(arch) == 3


def test_insert_dominating_point_removes_run() -> None:
    arch = _filled([(0.3, 0.7), (0.45, 0.55), (0.7, 0.3)])
    out = arch.insert(_nz(0.35, 0.25), 4)
    assert out.accepted and out.removed_count == 2
    assert [(e.u, e.v) for e in arch.entries] == [(0.3, 0.7), (0.35, 0.25)]
    hv, _ = recompute_from_scratch(arch.entries)
    assert arch.hypervolume() == pytest.approx(hv, abs=1e-15)


def test_duplicate_rejected_first_seen_kept() -> None:
    arch = Archive()
    assert arch.insert(_nz(0.5, 0.5), 1).accepted
    out = arch.insert(_nz(0.5, 0.5), 2)
    assert not out.accepted
    assert arch.entries == (_nz(0.5, 0.5),)


def test_eval_index_must_increase() -> None:
    arch = Archive()
    arch.insert(_nz(0.5, 0.5), 5)
    with pytest.raises(ValueError, match="increase strictly"):
        arch.insert(_nz(0.4, 0.4), 5)
    with pytest.raises(ValueError, match="increase strictly"):
        arch.insert(_nz(0.4, 0.4), 3)
    # Rejected submissions also consume the index.
    assert not arch.insert(_nz(0.9, 0.9), 6).accepted
    with pytest.raises(ValueError, match="got 6 after 6"):
        arch.insert(_nz(0.1, 0.1), 6)


def test_non_finite_rejected_with_domain_error() -> None:
    arch = Archive()
    with pytest.raises(ValueError, match="u is not finite"):
        arch.insert(_nz(math.nan, 0.5), 1)
    with pytest.raises(ValueError, match="v is not finite"):
        arch.insert(_nz(0.5, -math.inf), 1)


def test_hypervolume_worked_examples() -> None:
    assert Archive().hypervolume() == 0.0
    assert _filled([(0.0, 0.0)]).hypervolume() == 1.0
    assert _filled([(0.25, 0.75), (0.75, 0.25)]).hypervolume() == 0.3125


def test_points_outside_roi_contribute_nothing() -> None:
    arch = _filled([(1.5, 0.5)])
    assert arch.hypervolume() == 0.0
    # A point on the boundary u = 1 also covers no area.
    arch2 = _filled([(1.0, 0.5)])
    assert arch2.hypervolume() == 0.0
    assert arch2.reaches_roi


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_coordinate_is_not_a_clamp(zero) -> None:
    """Only a coordinate below 0 is clamped: 0.0 and -0.0 lie on the ROI's
    edge, and the smallest negative double beyond it is counted."""
    arch = Archive()
    arch.insert(_nz(zero, 0.5), 1)
    arch.insert(_nz(0.5, zero), 2)
    assert arch.clamp_warnings == 0
    arch.insert(_nz(-5e-324, 0.25), 3)
    assert arch.clamp_warnings == 1
    arch.insert(_nz(0.25, -5e-324), 4)
    assert arch.clamp_warnings == 2


def test_negative_coordinates_clamped_and_counted() -> None:
    arch = Archive()
    arch.insert(_nz(-0.25, 0.5), 1)
    assert arch.clamp_warnings == 1
    assert arch.hypervolume() == 0.5  # same area as (0, 0.5)
    arch.insert(_nz(0.5, -3.0), 2)
    assert arch.clamp_warnings == 2
    hv, _ = recompute_from_scratch(arch.entries)
    assert arch.hypervolume() == pytest.approx(hv, abs=1e-15)
    assert arch.hypervolume() <= 1.0


def test_min_distance_examples() -> None:
    assert _filled([(1.5, 0.5)]).min_distance_to_roi() == 0.5
    assert _filled([(1.3, 1.4)]).min_distance_to_roi() == pytest.approx(0.5)
    assert _filled([(0.5, 0.5)]).min_distance_to_roi() == 0.0
    with pytest.raises(ValueError, match="empty"):
        Archive().min_distance_to_roi()


def test_roi_distance_ignores_negative_excess() -> None:
    assert roi_distance(-2.0, 0.5) == 0.0
    assert roi_distance(-2.0, 1.5) == 0.5


def test_recompute_from_scratch_examples() -> None:
    assert recompute_from_scratch([]) == (0.0, math.inf)
    hv, dist = recompute_from_scratch([_nz(0.25, 0.75), _nz(0.75, 0.25)])
    assert hv == 0.3125 and dist == 0.0
    hv, dist = recompute_from_scratch([_nz(1.5, 0.5)])
    assert hv == 0.0 and dist == 0.5


def _random_stream(rng: random.Random, n: int, with_duplicates: bool = True):
    points = []
    for _ in range(n):
        if with_duplicates and points and rng.random() < 0.05:
            points.append(rng.choice(points))  # exact duplicate
        else:
            points.append(_nz(round(rng.uniform(-0.2, 1.4), 2), round(rng.uniform(-0.2, 1.4), 2)))
    return points


def test_archive_equals_brute_force_filter(brute_force_filter) -> None:
    for seed in range(10):
        rng = random.Random(seed)
        points = _random_stream(rng, 200)
        arch = Archive()
        for t, p in enumerate(points, 1):
            arch.insert(p, t)
        got = sorted((e.u, e.v) for e in arch.entries)
        want = sorted((p.u, p.v) for p in brute_force_filter(points))
        assert got == want


def test_entries_stay_sorted_and_mutually_nondominated() -> None:
    rng = random.Random(3)
    arch = Archive()
    for t in range(1, 501):
        arch.insert(_nz(rng.uniform(-0.1, 1.3), rng.uniform(-0.1, 1.3)), t)
        entries = arch.entries
        assert all(a.u < b.u and a.v > b.v for a, b in zip(entries, entries[1:]))


def test_hypervolume_monotone_distance_non_increasing() -> None:
    rng = random.Random(11)
    arch = Archive()
    prev_hv, prev_dist = 0.0, math.inf
    for t in range(1, 2001):
        out = arch.insert(_nz(rng.uniform(-0.1, 1.6), rng.uniform(-0.1, 1.6)), t)
        hv = arch.hypervolume()
        dist = arch.min_distance_to_roi()
        assert hv >= prev_hv
        assert dist <= prev_dist
        if out.accepted and out.hv_gain > 0.0:
            assert hv > prev_hv
        prev_hv, prev_dist = hv, dist


def test_strict_hv_increase_iff_accepted_inside_roi() -> None:
    """Hypervolume strictly grows exactly when a new non-dominated point
    strictly inside the ROI is accepted.

    A coarse coordinate grid keeps every newly covered rectangle large enough
    (>= 1e-4) to register against the rounded cached sum; with continuous
    coordinates the covered area is still positive (hv_gain > 0, checked
    elsewhere) but can fall below one ulp of a near-1 total.  Coordinates are
    non-negative: a negative coordinate is clamped to zero for area purposes,
    so such a point can be retained without covering fresh area.
    """
    rng = random.Random(23)
    arch = Archive()
    for t in range(1, 3001):
        before = arch.hypervolume()
        p = _nz(round(rng.uniform(0.0, 1.3), 2), round(rng.uniform(0.0, 1.3), 2))
        out = arch.insert(p, t)
        after = arch.hypervolume()
        if out.accepted and p.u < 1.0 and p.v < 1.0:
            assert after > before
            assert out.hv_gain > 0.0
        else:
            assert after == before


def test_hv_gain_positive_for_accepted_interior_points() -> None:
    # Continuous coordinates: cached totals may absorb sub-ulp slivers, but the
    # gain itself is a sum of positive rectangles and must stay positive.
    rng = random.Random(29)
    arch = Archive()
    for t in range(1, 5001):
        p = _nz(rng.uniform(0.0, 1.3), rng.uniform(0.0, 1.3))
        out = arch.insert(p, t)
        if out.accepted and p.u < 1.0 and p.v < 1.0:
            assert out.hv_gain > 0.0
        else:
            assert out.hv_gain == 0.0


def test_insertion_order_invariance() -> None:
    rng = random.Random(5)
    base = _random_stream(rng, 120)
    reference = None
    for perm_seed in range(6):
        perm = base[:]
        random.Random(perm_seed).shuffle(perm)
        arch = Archive()
        for t, p in enumerate(perm, 1):
            arch.insert(p, t)
        values = [(e.u, e.v) for e in arch.entries]
        if reference is None:
            reference = values
        else:
            assert values == reference


def test_cached_hv_matches_sweep_within_4_ulp() -> None:
    for seed in range(25):
        rng = random.Random(seed)
        arch = Archive()
        for t in range(1, 1001):
            arch.insert(_nz(rng.uniform(-0.05, 1.2), rng.uniform(-0.05, 1.2)), t)
        hv, dist = recompute_from_scratch(arch.entries)
        if hv > 0.0:
            assert ulp_distance(arch.hypervolume(), hv) <= 4
        else:
            assert arch.hypervolume() == 0.0
        assert arch.min_distance_to_roi() == dist


def test_cached_distance_matches_scratch_exactly() -> None:
    rng = random.Random(77)
    arch = Archive()
    for t in range(1, 500):
        arch.insert(_nz(rng.uniform(0.9, 2.5), rng.uniform(0.9, 2.5)), t)
        _, dist = recompute_from_scratch(arch.entries)
        assert arch.min_distance_to_roi() == dist


def test_staircase_hypervolume_against_monte_carlo(mc_hypervolume) -> None:
    rng = random.Random(9)
    arch = Archive()
    for t in range(1, 301):
        arch.insert(_nz(rng.uniform(0.0, 1.1), rng.uniform(0.0, 1.1)), t)
    hv = staircase_hypervolume(arch.entries)
    assert hv == pytest.approx(mc_hypervolume(arch.entries, n_samples=400_000), abs=5e-3)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)), max_size=60))
def test_insertion_gains_sum_to_total(points: list[tuple[float, float]]) -> None:
    arch = Archive()
    gains = []
    for t, (u, v) in enumerate(points, 1):
        gains.append(arch.insert(_nz(u, v), t).hv_gain)
    assert math.fsum(gains) == pytest.approx(arch.hypervolume(), abs=1e-12)


def _loop_sweep(points) -> float:
    """The sweep ``staircase_hypervolume`` replaced, kept as its oracle:
    clip at 0, keep the points inside the ROI, sort by ``(u, -v)``, then
    sum each strip below the last kept ``v`` with ``math.fsum``."""
    clipped = []
    for p in points:
        u = p.u if p.u > 0.0 else 0.0
        v = p.v if p.v > 0.0 else 0.0
        if u < 1.0 and v < 1.0:
            clipped.append((u, v))
    clipped.sort(key=lambda t: (t[0], -t[1]))
    terms = []
    prev_v = 1.0
    for u, v in clipped:
        if v < prev_v:
            terms.append((1.0 - u) * (prev_v - v))
            prev_v = v
    return math.fsum(terms)


_SWEEP_GRID = st.sampled_from([
    -0.0, 0.0, -5e-324, 5e-324, -0.5, -1.0, 0.5, 1.0,
    math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 2.0,
])
_SWEEP_COORD = st.one_of(_SWEEP_GRID, st.floats(-0.25, 1.25))


@st.composite
def _sweep_inputs(draw) -> list[NormalizedObjectives]:
    """0-40 points, dominated ones among them, from a grid of signed zeros,
    subnormals, negatives and values at and 1 ULP either side of 1, mixed
    with uniform values.  Coordinates often repeat a few drawn values, so
    equal-``u`` and equal-``v`` ties are common, and some points are exact
    duplicates of earlier ones."""
    pool = draw(st.lists(_SWEEP_COORD, min_size=1, max_size=6))
    coord = st.one_of(st.sampled_from(pool), _SWEEP_COORD)
    points = draw(st.lists(st.builds(_nz, coord, coord), max_size=35))
    if points:
        points += draw(st.lists(st.sampled_from(points), max_size=5))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(_sweep_inputs())
@example([])
@example([_nz(0.5, 0.5), _nz(0.5, 0.5), _nz(0.25, 0.75), _nz(0.75, 0.75)])
@example([_nz(0.3, 0.43), _nz(0.3, 0.76)])  # equal u: the larger v's strip comes first
def test_staircase_hypervolume_equals_loop_sweep(points) -> None:
    assert staircase_hypervolume(points).hex() == _loop_sweep(points).hex()


# The ROI's edge and one ULP past it, the nadir's coordinate, negatives and
# values far beyond the nadir.
_ROI_EDGE = st.sampled_from([1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), -0.5, 0.0])
_ROI_COORD = st.one_of(_ROI_EDGE, st.floats(-1.0, 2.0), st.floats(1.0, 1e300))


@st.composite
def _roi_stream(draw) -> list[NormalizedObjectives]:
    """Points whose coordinates repeat a few drawn values, so equal-``u`` ties
    are common, with the nadir and exact duplicates of earlier points."""
    pool = draw(st.lists(_ROI_COORD, min_size=1, max_size=5))
    coord = st.one_of(st.sampled_from(pool), _ROI_COORD)
    points = draw(st.lists(st.builds(_nz, coord, coord), min_size=1, max_size=30))
    points += draw(st.lists(st.sampled_from([*points, _nz(1.0, 1.0)]), max_size=8))
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(_roi_stream())
@example([_nz(math.nextafter(1.0, 2.0), 0.5), _nz(1.0, 1.0), _nz(1.0, 1.0)])
def test_reaches_roi_iff_an_entry_is_in_the_roi(points) -> None:
    arch = Archive()
    for t, y in enumerate(points, 1):
        arch.insert(y, t)
        inside = any(e.u <= 1.0 and e.v <= 1.0 for e in arch.entries)
        assert arch.reaches_roi is inside
        assert (evaluate(arch).branch is Branch.HYPERVOLUME) is inside
