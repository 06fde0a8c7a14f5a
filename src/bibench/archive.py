"""Incremental non-dominated archive over normalized objective vectors.

The archive is the classic 2-D "staircase": entries are kept strictly
increasing in ``u`` and therefore strictly decreasing in ``v``.  Insertion
locates the candidate position with a binary search, rejects dominated or
duplicate points, removes the contiguous run of newly dominated entries,
and updates two cached quality numbers in O(removed + log n):

* the hypervolume dominated inside the ROI box [0, 1]^2 (entries at or
  beyond the nadir contribute nothing; coordinates below 0 are clamped to
  0 and counted in ``clamp_warnings``), and
* the minimum Euclidean distance from any entry to the ROI box.

``recompute_from_scratch`` is an independent sweep-line recomputation of
both numbers, used to validate the caches.  The hypervolume cache is
accumulated with Neumaier compensation and each insertion gain is a sum of
positive rectangles, so cache and sweep agree to a few ULP regardless of
how many insertions happened.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from bibench.core import NormalizedObjectives, ObjectiveVector, normalize_columns

__all__ = [
    "Archive",
    "InsertOutcome",
    "recompute_from_scratch",
    "roi_distance",
    "staircase_hypervolume",
    "sweep_hypervolume",
]


@dataclass(frozen=True, slots=True, init=False)
class InsertOutcome:
    """Result of one insertion attempt.

    ``hv_gain`` is the ROI hypervolume newly covered by the accepted point
    (zero for points at or beyond the nadir).
    """

    accepted: bool
    removed_count: int
    hv_gain: float

    def __init__(self, accepted: bool, removed_count: int, hv_gain: float) -> None:
        _set_accepted(self, accepted)
        _set_removed_count(self, removed_count)
        _set_hv_gain(self, hv_gain)


_set_accepted, _set_removed_count, _set_hv_gain = (
    InsertOutcome.accepted.__set__, InsertOutcome.removed_count.__set__,
    InsertOutcome.hv_gain.__set__,
)
_REJECTED = InsertOutcome(False, 0, 0.0)


def roi_distance(u: float, v: float) -> float:
    """Euclidean distance from a normalized point to the ROI box [0, 1]^2.

    Coordinates below 0 are treated as 0, so only the "worse than nadir"
    excess counts.
    """
    du = u - 1.0 if u > 1.0 else 0.0
    dv = v - 1.0 if v > 1.0 else 0.0
    return math.hypot(du, dv)


class Archive:
    """Mutable single-writer archive of mutually non-dominated entries, held
    as parallel ``u`` and ``v`` lists."""

    def __init__(self) -> None:
        self._u: list[float] = []
        self._v: list[float] = []
        self._hv_sum = self._hv_error = 0.0  # Neumaier-compensated sum of the gains
        self._dist = math.inf  # 0.0 exactly once an entry is in the ROI
        self._last_index = 0
        self.clamp_warnings = 0

    def __len__(self) -> int:
        return len(self._u)

    @property
    def entries(self) -> tuple[NormalizedObjectives, ...]:
        """Entries in strictly increasing ``u`` order."""
        return tuple(map(NormalizedObjectives, self._u, self._v))

    @property
    def reaches_roi(self) -> bool:
        """True once any entry is at or inside the ROI (u <= 1 and v <= 1).

        This is the quality-indicator branch test; it deliberately counts a
        point exactly on the nadir, unlike strict set dominance.  The cached
        distance is 0.0 only then: outside, ``u - 1`` or ``v - 1`` is >= 2**-52.
        """
        return self._dist == 0.0

    def hypervolume(self) -> float:
        """Cached ROI hypervolume dominated by the archive."""
        hv = self._hv_sum + self._hv_error
        return hv if hv > 0.0 else 0.0

    def min_distance_to_roi(self) -> float:
        """Cached minimum entry-to-ROI distance; raises on an empty archive."""
        if not self._u:
            raise ValueError("min_distance_to_roi: archive is empty")
        return self._dist

    def insert(self, y: NormalizedObjectives, eval_index: int) -> InsertOutcome:
        """Attempt to add ``y`` (produced at ``eval_index``) to the archive.

        The point is rejected if any current entry weakly dominates it or
        equals it (first-seen duplicates win).  Acceptance removes every
        entry the point dominates.  Evaluation indices must be submitted in
        strictly increasing order, accepted or not.
        """
        if eval_index <= self._last_index:
            raise ValueError(
                f"eval_index must increase strictly: got {eval_index} "
                f"after {self._last_index}"
            )
        yu, yv = y.u, y.v
        if not math.isfinite(yu):
            raise ValueError(f"u is not finite: {yu!r}")
        if not math.isfinite(yv):
            raise ValueError(f"v is not finite: {yv!r}")
        self._last_index = eval_index

        us, vs = self._u, self._v
        n = len(us)
        i = bisect_left(us, yu)
        # A dominating-or-equal entry, if any, is the one with the largest
        # u <= y.u: either an equal-u entry at i or the left neighbour.
        if i < n and us[i] == yu and vs[i] <= yv:
            return _REJECTED
        if i > 0 and vs[i - 1] <= yv:
            return _REJECTED

        # Entries dominated by y form a contiguous run starting at i.
        j = i
        while j < n and vs[j] >= yv:
            j += 1

        hv_gain = 0.0
        if yu < 1.0 and yv < 1.0:  # only such a point covers ROI area; clip to the ROI
            prev_x = yu if yu > 0.0 else 0.0
            v = yv if yv > 0.0 else 0.0
            bound = vs[i - 1] if i > 0 and vs[i - 1] < 1.0 else 1.0
            right_x = us[j] if j < n and us[j] < 1.0 else 1.0
            if i < j:
                hv_gain = self._gain(prev_x, v, bound, right_x, i, j)
            elif right_x > prev_x and bound > v:  # nothing removed: one rectangle
                hv_gain = (right_x - prev_x) * (bound - v)
        if yu <= 1.0 and yv <= 1.0:  # in the ROI, at distance 0
            self._dist = 0.0
        elif (d := roi_distance(yu, yv)) < self._dist:
            self._dist = d
        if yu < 0.0 or yv < 0.0:
            self.clamp_warnings += 1

        us[i:j] = [yu]
        vs[i:j] = [yv]
        # Neumaier's step; gains are non-negative, so neither term needs abs().
        total = self._hv_sum + hv_gain
        if self._hv_sum >= hv_gain:
            self._hv_error += (self._hv_sum - total) + hv_gain
        else:
            self._hv_error += (hv_gain - total) + self._hv_sum
        self._hv_sum = total
        return InsertOutcome(True, j - i, hv_gain)

    def _gain(self, prev_x: float, v: float, bound: float, right_x: float, i: int, j: int) -> float:
        """ROI area newly covered by a point at ``(prev_x, v)``, clipped at 0,
        that removes entries ``i`` to ``j - 1``, as a sum of positive rectangles.

        Walking from the point to ``right_x``, its surviving right neighbour's
        ``u``, the old cover boundary is ``bound``, the left neighbour's ``v``,
        and then each removed entry's ``v`` in turn; every term is a product
        of non-negative differences, so no cancellation occurs.
        """
        us, vs = self._u, self._v
        terms = []
        # Clipped by comparisons, which give min and max's values without a call.
        for k in range(i, j):
            x = 0.0 if (x := us[k]) < 0.0 else 1.0 if x > 1.0 else x
            if x > prev_x and bound > v:
                terms.append((x - prev_x) * (bound - v))
            if x > prev_x:
                prev_x = x
            bound = 1.0 if (b := vs[k]) > 1.0 else b
        last = (right_x - prev_x) * (bound - v) if right_x > prev_x and bound > v else 0.0
        # fsum of one term is that term, so a one-rectangle gain needs no fsum.
        return math.fsum([*terms, last]) if terms else last


def sweep_hypervolume(f_alpha: np.ndarray, f_beta: np.ndarray, ideal: ObjectiveVector,
                      nadir: ObjectiveVector) -> float:
    """Sweep-line ROI hypervolume of the mutually non-dominated raw points
    ``(f_alpha[i], f_beta[i])`` under ``ideal`` and ``nadir``, without the cache.

    The points are normalized by ``normalize_columns`` into new arrays (the
    inputs are not modified), clipped at 0, those with ``u >= 1`` or ``v >= 1``
    dropped and the rest sorted by ``u``, then by descending ``v``.  Each point
    whose ``v`` lies below the running minimum of the ``v`` before it (starting
    at 1) adds the strip ``(1 - u) * (prev - v)``, summed by ``math.fsum``.
    """
    # Masking before clipping keeps the same rows: a value clipped to 0 is
    # below 1, and only a value >= 1 is not.  Each array of the input's
    # length is released as soon as the next one is made, so about four
    # are alive at once.
    u, v = normalize_columns(f_alpha, f_beta, ideal, nadir)
    inside = ~((u >= 1.0) | (v >= 1.0))
    u, v = u[inside], v[inside]
    u[~(u > 0.0)] = 0.0
    v[~(v > 0.0)] = 0.0
    order = np.lexsort((-v, u))
    u = u[order]
    v = v[order]
    del order
    prev = np.minimum.accumulate(np.concatenate(([1.0], v)))[:-1]
    keep = v < prev
    strips = prev[keep]
    del prev
    strips -= v[keep]
    del v
    strips *= 1.0 - u[keep]
    return math.fsum(strips)


def staircase_hypervolume(points: Iterable[NormalizedObjectives]) -> float:
    """:func:`sweep_hypervolume` of normalized points, read in one pass; the
    bounds (0, 0) and (1, 1) normalize each value to its own bits."""
    uv = np.fromiter(((p.u, p.v) for p in points), dtype=np.dtype((float, 2)))
    return sweep_hypervolume(uv[:, 0], uv[:, 1],
                             ObjectiveVector(0.0, 0.0), ObjectiveVector(1.0, 1.0))


def recompute_from_scratch(points: Iterable[NormalizedObjectives]) -> tuple[float, float]:
    """Recompute (hypervolume, min ROI distance) without any caches.

    For an empty input the hypervolume is 0 and the distance is the
    +infinity sentinel.
    """
    points = list(points)
    if not points:
        return 0.0, math.inf
    hv = staircase_hypervolume(points)
    dist = min(roi_distance(p.u, p.v) for p in points)
    return hv, dist
