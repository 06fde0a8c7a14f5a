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

from bibench.core import NormalizedObjectives

__all__ = [
    "Archive",
    "ArchiveEntry",
    "InsertOutcome",
    "recompute_from_scratch",
    "roi_distance",
    "staircase_hypervolume",
]


@dataclass(frozen=True)
class ArchiveEntry:
    """One archived solution: normalized objectives and the evaluation
    index at which it was produced."""

    objectives: NormalizedObjectives
    eval_index: int

    @property
    def u(self) -> float:
        return self.objectives.u

    @property
    def v(self) -> float:
        return self.objectives.v


@dataclass(frozen=True)
class InsertOutcome:
    """Result of one insertion attempt.

    ``hv_gain`` is the ROI hypervolume newly covered by the accepted point
    (zero for points at or beyond the nadir).  ``dist_gain`` is the
    reduction of the cached minimum ROI distance; on the very first
    insertion the previous distance is undefined and the gain is reported
    as 0.
    """

    accepted: bool
    removed_count: int
    hv_gain: float
    dist_gain: float


_REJECTED = InsertOutcome(False, 0, 0.0, 0.0)


def roi_distance(u: float, v: float) -> float:
    """Euclidean distance from a normalized point to the ROI box [0, 1]^2.

    Coordinates below 0 are treated as 0, so only the "worse than nadir"
    excess counts.
    """
    du = u - 1.0 if u > 1.0 else 0.0
    dv = v - 1.0 if v > 1.0 else 0.0
    return math.hypot(du, dv)


class _CompensatedSum:
    """Neumaier-compensated running sum of non-negative gains."""

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


class Archive:
    """Mutable single-writer archive of mutually non-dominated entries, held
    as parallel ``u``, ``v`` and evaluation-index lists."""

    def __init__(self) -> None:
        self._u: list[float] = []
        self._v: list[float] = []
        self._eval: list[int] = []
        self._hv = _CompensatedSum()
        self._dist = math.inf
        self._nadir_dominated = False
        self._last_eval = 0
        self.clamp_warnings = 0

    def __len__(self) -> int:
        return len(self._u)

    @property
    def entries(self) -> tuple[ArchiveEntry, ...]:
        """Entries in strictly increasing ``u`` order."""
        return tuple(
            ArchiveEntry(NormalizedObjectives(u, v), t)
            for u, v, t in zip(self._u, self._v, self._eval)
        )

    @property
    def evaluations(self) -> int:
        """Largest evaluation index submitted so far."""
        return self._last_eval

    @property
    def dominates_nadir(self) -> bool:
        """True once any entry is at or inside the ROI (u <= 1 and v <= 1).

        This is the quality-indicator branch test; it deliberately counts a
        point exactly on the nadir, unlike strict set dominance.
        """
        return self._nadir_dominated

    def hypervolume(self) -> float:
        """Cached ROI hypervolume dominated by the archive."""
        hv = self._hv.value
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
        if eval_index <= self._last_eval:
            raise ValueError(
                f"eval_index must increase strictly: got {eval_index} "
                f"after {self._last_eval}"
            )
        yu, yv = y.u, y.v
        if not math.isfinite(yu):
            raise ValueError(f"u is not finite: {yu!r}")
        if not math.isfinite(yv):
            raise ValueError(f"v is not finite: {yv!r}")
        self._last_eval = eval_index

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

        hv_gain = self._gain(yu, yv, i, j)
        d = roi_distance(yu, yv)
        if math.isinf(self._dist):
            dist_gain = 0.0
        else:
            dist_gain = self._dist - d if d < self._dist else 0.0
        if d < self._dist:
            self._dist = d
        if yu <= 1.0 and yv <= 1.0:
            self._nadir_dominated = True
        if yu < 0.0 or yv < 0.0:
            self.clamp_warnings += 1

        us[i:j] = [yu]
        vs[i:j] = [yv]
        self._eval[i:j] = [eval_index]
        self._hv.add(hv_gain)
        return InsertOutcome(True, j - i, hv_gain, dist_gain)

    def _gain(self, yu: float, yv: float, i: int, j: int) -> float:
        """ROI area newly covered by ``(yu, yv)``, as a sum of positive rectangles.

        Walking from the point to its surviving right neighbour, the old
        cover boundary is the left neighbour's ``v`` and then each removed
        entry's ``v`` in turn; every term is a product of non-negative
        differences, so no cancellation occurs.
        """
        if yu >= 1.0 or yv >= 1.0:
            return 0.0
        us, vs = self._u, self._v
        v = yv if yv > 0.0 else 0.0
        bound = min(vs[i - 1], 1.0) if i > 0 else 1.0
        prev_x = yu if yu > 0.0 else 0.0
        terms = []
        for k in range(i, j):
            x = min(max(us[k], 0.0), 1.0)
            if x > prev_x and bound > v:
                terms.append((x - prev_x) * (bound - v))
            if x > prev_x:
                prev_x = x
            bound = min(vs[k], 1.0)
        right_x = min(us[j], 1.0) if j < len(us) else 1.0
        if right_x > prev_x and bound > v:
            terms.append((right_x - prev_x) * (bound - v))
        return math.fsum(terms)


def staircase_hypervolume(points: Iterable[NormalizedObjectives]) -> float:
    """Sweep-line ROI hypervolume of a set of mutually non-dominated points.

    Independent of the incremental cache: points are sorted and the strip
    areas summed with ``math.fsum``.
    """
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


def recompute_from_scratch(
    entries: Iterable[ArchiveEntry | NormalizedObjectives],
) -> tuple[float, float]:
    """Recompute (hypervolume, min ROI distance) without any caches.

    Accepts archive entries or bare normalized points.  For an empty input
    the hypervolume is 0 and the distance is the +infinity sentinel.
    """
    points = [e.objectives if isinstance(e, ArchiveEntry) else e for e in entries]
    if not points:
        return 0.0, math.inf
    hv = staircase_hypervolume(points)
    dist = min(roi_distance(p.u, p.v) for p in points)
    return hv, dist
