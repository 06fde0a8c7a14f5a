"""Target precision grid and first-hit runtime bookkeeping.

The grid holds 58 indicator precisions: six negative values
-10^-4, -10^-4.2, ..., -10^-5, the value 0, and 51 positive values
10^-5, 10^-4.9, ..., 10^-0.1, 10^0, stored in ascending numeric order.
Exponents come from integer tenths and each value is produced by a single
power evaluation, so regenerating the grid is bit-reproducible.

Absolute targets for a problem are ``i_ref + precision``; a target counts
as hit as soon as the indicator value is less than or equal to it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from bibench.core import ProblemSpec

__all__ = ["RuntimeRecord", "absolute_targets", "precision_grid"]

# Exponents in tenths: the negative precisions walk -4.0 .. -5.0 in steps
# of 0.2; the positive ones walk -5.0 .. 0.0 in steps of 0.1.
_NEGATIVE_TENTHS = (-40, -42, -44, -46, -48, -50)
_POSITIVE_TENTHS = tuple(range(-50, 1))


def precision_grid() -> tuple[float, ...]:
    """The 58 target precisions in ascending order."""
    negative = [-(10.0 ** (k / 10.0)) for k in _NEGATIVE_TENTHS]
    positive = [10.0 ** (k / 10.0) for k in _POSITIVE_TENTHS]
    return tuple(negative) + (0.0,) + tuple(positive)


def absolute_targets(p: ProblemSpec) -> tuple[float, ...]:
    """Absolute indicator targets ``i_ref + precision``, ascending."""
    return tuple(p.i_ref + g for g in precision_grid())


class RuntimeRecord:
    """First-hit evaluation counts for an ascending list of absolute targets.

    ``record`` must be fed a non-increasing indicator trajectory with
    strictly increasing evaluation counts.  Because the trajectory only
    ever improves, the set of hit targets is a growing suffix of the
    ascending target list; a single cursor therefore locates all newly hit
    targets in O(log n + new hits) per call.
    """

    __slots__ = ("targets", "first_hit", "evaluations", "_hit_from")

    def __init__(self, targets: Sequence[float]) -> None:
        targets = tuple(float(t) for t in targets)
        if any(b <= a for a, b in zip(targets, targets[1:])):
            raise ValueError("targets must be strictly ascending")
        self.targets = targets
        self.first_hit: list[int | None] = [None] * len(targets)
        self.evaluations = 0
        self._hit_from = len(targets)  # index of the hardest target hit so far

    def record(self, t: int, value: float) -> None:
        """Account for the indicator ``value`` after evaluation ``t``."""
        if t <= self.evaluations:
            raise ValueError(
                f"evaluation count must increase strictly: got {t} after {self.evaluations}"
            )
        self.evaluations = t
        first = bisect_left(self.targets, value)  # all targets >= value are hit
        for k in range(first, self._hit_from):
            self.first_hit[k] = t
        if first < self._hit_from:
            self._hit_from = first

    @property
    def hit_count(self) -> int:
        return len(self.targets) - self._hit_from
