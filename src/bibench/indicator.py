"""Normalized hypervolume/distance quality indicator for archives.

The indicator of an archive is

* the negated ROI hypervolume once any archived point is at or inside the
  ROI box (weakly dominating the nadir, equality included), and
* otherwise the minimum normalized distance from the archive to the ROI,
  which is strictly positive: every entry then has a coordinate at least
  one ULP above 1.

An empty archive evaluates to the +infinity sentinel on the distance
branch.  Along a run the value never increases, and the branch switches
from Distance to Hypervolume at most once; the hypervolume value of an
archive containing exactly the nadir is 0, and an archive containing the
ideal reaches the lower bound -1.  The branches' ranges, [-1, 0] and
(0, +infinity], do not overlap, so an :class:`IndicatorValue` stores the
value alone and derives its branch from the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from bibench.archive import Archive, InsertOutcome

__all__ = ["Branch", "IndicatorValue", "EMPTY_ARCHIVE_VALUE", "evaluate", "evaluate_incremental"]


class Branch(Enum):
    HYPERVOLUME = "hypervolume"
    DISTANCE = "distance"


@dataclass(frozen=True, slots=True, init=False)
class IndicatorValue:
    """An indicator value; its sign names the branch that produced it.

    Hypervolume-branch values lie in [-1, 0]; distance-branch values are
    > 0, including the +infinity sentinel for an empty archive.  A value
    below -1, or NaN, is rejected.
    """

    value: float

    def __init__(self, value: float) -> None:
        if not value >= -1.0:
            raise ValueError(f"indicator value must be at least -1, got {value}")
        _set_value(self, value)

    @property
    def branch(self) -> Branch:
        return Branch.HYPERVOLUME if self.value <= 0.0 else Branch.DISTANCE


_set_value = IndicatorValue.value.__set__
EMPTY_ARCHIVE_VALUE = IndicatorValue(math.inf)


def _current(arch: Archive) -> IndicatorValue:
    """A non-empty archive's value, on the branch ``reaches_roi`` selects.  It
    runs per accepted point, so it reads the archive's caches directly."""
    if arch._dist > 0.0:
        return IndicatorValue(arch._dist)
    # The exact clipped hypervolume is <= 1; summation may overshoot by a
    # fraction of an ULP, which must not breach the [-1, 0] invariant.
    hv = arch._hv_sum + arch._hv_error
    return IndicatorValue(-1.0 if hv >= 1.0 else -hv if hv > 0.0 else 0.0)


def evaluate(arch: Archive) -> IndicatorValue:
    """Full evaluation of an archive's indicator value."""
    return _current(arch) if len(arch) else EMPTY_ARCHIVE_VALUE


def evaluate_incremental(
    prev: IndicatorValue, outcome: InsertOutcome, arch: Archive
) -> IndicatorValue:
    """O(1) update after an insertion; ``Assessment`` calls it only for accepted ones.

    A rejected insertion leaves ``prev`` untouched without consulting the
    archive.  An accepted one reads the archive's compensated caches, which
    keeps the trajectory bit-identical to re-running :func:`evaluate` (a
    chain of floating subtractions of the outcome gains would drift).  The
    Distance -> Hypervolume transition happens at most once because the
    archive's distance to the ROI only falls, and stays 0.0 once reached.
    """
    return _current(arch) if outcome.accepted else prev
