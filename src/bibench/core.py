"""Core domain types for bi-objective performance assessment.

All quality computations happen in a normalized objective space: an affine
map per coordinate sends the ideal point to (0, 0) and the nadir point to
(1, 1).  The unit box [0, 1]^2 between them is the region of interest
(ROI).  Both objectives are minimized throughout.

Dominance is weak dominance excluding equality: better-or-equal in both
coordinates and strictly better in at least one.  Two equal points do not
dominate each other; archives treat exact duplicates as rejected
re-submissions of the same solution.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

__all__ = [
    "NormalizedObjectives",
    "ObjectiveVector",
    "ProblemSpec",
    "dominates",
    "normalize",
    "ulp_distance",
]


@dataclass(frozen=True)
class ObjectiveVector:
    """A point in raw (unnormalized) two-dimensional objective space."""

    f_alpha: float
    f_beta: float

    def is_finite(self) -> bool:
        return math.isfinite(self.f_alpha) and math.isfinite(self.f_beta)


@dataclass(frozen=True)
class NormalizedObjectives:
    """An objective vector in ROI coordinates (ideal at (0,0), nadir at (1,1)).

    Coordinates may exceed 1 (worse than the nadir) and, when the supplied
    ideal is only an estimate, may fall below 0.
    """

    u: float
    v: float

    def is_finite(self) -> bool:
        return math.isfinite(self.u) and math.isfinite(self.v)


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark problem instance together with its reference data.

    ``i_ref`` is the absolute quality-indicator reference value of the
    problem's reference set (the negated normalized hypervolume of that
    set), and ``refset_version`` is the content hash of the reference set
    it was derived from.
    """

    function_id: str
    instance_id: int
    dimension: int
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    i_ref: float
    refset_version: str

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        for coord in ("f_alpha", "f_beta"):
            lo = getattr(self.ideal, coord)
            hi = getattr(self.nadir, coord)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"ideal/nadir {coord} must be finite, got {lo} and {hi}")
            if not lo < hi:
                raise ValueError(
                    f"ideal must be strictly below nadir in {coord}: {lo} !< {hi}"
                )
        if not (-1.0 <= self.i_ref <= 0.0):
            raise ValueError(f"i_ref must lie in [-1, 0], got {self.i_ref}")


def normalize(y: ObjectiveVector, p: ProblemSpec) -> NormalizedObjectives:
    """Map a raw objective vector into ROI coordinates.

    Each coordinate is shifted by the ideal and scaled by the ideal-nadir
    range, so the ideal lands exactly on (0, 0) and the nadir exactly on
    (1, 1).  Raises ``ValueError`` naming the offending coordinate if the
    input is not finite.
    """
    if not math.isfinite(y.f_alpha):
        raise ValueError(f"f_alpha is not finite: {y.f_alpha!r}")
    if not math.isfinite(y.f_beta):
        raise ValueError(f"f_beta is not finite: {y.f_beta!r}")
    u = (y.f_alpha - p.ideal.f_alpha) / (p.nadir.f_alpha - p.ideal.f_alpha)
    v = (y.f_beta - p.ideal.f_beta) / (p.nadir.f_beta - p.ideal.f_beta)
    return NormalizedObjectives(u, v)


def dominates(a: NormalizedObjectives, b: NormalizedObjectives) -> bool:
    """Weak dominance excluding equality: ``a`` better-or-equal everywhere
    and strictly better somewhere.  Equal points do not dominate."""
    return a.u <= b.u and a.v <= b.v and (a.u < b.u or a.v < b.v)


def _float_ordinal(x: float) -> int:
    # Map a double onto a monotonically ordered integer line (both zeros
    # collapse onto ordinal 0), so ULP distances are plain integer gaps.
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return bits if bits < 2**63 else 2**63 - bits


def ulp_distance(a: float, b: float) -> int:
    """Number of representable doubles between ``a`` and ``b``.

    Used to state cache-consistency contracts ("within 4 ULP") exactly.
    Raises ``ValueError`` for non-finite arguments.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"ulp_distance requires finite arguments, got {a!r}, {b!r}")
    return abs(_float_ordinal(a) - _float_ordinal(b))
