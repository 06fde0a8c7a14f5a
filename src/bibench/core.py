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
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = [
    "Columns",
    "NormalizedObjectives",
    "ObjectiveVector",
    "ProblemSpec",
    "RowError",
    "check_budget",
    "normalize",
    "normalize_columns",
    "ulp_distance",
]


@dataclass(frozen=True, slots=True, init=False)
class ObjectiveVector:
    """A point in raw (unnormalized) two-dimensional objective space."""

    f_alpha: float
    f_beta: float

    # Each assessed record builds this and three more frozen value types.  The
    # generated __init__ stores fields through object.__setattr__; the slot
    # descriptors, bound below, build the object in about two thirds of the time.
    def __init__(self, f_alpha: float, f_beta: float) -> None:
        _set_f_alpha(self, f_alpha)
        _set_f_beta(self, f_beta)


_set_f_alpha, _set_f_beta = ObjectiveVector.f_alpha.__set__, ObjectiveVector.f_beta.__set__


@dataclass(frozen=True, slots=True, init=False)
class NormalizedObjectives:
    """An objective vector in ROI coordinates (ideal at (0,0), nadir at (1,1)).

    Coordinates may exceed 1 (worse than the nadir) and, when the supplied
    ideal is not a true lower bound, may fall below 0.
    """

    u: float
    v: float

    def __init__(self, u: float, v: float) -> None:
        _set_u(self, u)
        _set_v(self, v)


_set_u, _set_v = NormalizedObjectives.u.__set__, NormalizedObjectives.v.__set__


@dataclass(frozen=True)
class ProblemSpec:
    """One benchmark problem instance together with its reference data.

    ``i_ref`` is the absolute quality-indicator reference value of the
    problem's reference set (the negated normalized hypervolume of that
    set), and ``refset_version`` is the content hash of the reference set
    it was derived from.  Fields named in ``_INTEGERS`` must be integers,
    not ``bool``; those in ``_NAMES`` non-empty printable ASCII, unpadded;
    those in ``_PATH_PARTS``, written into file and directory names, must
    hold no ``/`` and not start with ``.``.  ``function_id`` holds no
    whitespace, which would split it in a reference set's header.
    """

    function_id: str
    instance_id: int
    dimension: int
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    i_ref: float
    refset_version: str
    _INTEGERS, _NAMES, _PATH_PARTS = ("instance_id", "dimension"), (), ("function_id",)

    def __post_init__(self) -> None:
        for name in self._INTEGERS:
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in self._NAMES:
            text = getattr(self, name)
            if not (isinstance(text, str) and text.isascii() and text.isprintable()
                    and text != "" and text == text.strip()):
                raise ValueError(f"{name} must be non-empty unpadded printable ASCII, got {text!r}")
        for name in self._PATH_PARTS:
            text = str(getattr(self, name))
            if "/" in text or text.startswith("."):
                raise ValueError(f"{name} must hold no '/' and not start with '.', got {text!r}")
        if any(map(str.isspace, text := str(self.function_id))):
            raise ValueError(f"function_id must hold no whitespace, got {text!r}")
        if self.instance_id < 1:
            raise ValueError(f"instance must be positive, got {self.instance_id}")
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


def check_budget(name: str, value) -> None:
    """Refuse a budget that is a ``bool``, not an integer, or outside [1, 2**63)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    if value >= 1 << 63:
        raise ValueError(f"{name} must be below 2**63, got {value}")


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


def normalize_columns(f_alpha: np.ndarray, f_beta: np.ndarray, ideal: ObjectiveVector,
                      nadir: ObjectiveVector) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalize` of the points ``(f_alpha[i], f_beta[i])`` as float64
    columns ``(u, v)``, by the same IEEE operations, so with the same bits.
    Nothing is checked: non-finite values stay so, and a quotient too large
    for a double is ``inf``, as with Python floats, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        u = (np.asarray(f_alpha, dtype=float) - ideal.f_alpha) / (nadir.f_alpha - ideal.f_alpha)
        v = (np.asarray(f_beta, dtype=float) - ideal.f_beta) / (nadir.f_beta - ideal.f_beta)
    return u, v


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


class RowError(ValueError):
    """A value rule broken first by the 0-based row ``row`` of a :class:`Columns`."""

    def __init__(self, row: int, message: str) -> None:
        super().__init__(message)
        self.row = row


class Columns:
    """Read-only items held as equal-length 1-D numpy columns, the
    ``__slots__`` of a subclass, typed by its ``_dtypes``; a column is cast
    only if numpy deems it safe (else ``TypeError``).  Iterating builds
    each item with ``_item``.  It equals another of its type with equal
    columns (``0.0 == -0.0``) and pickles and copies through its
    constructor; :meth:`checked` refuses a value of any other type."""

    __slots__ = ()
    _ROWS = 4096

    def __init__(self, *columns) -> None:
        arrays = []
        for name, column, dtype in zip(self.__slots__, columns, self._dtypes, strict=True):
            a = np.asarray(column)
            if a.size and not np.can_cast(a.dtype, dtype, "safe"):  # 1.5, "3" or 2**64-1 as a count
                raise TypeError(f"{name} must hold {np.dtype(dtype)} values, got {a.dtype}")
            arrays.append(a.astype(dtype, copy=False).view())
        if arrays[0].ndim != 1 or any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError(f"{type(self).__name__} needs 1-D columns of equal length")
        for name, a in zip(self.__slots__, arrays):
            a.flags.writeable = False
            setattr(self, name, a)

    @classmethod
    def checked(cls, value, name: str) -> Columns:
        """``value`` if of this type, else ``TypeError`` naming ``name``."""
        if not isinstance(value, cls):
            raise TypeError(f"{name} must be {cls.__name__}, got {type(value).__name__}")
        return value

    def __reduce__(self) -> tuple:
        return type(self), tuple(self._arrays())

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.__slots__]

    def chunks(self) -> Iterator[list[list]]:
        """The columns as lists of Python numbers, ``_ROWS`` rows at a time."""
        columns = self._arrays()
        for k in range(0, len(self), self._ROWS):
            yield [c[k:k + self._ROWS].tolist() for c in columns]

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self) -> Iterator:
        for chunk in self.chunks():
            yield from map(self._item, *chunk)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._arrays(), other._arrays()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"
