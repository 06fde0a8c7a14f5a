"""Reference sets: versioned non-dominated point sets per problem.

A reference set fixes the target difficulty for one problem instance: its
negated normalized hypervolume is the absolute reference value ``i_ref``
(always in [-1, 0] thanks to ROI clipping), and a content hash over the
canonically sorted, 17-significant-digit serialization of its points is
the version string displayed with any derived performance data.

Files are plain text: ``#``-prefixed ``key=value`` header lines followed
by one ``f_alpha<TAB>f_beta`` line per point at 17 significant digits.

A set's points live in two read-only float64 columns (:class:`PointColumns`)
from the merge to the file and back: the filter, ``i_ref``, the version
and the writer work on the columns, the writer and the hash format them
``_ROWS`` at a time, and the reader appends each line ``numbered_lines``
yields to them, so no stage holds one object or one line of text per point.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bibench import suite
from bibench.archive import sweep_hypervolume
from bibench.core import ObjectiveVector, ProblemSpec
from bibench.datalog import (
    LogParseError, build_header, convert_at, numbered_lines, problem_file, write_lines,
)

__all__ = [
    "PointColumns",
    "ReferenceSet",
    "load_reference_set",
    "merge",
    "nondominated_rows",
    "read_reference_set",
    "refset_path",
    "version_of",
    "write_reference_set",
]

_VERSION_DIGITS = 16
# Points formatted to text at a time by the writer and the version hash.
_ROWS = 4096


class PointColumns(Sequence):
    """A read-only sequence of :class:`ObjectiveVector` held as two float64
    columns, ``f_alpha`` and ``f_beta``.

    ``len`` is O(1), and an object is built only for a point that is read;
    a slice or an index array gives another :class:`PointColumns`.
    Two sequences are equal iff their columns are (so ``0.0 == -0.0``, as
    for the objects), and one also equals a tuple of equal objects.
    """

    __slots__ = ("f_alpha", "f_beta")

    def __init__(self, f_alpha, f_beta) -> None:
        columns = [np.asarray(f, dtype=float).view() for f in (f_alpha, f_beta)]
        if columns[0].ndim != 1 or columns[0].shape != columns[1].shape:
            raise ValueError("point columns must be two 1-D arrays of equal length")
        for f in columns:
            f.flags.writeable = False
        self.f_alpha, self.f_beta = columns

    def __len__(self) -> int:
        return len(self.f_alpha)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return PointColumns(self.f_alpha[index], self.f_beta[index])
        return ObjectiveVector(float(self.f_alpha[index]), float(self.f_beta[index]))

    def __iter__(self) -> Iterator[ObjectiveVector]:
        return map(ObjectiveVector, self.f_alpha.tolist(), self.f_beta.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, tuple):
            return tuple(self) == other
        if not isinstance(other, PointColumns):
            return NotImplemented
        return np.array_equal(self.f_alpha, other.f_alpha) and np.array_equal(
            self.f_beta, other.f_beta
        )

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"PointColumns({tuple(self)!r})"


def _columns(points: Iterable[ObjectiveVector]) -> PointColumns:
    """``points`` as columns: a :class:`PointColumns` as it is, any other
    iterable read in one ``np.fromiter`` pass."""
    if isinstance(points, PointColumns):
        return points
    uv = np.fromiter(((p.f_alpha, p.f_beta) for p in points), dtype=np.dtype((float, 2)))
    return PointColumns(uv[:, 0], uv[:, 1])


@dataclass(frozen=True)
class ReferenceSet:
    """An immutable reference set for one problem key.

    ``points`` are raw objective vectors in canonical order (ascending
    ``f_alpha``, hence strictly descending ``f_beta``), held as
    :class:`PointColumns`; any iterable of :class:`ObjectiveVector`, such
    as a tuple, is converted when the set is made.  ``ideal`` and
    ``nadir`` are the normalization bounds ``i_ref`` was computed under;
    ``bounds_estimated`` marks a nadir read off the merged front's extreme
    points rather than known analytically.
    """

    function_id: str
    instance_id: int
    dimension: int
    points: Sequence[ObjectiveVector]
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    i_ref: float
    version: str
    bounds_estimated: bool

    def __post_init__(self) -> None:
        points = _columns(self.points)
        object.__setattr__(self, "points", points)
        alpha, beta = points.f_alpha, points.f_beta
        if not len(points):
            raise ValueError("a reference set needs at least one point")
        if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
            raise ValueError("non-finite reference point")
        if not ((alpha[:-1] < alpha[1:]).all() and (beta[:-1] > beta[1:]).all()):
            raise ValueError(
                "reference points must be mutually non-dominated and "
                "canonically sorted by f_alpha"
            )
        self.problem_spec()  # dimension, bounds and i_ref

    def problem_spec(self) -> ProblemSpec:
        """The :class:`ProblemSpec` a run against this reference set uses."""
        return ProblemSpec(
            function_id=self.function_id,
            instance_id=self.instance_id,
            dimension=self.dimension,
            ideal=self.ideal,
            nadir=self.nadir,
            i_ref=self.i_ref,
            refset_version=self.version,
        )


def nondominated_rows(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Row indices of the non-dominated points ``(alpha[i], beta[i])``, in
    canonical ascending-``f_alpha`` order.

    Rows are sorted by ``alpha``, then ``beta``; a row is kept iff its
    ``beta`` is strictly below every earlier sorted row's.  The sort is
    stable, so of equal points only the first row survives.  Raises
    ``ValueError`` on a non-finite value, which no reference set may hold.
    """
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("non-finite objective value")
    order = np.lexsort((beta, alpha))
    beta = beta[order]
    keep = np.empty(len(order), dtype=bool)
    keep[:1] = True
    np.less(beta[1:], np.minimum.accumulate(beta)[:-1], out=keep[1:])
    return order[keep]


def _line(f_alpha: float, f_beta: float) -> str:
    """A point's canonical text: both values at 17 significant digits."""
    return f"{f_alpha:.17g}\t{f_beta:.17g}"


def _line_chunks(points: PointColumns) -> Iterator[Iterator[str]]:
    """The points' canonical lines, formatted ``_ROWS`` rows at a time."""
    for k in range(0, len(points), _ROWS):
        rows = slice(k, k + _ROWS)
        yield map(_line, points.f_alpha[rows].tolist(), points.f_beta[rows].tolist())


def version_of(points: Iterable[ObjectiveVector]) -> str:
    """Content hash of a point set's canonical serialization: the SHA-256 of
    the points' canonical lines joined by newlines, fed to the hash one
    chunk of lines at a time, so the joined text is never built."""
    digest = hashlib.sha256()
    separator = ""
    for lines in _line_chunks(_columns(points)):
        digest.update((separator + "\n".join(lines)).encode("ascii"))
        separator = "\n"
    return digest.hexdigest()[:_VERSION_DIGITS]


def _i_ref_from(points: PointColumns, ideal: ObjectiveVector, nadir: ObjectiveVector) -> float:
    span_alpha = nadir.f_alpha - ideal.f_alpha
    span_beta = nadir.f_beta - ideal.f_beta
    # A huge point's quotient may overflow to inf, as a Python float's does.
    with np.errstate(over="ignore"):
        hv = sweep_hypervolume(
            (points.f_alpha - ideal.f_alpha) / span_alpha,
            (points.f_beta - ideal.f_beta) / span_beta,
        )
    if hv >= 1.0:
        return -1.0
    return -hv if hv > 0.0 else 0.0


def _front(sets: Iterable[Iterable[ObjectiveVector]], key: str) -> PointColumns:
    """The non-dominated filter of the union of ``sets``; a single
    :class:`PointColumns` set is filtered without a copy."""
    columns = [_columns(s) for s in sets]
    if len(columns) == 1:
        points = columns[0]
    else:
        points = PointColumns(
            np.concatenate([np.empty(0), *(c.f_alpha for c in columns)]),
            np.concatenate([np.empty(0), *(c.f_beta for c in columns)]),
        )
    try:
        rows = nondominated_rows(points.f_alpha, points.f_beta)
    except ValueError as exc:
        raise ValueError(f"merge {key}: {exc}") from None
    return points[rows]


def merge(
    sets: Iterable[Iterable[ObjectiveVector]],
    *,
    function_id: str,
    instance_id: int,
    dimension: int,
    ideal: ObjectiveVector,
    nadir: ObjectiveVector | None = None,
) -> ReferenceSet:
    """Merge raw solution sets for one problem key into a reference set.

    The result's points are the non-dominated filter of the union, so the
    operation is order-independent and idempotent, and each set may be
    passed already reduced to its own front.  A :class:`PointColumns` set
    is filtered as it is; any other set is read in one ``np.fromiter``
    pass.  A non-finite value raises ``ValueError`` naming the problem.
    The bounds passed are exact; ``nadir=None`` estimates the nadir from
    the extreme points of the merged front and flags the result as
    estimated.
    """
    key = suite.problem_id(function_id, dimension, instance_id)
    front = _front(sets, key)
    if not len(front):
        raise ValueError("merge: no points supplied")
    estimated = nadir is None
    if estimated:
        nadir = ObjectiveVector(front[-1].f_alpha, front[0].f_beta)
    if not (ideal.f_alpha < nadir.f_alpha and ideal.f_beta < nadir.f_beta):
        raise ValueError(
            f"degenerate bounds for {key}: "
            f"ideal {ideal} must be strictly below nadir {nadir}"
        )

    return ReferenceSet(
        function_id=function_id,
        instance_id=instance_id,
        dimension=dimension,
        points=front,
        ideal=ideal,
        nadir=nadir,
        i_ref=_i_ref_from(front, ideal, nadir),
        version=version_of(front),
        bounds_estimated=estimated,
    )


def refset_path(directory: Path | str, function_id: str, dimension: int, instance_id: int) -> Path:
    """Conventional file location of one problem's reference set."""
    return Path(directory) / problem_file(function_id, dimension, instance_id)


def write_reference_set(rs: ReferenceSet, path: Path | str) -> Path:
    """Write ``rs`` through ``write_lines``, its point lines formatted from
    the columns ``_ROWS`` at a time."""
    bounds = "estimated" if rs.bounds_estimated else "analytic"
    header = (
        f"# function={rs.function_id} instance={rs.instance_id} "
        f"dimension={rs.dimension} version={rs.version} i_ref={rs.i_ref:.17g}",
        f"# ideal_alpha={rs.ideal.f_alpha:.17g} ideal_beta={rs.ideal.f_beta:.17g} "
        f"nadir_alpha={rs.nadir.f_alpha:.17g} nadir_beta={rs.nadir.f_beta:.17g} "
        f"bounds={bounds}",
        "# clipping: hypervolume counts the ROI box only; negative normalized "
        "coordinates are clamped to 0",
    )
    points = itertools.chain.from_iterable(_line_chunks(rs.points))
    return write_lines(path, itertools.chain(header, points))


def _bounds_estimated(text: str) -> bool:
    if text not in ("analytic", "estimated"):
        raise ValueError(f"expected analytic or estimated, got {text!r}")
    return text == "estimated"


def _point(line: str) -> tuple[float, float]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected 2 columns, got {len(parts)}")
    f_alpha, f_beta = float(parts[0]), float(parts[1])
    if not (math.isfinite(f_alpha) and math.isfinite(f_beta)):
        raise ValueError("non-finite value")
    return f_alpha, f_beta


# Header keys, each with the conversion of its value.
_HEADER = {
    "function": str, "instance": int, "dimension": int, "version": str, "i_ref": float,
    "ideal_alpha": float, "ideal_beta": float, "nadir_alpha": float, "nadir_beta": float,
    "bounds": _bounds_estimated,
}


def read_reference_set(path: Path | str) -> ReferenceSet:
    """Parse a reference-set file; every failure raises :class:`LogParseError`
    naming ``path:line``.

    All header keys must parse, with ``bounds`` either ``analytic`` or
    ``estimated``; each point is two finite numbers.  The header must pass
    ``ProblemSpec``'s checks and the points ``ReferenceSet``'s.  The stored
    ``i_ref`` and version must match recomputation from the points
    bit-for-bit; a mismatch means the file was edited or corrupted.

    Lines come from ``numbered_lines``, which reports a non-ASCII byte
    anywhere in the file before any other failure; a bad point raises where
    it is met.  Each point is appended to two ``array("d")`` columns, which
    become the set's points without a copy.
    """
    path = Path(path)
    header: dict[str, tuple[str, int]] = {}
    alpha, beta = array("d"), array("d")
    number = 1
    for number, line in numbered_lines(path):
        if line.startswith("#"):
            for token in line[1:].split():
                key, sep, value = token.partition("=")
                if sep:
                    header[key] = (value, number)
        else:
            f_alpha, f_beta = convert_at(path, number, "point", _point, line)
            alpha.append(f_alpha)
            beta.append(f_beta)

    rs = build_header(
        path, header, _HEADER,
        lambda v: ReferenceSet(
            function_id=v["function"],
            instance_id=v["instance"],
            dimension=v["dimension"],
            points=PointColumns(np.frombuffer(alpha), np.frombuffer(beta)),
            ideal=ObjectiveVector(v["ideal_alpha"], v["ideal_beta"]),
            nadir=ObjectiveVector(v["nadir_alpha"], v["nadir_beta"]),
            i_ref=v["i_ref"],
            version=v["version"],
            bounds_estimated=v["bounds"],
        ),
        number,
    )
    if rs.version != version_of(rs.points):
        raise LogParseError(
            path, header["version"][1],
            f"stored version {rs.version} does not match point content {version_of(rs.points)}",
        )
    recomputed = _i_ref_from(rs.points, rs.ideal, rs.nadir)
    if recomputed != rs.i_ref:
        raise LogParseError(
            path, header["i_ref"][1],
            f"stored i_ref {rs.i_ref!r} does not match recomputation {recomputed!r}",
        )
    return rs


def load_reference_set(
    directory: Path | str, function_id: str, dimension: int, instance_id: int
) -> ReferenceSet:
    """Read one problem's reference set from its conventional location in
    ``directory``, checking that the file is for that problem."""
    key = suite.problem_id(function_id, dimension, instance_id)
    path = refset_path(directory, function_id, dimension, instance_id)
    if not path.is_file():
        raise FileNotFoundError(f"no reference set for problem {key} (expected {path})")
    rs = read_reference_set(path)
    if (rs.function_id, rs.dimension, rs.instance_id) != (function_id, dimension, instance_id):
        raise ValueError(
            f"{path}: file is for {rs.function_id}:{rs.dimension}:{rs.instance_id}, not {key}"
        )
    return rs
