"""Reference sets: versioned non-dominated point sets per problem.

A reference set fixes the target difficulty for one problem instance: its
negated normalized hypervolume is the absolute reference value ``i_ref``
(always in [-1, 0] thanks to ROI clipping), and a content hash over the
canonically sorted, 17-significant-digit serialization of its points is
the version string displayed with any derived performance data.  Neither
is passed in: ``i_ref`` is computed from the points and bounds when a
:class:`ReferenceSet` is made, and ``version`` from the points the first
time it is read.  The writer derives the version it stores from the lines
it writes, so writing a set formats and hashes each point once.

Files are plain text: ``#``-prefixed ``key=value`` header lines followed
by one ``f_alpha<TAB>f_beta`` line per point at 17 significant digits.

A set's points live in two read-only float64 columns (:class:`PointColumns`)
from the merge to the file and back: the filter, ``i_ref``, the version
and the writer work on the columns, the writer and the hash share one
formatter of ``_FORMAT_ROWS`` points per ``%`` operation, and the reader
converts a batch of lines into them at once, so no stage holds one object
or one line of text per point.
"""

from __future__ import annotations

import hashlib
import itertools
from array import array
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from bibench import suite
from bibench.archive import sweep_hypervolume
from bibench.core import Columns, ObjectiveVector, ProblemSpec, RowError
from bibench.datalog import (
    LogParseError, add_header_key, atomic_write, build_header, convert_at, numbered_batches,
    problem_file, read_rows, rows_at_lines,
)

__all__ = [
    "PointColumns",
    "ReferenceSet",
    "front",
    "load_reference_set",
    "merge",
    "nondominated_rows",
    "read_reference_set",
    "refset_path",
    "version_of",
    "write_reference_set",
]

_VERSION_DIGITS = 16


class PointColumns(Columns):
    """Read-only raw objective vectors held as two float64 columns,
    ``f_alpha`` and ``f_beta``; iterating yields :class:`ObjectiveVector`."""

    __slots__ = ("f_alpha", "f_beta")
    _dtypes = ("f8", "f8")
    _item = ObjectiveVector


@dataclass(frozen=True)
class ReferenceSet:
    """An immutable reference set for one problem key.

    ``points`` are raw objective vectors in canonical order (ascending
    ``f_alpha``, hence strictly descending ``f_beta``), held as
    :class:`PointColumns` (else ``TypeError``); the first point not finite or
    not in that order raises :class:`RowError`.  ``ideal`` and
    ``nadir`` are the normalization bounds; ``bounds_estimated`` marks a
    nadir read off the merged front's extreme points rather than known
    analytically.  ``i_ref`` and ``version`` are not arguments, so no set
    can carry values that disagree with its points: ``i_ref`` is computed
    from the checked points and bounds when the set is made, and
    ``version`` is derived from the points the first time it is read.
    """

    function_id: str
    instance_id: int
    dimension: int
    points: PointColumns
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    i_ref: float = field(init=False)
    bounds_estimated: bool

    def __post_init__(self) -> None:
        points = PointColumns.checked(self.points, "points")
        alpha, beta = points.f_alpha, points.f_beta
        if not len(points):
            raise ValueError("a reference set needs at least one point")
        finite = np.isfinite(alpha) & np.isfinite(beta)
        bad = ~finite
        bad[1:] |= ~((alpha[:-1] < alpha[1:]) & (beta[:-1] > beta[1:]))  # against the point before
        if bad.any():
            row = int(bad.argmax())
            raise RowError(row, "non-finite reference point" if not finite[row] else
                           "reference points must be mutually non-dominated and "
                           "canonically sorted by f_alpha")
        # ProblemSpec checks the key and bounds before i_ref is computed under them.
        ProblemSpec(self.function_id, self.instance_id, self.dimension, self.ideal, self.nadir,
                    i_ref=0.0, refset_version="")
        object.__setattr__(self, "i_ref", _i_ref_from(points, self.ideal, self.nadir))

    @cached_property
    def version(self) -> str:
        """``version_of(self.points)``, derived the first time it is read."""
        return version_of(self.points)

    def problem_spec(self) -> ProblemSpec:
        """The :class:`ProblemSpec` a run against this reference set uses."""
        return ProblemSpec(self.function_id, self.instance_id, self.dimension, self.ideal,
                           self.nadir, self.i_ref, self.version)


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


_LINE = "%.17g\t%.17g\n"  # a point's canonical text: both values at 17 significant digits
_FORMAT_ROWS = 512  # points per % operation: each formatted string stays near 20 kB


def _line_chunks(points: PointColumns) -> Iterator[str]:
    """The points' canonical lines, joined by newlines ``_FORMAT_ROWS`` points
    at a time, each block formatted by one ``%`` operation."""
    for k in range(0, len(points), _FORMAT_ROWS):
        block = slice(k, k + _FORMAT_ROWS)
        alpha, beta = points.f_alpha[block].tolist(), points.f_beta[block].tolist()
        yield (_LINE * len(alpha) % tuple(itertools.chain.from_iterable(zip(alpha, beta))))[:-1]


def _hash_lines(points: PointColumns, write: Callable[[bytes], object] | None = None) -> str:
    """The version of the canonical lines of ``points`` joined by newlines: the
    first ``_VERSION_DIGITS`` hex digits of their SHA-256.  Each block of
    ``_line_chunks`` is encoded once, fed to the hash and passed to ``write``,
    so the joined text is never built."""
    digest = hashlib.sha256()
    separator = ""
    for text in _line_chunks(points):
        block = (separator + text).encode("ascii")
        digest.update(block)
        if write is not None:
            write(block)
        separator = "\n"
    return digest.hexdigest()[:_VERSION_DIGITS]


def version_of(points: PointColumns) -> str:
    """The version of ``points``, a :class:`PointColumns` (else ``TypeError``):
    SHA-256 of their canonical lines joined by newlines, in 16 hex digits."""
    return _hash_lines(PointColumns.checked(points, "points"))


def _i_ref_from(points: PointColumns, ideal: ObjectiveVector, nadir: ObjectiveVector) -> float:
    hv = sweep_hypervolume(points.f_alpha, points.f_beta, ideal, nadir)
    if hv >= 1.0:
        return -1.0
    return -hv if hv > 0.0 else 0.0


def front(sets: Iterable[PointColumns]) -> PointColumns:
    """The non-dominated filter of the union of ``sets``, in canonical order,
    in new arrays that share no memory with any set.  A set that is not
    :class:`PointColumns` raises ``TypeError``."""
    columns = [PointColumns.checked(s, "each set") for s in sets]
    alpha = np.concatenate([np.empty(0), *(c.f_alpha for c in columns)])
    beta = np.concatenate([np.empty(0), *(c.f_beta for c in columns)])
    rows = nondominated_rows(alpha, beta)
    return PointColumns(alpha[rows], beta[rows])


def merge(
    sets: Iterable[PointColumns],
    *,
    function_id: str,
    instance_id: int,
    dimension: int,
    ideal: ObjectiveVector,
    nadir: ObjectiveVector | None = None,
) -> ReferenceSet:
    """Merge raw solution sets for one problem key into a reference set.

    The result's points are :func:`front` of the :class:`PointColumns`
    sets, their union's non-dominated filter, so merging is
    order-independent and idempotent, and a set may be passed already
    reduced to its front.  A non-finite value, or bounds ``ReferenceSet``
    rejects, raises ``ValueError`` naming the problem.  The bounds passed
    are exact; ``nadir=None`` estimates the nadir from the extreme points
    of the merged front and flags the result as estimated.
    """
    key = suite.problem_id(function_id, dimension, instance_id)
    try:
        points = front(sets)
        if len(points):
            estimated = nadir is None
            if estimated:
                nadir = ObjectiveVector(points.f_alpha[-1].item(), points.f_beta[0].item())
            return ReferenceSet(
                function_id=function_id, instance_id=instance_id, dimension=dimension,
                points=points, ideal=ideal, nadir=nadir, bounds_estimated=estimated,
            )
    except ValueError as exc:
        raise ValueError(f"merge {key}: {exc}") from None
    raise ValueError("merge: no points supplied")


def refset_path(directory: Path | str, function_id: str, dimension: int, instance_id: int) -> Path:
    """Conventional file location of one problem's reference set."""
    return Path(directory) / problem_file(function_id, dimension, instance_id)


def write_reference_set(rs: ReferenceSet, path: Path | str) -> Path:
    """Write ``rs`` through ``atomic_write`` in one pass over its points:
    each block of lines goes to the file and to the version hash together.
    The first header line reserves the version's ``_VERSION_DIGITS``, which
    are filled in before the file is published; ``rs.version`` is not read."""
    bounds = "estimated" if rs.bounds_estimated else "analytic"
    before_version = (f"# function={rs.function_id} instance={rs.instance_id} "
                      f"dimension={rs.dimension} version=")
    header = (
        f"{before_version}{'0' * _VERSION_DIGITS} i_ref={rs.i_ref:.17g}\n"
        f"# ideal_alpha={rs.ideal.f_alpha:.17g} ideal_beta={rs.ideal.f_beta:.17g} "
        f"nadir_alpha={rs.nadir.f_alpha:.17g} nadir_beta={rs.nadir.f_beta:.17g} "
        f"bounds={bounds}\n"
        "# clipping: hypervolume counts the ROI box only; negative normalized "
        "coordinates are clamped to 0\n"
    ).encode("ascii")
    with atomic_write(path) as f:
        f.write(header)
        version = _hash_lines(rs.points, f.write)
        f.write(b"\n")
        f.seek(len(before_version))  # ASCII: one byte per character
        f.write(version.encode("ascii"))
    return Path(path)


def _bounds_estimated(text: str) -> bool:
    if text not in ("analytic", "estimated"):
        raise ValueError(f"expected analytic or estimated, got {text!r}")
    return text == "estimated"


def _point(line: str) -> tuple[float, float]:
    parts = line.split("\t")
    if len(parts) != 2:
        raise ValueError(f"expected 2 columns, got {len(parts)}")
    return float(parts[0]), float(parts[1])


# Header keys, each with the conversion of its value.
_HEADER = {
    "function": str, "instance": int, "dimension": int, "version": str, "i_ref": float,
    "ideal_alpha": float, "ideal_beta": float, "nadir_alpha": float, "nadir_beta": float,
    "bounds": _bounds_estimated,
}


def read_reference_set(path: Path | str) -> ReferenceSet:
    """Parse a reference-set file; every failure raises :class:`LogParseError`
    naming ``path:line``.

    Lines are parsed first: header keys parse, each given once, ``bounds``
    is ``analytic`` or ``estimated``, and a point is two numbers.  Then
    :class:`ReferenceSet` names its first non-finite or out-of-order point's
    line, and a header ``ProblemSpec`` refuses at the last header line.  The
    stored version and ``i_ref`` must equal, bit for bit, those the set
    derives from its points, each at its own header line; a mismatch means
    the file was edited or corrupted.  ``read_rows`` converts points a batch at
    a time (``_point`` the rest) into the set's columns.
    """
    path = Path(path)
    header: dict[str, tuple[str, int]] = {}
    alpha, beta = array("d"), array("d")

    def parse(number: int, line: str) -> None:
        if line.startswith("#"):
            for token in line[1:].split():
                key, sep, value = token.partition("=")
                if sep:
                    add_header_key(path, header, key, value, number)
        else:
            f_alpha, f_beta = convert_at(path, number, "point", _point, line)
            alpha.append(f_alpha)
            beta.append(f_beta)

    number = read_rows(numbered_batches(path), "#", (alpha, beta), parse)

    with rows_at_lines(path, "#"):
        stored, rs = build_header(
            path, header, _HEADER,
            lambda v: (v, ReferenceSet(
                function_id=v["function"], instance_id=v["instance"], dimension=v["dimension"],
                points=PointColumns(alpha, beta),
                ideal=ObjectiveVector(v["ideal_alpha"], v["ideal_beta"]),
                nadir=ObjectiveVector(v["nadir_alpha"], v["nadir_beta"]),
                bounds_estimated=v["bounds"],
            )),
            number,
        )
    for key, derived in (("version", "point content"), ("i_ref", "recomputation")):
        if stored[key] != getattr(rs, key):
            raise LogParseError(
                path, header[key][1],
                f"stored {key} {stored[key]} does not match {derived} {getattr(rs, key)}",
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
    found = suite.problem_id(rs.function_id, rs.dimension, rs.instance_id)
    if found != key:
        raise ValueError(f"{path}: file is for {found}, not {key}")
    return rs
