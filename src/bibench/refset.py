"""Reference sets: versioned non-dominated point sets per problem.

A reference set fixes the target difficulty for one problem instance: its
negated normalized hypervolume is the absolute reference value ``i_ref``
(always in [-1, 0] thanks to ROI clipping), and a content hash over the
canonically sorted, 17-significant-digit serialization of its points is
the version string displayed with any derived performance data.

Files are plain text: ``#``-prefixed ``key=value`` header lines followed
by one ``f_alpha<TAB>f_beta`` line per point at 17 significant digits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from bibench import suite
from bibench.archive import staircase_hypervolume
from bibench.core import NormalizedObjectives, ObjectiveVector, ProblemSpec

__all__ = [
    "ReferenceSet",
    "load_reference_set",
    "merge",
    "nondominated_filter",
    "read_reference_set",
    "refset_path",
    "version_of",
    "write_reference_set",
]

_VERSION_DIGITS = 16


@dataclass(frozen=True)
class ReferenceSet:
    """An immutable reference set for one problem key.

    ``points`` are raw objective vectors in canonical order (ascending
    ``f_alpha``, hence strictly descending ``f_beta``).  ``ideal`` and
    ``nadir`` are the normalization bounds ``i_ref`` was computed under;
    ``bounds_estimated`` marks bounds read off the merged front's extreme
    points rather than known analytically.
    """

    function_id: str
    instance_id: int
    dimension: int
    points: tuple[ObjectiveVector, ...]
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    i_ref: float
    version: str
    bounds_estimated: bool

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a reference set needs at least one point")
        for a, b in zip(self.points, self.points[1:]):
            if not (a.f_alpha < b.f_alpha and a.f_beta > b.f_beta):
                raise ValueError(
                    "reference points must be mutually non-dominated and "
                    "canonically sorted by f_alpha"
                )
        if not (-1.0 <= self.i_ref <= 0.0):
            raise ValueError(f"i_ref must lie in [-1, 0], got {self.i_ref}")

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


def nondominated_filter(points: Iterable[ObjectiveVector]) -> tuple[ObjectiveVector, ...]:
    """Non-dominated subset of raw points, duplicates collapsed, in
    canonical ascending-``f_alpha`` order."""
    unique = sorted({(p.f_alpha, p.f_beta) for p in points})
    kept: list[ObjectiveVector] = []
    best_beta = math.inf
    for f_alpha, f_beta in unique:
        if f_beta < best_beta:
            kept.append(ObjectiveVector(f_alpha, f_beta))
            best_beta = f_beta
    return tuple(kept)


def _canonical_serialization(points: Sequence[ObjectiveVector]) -> str:
    return "\n".join(f"{p.f_alpha:.17g}\t{p.f_beta:.17g}" for p in points)


def version_of(points: Sequence[ObjectiveVector] | ReferenceSet) -> str:
    """Content hash of a point set's canonical serialization."""
    if isinstance(points, ReferenceSet):
        points = points.points
    digest = hashlib.sha256(_canonical_serialization(points).encode("ascii"))
    return digest.hexdigest()[:_VERSION_DIGITS]


def _i_ref_from(
    points: Iterable[ObjectiveVector], ideal: ObjectiveVector, nadir: ObjectiveVector
) -> float:
    span_alpha = nadir.f_alpha - ideal.f_alpha
    span_beta = nadir.f_beta - ideal.f_beta
    normalized = [
        NormalizedObjectives(
            (p.f_alpha - ideal.f_alpha) / span_alpha,
            (p.f_beta - ideal.f_beta) / span_beta,
        )
        for p in points
    ]
    hv = staircase_hypervolume(normalized)
    if hv >= 1.0:
        return -1.0
    return -hv if hv > 0.0 else 0.0


def merge(
    sets: Iterable[ReferenceSet | Iterable[ObjectiveVector]],
    *,
    function_id: str | None = None,
    instance_id: int | None = None,
    dimension: int | None = None,
    ideal: ObjectiveVector | None = None,
    nadir: ObjectiveVector | None = None,
) -> ReferenceSet:
    """Merge reference sets and/or raw solution sets for one problem key.

    The result's points are the non-dominated filter of the union, so the
    operation is order-independent and idempotent.  The problem key is
    taken from the keyword arguments or, if omitted, from the input
    reference sets (which must agree).  Normalization bounds work the same
    way: explicitly passed bounds are treated as exact; bounds all input
    reference sets agree on (and none marks estimated) are inherited;
    anything still missing is estimated from the extreme points of the
    merged front and flags the result as estimated.
    """
    pool: list[ObjectiveVector] = []
    rs_inputs: list[ReferenceSet] = []
    for s in sets:
        if isinstance(s, ReferenceSet):
            rs_inputs.append(s)
            pool.extend(s.points)
        else:
            pool.extend(s)
    if not pool:
        raise ValueError("merge: no points supplied")

    def _inherit(name: str, value):
        if value is not None:
            return value
        inherited = {getattr(rs, name) for rs in rs_inputs}
        if len(inherited) == 1:
            return inherited.pop()
        if not inherited:
            raise ValueError(f"merge: {name} not supplied and no reference-set inputs")
        raise ValueError(f"merge: inputs disagree on {name}: {sorted(map(str, inherited))}")

    function_id = _inherit("function_id", function_id)
    instance_id = _inherit("instance_id", instance_id)
    dimension = _inherit("dimension", dimension)

    front = nondominated_filter(pool)

    estimated = False
    exact_bounds_inherited = (
        ideal is None
        and nadir is None
        and bool(rs_inputs)
        and not any(rs.bounds_estimated for rs in rs_inputs)
        and len({(rs.ideal, rs.nadir) for rs in rs_inputs}) == 1
    )
    if exact_bounds_inherited:
        ideal = rs_inputs[0].ideal
        nadir = rs_inputs[0].nadir
    else:
        if ideal is None:
            ideal = ObjectiveVector(front[0].f_alpha, front[-1].f_beta)
            estimated = True
        if nadir is None:
            nadir = ObjectiveVector(front[-1].f_alpha, front[0].f_beta)
            estimated = True
    if not (ideal.f_alpha < nadir.f_alpha and ideal.f_beta < nadir.f_beta):
        raise ValueError(
            f"degenerate bounds for {function_id}:{dimension}:{instance_id}: "
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
    return Path(directory) / f"{function_id}_d{dimension}_i{instance_id}.tsv"


def write_reference_set(rs: ReferenceSet, path: Path | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    bounds = "estimated" if rs.bounds_estimated else "analytic"
    lines = [
        f"# function={rs.function_id} instance={rs.instance_id} "
        f"dimension={rs.dimension} version={rs.version} i_ref={rs.i_ref:.17g}",
        f"# ideal_alpha={rs.ideal.f_alpha:.17g} ideal_beta={rs.ideal.f_beta:.17g} "
        f"nadir_alpha={rs.nadir.f_alpha:.17g} nadir_beta={rs.nadir.f_beta:.17g} "
        f"bounds={bounds}",
        "# clipping: hypervolume counts the ROI box only; negative normalized "
        "coordinates are clamped to 0",
    ]
    lines.extend(f"{p.f_alpha:.17g}\t{p.f_beta:.17g}" for p in rs.points)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def read_reference_set(path: Path | str) -> ReferenceSet:
    """Parse a reference-set file, validating version and ``i_ref``.

    The stored ``i_ref`` and version must match recomputation from the
    parsed points bit-for-bit; a mismatch means the file was edited or
    corrupted.
    """
    path = Path(path)
    header: dict[str, str] = {}
    points: list[ObjectiveVector] = []
    for number, raw in enumerate(path.read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, _, value = token.partition("=")
                    header[key] = value
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{number}: expected 2 columns, got {len(parts)}")
        try:
            points.append(ObjectiveVector(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None

    required = (
        "function",
        "instance",
        "dimension",
        "version",
        "i_ref",
        "ideal_alpha",
        "ideal_beta",
        "nadir_alpha",
        "nadir_beta",
        "bounds",
    )
    missing = [k for k in required if k not in header]
    if missing:
        raise ValueError(f"{path}: missing header keys: {', '.join(missing)}")

    rs = ReferenceSet(
        function_id=header["function"],
        instance_id=int(header["instance"]),
        dimension=int(header["dimension"]),
        points=tuple(points),
        ideal=ObjectiveVector(float(header["ideal_alpha"]), float(header["ideal_beta"])),
        nadir=ObjectiveVector(float(header["nadir_alpha"]), float(header["nadir_beta"])),
        i_ref=float(header["i_ref"]),
        version=header["version"],
        bounds_estimated=header["bounds"] == "estimated",
    )
    if rs.version != version_of(rs.points):
        raise ValueError(
            f"{path}: stored version {rs.version} does not match point content "
            f"{version_of(rs.points)}"
        )
    recomputed = _i_ref_from(rs.points, rs.ideal, rs.nadir)
    if recomputed != rs.i_ref:
        raise ValueError(
            f"{path}: stored i_ref {rs.i_ref!r} does not match recomputation {recomputed!r}"
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
