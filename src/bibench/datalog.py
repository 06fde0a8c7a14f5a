"""Run logs: exact-replay records of every archive-entering evaluation.

A run log stores, per accepted evaluation, the evaluation count, both raw
objective values and the decision vector, plus a header that pins the
problem, algorithm, and the reference data (version, absolute ``i_ref``,
ideal and nadir) the run was assessed against.  Floats are written as
shortest round-trip decimals, so ``read_log(write_log(log))`` reproduces
the log bit-for-bit and rewriting a parsed file is byte-identical.

``Assessment`` is the one per-evaluation loop (normalize, archive insert,
indicator update, first-hit record).  Live runs feed it every evaluation
and ``recalculate`` feeds it a log's records under a (possibly different)
problem spec, so a replay reproduces the live indicator trajectory and
first-hit runtimes by construction; this is what makes reference-set
updates retroactive without re-running experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

from bibench.archive import Archive
from bibench.core import ObjectiveVector, ProblemSpec, normalize
from bibench.indicator import EMPTY_ARCHIVE_VALUE, IndicatorValue, evaluate_incremental
from bibench.targets import RuntimeRecord, absolute_targets

__all__ = [
    "Assessment",
    "IndexEntry",
    "LogParseError",
    "LogReplayError",
    "LogVersionError",
    "LogRecord",
    "RunHeader",
    "RunLog",
    "iter_experiment",
    "log_path",
    "read_experiment_index",
    "read_log",
    "recalculate",
    "rewrite_with_spec",
    "write_experiment_index",
    "write_log",
]

LOG_FORMAT = "runlog-v1"
INDEX_FILENAME = "experiment_index.tsv"

_HEADER_KEYS = (
    "function",
    "instance",
    "dimension",
    "algorithm",
    "refset_version",
    "i_ref",
    "ideal_alpha",
    "ideal_beta",
    "nadir_alpha",
    "nadir_beta",
    "budget",
)


class LogParseError(ValueError):
    """A malformed log line; carries the 1-based line number."""

    def __init__(self, path: Path | str, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


class LogVersionError(ValueError):
    """The log file declares an unknown format version."""


class LogReplayError(ValueError):
    """A logged record was rejected on replay, indicating log corruption."""


@dataclass(frozen=True)
class RunHeader:
    function_id: str
    instance_id: int
    dimension: int
    algorithm: str
    refset_version: str
    i_ref: float
    ideal: ObjectiveVector
    nadir: ObjectiveVector
    budget: int

    def problem_spec(self) -> ProblemSpec:
        return ProblemSpec(
            function_id=self.function_id,
            instance_id=self.instance_id,
            dimension=self.dimension,
            ideal=self.ideal,
            nadir=self.nadir,
            i_ref=self.i_ref,
            refset_version=self.refset_version,
        )


@dataclass(frozen=True)
class LogRecord:
    """One archive-entering evaluation: count, raw objectives, decision."""

    eval_count: int
    objectives: ObjectiveVector
    decision: tuple[float, ...]


@dataclass(frozen=True)
class RunLog:
    header: RunHeader
    records: tuple[LogRecord, ...]


def log_path(
    directory: Path | str,
    algorithm: str,
    function_id: str,
    dimension: int,
    instance_id: int,
) -> Path:
    """``<dir>/<algorithm>/<function>_d<dim>_i<inst>.tsv``."""
    return Path(directory) / algorithm / f"{function_id}_d{dimension}_i{instance_id}.tsv"


def _fmt(x: float) -> str:
    return repr(float(x))


def write_log(log: RunLog, path: Path | str) -> Path:
    """Serialize a run log; raises ``ValueError`` on inconsistent records."""
    h = log.header
    last = 0
    for r in log.records:
        if r.eval_count <= last:
            raise ValueError(
                f"record eval_counts must increase strictly: {r.eval_count} after {last}"
            )
        last = r.eval_count
        if not r.objectives.is_finite():
            raise ValueError(f"record at eval {r.eval_count} has non-finite objectives")
        if len(r.decision) != h.dimension:
            raise ValueError(
                f"record at eval {r.eval_count} has a {len(r.decision)}-dimensional "
                f"decision vector, expected {h.dimension}"
            )

    lines = [
        f"% format={LOG_FORMAT}",
        f"% function={h.function_id}",
        f"% instance={h.instance_id}",
        f"% dimension={h.dimension}",
        f"% algorithm={h.algorithm}",
        f"% refset_version={h.refset_version}",
        f"% i_ref={_fmt(h.i_ref)}",
        f"% ideal_alpha={_fmt(h.ideal.f_alpha)}",
        f"% ideal_beta={_fmt(h.ideal.f_beta)}",
        f"% nadir_alpha={_fmt(h.nadir.f_alpha)}",
        f"% nadir_beta={_fmt(h.nadir.f_beta)}",
        f"% budget={h.budget}",
    ]
    for r in log.records:
        cells = [str(r.eval_count), _fmt(r.objectives.f_alpha), _fmt(r.objectives.f_beta)]
        cells.extend(_fmt(c) for c in r.decision)
        lines.append("\t".join(cells))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def _convert(path: Path, number: int, what: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise LogParseError(path, number, f"{what}: {exc}") from None


def _run_header(
    path: Path, header: dict[str, tuple[str, int]], number: int, missing_message: str
) -> RunHeader:
    """Build the header from ``key -> (value, line)``; missing keys are
    reported at line ``number``."""
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise LogParseError(path, number, f"{missing_message}: {', '.join(missing)}")

    def get(key: str, convert=str):
        return _convert(path, header[key][1], key, convert, header[key][0])

    return RunHeader(
        function_id=get("function"),
        instance_id=get("instance", int),
        dimension=get("dimension", int),
        algorithm=get("algorithm"),
        refset_version=get("refset_version"),
        i_ref=get("i_ref", float),
        ideal=ObjectiveVector(get("ideal_alpha", float), get("ideal_beta", float)),
        nadir=ObjectiveVector(get("nadir_alpha", float), get("nadir_beta", float)),
        budget=get("budget", int),
    )


def read_log(path: Path | str) -> RunLog:
    """Parse a run log.  A missing or unknown format raises
    :class:`LogVersionError`; malformed headers or records, including eval
    counts that are not strictly increasing within ``[1, budget]``, raise
    :class:`LogParseError` naming ``path:line``."""
    path = Path(path)
    header: dict[str, tuple[str, int]] = {}
    run_header: RunHeader | None = None
    records: list[LogRecord] = []
    width = budget = last = 0
    lines = path.read_text(encoding="ascii").splitlines()
    if not lines or not lines[0].startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    declared = lines[0].partition("=")[2].strip()
    if declared != LOG_FORMAT:
        raise LogVersionError(
            f"{path}: unsupported log format {declared!r}, expected {LOG_FORMAT!r}"
        )
    for number, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            if run_header is not None:
                raise LogParseError(path, number, "header line after the first record")
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = (value.strip(), number)
            continue
        if run_header is None:
            run_header = _run_header(path, header, number, "records start before header keys")
            width = 3 + run_header.dimension
            budget = run_header.budget
        parts = line.split("\t")
        if len(parts) != width:
            raise LogParseError(
                path, number,
                f"expected {width} columns (eval, f_alpha, f_beta, x), got {len(parts)}",
            )
        try:
            eval_count = int(parts[0])
            objectives = ObjectiveVector(float(parts[1]), float(parts[2]))
            decision = tuple(float(c) for c in parts[3:])
        except ValueError as exc:
            raise LogParseError(path, number, str(exc)) from None
        if not objectives.is_finite() or not all(math.isfinite(c) for c in decision):
            raise LogParseError(path, number, "non-finite value in record")
        if eval_count <= last:
            raise LogParseError(
                path, number,
                f"eval counts must increase strictly from 1: got {eval_count} after {last}",
            )
        if eval_count > budget:
            raise LogParseError(path, number, f"eval count {eval_count} exceeds budget {budget}")
        last = eval_count
        records.append(LogRecord(eval_count, objectives, decision))

    if run_header is None:
        run_header = _run_header(path, header, len(lines), "missing header keys")
    return RunLog(run_header, tuple(records))


class Assessment:
    """One run's assessment under one problem spec.  ``add`` takes every
    evaluation in order: normalize, archive insert, indicator update, first
    hits.  Live runs and log replay both use it, so a replay reproduces the
    live trajectory by construction."""

    def __init__(self, spec: ProblemSpec) -> None:
        self.spec = spec
        self.archive = Archive()
        self.value = EMPTY_ARCHIVE_VALUE
        self.runtimes = RuntimeRecord(absolute_targets(spec))

    def add(self, eval_count: int, y: ObjectiveVector) -> bool:
        """Assess evaluation ``eval_count``; True if it entered the archive."""
        outcome = self.archive.insert(normalize(y, self.spec), eval_count)
        self.value = evaluate_incremental(self.value, outcome, self.archive)
        self.runtimes.record(eval_count, self.value)
        return outcome.accepted


def recalculate(
    log: RunLog, new_spec: ProblemSpec
) -> tuple[list[tuple[int, IndicatorValue]], RuntimeRecord]:
    """Replay a log through a fresh :class:`Assessment` under ``new_spec``.

    Returns the indicator trajectory at each logged evaluation and the
    runtime record against ``new_spec``'s absolute targets.  Every logged
    record was archive-entering when written and dominance is invariant
    under the (monotone affine) normalization, so a rejected record raises
    :class:`LogReplayError`.
    """
    h = log.header
    if (h.function_id, h.instance_id, h.dimension) != (
        new_spec.function_id, new_spec.instance_id, new_spec.dimension,
    ):
        raise ValueError(
            f"problem key mismatch: log is {h.function_id}:{h.dimension}:{h.instance_id}, "
            f"spec is {new_spec.function_id}:{new_spec.dimension}:{new_spec.instance_id}"
        )
    assessment = Assessment(new_spec)
    trajectory: list[tuple[int, IndicatorValue]] = []
    for r in log.records:
        if not assessment.add(r.eval_count, r.objectives):
            raise LogReplayError(
                f"record at eval {r.eval_count} was rejected on replay; "
                f"the log is corrupt or incomplete"
            )
        trajectory.append((r.eval_count, assessment.value))
    # The live run recorded up to the full budget; only archive-entering
    # evaluations are logged, so restore the true total spent.
    runtimes = assessment.runtimes
    runtimes.evaluations = max(runtimes.evaluations, h.budget)
    return trajectory, runtimes


@dataclass(frozen=True)
class IndexEntry:
    file: str  # path relative to the index's directory
    function_id: str
    instance_id: int
    dimension: int
    refset_version: str


def write_experiment_index(directory: Path | str, entries: Sequence[IndexEntry]) -> Path:
    """Write the per-algorithm index listing every run file (written last)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["% format=experiment-index-v1", "% columns=file function instance dimension refset_version"]
    for e in entries:
        lines.append(
            f"{e.file}\t{e.function_id}\t{e.instance_id}\t{e.dimension}\t{e.refset_version}"
        )
    path = directory / INDEX_FILENAME
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def read_experiment_index(path: Path | str) -> tuple[IndexEntry, ...]:
    path = Path(path)
    entries: list[IndexEntry] = []
    for number, raw in enumerate(path.read_text(encoding="ascii").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise LogParseError(path, number, f"expected 5 columns, got {len(parts)}")
        instance_id = _convert(path, number, "instance", int, parts[2])
        dimension = _convert(path, number, "dimension", int, parts[3])
        entries.append(IndexEntry(parts[0], parts[1], instance_id, dimension, parts[4]))
    return tuple(entries)


def iter_experiment(logs_dir: Path | str) -> Iterator[tuple[str, RunLog]]:
    """Read every run log listed by the experiment indexes under ``logs_dir``
    (one subdirectory per algorithm), yielding ``(subdirectory name, log)``
    in sorted index order.  A log whose header disagrees with its index row
    on the reference-set version raises ``ValueError``."""
    logs_dir = Path(logs_dir)
    index_paths = sorted(logs_dir.glob(f"*/{INDEX_FILENAME}"))
    if not index_paths:
        raise FileNotFoundError(
            f"no {INDEX_FILENAME} found under {logs_dir} "
            "(expected one algorithm subdirectory per run set)"
        )
    for index_path in index_paths:
        algorithm_dir = index_path.parent
        for entry in read_experiment_index(index_path):
            log = read_log(algorithm_dir / entry.file)
            if entry.refset_version != log.header.refset_version:
                raise ValueError(
                    f"{algorithm_dir / entry.file}: index lists refset version "
                    f"{entry.refset_version} but the log header says "
                    f"{log.header.refset_version}"
                )
            yield algorithm_dir.name, log


def rewrite_with_spec(log: RunLog, rs_spec: ProblemSpec) -> RunLog:
    """A copy of ``log`` whose header carries ``rs_spec``'s reference data."""
    new_header = replace(
        log.header,
        refset_version=rs_spec.refset_version,
        i_ref=rs_spec.i_ref,
        ideal=rs_spec.ideal,
        nadir=rs_spec.nadir,
    )
    return RunLog(new_header, log.records)
