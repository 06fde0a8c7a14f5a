"""Run logs: exact-replay records of every archive-entering evaluation.

A run log stores, per accepted evaluation, the evaluation count and both
raw objective values (``runlog-v2``), plus a header that pins the
problem, algorithm, and the reference data (version, absolute ``i_ref``,
ideal and nadir) the run was assessed against.  Assessment reads nothing
else, so the evaluated search points are not kept.  A :class:`RunHeader`
is the run's :class:`ProblemSpec` plus algorithm and budget, so it is
checked when made.  Floats are written as shortest round-trip decimals, so
``read_log(write_log(log))`` reproduces the log bit-for-bit and
rewriting a parsed file is byte-identical.

Every bibench file is a text file of lines, so their shared line handling
lives here: ``write_lines`` writes every file atomically, ``numbered_lines``
streams the lines of every run log, index and reference set, ``convert_at``
turns a bad value into a :class:`LogParseError` naming ``path:line``, and
``build_header`` does the same for a whole ``key=value`` header.

``ExperimentWriter`` owns the experiment tree: one directory per
algorithm holding its run logs and their index.  Logs are staged under
``<root>/.staging`` and published together with the indexes on a clean
close, so a failed run or recalc leaves an existing tree as it was (and
removes a root it created itself).  The one exception is a run that
bootstraps its reference sets: they are written to ``<root>/refsets``
before the first problem runs, and a later failure leaves them there.
``iter_experiment`` walks the tree and rejects a directory of run logs
without an index.

``Assessment`` is the one per-evaluation loop (normalize, archive insert,
indicator update, first-hit record).  Live runs feed it every evaluation
and ``recalculate`` feeds it a log's records under a (possibly different)
problem spec, so a replay reproduces the live indicator trajectory and
first-hit runtimes by construction; this is what makes reference-set
updates retroactive without re-running experiments.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

from bibench.archive import Archive
from bibench.core import ObjectiveVector, ProblemSpec, normalize
from bibench.indicator import EMPTY_ARCHIVE_VALUE, IndicatorValue, evaluate_incremental
from bibench.targets import RuntimeRecord, absolute_targets

__all__ = [
    "Assessment",
    "ExperimentWriter",
    "IndexEntry",
    "LogParseError",
    "LogReplayError",
    "LogVersionError",
    "LogRecord",
    "RunHeader",
    "RunLog",
    "iter_experiment",
    "problem_file",
    "read_experiment_index",
    "read_log",
    "recalculate",
    "write_log",
]

LOG_FORMAT = "runlog-v2"
INDEX_FORMAT = "experiment-index-v1"
INDEX_FILENAME = "experiment_index.tsv"

# Lines ``write_lines`` joins per write, bytes ``numbered_lines`` reads per
# call: few enough to bound memory, many enough that call overhead stays small.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 16


def problem_file(function_id: str, dimension: int, instance_id: int) -> str:
    """The file name of one problem's run log or reference set."""
    return f"{function_id}_d{dimension}_i{instance_id}.tsv"


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1, got {value}")
    return value


# Header keys in file order, each with the conversion of its value.
_HEADER = {
    "function": str, "instance": int, "dimension": int, "algorithm": str,
    "refset_version": str, "i_ref": float, "ideal_alpha": float, "ideal_beta": float,
    "nadir_alpha": float, "nadir_beta": float, "budget": _positive_int,
}


class LogParseError(ValueError):
    """A malformed line in a bibench file; carries the 1-based line number."""

    def __init__(self, path: Path | str, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


def write_lines(path: Path | str, lines: Iterable[str], encoding: str = "ascii") -> Path:
    """Write ``lines``, any iterable of strings, as the newline-terminated
    file ``"\\n".join(lines) + "\\n"``, creating its directory.  Lines are
    joined and written in chunks of ``_WRITE_CHUNK``, so a generator's
    lines are never all held at once.  A temporary file in that directory
    replaces ``path`` by ``os.replace``, so ``path`` holds the old bytes or
    the new ones, never a part, even when ``lines`` raises part-way, unless
    the machine itself fails (there is no ``fsync``)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.tmp")
    lines = iter(lines)
    chunks = iter(lambda: list(itertools.islice(lines, _WRITE_CHUNK)), [])
    try:
        with temporary.open("w", encoding=encoding, newline="\n") as f:
            # The first chunk is written even when empty: no lines give "\n".
            f.write("\n".join(next(chunks, [])) + "\n")
            for chunk in chunks:
                f.write("\n".join(chunk) + "\n")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path


def numbered_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """Yield the 1-based number and stripped text of every non-blank line
    of an ASCII file, numbered as ``str.splitlines`` numbers them.  The
    file's bytes are first scanned for a non-ASCII byte, which raises
    :class:`LogParseError` at its line (counted by ``\\n``) before any line
    is yielded; lines are then read about ``_READ_CHUNK`` bytes at a time,
    so neither the text nor its list of lines is ever held whole."""
    path = Path(path)
    with open(path, "rb") as f:
        ends = 0  # "\n" bytes before the chunk
        for chunk in iter(partial(f.read, _READ_CHUNK), b""):
            if not chunk.isascii():
                at = next(i for i, byte in enumerate(chunk) if byte > 127)
                raise LogParseError(path, ends + chunk.count(b"\n", 0, at) + 1, "non-ASCII byte")
            ends += chunk.count(b"\n")
        f.seek(0)
        number = 0
        # A batch ends at a "\n" or at the file's end, and "\n" always ends a
        # text line, so each batch splits into lines as the whole text would.
        for batch in iter(partial(f.readlines, _READ_CHUNK), []):
            for number, raw in enumerate(b"".join(batch).decode("ascii").splitlines(), number + 1):
                if line := raw.strip():
                    yield number, line


def convert_at(path: Path | str, line: int, what: str, fn, text: str):
    """``fn(text)``, with a ``ValueError`` re-raised as :class:`LogParseError`
    naming ``path:line`` and ``what``."""
    try:
        return fn(text)
    except ValueError as exc:
        raise LogParseError(path, line, f"{what}: {exc}") from None


def build_header(
    path: Path, header: dict[str, tuple[str, int]], keys: dict, build, line: int,
    missing: str = "missing header keys",
):
    """``build(values)`` from a file's ``key -> (text, line)`` header, each of
    ``keys`` converted by ``convert_at`` with its conversion.  Missing keys
    are reported at ``line``, a ``ValueError`` from ``build`` at the last
    header line."""
    absent = [k for k in keys if k not in header]
    if absent:
        raise LogParseError(path, line, f"{missing}: {', '.join(absent)}")
    values = {k: convert_at(path, header[k][1], k, fn, header[k][0]) for k, fn in keys.items()}
    try:
        return build(values)
    except ValueError as exc:
        raise LogParseError(path, max(line for _, line in header.values()), str(exc)) from None


class LogVersionError(ValueError):
    """The file declares no format, or one its reader does not read."""


def _format_body(path: Path, expected: str) -> Iterator[tuple[int, str]]:
    """``numbered_lines(path)`` after line 1, which must be
    ``% format=<expected>`` (otherwise :class:`LogVersionError`)."""
    lines = numbered_lines(path)
    number, first = next(lines, (0, ""))
    if number != 1 or not first.startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    declared = first.partition("=")[2].strip()
    if declared != expected:
        raise LogVersionError(f"{path}: unsupported format {declared!r}, expected {expected}")
    return lines


class LogReplayError(ValueError):
    """A logged record was rejected on replay, indicating log corruption."""


@dataclass(frozen=True)
class RunHeader(ProblemSpec):
    algorithm: str
    budget: int

    @classmethod
    def for_run(cls, spec: ProblemSpec, algorithm: str, budget: int) -> RunHeader:
        """The header of a run of ``algorithm`` with ``budget`` evaluations,
        assessed against ``spec``'s reference data."""
        return cls(**_spec_fields(spec), algorithm=algorithm, budget=budget)

    def problem_spec(self) -> ProblemSpec:
        """The plain :class:`ProblemSpec` this header was made from."""
        return ProblemSpec(**_spec_fields(self))


def _spec_fields(spec: ProblemSpec) -> dict:
    return {f.name: getattr(spec, f.name) for f in fields(ProblemSpec)}


@dataclass(frozen=True)
class LogRecord:
    """One archive-entering evaluation: count and raw objectives."""

    eval_count: int
    objectives: ObjectiveVector


@dataclass(frozen=True)
class RunLog:
    header: RunHeader
    records: tuple[LogRecord, ...]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_log(log: RunLog, path: Path | str) -> Path:
    """Serialize a run log in one pass over its records; raises
    ``ValueError`` on inconsistent records, leaving ``path`` as it was."""
    h = log.header
    values = (
        h.function_id, h.instance_id, h.dimension, h.algorithm, h.refset_version,
        _fmt(h.i_ref), _fmt(h.ideal.f_alpha), _fmt(h.ideal.f_beta),
        _fmt(h.nadir.f_alpha), _fmt(h.nadir.f_beta), h.budget,
    )

    def lines() -> Iterator[str]:
        yield f"% format={LOG_FORMAT}"
        yield from (f"% {k}={v}" for k, v in zip(_HEADER, values))
        last = 0
        for r in log.records:
            if r.eval_count <= last:
                raise ValueError(
                    f"record eval_counts must increase strictly: {r.eval_count} after {last}"
                )
            last = r.eval_count
            if not r.objectives.is_finite():
                raise ValueError(f"record at eval {r.eval_count} has non-finite objectives")
            yield f"{r.eval_count}\t{_fmt(r.objectives.f_alpha)}\t{_fmt(r.objectives.f_beta)}"

    return write_lines(path, lines())


def _run_header(v: dict) -> RunHeader:
    """The header from ``_HEADER``'s converted values, checked by ``ProblemSpec``."""
    return RunHeader(
        function_id=v["function"], instance_id=v["instance"], dimension=v["dimension"],
        ideal=ObjectiveVector(v["ideal_alpha"], v["ideal_beta"]),
        nadir=ObjectiveVector(v["nadir_alpha"], v["nadir_beta"]), i_ref=v["i_ref"],
        refset_version=v["refset_version"], algorithm=v["algorithm"], budget=v["budget"],
    )


def read_log(path: Path | str) -> RunLog:
    """Parse a ``runlog-v2`` run log.  A missing or other format raises
    :class:`LogVersionError`; malformed headers or records, including eval
    counts that are not strictly increasing within ``[1, budget]``, a
    ``budget`` below 1, and a header that ``ProblemSpec`` rejects, raise
    :class:`LogParseError` naming ``path:line``."""
    path = Path(path)
    header: dict[str, tuple[str, int]] = {}
    run_header: RunHeader | None = None
    records: list[LogRecord] = []
    budget = last = 0
    number = 1
    for number, line in _format_body(path, LOG_FORMAT):
        if line.startswith("%"):
            if run_header is not None:
                raise LogParseError(path, number, "header line after the first record")
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                header[key.strip()] = (value.strip(), number)
            continue
        if run_header is None:
            run_header = build_header(
                path, header, _HEADER, _run_header, number, "records start before header keys"
            )
            budget = run_header.budget
        parts = line.split("\t")
        if len(parts) != 3:
            raise LogParseError(
                path, number, f"expected 3 columns (eval, f_alpha, f_beta), got {len(parts)}"
            )
        try:
            eval_count = int(parts[0])
            objectives = ObjectiveVector(float(parts[1]), float(parts[2]))
        except ValueError as exc:
            raise LogParseError(path, number, str(exc)) from None
        if not objectives.is_finite():
            raise LogParseError(path, number, "non-finite value in record")
        if eval_count <= last:
            raise LogParseError(
                path, number,
                f"eval counts must increase strictly from 1: got {eval_count} after {last}",
            )
        if eval_count > budget:
            raise LogParseError(path, number, f"eval count {eval_count} exceeds budget {budget}")
        last = eval_count
        records.append(LogRecord(eval_count, objectives))

    if run_header is None:
        run_header = build_header(path, header, _HEADER, _run_header, number)
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
        self.runtimes.record(eval_count, self.value.value)
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


class ExperimentWriter:
    """The experiment tree under ``root``.  ``write`` stages each run log
    under ``<root>/.staging/<algorithm>/``; ``close`` then moves every
    staged log to ``<root>/<algorithm>/<function>_d<dim>_i<inst>.tsv``,
    writes each algorithm's index listing its logs, and removes the
    staging directory.  Used as a context manager, it closes on success;
    when the body raises it publishes nothing and removes the staging
    directory, and the root too if it did not exist when the writer was
    made and is empty, so a failed run or recalc leaves the file system as
    it was.  Only one staged log is held in memory at a time."""

    def __init__(self, root: Path | str) -> None:
        self._root = Path(root)
        self._staging = self._root / ".staging"
        self._rows: dict[str, list[tuple[str, str]]] = {}  # algorithm -> (file, row)
        self._root_created = not self._root.exists()

    def __enter__(self) -> ExperimentWriter:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc_type is None:
            self.close()
        else:
            shutil.rmtree(self._staging, ignore_errors=True)
            if self._root_created:
                with contextlib.suppress(OSError):  # not empty: keep it
                    self._root.rmdir()

    def write(self, log: RunLog) -> Path:
        """Stage ``log``; returns the path ``close`` publishes it at."""
        h = log.header
        name = problem_file(h.function_id, h.dimension, h.instance_id)
        write_log(log, self._staging / h.algorithm / name)
        self._rows.setdefault(h.algorithm, []).append((
            name, f"{name}\t{h.function_id}\t{h.instance_id}\t{h.dimension}\t{h.refset_version}"
        ))
        return self._root / h.algorithm / name

    def close(self) -> None:
        """Publish: per algorithm, delete the old index, move the logs in,
        write the new index, and remove the staging directory even when
        this fails.  An interrupted close leaves logs without an index,
        which ``iter_experiment`` rejects, never new logs under an old
        index."""
        try:
            for algorithm, rows in self._rows.items():
                (self._root / algorithm).mkdir(parents=True, exist_ok=True)
                (self._root / algorithm / INDEX_FILENAME).unlink(missing_ok=True)
                for name, _ in rows:
                    os.replace(self._staging / algorithm / name, self._root / algorithm / name)
                write_lines(self._root / algorithm / INDEX_FILENAME, [
                    f"% format={INDEX_FORMAT}",
                    "% columns=file function instance dimension refset_version",
                    *(row for _, row in rows),
                ])
        finally:
            shutil.rmtree(self._staging, ignore_errors=True)


def read_experiment_index(path: Path | str) -> tuple[IndexEntry, ...]:
    """Parse an experiment index.  A missing or unknown format raises
    :class:`LogVersionError`; a malformed row, a file that is not a plain
    name in the index's directory (empty, ``.``, ``..`` or holding a
    ``/``), an instance or dimension below 1, and a row that repeats an
    earlier row's file or problem raise :class:`LogParseError` naming
    ``path:line``."""
    path = Path(path)
    entries: list[IndexEntry] = []
    rows: dict[str | tuple, int] = {}  # file name or problem key -> line
    for number, line in _format_body(path, INDEX_FORMAT):
        if line.startswith("%"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise LogParseError(path, number, f"expected 5 columns, got {len(parts)}")
        name, function_id = parts[0], parts[1]
        if name in ("", ".", "..") or "/" in name:
            raise LogParseError(path, number, f"file {name!r} is not a name in this directory")
        instance_id = convert_at(path, number, "instance", _positive_int, parts[2])
        dimension = convert_at(path, number, "dimension", _positive_int, parts[3])
        problem = (function_id, dimension, instance_id)
        for key, what in ((name, name), (problem, "problem " + ":".join(map(str, problem)))):
            if key in rows:
                raise LogParseError(path, number, f"{what} is already listed on line {rows[key]}")
            rows[key] = number
        entries.append(IndexEntry(name, function_id, instance_id, dimension, parts[4]))
    return tuple(entries)


def _is_run_log(path: Path) -> bool:
    """Whether ``path`` is a file whose line 1 declares a run-log format."""
    if not path.is_file():
        return False
    with path.open("rb") as f:
        return f.readline(64).strip().startswith(b"% format=runlog-")


def _reject_link(path: Path, what: str) -> None:
    """Raise ``ValueError`` naming ``path`` if it is a symbolic link."""
    if path.is_symlink():
        raise ValueError(f"{path}: {what} is a symbolic link, which could lead out of the tree")


def iter_experiment(logs_dir: Path | str) -> Iterator[RunLog]:
    """Read every run log listed by the experiment indexes under ``logs_dir``
    (one subdirectory per algorithm, named after it), in sorted index order.
    An algorithm directory, index or listed log that is a symbolic link,
    which could lead out of the tree, raises ``ValueError`` naming it.  A
    log whose header disagrees
    with its index row on the function, instance, dimension or
    reference-set version, or with the directory name on the algorithm,
    raises ``ValueError`` naming the log.  A subdirectory holding a run log
    but no index raises ``FileNotFoundError`` naming it before any log is
    read; other subdirectories without an index, such as reference sets,
    are skipped."""
    logs_dir = Path(logs_dir)
    unindexed = [
        d.name for d in sorted(logs_dir.glob("*"))
        if d.is_dir() and not (d / INDEX_FILENAME).exists() and any(map(_is_run_log, d.iterdir()))
    ]
    if unindexed:
        raise FileNotFoundError(
            f"{logs_dir}: run logs without an {INDEX_FILENAME} in {', '.join(unindexed)}"
        )
    index_paths = sorted(logs_dir.glob(f"*/{INDEX_FILENAME}"))
    if not index_paths:
        raise FileNotFoundError(
            f"no {INDEX_FILENAME} found under {logs_dir} "
            "(expected one algorithm subdirectory per run set)"
        )
    for index_path in index_paths:
        algorithm_dir = index_path.parent
        _reject_link(algorithm_dir, "algorithm directory")
        _reject_link(index_path, "index")
        for entry in read_experiment_index(index_path):
            path = algorithm_dir / entry.file
            _reject_link(path, "run log")
            log = read_log(path)
            h = log.header
            for what, listed, logged in (
                ("algorithm", algorithm_dir.name, h.algorithm),
                ("function", entry.function_id, h.function_id),
                ("instance", entry.instance_id, h.instance_id),
                ("dimension", entry.dimension, h.dimension),
                ("refset version", entry.refset_version, h.refset_version),
            ):
                if listed != logged:
                    raise ValueError(
                        f"{path}: index lists {what} {listed} but the log header says {logged}"
                    )
            yield log
