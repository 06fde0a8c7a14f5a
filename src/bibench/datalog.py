"""Run logs: exact-replay records of every archive-entering evaluation.

A run log stores, per accepted evaluation, the evaluation count and both
raw objective values (``runlog-v2``), plus a header that pins the
problem, algorithm, and the reference data (version, absolute ``i_ref``,
ideal and nadir) the run was assessed against.  Assessment reads nothing
else, so the evaluated search points are not kept.  A :class:`RunHeader`
is the run's :class:`ProblemSpec` plus algorithm and budget, so it is
checked when made.  Floats are written as shortest round-trip decimals, so
``read_log(write_log(log))`` reproduces the log bit-for-bit and
rewriting a parsed file is byte-identical.  Records are held as columns,
24 bytes each, and written, read and replayed without record objects.

Every bibench file is a text file of lines, so their shared line handling
lives here: ``atomic_write`` publishes every file atomically, ``write_lines``
writes a file of lines through it, ``numbered_batches`` reads every file a
batch of lines at a time, ``read_rows`` converts a batch of records or points
at once, and ``convert_at`` and ``build_header`` turn a bad value or header
into a :class:`LogParseError` naming ``path:line``.

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
then indicator update and first-hit record for an accepted point).  Live
runs feed it every evaluation and ``recalculate`` a log's records under a
(possibly different) problem spec, so a replay reproduces the live
indicator trajectory and first-hit runtimes by construction; this is what
makes reference-set updates retroactive without re-running experiments.
Both normalize a block of columns at a time, the run each block of
evaluations its budget guard hands on, the replay a chunk of records.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import shutil
from array import array
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from bibench.archive import Archive
from bibench.core import (Columns, NormalizedObjectives, ObjectiveVector, ProblemSpec,
                          RowError, check_budget, normalize_columns)
from bibench.indicator import EMPTY_ARCHIVE_VALUE, IndicatorValue, evaluate_incremental
from bibench.suite import problem_id
from bibench.targets import RuntimeRecord, absolute_targets

__all__ = [
    "Assessment",
    "ExperimentWriter",
    "IndexEntry",
    "LogParseError",
    "LogReplayError",
    "LogVersionError",
    "LogRecord",
    "RecordColumns",
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

# Lines ``write_lines`` joins per write, bytes ``numbered_batches`` reads per
# batch: few enough to bound memory, many enough that call overhead stays small.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 14


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
    "nadir_alpha": float, "nadir_beta": float, "budget": int,
}


class LogParseError(ValueError):
    """A malformed line in a bibench file; carries the 1-based line number."""

    def __init__(self, path: Path | str, line_number: int, message: str) -> None:
        super().__init__(f"{path}:{line_number}: {message}")
        self.line_number = line_number


@contextlib.contextmanager
def atomic_write(path: Path | str, encoding: str | None = None) -> Iterator[IO]:
    """Yield a file to write ``path``'s new content to, binary or, given an
    ``encoding``, text with ``\\n`` line ends, and publish it when the ``with``
    body ends.  The file is a temporary one in ``path``'s directory,
    which is created if missing, and replaces ``path`` by ``os.replace``:
    ``path`` holds the old bytes or the new ones, never a part, even when the
    body raises part-way, unless the machine itself fails (there is no
    ``fsync``).  A failed write removes the temporary file and the directories
    the call created."""
    path = Path(path)
    created = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with (temporary.open("wb") if encoding is None
              else temporary.open("w", encoding=encoding, newline="\n")) as f:
            yield f
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        for directory in created:
            with contextlib.suppress(OSError):  # not empty: keep it
                directory.rmdir()
        raise


def write_lines(path: Path | str, lines: Iterable[str], encoding: str = "ascii") -> Path:
    """Write ``lines``, any iterable of strings, as the newline-terminated
    file ``"\\n".join(lines) + "\\n"`` through ``atomic_write``.  Lines are
    joined and written in chunks of ``_WRITE_CHUNK``, so a generator's
    lines are never all held at once."""
    lines = iter(lines)
    chunks = iter(lambda: list(itertools.islice(lines, _WRITE_CHUNK)), [])
    with atomic_write(path, encoding) as f:
        # The first chunk is written even when empty: no lines give "\n".
        f.write("\n".join(next(chunks, [])) + "\n")
        for chunk in chunks:
            f.write("\n".join(chunk) + "\n")
    return Path(path)


def numbered_batches(path: Path | str) -> Iterator[tuple[int, list[str]]]:
    """Yield the 1-based number of the first line and the lines of each batch of
    whole lines of an ASCII file, numbered as ``str.splitlines`` numbers the whole
    text, once a scan finds every byte ASCII (else the same cut, yielding nothing,
    raises :class:`LogParseError` at the first other byte's line).  A file shorter
    than ``_READ_CHUNK`` is cut from the bytes scanned; a longer one is read again,
    cut after each chunk's last ``\\n`` or ``\\r``, so a file of ``\\n``, ``\\r\\n``
    or ``\\r`` lines is never held whole."""
    path = Path(path)
    with open(path, "rb") as f:
        read = partial(f.read, _READ_CHUNK)
        first = read()
        clean = first.isascii() and all(map(bytes.isascii, iter(read, b"")))
        f.seek(0)
        chunks = [first] if len(first) < _READ_CHUNK else iter(read, b"")
        number, held = 1, []
        # A chunk's last "\r" waits for the next byte, which may make it a "\r\n".
        for chunk in itertools.chain(chunks, [b""]):  # b"" flushes what is held
            if not clean and not chunk.isascii():  # an ASCII stand-in takes the byte's line
                at = next(i for i, byte in enumerate(chunk) if byte > 127)
                before = b"".join([*held, chunk[:at], b"x"]).decode("ascii").splitlines()
                raise LogParseError(path, number + len(before) - 1, "non-ASCII byte")
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
            if chunk and not cut:  # no line end yet: joined once one comes
                held.append(chunk)
            elif lines := b"".join([*held, chunk[:cut]]).decode("ascii").splitlines():
                held = [chunk[cut:]]
                if clean:
                    yield number, lines
                number += len(lines)


def _non_blank(batches: Iterable[tuple[int, list[str]]]) -> Iterator[tuple[int, str]]:
    return ((number, line) for first, lines in batches
            for number, raw in enumerate(lines, first) if (line := raw.strip()))


def read_rows(batches: Iterable[tuple[int, list[str]]], header_mark: str,
              columns: tuple[array, ...], parse: Callable[[int, str], None]) -> int:
    """Pass ``parse`` the number and stripped text of each non-blank line of ``batches``
    up to the first row, the first not starting with ``header_mark``.  Convert later
    batches at once, split on tabs, by ``int`` into a ``"q"`` column and ``float`` into
    a ``"d"`` one, else pass them to ``parse`` line by line, which would take every
    batch taken here with its values.  Return the number of the last non-blank line, or 1."""
    width, rows, last = len(columns) + 1, False, 1  # a line's cells, then the "\n" joined after it
    for first, lines in batches:
        k = 0
        while not rows and k < len(lines):
            if line := lines[k].strip():
                parse(first + k, line)
                rows, last = not line.startswith(header_mark), first + k
            k += 1
        # Each "\n" between lines is a cell no conversion takes, so a line with a
        # cell too many or too few converts one; the count checks the last line.
        n, cells = len(lines) - k, "\t\n\t".join(lines[k:]).split("\t")
        if n and len(cells) == width * n - 1:
            with contextlib.suppress(ValueError, OverflowError):  # OverflowError: beyond int64
                new = [array(c.typecode, map(int if c.typecode == "q" else float, cells[j::width]))
                       for j, c in enumerate(columns)]
                for column, values in zip(columns, new):
                    column.extend(values)
                last = first + len(lines) - 1  # a converted line is never blank
                continue
        for last, line in _non_blank([(first + k, lines[k:])]):
            parse(last, line)
    return last


def convert_at(path: Path | str, line: int, what: str, fn, text: str):
    """``fn(text)``, with a ``ValueError`` re-raised as :class:`LogParseError`
    naming ``path:line`` and ``what``."""
    try:
        return fn(text)
    except ValueError as exc:
        raise LogParseError(path, line, f"{what}: {exc}") from None


def add_header_key(path: Path, header: dict, key: str, value: str, line: int) -> None:
    """``header[key] = (value, line)``; a key given twice raises :class:`LogParseError`."""
    if key in header:
        raise LogParseError(path, line, f"header key {key} repeats line {header[key][1]}")
    header[key] = (value, line)


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
    except RowError:
        raise  # rows_at_lines names the line of its row
    except ValueError as exc:
        raise LogParseError(path, max(line for _, line in header.values()), str(exc)) from None


@contextlib.contextmanager
def rows_at_lines(path: Path, header_mark: str) -> Iterator[None]:
    """Re-raise a :class:`RowError` as :class:`LogParseError` at the line of its
    row, found by reading ``path`` again and skipping ``header_mark`` lines."""
    try:
        yield
    except RowError as exc:
        rows = (number for number, line in _non_blank(numbered_batches(path))
                if not line.startswith(header_mark))
        raise LogParseError(path, next(itertools.islice(rows, exc.row, None)), str(exc)) from None


class LogVersionError(ValueError):
    """The file declares no format, or one its reader does not read."""


def _format_body(path: Path, expected: str) -> Iterator[tuple[int, list[str]]]:
    """``numbered_batches(path)`` after line 1, which must be
    ``% format=<expected>`` (otherwise :class:`LogVersionError`)."""
    batches = numbered_batches(path)
    _, lines = next(batches, (1, [""]))
    first = lines[0].strip()
    if not first.startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    declared = first.partition("=")[2].strip()
    if declared != expected:
        raise LogVersionError(f"{path}: unsupported format {declared!r}, expected {expected}")
    return itertools.chain([(2, lines[1:])], batches)


class LogReplayError(ValueError):
    """A logged record was rejected on replay, indicating log corruption."""


@dataclass(frozen=True)
class RunHeader(ProblemSpec):
    """A run's :class:`ProblemSpec` plus ``algorithm`` and a ``budget`` ``check_budget`` accepts."""

    algorithm: str
    budget: int  # int64, as the eval counts it bounds
    _NAMES = ("function_id", "algorithm", "refset_version")  # file names and text fields
    _PATH_PARTS = ProblemSpec._PATH_PARTS + ("algorithm",)

    def __post_init__(self) -> None:
        super().__post_init__()
        check_budget("budget", self.budget)

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


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One archive-entering evaluation: count and raw objectives."""

    eval_count: int
    objectives: ObjectiveVector


class RecordColumns(Columns):
    """Run-log records held as an int64 ``eval_count`` column and float64
    ``f_alpha`` and ``f_beta`` columns; iterating yields :class:`LogRecord`."""

    __slots__ = ("eval_count", "f_alpha", "f_beta")
    _dtypes = ("i8", "f8", "f8")
    _item = staticmethod(lambda t, f_alpha, f_beta: LogRecord(t, ObjectiveVector(f_alpha, f_beta)))


@dataclass(frozen=True)
class RunLog:
    """A run's header and archive-entering records, checked once when made:
    :class:`RecordColumns` (else ``TypeError``) whose counts rise strictly from 1
    to at most the budget, with finite objectives (else :class:`RowError`)."""

    header: RunHeader
    records: RecordColumns

    def __post_init__(self) -> None:
        records = RecordColumns.checked(self.records, "records")
        counts, budget = records.eval_count, self.header.budget
        before = np.concatenate(([0], counts[:-1]))
        finite = np.isfinite(records.f_alpha) & np.isfinite(records.f_beta)
        bad = (counts <= before) | ~finite | (counts > budget)
        if bad.any():
            row = int(bad.argmax())
            t, last = int(counts[row]), int(before[row])
            raise RowError(row, (
                f"eval counts must increase strictly from 1: got {t} after {last}" if t <= last
                else f"record at eval {t} has non-finite objectives" if not finite[row]
                else f"record at eval {t} exceeds budget {budget}"))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_log(log: RunLog, path: Path | str) -> Path:
    """Serialize a run log, formatting its records one chunk of rows at a
    time; the :class:`RunLog` checked them when it was made."""
    h = log.header
    values = (
        h.function_id, h.instance_id, h.dimension, h.algorithm, h.refset_version,
        _fmt(h.i_ref), _fmt(h.ideal.f_alpha), _fmt(h.ideal.f_beta),
        _fmt(h.nadir.f_alpha), _fmt(h.nadir.f_beta), h.budget,
    )
    header = [f"% format={LOG_FORMAT}", *(f"% {k}={v}" for k, v in zip(_HEADER, values))]
    records = (f"{t}\t{f_alpha!r}\t{f_beta!r}"
               for chunk in log.records.chunks() for t, f_alpha, f_beta in zip(*chunk))
    return write_lines(path, itertools.chain(header, records))


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
    :class:`LogVersionError`, anything else :class:`LogParseError` naming
    ``path:line``.  Lines are parsed first: a repeated header key, a header
    line after a record, or a record without 3 parsable columns or with a
    count beyond int64 fails at its line.  Then :class:`RunHeader` checks the
    header, at the last header line, and :class:`RunLog` the records, at the
    line of the first bad row.  ``read_rows`` parses records a batch at a time."""
    path = Path(path)
    header: dict[str, tuple[str, int]] = {}
    run_header: RunHeader | None = None
    evals, alpha, beta = columns = array("q"), array("d"), array("d")

    def parse(number: int, line: str) -> None:
        nonlocal run_header
        if line.startswith("%"):
            if run_header is not None:
                raise LogParseError(path, number, "header line after the first record")
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                add_header_key(path, header, key.strip(), value.strip(), number)
            return
        if run_header is None:
            run_header = build_header(path, header, _HEADER, _run_header, number,
                                      "records start before header keys")
        parts = line.split("\t")
        if len(parts) != 3:
            raise LogParseError(path, number,
                                f"expected 3 columns (eval, f_alpha, f_beta), got {len(parts)}")
        try:
            evals.append(int(parts[0]))
            alpha.append(float(parts[1]))
            beta.append(float(parts[2]))
        except (ValueError, OverflowError) as exc:  # OverflowError: a count beyond int64
            raise LogParseError(path, number, str(exc)) from None

    number = read_rows(_format_body(path, LOG_FORMAT), "%", columns, parse)
    if run_header is None:
        run_header = build_header(path, header, _HEADER, _run_header, number)
    with rows_at_lines(path, "%"):
        return RunLog(run_header, RecordColumns(evals, alpha, beta))


class Assessment:
    """One run's assessment under one problem spec.  ``normalized`` maps a
    block of raw objective columns into it, and ``add_normalized`` inserts
    each point, in order, then updates the indicator and first hits.  A live
    run adds every evaluation and a replay every record, a block at a time,
    so a replay reproduces the live trajectory by construction."""

    def __init__(self, spec: ProblemSpec) -> None:
        self.spec = spec
        self.archive = Archive()
        self.value = EMPTY_ARCHIVE_VALUE
        self.runtimes = RuntimeRecord(absolute_targets(spec))

    def normalized(self, f_alpha: np.ndarray, f_beta: np.ndarray) -> Iterator[NormalizedObjectives]:
        """The points ``(f_alpha[i], f_beta[i])`` normalized under ``spec``, in order."""
        u, v = normalize_columns(f_alpha, f_beta, self.spec.ideal, self.spec.nadir)
        return map(NormalizedObjectives, u.tolist(), v.tolist())

    def add_normalized(self, eval_count: int, z: NormalizedObjectives) -> bool:
        """Assess evaluation ``eval_count``; True if ``z`` entered the archive."""
        outcome = self.archive.insert(z, eval_count)
        if not outcome.accepted:
            self.runtimes.evaluations = eval_count
            return False
        self.value = evaluate_incremental(self.value, outcome, self.archive)
        self.runtimes.record(eval_count, self.value.value)
        return True


def recalculate(
    log: RunLog, new_spec: ProblemSpec
) -> tuple[list[tuple[int, IndicatorValue]], RuntimeRecord]:
    """Replay a log through a fresh :class:`Assessment` under ``new_spec``.

    Returns the indicator trajectory at each logged evaluation and the
    runtime record against ``new_spec``'s absolute targets.  Every logged
    record was archive-entering when written and dominance is invariant
    under the (monotone affine) normalization, so a rejected record raises
    :class:`LogReplayError`.  Records are normalized ``Columns._ROWS`` at a
    time; a value whose normalization overflows to ``inf`` raises from
    ``Archive.insert``, as in a live run.
    """
    h = log.header
    logged, spec = (problem_id(p.function_id, p.dimension, p.instance_id) for p in (h, new_spec))
    if logged != spec:
        raise ValueError(f"problem key mismatch: log is {logged}, spec is {spec}")
    assessment = Assessment(new_spec)
    trajectory: list[tuple[int, IndicatorValue]] = []
    add, append = assessment.add_normalized, trajectory.append
    records, rows = log.records, Columns._ROWS
    for k in range(0, len(records), rows):
        points = assessment.normalized(records.f_alpha[k:k + rows], records.f_beta[k:k + rows])
        for t, z in zip(records.eval_count[k:k + rows].tolist(), points):
            if not add(t, z):
                raise LogReplayError(
                    f"record at eval {t} was rejected on replay; the log is corrupt or incomplete"
                )
            append((t, assessment.value))
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
        self._rows: dict[str, dict[str, str]] = {}  # algorithm -> file -> index row
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
        """Stage ``log``; returns the path ``close`` publishes it at.  A second
        log of one algorithm and problem raises ``ValueError`` and stages nothing."""
        h = log.header
        name = problem_file(h.function_id, h.dimension, h.instance_id)
        if name in self._rows.get(h.algorithm, {}):
            raise ValueError(f"a log of {h.algorithm} for {name} is already written")
        write_log(log, self._staging / h.algorithm / name)
        row = f"{name}\t{h.function_id}\t{h.instance_id}\t{h.dimension}\t{h.refset_version}"
        self._rows.setdefault(h.algorithm, {})[name] = row
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
                for name in rows:
                    os.replace(self._staging / algorithm / name, self._root / algorithm / name)
                write_lines(self._root / algorithm / INDEX_FILENAME, [
                    f"% format={INDEX_FORMAT}",
                    "% columns=file function instance dimension refset_version",
                    *rows.values(),
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
    rows: dict[tuple[str, str], int] = {}  # ("file", name) or ("problem", key) -> line
    for number, line in _non_blank(_format_body(path, INDEX_FORMAT)):
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
        problem = problem_id(function_id, dimension, instance_id)
        for key, what in ((("file", name), name), (("problem", problem), "problem " + problem)):
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
