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

Every bibench file is a table of lines, so their shared line handling
lives here: ``atomic_write`` publishes every file atomically, ``write_lines``
writes a file of lines through it, ``numbered_batches`` reads every file a
batch of lines at a time, and ``read_table``, the one reader of run logs,
indexes and reference sets, checks a file's format line and ``% key=value``
header and converts its rows a batch at a time, naming a bad line, value or
header in a :class:`LogParseError` at ``path:line``.

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
INDEX_FORMAT = "experiment-index-v2"
INDEX_FILENAME = "experiment_index.tsv"

# Lines ``write_lines`` joins per write, bytes ``numbered_batches`` reads per
# batch: few enough to bound memory, many enough that call overhead stays small.
_WRITE_CHUNK = 4096
_READ_CHUNK = 1 << 14
# The ASCII bytes besides "\r" that end a line for ``str.splitlines``.
_LINE_ENDS = (b"\n", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")


def problem_file(function_id: str, dimension: int, instance_id: int) -> str:
    """The file name of one problem's run log or reference set."""
    return f"{function_id}_d{dimension}_i{instance_id}.tsv"


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
    cut after each chunk's last line end (``_LINE_ENDS`` or ``\\r``), so a file is
    never held whole, whichever line ends it uses."""
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
            cut = max(chunk.rfind(b"\r", 0, -1), *map(chunk.rfind, _LINE_ENDS)) + 1
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


class LogVersionError(ValueError):
    """The file declares no format, or one its reader does not read."""


class HeaderError(ValueError):
    """A header value its rows contradict; :func:`read_table` names the line of ``key``."""

    def __init__(self, key: str, message: str) -> None:
        super().__init__(message)
        self.key = key


def _text(cell: str) -> str:
    """A text cell, stripped; a blank one or one starting with ``%`` is refused."""
    if not (text := cell.strip()) or text.startswith("%"):
        raise ValueError(f"expected a text cell, got {cell!r}")
    return text


# A typecode's cell conversion, and the column that holds the converted cells.
_CELLS = {"q": (int, partial(array, "q")), "d": (float, partial(array, "d")), "s": (_text, list)}


def read_table(path: Path | str, format: str, typecodes: str, keys: dict, build: Callable):
    """``build(values, *columns)`` of a table file, the one reader of every
    bibench file: line 1 is ``% format=<format>`` (else :class:`LogVersionError`),
    then ``% key=value`` header lines, then rows of tab-separated cells, one per
    typecode: ``q`` into an int64 ``array``, ``d`` a float64 one, ``s`` a list of
    stripped text.  ``values`` maps each of ``keys`` to its conversion of its text.
    Every other failure raises :class:`LogParseError` naming ``path:line``, at:

    - a ``%`` line after the first row, or a header key given twice;
    - the first row, for a missing key (or the last non-blank line, if no row);
    - a key whose text does not convert, or a row without one cell per
      typecode or with a cell that does not convert or, for ``q``, fit int64;
    - then, from ``build``: the line of a :class:`RowError`'s row, of a
      :class:`HeaderError`'s key, and the last header line for another ``ValueError``.

    Rows after the first convert a batch of lines at a time, else line by line."""
    path = Path(path)
    batches = numbered_batches(path)
    _, lines = next(batches, (1, [""]))
    if not (declared := lines[0].strip()).startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    if (declared := declared.partition("=")[2].strip()) != format:
        raise LogVersionError(f"{path}: unsupported format {declared!r}, expected {format}")
    header = {"format": (format, 1)}  # key -> (text, line)
    kinds = [_CELLS[code] for code in typecodes]
    columns = [column() for _, column in kinds]
    values, last, width = None, 1, len(typecodes) + 1  # a row's cells, then the "\n" after it

    def converted_keys(number: int) -> dict:
        if absent := [k for k in keys if k not in header]:
            raise LogParseError(path, number, f"missing header keys: {', '.join(absent)}")
        converted = {}
        for key, convert in keys.items():
            text, at = header[key]
            try:
                converted[key] = convert(text)
            except ValueError as exc:
                raise LogParseError(path, at, f"{key}: {exc}") from None
        return converted

    def parse(number: int, line: str) -> None:
        nonlocal values
        if line.startswith("%"):
            if values is not None:
                raise LogParseError(path, number, "header line after the first row")
            key, sep, text = line[1:].partition("=")
            if sep:
                if (key := key.strip()) in header:
                    raise LogParseError(path, number,
                                        f"header key {key} repeats line {header[key][1]}")
                header[key] = text.strip(), number
            return
        if values is None:
            values = converted_keys(number)
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise LogParseError(path, number, f"expected {len(columns)} columns, got {len(cells)}")
        try:
            for column, (convert, _), cell in zip(columns, kinds, cells):
                column.append(convert(cell))
        except (ValueError, OverflowError) as exc:  # OverflowError: a count beyond int64
            raise LogParseError(path, number, str(exc)) from None

    for first, lines in itertools.chain([(2, lines[1:])], batches):
        k = 0
        while values is None and k < len(lines):  # the header and the first row, by line
            if line := lines[k].strip():
                parse(first + k, line)
                last = first + k
            k += 1
        # Each "\n" between lines is a cell no conversion takes (a text cell
        # strips to blank), so a line with a cell too many or too few converts
        # one; the count checks the last line.
        n, cells = len(lines) - k, "\t\n\t".join(lines[k:]).split("\t")
        if n and len(cells) == width * n - 1:
            with contextlib.suppress(ValueError, OverflowError):
                new = [column(map(convert, cells[j::width]))
                       for j, (convert, column) in enumerate(kinds)]
                for column, converted in zip(columns, new):
                    column.extend(converted)
                continue
        for number, line in _non_blank([(first + k, lines[k:])]):
            parse(number, line)
    lines = cells = new = None  # the last batch is not held while ``build`` runs
    if values is None:  # no row: the last line is the last header line
        values = converted_keys(last)
    try:
        return build(values, *columns)
    except ValueError as exc:
        if isinstance(exc, RowError):
            rows = (number for number, line in _non_blank(numbered_batches(path))
                    if not line.startswith("%"))
            line = next(itertools.islice(rows, exc.row, None))
        else:
            line = header[exc.key][1] if isinstance(exc, HeaderError) else max(
                at for _, at in header.values())
        raise LogParseError(path, line, str(exc)) from None


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


def _run_log(v: dict, evals: array, alpha: array, beta: array) -> RunLog:
    """The log from ``_HEADER``'s converted values and the record columns."""
    header = RunHeader(
        function_id=v["function"], instance_id=v["instance"], dimension=v["dimension"],
        ideal=ObjectiveVector(v["ideal_alpha"], v["ideal_beta"]),
        nadir=ObjectiveVector(v["nadir_alpha"], v["nadir_beta"]), i_ref=v["i_ref"],
        refset_version=v["refset_version"], algorithm=v["algorithm"], budget=v["budget"],
    )
    return RunLog(header, RecordColumns(evals, alpha, beta))


def read_log(path: Path | str) -> RunLog:
    """Parse a ``runlog-v2`` run log, a table of ``eval<TAB>f_alpha<TAB>f_beta``
    records under ``_HEADER``'s keys, by :func:`read_table`'s rules:
    :class:`RunHeader` refuses a header at the last header line, and
    :class:`RunLog` a record at its line."""
    return read_table(path, LOG_FORMAT, "qdd", _HEADER, _run_log)


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
    file: str  # a name in the index's directory
    refset_version: str


class ExperimentWriter:
    """The experiment tree under ``root``.  ``write`` stages each run log
    under ``<root>/.staging/<algorithm>/``; ``close`` then moves every
    staged log to ``<root>/<algorithm>/<function>_d<dim>_i<inst>.tsv``,
    writes each algorithm's index, a ``file<TAB>refset_version`` row per
    log, and removes the staging directory.  Used as a context manager, it
    closes on success; when the body raises it publishes nothing and removes
    the staging directory, and the root too if it did not exist when the
    writer was made and is empty, so a failed run or recalc leaves the file
    system as it was.  Only one staged log is held in memory at a time."""

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
        self._rows.setdefault(h.algorithm, {})[name] = f"{name}\t{h.refset_version}"
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
                    "% columns=file refset_version",
                    *rows.values(),
                ])
        finally:
            shutil.rmtree(self._staging, ignore_errors=True)


def _index_entries(values: dict, files: list[str], versions: list[str]) -> tuple[IndexEntry, ...]:
    listed = set()
    for row, name in enumerate(files):
        if name in (".", "..") or "/" in name:
            raise RowError(row, f"file {name!r} is not a name in this directory")
        if name in listed:
            raise RowError(row, f"{name} is listed twice")
        listed.add(name)
    return tuple(map(IndexEntry, files, versions))


def read_experiment_index(path: Path | str) -> tuple[IndexEntry, ...]:
    """Parse an ``experiment-index-v2`` index, one ``file<TAB>refset_version``
    row per listed log, by :func:`read_table`'s rules.  A file that is not a
    plain name in the index's directory (``.``, ``..`` or holding a ``/``), or
    that an earlier row lists, is refused at its row's line."""
    return read_table(path, INDEX_FORMAT, "ss", {}, _index_entries)


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
    which could lead out of the tree, raises ``ValueError`` naming it.  Only
    the log header names the problem: a log listed under another name than
    its header's ``problem_file``, or whose header disagrees with the directory
    name on the algorithm or with its row on the reference-set version,
    raises ``ValueError`` naming the log.  An index names each file once and
    ``problem_file`` is injective, so no problem is read twice.  A
    subdirectory holding a run log but no index raises ``FileNotFoundError``
    naming it before any log is read; other subdirectories without an index,
    such as reference sets, are skipped."""
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
            name = problem_file(h.function_id, h.dimension, h.instance_id)
            if entry.file != name:
                key = problem_id(h.function_id, h.dimension, h.instance_id)
                raise ValueError(f"{path}: the log header's problem {key} must be listed as {name}")
            for what, listed, logged in (
                ("algorithm", algorithm_dir.name, h.algorithm),
                ("refset version", entry.refset_version, h.refset_version),
            ):
                if listed != logged:
                    raise ValueError(
                        f"{path}: index lists {what} {listed} but the log header says {logged}"
                    )
            yield log
