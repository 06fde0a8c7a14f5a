"""Run-log tests: exact round-trips, replay equivalence, error reporting."""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import tracemalloc
from array import array
from dataclasses import replace
from unittest import mock

import pytest
from conftest import record_columns
from hypothesis import given, settings, strategies as st

from bibench import datalog
from bibench.archive import Archive
from bibench.core import NormalizedObjectives, ObjectiveVector, ProblemSpec, normalize
from bibench.datalog import (
    INDEX_FILENAME,
    ExperimentWriter,
    IndexEntry,
    LogParseError,
    LogRecord,
    LogReplayError,
    LogVersionError,
    RecordColumns,
    RunHeader,
    RunLog,
    iter_experiment,
    read_experiment_index,
    read_log,
    recalculate,
    write_lines,
    write_log,
)
from bibench.indicator import EMPTY_ARCHIVE_VALUE, evaluate_incremental
from bibench.targets import RuntimeRecord, absolute_targets


def _header(budget: int = 100, i_ref: float = -0.4) -> RunHeader:
    return RunHeader(
        function_id="f1",
        instance_id=1,
        dimension=2,
        algorithm="random",
        refset_version="ab12cd34ef56ab78",
        i_ref=i_ref,
        ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(2.0, 2.0),
        budget=budget,
    )


def _spec(i_ref: float = -0.4) -> ProblemSpec:
    h = _header(i_ref=i_ref)
    return h.problem_spec()


def _live_run(spec: ProblemSpec, n_evals: int, seed: int):
    """Simulate a run: archive every evaluation, log the accepted ones."""
    rng = random.Random(seed)
    arch = Archive()
    value = EMPTY_ARCHIVE_VALUE
    runtimes = RuntimeRecord(absolute_targets(spec))
    records = []
    live_trajectory = []
    for t in range(1, n_evals + 1):
        raw = ObjectiveVector(rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        outcome = arch.insert(normalize(raw, spec), t)
        value = evaluate_incremental(value, outcome, arch)
        runtimes.record(t, value.value)
        if outcome.accepted:
            records.append((t, raw.f_alpha, raw.f_beta))
            live_trajectory.append((t, value))
    return records, live_trajectory, runtimes


def test_empty_log_round_trips(tmp_path) -> None:
    log = RunLog(_header(), record_columns())
    path = write_log(log, tmp_path / "empty.tsv")
    assert read_log(path) == log


def test_three_record_log_round_trips(tmp_path) -> None:
    records = record_columns([(1, 1.5, 0.25), (4, 0.75, 0.5), (9, 0.5, 0.4999999999999999)])
    log = RunLog(_header(), records)
    back = read_log(write_log(log, tmp_path / "run.tsv"))
    assert back == log
    assert list(back.records)[2].objectives.f_beta == 0.4999999999999999


def test_large_random_log_rewrite_is_byte_identical(tmp_path) -> None:
    rng = random.Random(0)
    records = []
    t = 0
    for _ in range(10_000):
        t += rng.randint(1, 4)
        records.append((t, rng.uniform(0, 10) ** 3, rng.expovariate(1.0)))
    log = RunLog(_header(budget=t), record_columns(records))
    first = write_log(log, tmp_path / "a.tsv")
    second = write_log(read_log(first), tmp_path / "b.tsv")
    assert first.read_bytes() == second.read_bytes()


def test_write_rejects_inconsistent_records(tmp_path) -> None:
    # The RunLog refuses them when made, so no such log reaches write_log.
    with pytest.raises(ValueError, match="increase strictly"):
        write_log(RunLog(_header(), record_columns([(5, 1.0, 1.0), (5, 0.5, 0.5)])),
                  tmp_path / "x.tsv")
    with pytest.raises(ValueError, match="non-finite"):
        write_log(RunLog(_header(), record_columns([(1, float("inf"), 1.0)])), tmp_path / "x.tsv")
    assert list(tmp_path.iterdir()) == []


def test_read_rejects_missing_or_wrong_format_line(tmp_path) -> None:
    path = tmp_path / "noformat.tsv"
    path.write_text("% function=f1\n")
    with pytest.raises(LogVersionError, match="line 1"):
        read_log(path)
    for old in ("runlog-v0", "runlog-v1"):
        path.write_text(f"% format={old}\n")
        with pytest.raises(
            LogVersionError, match=f"unsupported format '{old}', expected runlog-v2$"
        ):
            read_log(path)


def test_read_reports_line_numbers(tmp_path) -> None:
    good = write_log(RunLog(_header(), record_columns([(1, 1.0, 1.0)])), tmp_path / "good.tsv")
    lines = good.read_text().splitlines()
    assert lines[12].startswith("1\t")  # 12 header lines, then the record

    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines[:12] + ["1\t0.5\t0.5\t0.0\t0.0"]) + "\n")
    with pytest.raises(LogParseError, match="13: expected 3 columns") as err:
        read_log(bad)
    assert err.value.line_number == 13

    bad.write_text("\n".join(lines[:12] + ["1\t0.5\tnot-a-number"]) + "\n")
    with pytest.raises(LogParseError, match="13:"):
        read_log(bad)

    bad.write_text("\n".join(lines[:12] + ["1\tinf\t0.5"]) + "\n")
    with pytest.raises(LogParseError, match="non-finite"):
        read_log(bad)


def test_read_requires_header_before_records(tmp_path) -> None:
    path = tmp_path / "early.tsv"
    path.write_text("% format=runlog-v2\n1\t0.5\t0.5\n")
    with pytest.raises(LogParseError, match="records start before header"):
        read_log(path)


def test_read_requires_all_header_keys(tmp_path) -> None:
    path = tmp_path / "incomplete.tsv"
    path.write_text("% format=runlog-v2\n% function=f1\n")
    with pytest.raises(LogParseError, match="missing header keys"):
        read_log(path)


def test_read_skips_blank_and_extra_comment_lines(tmp_path) -> None:
    log = RunLog(_header(), record_columns([(3, 1.0, 0.5)]))
    path = write_log(log, tmp_path / "padded.tsv")
    text = path.read_text()
    path.write_text(text.replace("% budget=100", "% budget=100\n\n% note=hand-edited\n"))
    assert read_log(path) == log


def test_recalculate_same_spec_matches_live_run(tmp_path) -> None:
    spec = _spec()
    records, live_traj, live_runtimes = _live_run(spec, 400, seed=1)
    log = RunLog(_header(budget=400), record_columns(records))
    path = write_log(log, tmp_path / "run.tsv")
    trajectory, runtimes = recalculate(read_log(path), spec)
    assert [(t, v.value, v.branch) for t, v in trajectory] == [
        (t, v.value, v.branch) for t, v in live_traj
    ]
    assert runtimes.first_hit == live_runtimes.first_hit
    assert runtimes.evaluations == live_runtimes.evaluations == 400


def test_recalculate_rejects_corrupted_log() -> None:
    log = RunLog(_header(), record_columns([(1, 0.5, 0.5), (2, 0.6, 0.6)]))  # 2 is dominated
    with pytest.raises(LogReplayError, match="eval 2"):
        recalculate(log, _spec())


# A staircase of 5000 mutually non-dominated records inside the ROI of
# ``_spec``, so every one is accepted; rows past 4096 lie in a later chunk.
_STAIRS = [(k * 1e-4, 2.0 - k * 1e-4) for k in range(1, 5001)]


def _numbered(values, budget: int | None = None) -> RunLog:
    """A log of ``values`` at eval counts 1, 2, ..., within ``budget``
    (default: the last count)."""
    rows = [(t, *y) for t, y in enumerate(values, 1)]
    return RunLog(_header(budget=budget or len(rows)), record_columns(rows))


@pytest.mark.parametrize(
    ("values", "message"),
    [
        ([(0.5, 0.5), (0.6, 0.6), (0.7, 0.1)], "at eval 2 "),
        ([*_STAIRS[:4500], (0.5, 1.99), *_STAIRS[4500:]], "at eval 4501 "),
    ],
    ids=["rejected-first", "rejected-past-a-chunk"],
)
def test_recalculate_raises_at_the_first_bad_record(values, message) -> None:
    with pytest.raises(LogReplayError, match=message):
        recalculate(_numbered(values), _spec())


@pytest.mark.parametrize(
    ("values", "budget", "message"),
    [
        ([(0.5, 0.5), (math.nan, 0.1)], None, "^record at eval 2 has non-finite objectives$"),
        # A replay raised at the rejected record 2; the RunLog now refuses record 3.
        ([(0.5, 0.5), (0.6, 0.6), (math.inf, 0.1)], None, "^record at eval 3 has non-finite"),
        ([*_STAIRS, (0.1, -math.inf)], None, "^record at eval 5001 has non-finite objectives$"),
        # The first record that breaks any rule is named, whichever rule it is.
        ([(0.5, 0.5), (0.4, 0.6), (0.3, 0.7), (math.nan, 0.1)], 2,
         "^record at eval 3 exceeds budget 2$"),
    ],
    ids=["non-finite", "rejected-first", "non-finite-past-a-chunk", "past-the-budget-first"],
)
def test_run_log_refuses_its_first_bad_record(values, budget, message) -> None:
    with pytest.raises(ValueError, match=message):
        _numbered(values, budget)


def test_recalculate_rejects_key_mismatch() -> None:
    log = RunLog(_header(), record_columns())
    other = ProblemSpec(
        function_id="f2",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(2.0, 2.0),
        i_ref=-0.4,
        refset_version="ab12cd34ef56ab78",
    )
    with pytest.raises(ValueError, match="^problem key mismatch: log is f1:2:1, spec is f2:2:1$"):
        recalculate(log, other)


def test_recalculate_restores_budget_evaluations() -> None:
    spec = _spec()
    log = RunLog(_header(budget=5000), record_columns([(7, 0.5, 0.5)]))
    _, runtimes = recalculate(log, spec)
    assert runtimes.evaluations == 5000


def test_harder_i_ref_weakly_delays_every_hit() -> None:
    spec = _spec(i_ref=-0.4)
    records, _, _ = _live_run(spec, 600, seed=3)
    log = RunLog(_header(budget=600), record_columns(records))
    _, base = recalculate(log, spec)
    harder = ProblemSpec(
        function_id=spec.function_id,
        instance_id=spec.instance_id,
        dimension=spec.dimension,
        ideal=spec.ideal,
        nadir=spec.nadir,
        i_ref=spec.i_ref - 0.1,
        refset_version=spec.refset_version,
    )
    _, shifted = recalculate(log, harder)
    assert shifted.hit_count <= base.hit_count
    for old, new in zip(base.first_hit, shifted.first_hit):
        if new is not None:
            assert old is not None and old <= new


def test_recalculate_equals_brute_force_scan() -> None:
    rng = random.Random(17)
    for trial in range(5):
        spec = _spec(i_ref=round(rng.uniform(-0.9, -0.1), 3))
        records, _, _ = _live_run(spec, 300, seed=100 + trial)
        log = RunLog(_header(budget=300, i_ref=spec.i_ref), record_columns(records))
        trajectory, runtimes = recalculate(log, spec)
        targets = absolute_targets(spec)
        for k, target in enumerate(targets):
            want = next((t for t, v in trajectory if v.value <= target), None)
            assert runtimes.first_hit[k] == want


def test_run_header_for_run_takes_reference_data_from_spec() -> None:
    spec = ProblemSpec(
        function_id="f1",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(-1.0, -1.0),
        nadir=ObjectiveVector(3.0, 3.0),
        i_ref=-0.25,
        refset_version="ffff0000ffff0000",
    )
    header = RunHeader.for_run(spec, "hillclimber", 300)
    assert header.problem_spec() == spec
    assert (header.algorithm, header.budget) == ("hillclimber", 300)


def test_run_header_is_checked_as_a_problem_spec() -> None:
    with pytest.raises(ValueError, match="dimension must be positive"):
        replace(_header(), dimension=0)


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("budget", True, "budget must be an integer, got True"),
        ("budget", 10.5, "budget must be an integer, got 10.5"),
        ("instance_id", True, "instance_id must be an integer, got True"),
        ("dimension", True, "dimension must be an integer, got True"),
        ("function_id", "f\t1", "function_id must be non-empty unpadded printable ASCII"),
        ("function_id", "f\n1", "function_id must be non-empty unpadded printable ASCII"),
        ("function_id", " f1", "function_id must be non-empty unpadded printable ASCII"),
        ("algorithm", "", "algorithm must be non-empty unpadded printable ASCII"),
        ("refset_version", "ab\t12", "refset_version must be non-empty unpadded printable ASCII"),
        ("refset_version", "ab\n12", "refset_version must be non-empty unpadded printable ASCII"),
        ("refset_version", "", "refset_version must be non-empty unpadded printable ASCII"),
        ("refset_version", "ab ", "refset_version must be non-empty unpadded printable ASCII"),
        ("algorithm", "..", "algorithm must hold no '/' and not start with '.', got '..'"),
        ("algorithm", ".staging", "algorithm must hold no '/' and not start with '.'"),
        ("algorithm", "x/y", "algorithm must hold no '/' and not start with '.', got 'x/y'"),
        ("function_id", "a/b", "function_id must hold no '/' and not start with '.'"),
        ("function_id", "f 1", "function_id must hold no whitespace, got 'f 1'"),
    ],
    ids=[
        "budget-bool", "budget-float", "instance-bool", "dimension-bool", "function-tab",
        "function-newline", "function-padded", "algorithm-empty", "version-tab",
        "version-newline", "version-empty", "version-padded", "algorithm-parent",
        "algorithm-staging", "algorithm-slash", "function-slash", "function-space",
    ],
)
def test_run_header_refuses_a_value_the_readers_refuse(field, value, message) -> None:
    # Each value, once written, is one the readers refuse or alter: the bool
    # and float numbers fail read_log at their line ("invalid literal for
    # int()"), a tab, newline or empty name the index ("expected 5 columns"),
    # " f1" the log's lookup (FileNotFoundError), and "ab " reads as "ab".
    # ExperimentWriter makes paths of the algorithm and function: ".." would
    # publish above the root, ".staging" inside the staging directory, "x/y"
    # where iter_experiment never looks, and "a/b" fails close().  "f 1"
    # splits in a reference set's header.
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(_header(), **{field: value})


def test_an_accepted_header_round_trips_through_the_experiment_tree(tmp_path) -> None:
    header = replace(
        _header(), function_id="f1.x-2", algorithm="algo-2.x", refset_version="v=1 #2",
        budget=2**63 - 1,
    )
    log = RunLog(header, record_columns([(2**62, 0.5, 0.25)]))
    with ExperimentWriter(tmp_path) as writer:
        writer.write(log)
    assert list(iter_experiment(tmp_path)) == [log]


def _write_experiment(root):
    """An experiment of empty ``random`` runs of f1 d2 i1 and i2; returns
    the index path."""
    writer = ExperimentWriter(root)
    for i in (1, 2):
        writer.write(RunLog(replace(_header(), instance_id=i), record_columns()))
    writer.close()
    return root / "random" / INDEX_FILENAME


def test_log_path_layout(tmp_path) -> None:
    header = replace(_header(), function_id="f2", dimension=10, instance_id=3)
    with ExperimentWriter(tmp_path) as writer:
        p = writer.write(RunLog(header, record_columns()))
    assert p == tmp_path / "random" / "f2_d10_i3.tsv"
    assert read_log(p) == RunLog(header, record_columns())


def test_run_log_directory_without_index_is_an_error(tmp_path) -> None:
    # Reference sets share the run logs' file names, not their format line.
    _write_experiment(tmp_path)
    write_lines(tmp_path / "refsets" / "f1_d2_i1.tsv", ["# function=f1 instance=1"])
    assert [log.header.instance_id for log in iter_experiment(tmp_path)] == [1, 2]
    with ExperimentWriter(tmp_path) as writer:
        writer.write(RunLog(replace(_header(), algorithm="hillclimber"), record_columns()))
    (tmp_path / "hillclimber" / INDEX_FILENAME).unlink()
    with pytest.raises(FileNotFoundError, match=f"without an {INDEX_FILENAME} in hillclimber$"):
        next(iter_experiment(tmp_path))


def test_interrupted_close_leaves_logs_without_old_index(tmp_path, monkeypatch) -> None:
    _write_experiment(tmp_path)
    writer = ExperimentWriter(tmp_path)
    writer.write(RunLog(replace(_header(), refset_version="ffff0000ffff0000"), record_columns()))

    def fail(*_):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk gone"):
        writer.close()
    monkeypatch.undo()
    # The old index would list the old version for a log about to change.
    assert not (tmp_path / "random" / INDEX_FILENAME).exists()
    assert not (tmp_path / ".staging").exists()
    with pytest.raises(FileNotFoundError, match="random"):
        next(iter_experiment(tmp_path))


def test_a_second_log_of_one_problem_is_refused_and_the_tree_kept(tmp_path) -> None:
    # Before, both logs were staged, and close() deleted the old index,
    # published the first log and died with a FileNotFoundError moving the
    # second, leaving the problem's log without an index.
    _write_experiment(tmp_path)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    log = RunLog(replace(_header(), refset_version="ffff0000ffff0000"), record_columns())
    with pytest.raises(ValueError, match=r"^a log of random for f1_d2_i1\.tsv is already written$"):
        with ExperimentWriter(tmp_path) as writer:
            writer.write(log)
            writer.write(log)
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


def test_experiment_index_round_trip(tmp_path) -> None:
    path = _write_experiment(tmp_path)
    assert read_experiment_index(path) == (
        IndexEntry("f1_d2_i1.tsv", "f1", 1, 2, "ab12cd34ef56ab78"),
        IndexEntry("f1_d2_i2.tsv", "f1", 2, 2, "ab12cd34ef56ab78"),
    )
    assert sorted(p.name for p in path.parent.iterdir()) == [
        INDEX_FILENAME, "f1_d2_i1.tsv", "f1_d2_i2.tsv",
    ]


def test_experiment_index_rejects_bad_rows(tmp_path) -> None:
    path = tmp_path / INDEX_FILENAME
    path.write_text("% format=experiment-index-v1\nonly\ttwo\n")
    with pytest.raises(LogParseError, match="expected 5 columns"):
        read_experiment_index(path)


def _log_text(tmp_path, rows, budget: int = 100):
    """A log file: a written header with ``budget`` followed by the raw ``rows``."""
    good = write_log(RunLog(_header(budget=budget), record_columns()), tmp_path / "good.tsv")
    path = tmp_path / "edited.tsv"
    path.write_text(good.read_text() + "".join(row + "\n" for row in rows))
    return path


# Over 64 KiB of good records, so the bad one after them lies past 4096 rows
# and past the first chunk of bytes that numbered_lines reads.
_MANY_ROWS = [f"{t}\t0.25\t0.75" for t in range(1, 6001)]


@pytest.mark.parametrize(
    ("rows", "budget", "message"),
    [
        (["0\t0.5\t0.5"], 100, r":13: eval counts must increase strictly from 1"),
        (["3\t0.5\t0.5", "2\t0.4\t0.4"], 100, r":14: .*got 2 after 3"),
        (["50\t0.5\t0.5"], 10, r":13: record at eval 50 exceeds budget 10"),
        # A count beyond int64 fails where it is parsed, never as an OverflowError.
        ([f"{2**63}\t0.5\t0.5"], 100, r":13: "),
        ([f"{10**30}\t0.5\t0.5"], 100, r":13: "),
        ([f"{-(2**63) - 1}\t0.5\t0.5"], 100, r":13: "),
        # Blank lines count towards the line of the row a value rule names.
        (["1\t0.5\t0.5", "", "", "2\tnan\t0.5"], 100,
         r":16: record at eval 2 has non-finite objectives$"),
        ([*_MANY_ROWS, "6000\t0.5\t0.5"], 10_000, r":6013: .*got 6000 after 6000$"),
        # Lines are parsed before the RunLog checks values, so a malformed
        # record is named before a bad count on an earlier line.
        (["0\t0.5\t0.5", "1\t0.5"], 100, r":14: expected 3 columns"),
    ],
    ids=["below-one", "not-increasing", "beyond-budget", "int64-max-plus-one", "ten-to-the-30",
         "int64-min-minus-one", "after-blank-lines", "past-a-chunk", "malformed-line-first"],
)
def test_read_rejects_bad_eval_counts(tmp_path, rows, budget, message) -> None:
    path = _log_text(tmp_path, rows, budget=budget)
    with pytest.raises(LogParseError, match=r"edited\.tsv" + message):
        read_log(path)


def test_read_rejects_header_line_after_records(tmp_path) -> None:
    path = _log_text(tmp_path, ["1\t0.5\t0.5", "% budget=5000"])
    with pytest.raises(LogParseError, match=r"edited\.tsv:14: header line after"):
        read_log(path)


@pytest.mark.parametrize(
    ("old", "new", "message"),
    [
        ("% dimension=2", "% dimension=-1", r"run\.tsv:12: dimension must be positive"),
        ("% ideal_beta=0.0", "% ideal_beta=2.0", r"run\.tsv:12: ideal must be strictly below"),
        ("% instance=1", "% instance=0", r"run\.tsv:12: instance must be positive"),
    ],
    ids=["dimension", "ideal-nadir", "instance"],
)
def test_read_rejects_header_that_fails_problem_spec(tmp_path, old, new, message) -> None:
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(LogParseError, match=message):
        read_log(path)


def test_write_lines_failure_keeps_old_file(tmp_path) -> None:
    path = write_lines(tmp_path / "out" / "table.csv", ["old"])
    with pytest.raises(UnicodeEncodeError):
        write_lines(path, ["new", "caf\u00e9"], encoding="ascii")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in path.parent.iterdir()] == ["table.csv"]


def test_write_lines_streams_any_iterable(tmp_path) -> None:
    lines = [f"{k}\t{k / 7!r}" for k in range(10_000)]
    path = write_lines(tmp_path / "big.tsv", (line for line in lines))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")
    assert write_lines(tmp_path / "empty.tsv", iter(())).read_bytes() == b"\n"


def test_write_lines_generator_failure_keeps_old_file(tmp_path) -> None:
    path = write_lines(tmp_path / "out" / "table.csv", ["old"])

    def lines():
        yield from (str(k) for k in range(datalog._WRITE_CHUNK + 1))  # one chunk written
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        write_lines(path, lines())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in path.parent.iterdir()] == ["table.csv"]


def test_read_reports_non_ascii_byte_with_line(tmp_path) -> None:
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% algorithm=random", "% algorithm=caf\u00e9"))
    with pytest.raises(LogParseError, match=r"run\.tsv:5: non-ASCII byte"):
        read_log(path)


def test_read_reports_bad_header_number_with_line(tmp_path) -> None:
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% instance=1", "% instance=one"))
    with pytest.raises(LogParseError, match=r"run\.tsv:3: instance: invalid literal"):
        read_log(path)


def test_experiment_index_reports_bad_number_with_line(tmp_path) -> None:
    path = tmp_path / INDEX_FILENAME
    path.write_text("% format=experiment-index-v1\nf1_d2_i1.tsv\tf1\tone\t2\tab12\n")
    with pytest.raises(LogParseError, match=r"experiment_index\.tsv:2: instance: invalid literal"):
        read_experiment_index(path)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_read_rejects_budget_below_one(tmp_path, budget) -> None:
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% budget=100", f"% budget={budget}"))
    with pytest.raises(LogParseError, match=rf"run\.tsv:12: budget must be at least 1, got {budget}"):
        read_log(path)


@pytest.mark.parametrize("budget", [0, -5, 2**63])
def test_run_header_refuses_a_budget_read_log_refuses(budget) -> None:
    # Before, RunHeader(budget=0) was made and write_log wrote "% budget=0".
    bound = "below 2**63" if budget > 0 else "at least 1"
    with pytest.raises(ValueError, match=re.escape(f"budget must be {bound}, got {budget}")):
        _header(budget=budget)


def test_write_log_refuses_an_eval_count_above_the_budget(tmp_path) -> None:
    # Before, this log was written, and read_log refused it at its record
    # (":13: eval count 11 exceeds budget 10").
    records = record_columns([(3, 1.0, 0.5), (11, 0.5, 1.0)])
    path = tmp_path / "new" / "run.tsv"
    with pytest.raises(ValueError, match="record at eval 11 exceeds budget 10"):
        write_log(RunLog(_header(budget=10), records), path)
    assert not (tmp_path / "new").exists()
    log = RunLog(_header(budget=11), records)
    assert read_log(write_log(log, path)) == log


def test_read_rejects_budget_beyond_int64(tmp_path) -> None:
    # Eval counts are held as int64, so no budget may admit one beyond it.
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% budget=100", f"% budget={2**63}"))
    with pytest.raises(LogParseError, match=r"run\.tsv:12: budget must be below 2\*\*63"):
        read_log(path)


def test_experiment_index_requires_format_line(tmp_path) -> None:
    path = tmp_path / INDEX_FILENAME
    row = "f1_d2_i1.tsv\tf1\t1\t2\tab12\n"
    path.write_text(row)
    with pytest.raises(LogVersionError, match="line 1"):
        read_experiment_index(path)
    path.write_text("% format=experiment-index-v9\n" + row)
    with pytest.raises(LogVersionError, match="experiment-index-v9"):
        read_experiment_index(path)


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("f1_d2_i1.tsv\tf1\t0\t2\tab12", r":2: instance: must be at least 1, got 0"),
        ("f1_d2_i1.tsv\tf1\t1\t-3\tab12", r":2: dimension: must be at least 1, got -3"),
    ],
    ids=["instance", "dimension"],
)
def test_experiment_index_rejects_numbers_below_one(tmp_path, row, message) -> None:
    path = tmp_path / INDEX_FILENAME
    path.write_text(f"% format=experiment-index-v1\n{row}\n")
    with pytest.raises(LogParseError, match=r"experiment_index\.tsv" + message):
        read_experiment_index(path)


def _append_row(path, edit=lambda row: row) -> None:
    """Append ``edit`` of the index's first row (line 3) to the index."""
    text = path.read_text()
    path.write_text(text + edit(text.splitlines()[2]) + "\n")


def test_experiment_index_rejects_repeated_file(tmp_path) -> None:
    path = _write_experiment(tmp_path)
    _append_row(path)
    with pytest.raises(
        LogParseError, match=r"experiment_index\.tsv:5: f1_d2_i1\.tsv is already listed on line 3"
    ):
        read_experiment_index(path)


def test_experiment_index_rejects_repeated_problem(tmp_path) -> None:
    path = _write_experiment(tmp_path)
    _append_row(path, lambda row: row.replace("f1_d2_i1", "copy"))
    with pytest.raises(
        LogParseError, match=r"experiment_index\.tsv:5: problem f1:2:1 is already listed on line 3"
    ):
        read_experiment_index(path)


def test_experiment_index_file_named_like_a_problem_is_not_that_problem(tmp_path) -> None:
    # File names and problem keys are separate keyspaces: a file named
    # "f1:2:1" listed for f2 does not repeat problem f1:2:1, nor the reverse.
    path = tmp_path / INDEX_FILENAME
    path.write_text(
        "% format=experiment-index-v1\n"
        "f1:2:1\tf2\t1\t2\tab12\n"
        "f1_d2_i1.tsv\tf1\t1\t2\tab12\n"
        "f2:2:1\tf3\t1\t2\tab12\n"
    )
    assert [(e.file, e.function_id) for e in read_experiment_index(path)] == [
        ("f1:2:1", "f2"), ("f1_d2_i1.tsv", "f1"), ("f2:2:1", "f3"),
    ]


def test_iter_experiment_skips_a_subdirectory_of_an_unindexed_directory(tmp_path) -> None:
    # A directory inside one without an index is not a run log, so neither
    # that directory nor its run-log-named contents make it an error.
    _write_experiment(tmp_path)
    nested = tmp_path / "refsets" / "f1_d2_i1.tsv"
    nested.mkdir(parents=True)
    write_log(RunLog(_header(), record_columns()), nested / "f1_d2_i1.tsv")
    assert [log.header.instance_id for log in iter_experiment(tmp_path)] == [1, 2]


@pytest.mark.parametrize(
    "name", ["../../elsewhere/f1_d2_i1.tsv", "..", ".", "sub/f1_d2_i1.tsv", "/tmp/f1_d2_i1.tsv"]
)
def test_experiment_index_rejects_a_file_outside_its_directory(tmp_path, name) -> None:
    path = tmp_path / INDEX_FILENAME
    path.write_text(f"% format=experiment-index-v1\n% columns=x\n{name}\tf1\t1\t2\tab12\n")
    with pytest.raises(
        LogParseError, match=rf"experiment_index\.tsv:3: file '{re.escape(name)}' is not a name"
    ):
        read_experiment_index(path)


def test_iter_experiment_reads_no_log_outside_the_tree(tmp_path) -> None:
    index = _write_experiment(tmp_path / "exp")
    outside = tmp_path / "elsewhere" / "f1_d2_i1.tsv"
    write_log(RunLog(_header(), record_columns()), outside)
    index.write_text(index.read_text().replace("f1_d2_i1.tsv", "../../elsewhere/f1_d2_i1.tsv"))
    with pytest.raises(LogParseError, match=r"experiment_index\.tsv:3: file '\.\./\.\./elsewhere"):
        next(iter_experiment(tmp_path / "exp"))


# -- streaming: one pass to write, one line at a time to read ------------------


def _long_rows(n: int) -> list[tuple[int, float, float]]:
    return [(t, 2.0 - t * 1.3e-5, 0.1 + t * 1.7e-5) for t in range(1, n + 1)]


def _long_log(n: int) -> RunLog:
    return RunLog(_header(budget=n), record_columns(_long_rows(n)))


class _BrokenOffRecords(RecordColumns):
    """Records whose lines end in an ``OSError`` after the last one, as when
    the disk fills part-way through a write."""

    def chunks(self):
        yield from super().chunks()
        raise OSError("no space left")


def _broken_off(log: RunLog) -> RunLog:
    r = log.records
    return RunLog(log.header, _BrokenOffRecords(r.eval_count, r.f_alpha, r.f_beta))


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda t: (t - 1, 0.0, 2.0), "increase strictly"),
        (lambda t: (t, 0.0, float("nan")), "non-finite"),
    ],
)
def test_write_log_failure_past_the_first_chunk_keeps_old_file(tmp_path, bad, message) -> None:
    # A bad record past the first chunk is refused when the log is made, so
    # only a failing write can stop write_log there, with whole chunks of
    # lines already written.
    path = write_log(RunLog(_header(), record_columns()), tmp_path / "out" / "run.tsv")
    old = path.read_bytes()
    n = 3 * datalog._WRITE_CHUNK
    with pytest.raises(ValueError, match=message):
        RunLog(_header(budget=n + 1), record_columns([*_long_rows(n), bad(n + 1)]))
    with pytest.raises(OSError, match="no space left"):
        write_log(_broken_off(_long_log(n)), path)
    assert path.read_bytes() == old
    assert [p.name for p in path.parent.iterdir()] == ["run.tsv"]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_log_holds_no_list_of_lines(tmp_path) -> None:
    # With every line listed before the write, this peaked at 4.9 MB; one
    # chunk of lines takes about 0.8 MB.
    log = _long_log(50_000)
    path = tmp_path / "run.tsv"
    assert _traced_peak(lambda: write_log(log, path)) < 2_000_000
    assert read_log(path) == log


def test_read_log_holds_no_text_or_list_of_lines(tmp_path) -> None:
    # Reading the whole text and its list of lines peaked at 20.1 MB.  The
    # records are three columns of 24 bytes a record, 1.2 MB here; one batch
    # of lines and its cells and the RunLog's checks bring the peak to 1.9 MB.
    path = write_log(_long_log(50_000), tmp_path / "run.tsv")
    assert _traced_peak(lambda: read_log(path)) < 4_000_000


@pytest.mark.parametrize("good", [1, 5_000])
def test_failed_write_log_removes_the_directories_it_made(tmp_path, good) -> None:
    # The write fails after one record, or after more than one chunk of lines.
    log = _broken_off(_long_log(good))
    with pytest.raises(OSError, match="no space left"):
        write_log(log, tmp_path / "new" / "sub" / "run.tsv")
    assert list(tmp_path.iterdir()) == []
    # A directory that was already there stays.
    (tmp_path / "new").mkdir()
    with pytest.raises(OSError, match="no space left"):
        write_log(log, tmp_path / "new" / "sub" / "run.tsv")
    assert list(tmp_path.rglob("*")) == [tmp_path / "new"]


def test_read_log_holds_three_columns_not_an_object_per_record(tmp_path) -> None:
    # A LogRecord and an ObjectiveVector per record took about 11 MB of the
    # 14 MB allowed above; the columns and one batch of lines take about 1.5 MB.
    path = write_log(_long_log(50_000), tmp_path / "run.tsv")
    assert _traced_peak(lambda: read_log(path)) < 4_000_000


@pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
def test_read_log_of_any_line_ends_holds_one_batch(tmp_path, end) -> None:
    # Batches were cut at "\n" only, so a log with "\r" line ends was read as
    # one batch of the whole file, peaking at 7.1 MB.
    log = _long_log(50_000)
    path = write_log(log, tmp_path / "run.tsv")
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    assert _traced_peak(lambda: read_log(path)) < 4_000_000
    assert read_log(path) == log


def test_a_clean_log_is_never_parsed_line_by_line(tmp_path, monkeypatch) -> None:
    # Every batch of records must take the batch path; only the header goes
    # line by line.  _non_blank feeds read_rows' per-line fallback.
    log = _long_log(5_000)
    path = write_log(log, tmp_path / "run.tsv")

    def refuse(batches):
        for first, lines in batches:
            assert not lines, f"the batch from line {first} was parsed line by line"
        return iter(())

    monkeypatch.setattr(datalog, "_READ_CHUNK", 256)
    monkeypatch.setattr(datalog, "_non_blank", refuse)
    assert read_log(path) == log


def _per_line_read_log(path) -> RunLog:
    """The per-line reader that batch parsing replaced, kept as its oracle:
    the whole text split into lines, each record parsed on its own, and a
    row the RunLog refuses named at the line it came from."""
    from bibench.core import RowError
    from bibench.datalog import _HEADER, _run_header, add_header_key, build_header

    lines = [(n, line) for n, raw in enumerate(path.read_bytes().decode("ascii").splitlines(), 1)
             if (line := raw.strip())]
    if not lines or lines[0][0] != 1 or not lines[0][1].startswith("% format="):
        raise LogVersionError(f"{path}: missing format declaration on line 1")
    declared = lines[0][1].partition("=")[2].strip()
    if declared != datalog.LOG_FORMAT:
        raise LogVersionError(
            f"{path}: unsupported format {declared!r}, expected {datalog.LOG_FORMAT}"
        )
    header: dict[str, tuple[str, int]] = {}
    run_header = None
    evals, alpha, beta, record_lines = array("q"), array("d"), array("d"), []
    number = 1
    for number, line in lines[1:]:
        if line.startswith("%"):
            if run_header is not None:
                raise LogParseError(path, number, "header line after the first record")
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                add_header_key(path, header, key.strip(), value.strip(), number)
            continue
        if run_header is None:
            run_header = build_header(
                path, header, _HEADER, _run_header, number, "records start before header keys"
            )
        parts = line.split("\t")
        if len(parts) != 3:
            raise LogParseError(
                path, number, f"expected 3 columns (eval, f_alpha, f_beta), got {len(parts)}"
            )
        try:
            evals.append(int(parts[0]))
            alpha.append(float(parts[1]))
            beta.append(float(parts[2]))
        except (ValueError, OverflowError) as exc:
            raise LogParseError(path, number, str(exc)) from None
        record_lines.append(number)
    if run_header is None:
        run_header = build_header(path, header, _HEADER, _run_header, number)
    try:
        return RunLog(run_header, RecordColumns(evals, alpha, beta))
    except RowError as exc:
        raise LogParseError(path, record_lines[exc.row], str(exc)) from None


def _log_outcome(reader, path):
    """A read log as its header and the bytes of its columns, or the error's type and text."""
    try:
        log = reader(path)
    except ValueError as exc:
        return type(exc), str(exc)
    r = log.records
    return log.header, r.eval_count.tobytes(), r.f_alpha.tobytes(), r.f_beta.tobytes()


# Cells that parse differently, or not at all, in a record: non-finite and
# out-of-range values, underscores, signs, inner spaces, header marks.
_BAD_CELLS = ("nan", "inf", "-inf", "1e999", "1_0", "+5", "0 5", " 7 ", "", "0x10", "%", "#",
              str(2**63), str(-(2**63) - 1), "repeat", "fall", "past")
# Whole lines spliced between records.
_ODD_LINES = ("", "   ", "\t", "\t\t", "% budget=5", "%", "# note", "1\t0.5", "1\t0.5\t0.5\t0.5")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batch_read_log_equals_the_per_line_reader(tmp_path_factory, data) -> None:
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    counts = list(itertools.accumulate(rng.choices((1, 2, 3), k=data.draw(st.integers(20, 60)))))
    special = (0.0, -0.0, 5e-324, 1e308, 0.1)
    rows = [(t, rng.choice(special), rng.uniform(-1e6, 1e6)) for t in counts]
    budget = counts[-1] + data.draw(st.integers(0, 3))
    directory = tmp_path_factory.mktemp("batches")
    lines = write_log(RunLog(_header(budget=budget), record_columns(rows)),
                      directory / "run.tsv").read_text().splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(12, len(lines) - 1))  # a record line, after the header
        edit = data.draw(st.sampled_from(["cell", "tab", "line", "shift"]))
        if edit == "line":
            lines.insert(i, data.draw(st.sampled_from(_ODD_LINES)))
        elif edit == "shift" and i + 1 < len(lines):
            # The last cell moves to the next line: the batch keeps its cells
            # in order, but two lines have the wrong number of columns.
            head, _, last = lines[i].rpartition("\t")
            lines[i : i + 2] = [head, f"{last}\t{lines[i + 1]}"]
        elif edit == "tab":
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + "\t" + lines[i][at:]
        else:
            cells = lines[i].split("\t")
            j = data.draw(st.integers(0, len(cells) - 1))
            cell = data.draw(st.sampled_from(_BAD_CELLS))
            t = counts[min(i - 12, len(counts) - 1)]
            cells[j] = {"repeat": str(t - 1), "fall": str(t - 2), "past": str(budget + 1)}.get(
                cell, cell)
            lines[i] = "\t".join(cells)
    ends = st.sampled_from(["\n", "\r\n", "\r", "\x0c"])
    end = data.draw(ends)
    text = "".join(line + (data.draw(ends) if data.draw(st.booleans()) else end)
                   for line in lines)
    path = directory / "mangled.tsv"
    path.write_bytes(text.encode("ascii"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datalog, "_READ_CHUNK", data.draw(st.integers(64, 256)))
        assert _log_outcome(read_log, path) == _log_outcome(_per_line_read_log, path)


# -- records as columns ---------------------------------------------------------


_RECORDS = record_columns([(1, 1.5, 0.25), (4, 0.75, -0.0), (9, 0.5, -1e-300)])


def test_records_iterate_as_the_log_records_perfbench_reads(tmp_path) -> None:
    # LogRecord, iteration and == between two RecordColumns stay because
    # perfbench/checks.py normalizes each record's objectives and compares a
    # recalculated log's records with the input's.
    log = RunLog(_header(), _RECORDS)
    records = read_log(write_log(log, tmp_path / "run.tsv")).records
    assert isinstance(records, RecordColumns) and len(records) == 3 and records
    assert records.eval_count.tolist() == [1, 4, 9]
    assert list(records) == [
        LogRecord(1, ObjectiveVector(1.5, 0.25)),
        LogRecord(4, ObjectiveVector(0.75, -0.0)),
        LogRecord(9, ObjectiveVector(0.5, -1e-300)),
    ]
    assert [normalize(r.objectives, _spec()) for r in records] == [
        NormalizedObjectives(0.75, 0.125), NormalizedObjectives(0.375, 0.0),
        NormalizedObjectives(0.25, -5e-301),
    ]
    assert LogRecord(4, ObjectiveVector(0.75, 0.0)) in records
    assert repr(records) == f"RecordColumns({tuple(records)!r})"
    assert records == _RECORDS and not records != _RECORDS
    for other in (record_columns([(1, 1.5, 0.25), (4, 0.75, -0.0)]),
                  record_columns([(1, 1.5, 0.25), (4, 0.75, -0.0), (9, 0.5, -2e-300)]),
                  tuple(records)):
        assert records != other and not records == other
    assert not record_columns() and len(record_columns()) == 0


@pytest.mark.parametrize(
    "records",
    [(), [LogRecord(1, ObjectiveVector(1.0, 1.0))], (r for r in _RECORDS)],
    ids=["tuple", "list", "generator"],
)
def test_run_log_takes_record_columns_only(records) -> None:
    with pytest.raises(TypeError, match="^records must be RecordColumns, got "):
        RunLog(_header(), records)


def test_records_have_no_public_mutator() -> None:
    records = RunLog(_header(), _RECORDS).records
    for name in ("append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
                 "__setitem__", "__delitem__", "__iadd__"):
        assert not hasattr(records, name), name
    for column in (records.eval_count, records.f_alpha, records.f_beta):
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(AttributeError):
        records.note = "edited"


# -- the rejected-point shortcut against the loop it replaced ---------------------


class _EveryPointAssessment(datalog.Assessment):
    """``Assessment.add`` before rejected points skipped the indicator
    update and the first-hit record: the oracle for that shortcut."""

    def add(self, eval_count: int, y: ObjectiveVector) -> bool:
        outcome = self.archive.insert(normalize(y, self.spec), eval_count)
        self.value = evaluate_incremental(self.value, outcome, self.archive)
        self.runtimes.record(eval_count, self.value.value)
        return outcome.accepted


# Raw values under the ideal (0, 0) and nadir (2, 2) of ``_spec``: below the
# ideal (negative normalized coordinates), on the ideal, inside, on the nadir
# and beyond it; drawing from few values makes duplicates and equal-u ties.
_VALUES = st.sampled_from((-0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 4.0)) | st.floats(-1.0, 5.0)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(_VALUES, _VALUES, st.integers(1, 3)), min_size=1, max_size=60),
    i_ref=st.sampled_from((-0.9, -0.4, 0.0)),
)
def test_rejected_point_shortcut_matches_assessing_every_point(points, i_ref) -> None:
    spec = _spec(i_ref)
    lean, oracle = datalog.Assessment(spec), _EveryPointAssessment(spec)
    t = 0
    for f_alpha, f_beta, step in points:
        t += step
        y = ObjectiveVector(f_alpha, f_beta)
        assert lean.add(t, y) == oracle.add(t, y)
    assert lean.runtimes.first_hit == oracle.runtimes.first_hit
    assert lean.runtimes.evaluations == oracle.runtimes.evaluations == t
    assert lean.value.value.hex() == oracle.value.value.hex()
    assert lean.archive.entries == oracle.archive.entries
    assert lean.archive.clamp_warnings == oracle.archive.clamp_warnings


# -- replay's column path against adding each record -------------------------


def _replay(log: RunLog, spec: ProblemSpec, add_each: bool):
    """The trajectory's values in hex, the first hits, evaluations and clamp
    warnings of a replay, or the error it raised: through ``recalculate``, or
    through ``Assessment.add`` record by record, as replays did before they
    normalized columns."""
    made = []

    class Kept(datalog.Assessment):
        def __init__(self, spec: ProblemSpec) -> None:
            super().__init__(spec)
            made.append(self)

    try:
        if add_each:
            trajectory, assessment = [], Kept(spec)
            for record in log.records:
                if not assessment.add(record.eval_count, record.objectives):
                    raise LogReplayError(f"record at eval {record.eval_count} was rejected")
                trajectory.append((record.eval_count, assessment.value))
            runtimes = assessment.runtimes
            runtimes.evaluations = max(runtimes.evaluations, log.header.budget)
        else:
            with mock.patch.object(datalog, "Assessment", Kept):
                trajectory, runtimes = recalculate(log, spec)
    except LogReplayError as exc:
        return "LogReplayError", str(exc).partition(" was ")[0]
    except ValueError as exc:
        return "ValueError", str(exc)
    (assessment,) = made
    return (
        [(t, v.value.hex()) for t, v in trajectory],
        runtimes.first_hit, runtimes.evaluations, assessment.archive.clamp_warnings,
    )


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(_VALUES, _VALUES, st.integers(1, 3)), min_size=1, max_size=60),
    i_ref=st.sampled_from((-0.9, -0.4, 0.0)),
    # The log's own bounds, others that move points across the ideal and the
    # nadir, and a span of one ULP, whose quotients overflow to inf.
    bounds=st.sampled_from((
        ((0.0, 0.0), (2.0, 2.0)), ((-0.5, 0.25), (3.0, 2.0)), ((0.1, -1.0), (0.7, 4.5)),
        ((0.0, 0.0), (5e-324, 2.0)),
    )),
)
def test_recalculate_matches_adding_each_record(points, i_ref, bounds) -> None:
    live = datalog.Assessment(_spec())
    records, t = [], 0
    for f_alpha, f_beta, step in points:
        t += step
        if live.add(t, y := ObjectiveVector(f_alpha, f_beta)):
            records.append((t, f_alpha, f_beta))
    log = RunLog(_header(budget=t), record_columns(records))
    ideal, nadir = (ObjectiveVector(*b) for b in bounds)
    spec = replace(_spec(i_ref), ideal=ideal, nadir=nadir)
    assert _replay(log, spec, add_each=False) == _replay(log, spec, add_each=True)
