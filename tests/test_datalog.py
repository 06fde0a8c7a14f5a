"""Run-log tests: exact round-trips, replay equivalence, error reporting."""

from __future__ import annotations

import os
import random
import re
import tracemalloc
from dataclasses import replace

import pytest

from bibench import datalog
from bibench.archive import Archive
from bibench.core import ObjectiveVector, ProblemSpec, normalize
from bibench.datalog import (
    INDEX_FILENAME,
    ExperimentWriter,
    IndexEntry,
    LogParseError,
    LogRecord,
    LogReplayError,
    LogVersionError,
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
            records.append(LogRecord(t, raw))
            live_trajectory.append((t, value))
    return records, live_trajectory, runtimes


def test_empty_log_round_trips(tmp_path) -> None:
    log = RunLog(_header(), ())
    path = write_log(log, tmp_path / "empty.tsv")
    assert read_log(path) == log


def test_three_record_log_round_trips(tmp_path) -> None:
    records = (
        LogRecord(1, ObjectiveVector(1.5, 0.25)),
        LogRecord(4, ObjectiveVector(0.75, 0.5)),
        LogRecord(9, ObjectiveVector(0.5, 0.4999999999999999)),
    )
    log = RunLog(_header(), records)
    back = read_log(write_log(log, tmp_path / "run.tsv"))
    assert back == log
    assert back.records[2].objectives.f_beta == 0.4999999999999999


def test_large_random_log_rewrite_is_byte_identical(tmp_path) -> None:
    rng = random.Random(0)
    records = []
    t = 0
    for _ in range(10_000):
        t += rng.randint(1, 4)
        records.append(
            LogRecord(t, ObjectiveVector(rng.uniform(0, 10) ** 3, rng.expovariate(1.0)))
        )
    log = RunLog(_header(budget=t), tuple(records))
    first = write_log(log, tmp_path / "a.tsv")
    second = write_log(read_log(first), tmp_path / "b.tsv")
    assert first.read_bytes() == second.read_bytes()


def test_write_rejects_inconsistent_records(tmp_path) -> None:
    bad_order = RunLog(
        _header(),
        (
            LogRecord(5, ObjectiveVector(1.0, 1.0)),
            LogRecord(5, ObjectiveVector(0.5, 0.5)),
        ),
    )
    with pytest.raises(ValueError, match="increase strictly"):
        write_log(bad_order, tmp_path / "x.tsv")
    bad_value = RunLog(
        _header(), (LogRecord(1, ObjectiveVector(float("inf"), 1.0)),)
    )
    with pytest.raises(ValueError, match="non-finite"):
        write_log(bad_value, tmp_path / "x.tsv")


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
    good = write_log(RunLog(_header(), (LogRecord(1, ObjectiveVector(1.0, 1.0)),)), tmp_path / "good.tsv")
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
    log = RunLog(_header(), (LogRecord(3, ObjectiveVector(1.0, 0.5)),))
    path = write_log(log, tmp_path / "padded.tsv")
    text = path.read_text()
    path.write_text(text.replace("% budget=100", "% budget=100\n\n% note=hand-edited\n"))
    assert read_log(path) == log


def test_recalculate_same_spec_matches_live_run(tmp_path) -> None:
    spec = _spec()
    records, live_traj, live_runtimes = _live_run(spec, 400, seed=1)
    log = RunLog(_header(budget=400), tuple(records))
    path = write_log(log, tmp_path / "run.tsv")
    trajectory, runtimes = recalculate(read_log(path), spec)
    assert [(t, v.value, v.branch) for t, v in trajectory] == [
        (t, v.value, v.branch) for t, v in live_traj
    ]
    assert runtimes.first_hit == live_runtimes.first_hit
    assert runtimes.evaluations == live_runtimes.evaluations == 400


def test_recalculate_rejects_corrupted_log() -> None:
    log = RunLog(
        _header(),
        (
            LogRecord(1, ObjectiveVector(0.5, 0.5)),
            LogRecord(2, ObjectiveVector(0.6, 0.6)),  # dominated
        ),
    )
    with pytest.raises(LogReplayError, match="eval 2"):
        recalculate(log, _spec())


def test_recalculate_rejects_key_mismatch() -> None:
    log = RunLog(_header(), ())
    other = ProblemSpec(
        function_id="f2",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(2.0, 2.0),
        i_ref=-0.4,
        refset_version="ab12cd34ef56ab78",
    )
    with pytest.raises(ValueError, match="key mismatch"):
        recalculate(log, other)


def test_recalculate_restores_budget_evaluations() -> None:
    spec = _spec()
    log = RunLog(
        _header(budget=5000),
        (LogRecord(7, ObjectiveVector(0.5, 0.5)),),
    )
    _, runtimes = recalculate(log, spec)
    assert runtimes.evaluations == 5000


def test_harder_i_ref_weakly_delays_every_hit() -> None:
    spec = _spec(i_ref=-0.4)
    records, _, _ = _live_run(spec, 600, seed=3)
    log = RunLog(_header(budget=600), tuple(records))
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
        log = RunLog(_header(budget=300, i_ref=spec.i_ref), tuple(records))
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


def _write_experiment(root):
    """An experiment of empty ``random`` runs of f1 d2 i1 and i2; returns
    the index path."""
    writer = ExperimentWriter(root)
    for i in (1, 2):
        writer.write(RunLog(replace(_header(), instance_id=i), ()))
    writer.close()
    return root / "random" / INDEX_FILENAME


def test_log_path_layout(tmp_path) -> None:
    header = replace(_header(), function_id="f2", dimension=10, instance_id=3)
    with ExperimentWriter(tmp_path) as writer:
        p = writer.write(RunLog(header, ()))
    assert p == tmp_path / "random" / "f2_d10_i3.tsv"
    assert read_log(p) == RunLog(header, ())


def test_run_log_directory_without_index_is_an_error(tmp_path) -> None:
    # Reference sets share the run logs' file names, not their format line.
    _write_experiment(tmp_path)
    write_lines(tmp_path / "refsets" / "f1_d2_i1.tsv", ["# function=f1 instance=1"])
    assert [log.header.instance_id for log in iter_experiment(tmp_path)] == [1, 2]
    with ExperimentWriter(tmp_path) as writer:
        writer.write(RunLog(replace(_header(), algorithm="hillclimber"), ()))
    (tmp_path / "hillclimber" / INDEX_FILENAME).unlink()
    with pytest.raises(FileNotFoundError, match=f"without an {INDEX_FILENAME} in hillclimber$"):
        next(iter_experiment(tmp_path))


def test_interrupted_close_leaves_logs_without_old_index(tmp_path, monkeypatch) -> None:
    _write_experiment(tmp_path)
    writer = ExperimentWriter(tmp_path)
    writer.write(RunLog(replace(_header(), refset_version="ffff0000ffff0000"), ()))

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
    good = write_log(RunLog(_header(budget=budget), ()), tmp_path / "good.tsv")
    path = tmp_path / "edited.tsv"
    path.write_text(good.read_text() + "".join(row + "\n" for row in rows))
    return path


@pytest.mark.parametrize(
    ("rows", "budget", "message"),
    [
        (["0\t0.5\t0.5"], 100, r":13: eval counts must increase strictly from 1"),
        (["3\t0.5\t0.5", "2\t0.4\t0.4"], 100, r":14: .*got 2 after 3"),
        (["50\t0.5\t0.5"], 10, r":13: eval count 50 exceeds budget 10"),
    ],
    ids=["below-one", "not-increasing", "beyond-budget"],
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
    path = write_log(RunLog(_header(), ()), tmp_path / "run.tsv")
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
    path = write_log(RunLog(_header(), ()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% algorithm=random", "% algorithm=caf\u00e9"))
    with pytest.raises(LogParseError, match=r"run\.tsv:5: non-ASCII byte"):
        read_log(path)


def test_read_reports_bad_header_number_with_line(tmp_path) -> None:
    path = write_log(RunLog(_header(), ()), tmp_path / "run.tsv")
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
    path = write_log(RunLog(_header(), ()), tmp_path / "run.tsv")
    path.write_text(path.read_text().replace("% budget=100", f"% budget={budget}"))
    with pytest.raises(LogParseError, match=rf"run\.tsv:12: budget: must be at least 1, got {budget}"):
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
    write_log(RunLog(_header(), ()), outside)
    index.write_text(index.read_text().replace("f1_d2_i1.tsv", "../../elsewhere/f1_d2_i1.tsv"))
    with pytest.raises(LogParseError, match=r"experiment_index\.tsv:3: file '\.\./\.\./elsewhere"):
        next(iter_experiment(tmp_path / "exp"))


# -- streaming: one pass to write, one line at a time to read ------------------


def _long_log(n: int) -> RunLog:
    return RunLog(_header(budget=n), tuple(
        LogRecord(t, ObjectiveVector(2.0 - t * 1.3e-5, 0.1 + t * 1.7e-5)) for t in range(1, n + 1)
    ))


@pytest.mark.parametrize(
    "bad, message",
    [
        (lambda t: LogRecord(t - 1, ObjectiveVector(0.0, 2.0)), "increase strictly"),
        (lambda t: LogRecord(t, ObjectiveVector(0.0, float("nan"))), "non-finite"),
    ],
)
def test_write_log_failure_past_the_first_chunk_keeps_old_file(tmp_path, bad, message) -> None:
    # Whole chunks of lines are already written when the bad record is met.
    path = write_log(RunLog(_header(), ()), tmp_path / "out" / "run.tsv")
    old = path.read_bytes()
    log = _long_log(3 * datalog._WRITE_CHUNK)
    records = log.records + (bad(len(log.records) + 1),)
    with pytest.raises(ValueError, match=message):
        write_log(RunLog(log.header, records), path)
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
    # records themselves, a LogRecord and an ObjectiveVector each, take
    # about 11 MB.
    path = write_log(_long_log(50_000), tmp_path / "run.tsv")
    assert _traced_peak(lambda: read_log(path)) < 14_000_000
