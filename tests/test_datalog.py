"""Run-log tests: exact round-trips, replay equivalence, error reporting."""

from __future__ import annotations

import random

import pytest

from bibench.archive import Archive
from bibench.core import ObjectiveVector, ProblemSpec, normalize
from bibench.datalog import (
    INDEX_FILENAME,
    IndexEntry,
    LogParseError,
    LogRecord,
    LogReplayError,
    LogVersionError,
    RunHeader,
    RunLog,
    log_path,
    read_experiment_index,
    read_log,
    recalculate,
    rewrite_with_spec,
    write_experiment_index,
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
        decision = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        outcome = arch.insert(normalize(raw, spec), t)
        value = evaluate_incremental(value, outcome, arch)
        runtimes.record(t, value)
        if outcome.accepted:
            records.append(LogRecord(t, raw, decision))
            live_trajectory.append((t, value))
    return records, live_trajectory, runtimes


def test_empty_log_round_trips(tmp_path) -> None:
    log = RunLog(_header(), ())
    path = write_log(log, tmp_path / "empty.tsv")
    assert read_log(path) == log


def test_three_record_log_round_trips(tmp_path) -> None:
    records = (
        LogRecord(1, ObjectiveVector(1.5, 0.25), (0.1, -0.2)),
        LogRecord(4, ObjectiveVector(0.75, 0.5), (1.0, 2.0)),
        LogRecord(9, ObjectiveVector(0.5, 0.4999999999999999), (-3.5, 4.25)),
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
            LogRecord(
                t,
                ObjectiveVector(rng.uniform(0, 10) ** 3, rng.expovariate(1.0)),
                (rng.gauss(0, 2), rng.gauss(0, 2)),
            )
        )
    log = RunLog(_header(budget=t), tuple(records))
    first = write_log(log, tmp_path / "a.tsv")
    second = write_log(read_log(first), tmp_path / "b.tsv")
    assert first.read_bytes() == second.read_bytes()


def test_write_rejects_inconsistent_records(tmp_path) -> None:
    bad_order = RunLog(
        _header(),
        (
            LogRecord(5, ObjectiveVector(1.0, 1.0), (0.0, 0.0)),
            LogRecord(5, ObjectiveVector(0.5, 0.5), (0.0, 0.0)),
        ),
    )
    with pytest.raises(ValueError, match="increase strictly"):
        write_log(bad_order, tmp_path / "x.tsv")
    bad_dim = RunLog(_header(), (LogRecord(1, ObjectiveVector(1.0, 1.0), (0.0,)),))
    with pytest.raises(ValueError, match="decision vector"):
        write_log(bad_dim, tmp_path / "x.tsv")
    bad_value = RunLog(
        _header(), (LogRecord(1, ObjectiveVector(float("inf"), 1.0), (0.0, 0.0)),)
    )
    with pytest.raises(ValueError, match="non-finite"):
        write_log(bad_value, tmp_path / "x.tsv")


def test_read_rejects_missing_or_wrong_format_line(tmp_path) -> None:
    path = tmp_path / "noformat.tsv"
    path.write_text("% function=f1\n")
    with pytest.raises(LogVersionError, match="line 1"):
        read_log(path)
    path.write_text("% format=runlog-v0\n")
    with pytest.raises(LogVersionError, match="runlog-v0"):
        read_log(path)


def test_read_reports_line_numbers(tmp_path) -> None:
    good = write_log(RunLog(_header(), (LogRecord(1, ObjectiveVector(1.0, 1.0), (0.0, 0.0)),)), tmp_path / "good.tsv")
    lines = good.read_text().splitlines()
    assert lines[12].startswith("1\t")  # 12 header lines, then the record

    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines[:12] + ["1\t0.5\t0.5"]) + "\n")
    with pytest.raises(LogParseError, match="13: expected 5 columns") as err:
        read_log(bad)
    assert err.value.line_number == 13

    bad.write_text("\n".join(lines[:12] + ["1\t0.5\tnot-a-number\t0.0\t0.0"]) + "\n")
    with pytest.raises(LogParseError, match="13:"):
        read_log(bad)

    bad.write_text("\n".join(lines[:12] + ["1\tinf\t0.5\t0.0\t0.0"]) + "\n")
    with pytest.raises(LogParseError, match="non-finite"):
        read_log(bad)


def test_read_requires_header_before_records(tmp_path) -> None:
    path = tmp_path / "early.tsv"
    path.write_text("% format=runlog-v1\n1\t0.5\t0.5\t0.0\t0.0\n")
    with pytest.raises(LogParseError, match="records start before header"):
        read_log(path)


def test_read_requires_all_header_keys(tmp_path) -> None:
    path = tmp_path / "incomplete.tsv"
    path.write_text("% format=runlog-v1\n% function=f1\n")
    with pytest.raises(LogParseError, match="missing header keys"):
        read_log(path)


def test_read_skips_blank_and_extra_comment_lines(tmp_path) -> None:
    log = RunLog(_header(), (LogRecord(3, ObjectiveVector(1.0, 0.5), (0.0, 0.0)),))
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
            LogRecord(1, ObjectiveVector(0.5, 0.5), (0.0, 0.0)),
            LogRecord(2, ObjectiveVector(0.6, 0.6), (0.0, 0.0)),  # dominated
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
        (LogRecord(7, ObjectiveVector(0.5, 0.5), (0.0, 0.0)),),
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


def test_rewrite_with_spec_swaps_reference_data_only() -> None:
    log = RunLog(_header(), (LogRecord(1, ObjectiveVector(0.5, 0.5), (0.0, 0.0)),))
    new_spec = ProblemSpec(
        function_id="f1",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(-1.0, -1.0),
        nadir=ObjectiveVector(3.0, 3.0),
        i_ref=-0.25,
        refset_version="ffff0000ffff0000",
    )
    swapped = rewrite_with_spec(log, new_spec)
    assert swapped.records is log.records
    assert swapped.header.refset_version == "ffff0000ffff0000"
    assert swapped.header.i_ref == -0.25
    assert swapped.header.ideal == ObjectiveVector(-1.0, -1.0)
    assert swapped.header.algorithm == log.header.algorithm
    assert swapped.header.budget == log.header.budget


def test_log_path_layout(tmp_path) -> None:
    p = log_path(tmp_path, "random", "f2", 10, 3)
    assert p == tmp_path / "random" / "f2_d10_i3.tsv"


def test_experiment_index_round_trip(tmp_path) -> None:
    entries = (
        IndexEntry("f1_d2_i1.tsv", "f1", 1, 2, "ab12cd34ef56ab78"),
        IndexEntry("f1_d2_i2.tsv", "f1", 2, 2, "ab12cd34ef56ab78"),
    )
    path = write_experiment_index(tmp_path / "random", entries)
    assert path.name == INDEX_FILENAME
    assert read_experiment_index(path) == entries


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
        (["0\t0.5\t0.5\t0.0\t0.0"], 100, r":13: eval counts must increase strictly from 1"),
        (["3\t0.5\t0.5\t0.0\t0.0", "2\t0.4\t0.4\t0.0\t0.0"], 100, r":14: .*got 2 after 3"),
        (["50\t0.5\t0.5\t0.0\t0.0"], 10, r":13: eval count 50 exceeds budget 10"),
    ],
    ids=["below-one", "not-increasing", "beyond-budget"],
)
def test_read_rejects_bad_eval_counts(tmp_path, rows, budget, message) -> None:
    path = _log_text(tmp_path, rows, budget=budget)
    with pytest.raises(LogParseError, match=r"edited\.tsv" + message):
        read_log(path)


def test_read_rejects_header_line_after_records(tmp_path) -> None:
    path = _log_text(tmp_path, ["1\t0.5\t0.5\t0.0\t0.0", "% budget=5000"])
    with pytest.raises(LogParseError, match=r"edited\.tsv:14: header line after"):
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
