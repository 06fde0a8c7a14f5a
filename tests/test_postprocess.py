"""Postprocessing tests: ECDF counting, runtime tables, CSV output."""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import replace

import pytest
from conftest import point_columns

from bibench import refset
from bibench.core import ObjectiveVector, ProblemSpec
from bibench.cli import main
from bibench.datalog import RunHeader, read_log
from bibench.postprocess import (
    DEFAULT_INSTANCES_DISPLAY,
    DEFAULT_TABLE_PRECISIONS,
    MISSED_MARK,
    EcdfCurve,
    combined_version,
    ecdf,
    load_labeled_records,
    process_experiment,
    resolve_precisions,
    runtime_table,
    write_ecdf_csv,
    write_runtime_table_csv,
)
from bibench.runner import ExperimentConfig, run_experiment
from bibench.suite import analytic_front_oracle, get_function
from bibench.targets import RuntimeRecord, absolute_targets, precision_grid


def _spec(i_ref: float = -0.5) -> ProblemSpec:
    return ProblemSpec(
        function_id="f1",
        instance_id=1,
        dimension=2,
        ideal=ObjectiveVector(0.0, 0.0),
        nadir=ObjectiveVector(1.0, 1.0),
        i_ref=i_ref,
        refset_version="c" * 16,
    )


def test_ecdf_hand_count_example() -> None:
    # 2 records x 3 targets; one pair hit at t=10, two more at t=100.
    first = RuntimeRecord([0.1, 0.5, 0.9])
    first.record(10, 0.7)  # hits only the 0.9 target
    second = RuntimeRecord([0.1, 0.5, 0.9])
    second.record(100, 0.3)  # hits 0.5 and 0.9
    curve = ecdf([first, second])
    assert curve.n_total == 6
    assert curve.support == (10, 100)
    assert curve.proportion == (1 / 6, 3 / 6)
    assert curve.n_hit == (1, 3)
    assert curve.final_proportion == 0.5


def test_ecdf_all_missed_is_flat_zero() -> None:
    rec = RuntimeRecord([-0.9, -0.8])
    rec.record(1000, 0.5)
    curve = ecdf([rec])
    assert curve.support == (1000,)
    assert curve.proportion == (0.0,)
    assert curve.final_proportion == 0.0


def test_ecdf_single_record_full_hit_steps_to_one() -> None:
    rec = RuntimeRecord(absolute_targets(_spec()))
    rec.record(1, -1.0)
    curve = ecdf([rec])
    assert curve.support == (1,)
    assert curve.proportion == (1.0,)
    assert curve.n_total == 58


def test_ecdf_order_invariant() -> None:
    rng = random.Random(3)
    records = []
    for _ in range(8):
        rec = RuntimeRecord(absolute_targets(_spec()))
        value, t = 1.5, 0
        while value > -0.95 and t < 500:
            t += rng.randint(1, 9)
            rec.record(t, value)
            value -= rng.uniform(0.0, 0.2)
        records.append(rec)
    base = ecdf(records)
    shuffled = records[:]
    rng.shuffle(shuffled)
    again = ecdf(shuffled)
    assert again.support == base.support
    assert again.proportion == base.proportion
    assert again.n_hit == base.n_hit


def test_ecdf_requires_records() -> None:
    with pytest.raises(ValueError, match="no runtime records"):
        ecdf([])


def test_ecdf_proportion_non_decreasing() -> None:
    rec = RuntimeRecord(absolute_targets(_spec()))
    value, t = 2.0, 0
    rng = random.Random(1)
    while value > -0.99:
        t += rng.randint(1, 3)
        rec.record(t, value)
        value -= 0.05
    curve = ecdf([rec])
    assert all(a <= b for a, b in zip(curve.proportion, curve.proportion[1:]))
    assert curve.final_proportion == curve.proportion[-1]


def test_combined_version_display() -> None:
    assert combined_version(["abc", "abc"]) == "abc"
    multi = combined_version(["abc", "def"])
    assert multi.startswith("multi-") and len(multi) == len("multi-") + 16
    assert combined_version(["def", "abc"]) == multi  # order-insensitive
    assert combined_version([]) == "none"


def test_resolve_precisions() -> None:
    grid = precision_grid()
    indices = resolve_precisions(DEFAULT_TABLE_PRECISIONS)
    assert [grid[k] for k in indices] == list(DEFAULT_TABLE_PRECISIONS)
    assert resolve_precisions([0.0]) == (6,)
    assert resolve_precisions([-1e-5]) == (5,)
    # Parse-rounding slack of one ulp is accepted.
    nudged = 1e-1 * (1 + 2.3e-16)
    assert resolve_precisions([nudged]) == resolve_precisions([1e-1])
    # A repeated precision, also one within the slack, counts once.
    assert resolve_precisions([1.0, 1e-1, 1.0, nudged]) == resolve_precisions([1.0, 1e-1])
    with pytest.raises(ValueError, match="not on the 58-value target grid"):
        resolve_precisions([0.123])


def _run(
    instance_id: int, hit_at: int | None, budget: int, function_id: str = "f1", dimension: int = 2
) -> tuple[RunHeader, RuntimeRecord]:
    """One ``random`` run that hits only the coarsest target (ΔI = 1.0)."""
    rec = RuntimeRecord(absolute_targets(_spec()))
    if hit_at is not None:
        # 0.4 <= -0.5 + 1.0 but exceeds every finer target.
        rec.record(hit_at, 0.4)
        if hit_at < budget:
            rec.record(budget, 0.4)
    else:
        rec.record(budget, 0.95)  # above even the coarsest target
    spec = replace(_spec(), function_id=function_id, instance_id=instance_id, dimension=dimension)
    return RunHeader.for_run(spec, "random", budget), rec


def test_runtime_table_cells_and_missed_marker() -> None:
    runs = [_run(i, hit_at=7 * i, budget=1000) for i in range(1, 6)]
    runs += [_run(i, hit_at=None, budget=1000) for i in range(6, 11)]
    header, *rows = runtime_table(runs, resolve_precisions([1.0]))
    assert header[3:-2] == ["instance_1", "instance_2", "instance_3", "instance_4", "instance_5"]
    assert rows == [["f1", "2", "1.0", "7", "14", "21", "28", "35", "5", "10"]]


def test_runtime_table_shows_missed_with_budget() -> None:
    runs = [_run(1, hit_at=None, budget=250)]
    header, *rows = runtime_table(runs, resolve_precisions([1.0, 1e-1]))
    assert header == ["function", "dimension", "precision", "instance_1", "n_hit", "n_instances"]
    assert rows == [
        ["f1", "2", "1.0", f"{MISSED_MARK}(250)", "0", "1"],
        ["f1", "2", "0.1", f"{MISSED_MARK}(250)", "0", "1"],
    ]


def test_runtime_table_display_width_default_five() -> None:
    assert DEFAULT_INSTANCES_DISPLAY == 5
    runs = [_run(i, hit_at=3, budget=100) for i in range(1, 11)]
    header, row = runtime_table(runs, resolve_precisions([1.0]))
    assert len(header) == len(row) == 5 + 5
    header, row = runtime_table(runs, resolve_precisions([1.0]), instances_display=10)
    assert len(header) == len(row) == 10 + 5
    assert row[-2:] == ["10", "10"]  # every run counts, shown or not


def test_runtime_table_groups_by_function_and_dimension() -> None:
    runs = [_run(1, hit_at=5, budget=100), _run(1, hit_at=5, budget=100, function_id="f2", dimension=3)]
    rows = runtime_table(runs[::-1], resolve_precisions([1.0, 1e-1]))
    assert [row[:3] for row in rows[1:]] == [
        ["f1", "2", "1.0"], ["f1", "2", "0.1"],
        ["f2", "3", "1.0"], ["f2", "3", "0.1"],
    ]


def test_process_experiment_rejects_off_grid_precision_before_reading(tmp_path) -> None:
    # tmp_path holds no experiment: the precision is checked first.
    with pytest.raises(ValueError, match="not on the 58-value target grid"):
        process_experiment(tmp_path, tmp_path / "out", precisions=[0.05])
    assert not (tmp_path / "out").exists()


def test_write_ecdf_csv_format(tmp_path) -> None:
    curve = EcdfCurve(support=(10, 100), n_hit=(1, 3), n_total=4)
    path = write_ecdf_csv(curve, tmp_path / "ecdf_d2.csv", "random", "e" * 16, dimension=2)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# refset_version={'e' * 16}"
    assert lines[1] == "# algorithm=random slice=d2"
    assert lines[2] == "budget,budget_per_dimension,proportion,n_hit,n_total"
    assert lines[3] == "10,5.0,0.25,1,4"
    assert lines[4] == "100,50.0,0.75,3,4"
    aggregate = write_ecdf_csv(curve, tmp_path / "ecdf_all.csv", "random", "e" * 16)
    assert aggregate.read_text().splitlines()[1] == "# algorithm=random slice=all"
    assert aggregate.read_text().splitlines()[3] == "10,,0.25,1,4"


def test_write_runtime_table_csv(tmp_path) -> None:
    runs = [_run(1, hit_at=42, budget=100), _run(2, hit_at=None, budget=100)]
    rows = runtime_table(runs, resolve_precisions([1.0]))
    path = write_runtime_table_csv(rows, tmp_path / "table.csv", refset_version="c" * 16)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# refset_version={'c' * 16}"
    assert lines[1] == "function,dimension,precision,instance_1,instance_2,n_hit,n_instances"
    assert lines[2] == f"f1,2,1.0,42,{MISSED_MARK}(100),1,2"


RAGGED_TABLE = (
    "# refset_version=cccccccccccccccc\n"
    "function,dimension,precision,instance_1,instance_2,instance_3,instance_4,instance_5,"
    "n_hit,n_instances\n"
    "f1,2,1.0,10,20,—(100),,,3,4\n"
    "f1,2,0.1,—(100),—(100),—(100),,,0,4\n"
    "f2,2,1.0,,,,40,50,2,2\n"
    "f2,2,0.1,,,,—(100),—(100),0,2\n"
    "f3,2,1.0,10,20,—(100),,,5,7\n"
    "f3,2,0.1,—(100),—(100),—(100),,,0,7\n"
).encode("utf-8")


def test_ragged_runtime_table_bytes(tmp_path) -> None:
    # Each (function, dimension) group shows its own three lowest
    # instances; a column a group does not show is an empty cell.
    instances = {"f1": (1, 2, 3, 7), "f2": (4, 5), "f3": (1, 2, 3, 4, 5, 6, 7)}
    runs = [
        _run(i, hit_at=None if i % 3 == 0 else 10 * i, budget=100, function_id=fid)
        for fid, ids in instances.items()
        for i in ids
    ]
    rows = runtime_table(runs[::-1], resolve_precisions([1.0, 1e-1]), instances_display=3)
    path = write_runtime_table_csv(rows, tmp_path / "table.csv", refset_version="c" * 16)
    assert path.read_bytes() == RAGGED_TABLE


def _small_experiment(tmp_path):
    fn = get_function("f1", instance_id=1, dimension=2)
    pts = [analytic_front_oracle(fn, k / 500) for k in range(501)]
    rs = refset.merge(
        [point_columns(pts)], function_id="f1", instance_id=1, dimension=2,
        ideal=fn.analytic_ideal, nadir=fn.analytic_nadir,
    )
    refdir = tmp_path / "refsets"
    refset.write_reference_set(rs, refset.refset_path(refdir, "f1", 2, 1))
    cfg = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "logs", seed=9,
        functions=("f1",), dimensions=(2,), instances=(1,),
        budget=600, refset_dir=refdir,
    )
    return run_experiment(cfg), tmp_path / "logs"


def test_load_labeled_records_replays_logs(tmp_path) -> None:
    results, logs_dir = _small_experiment(tmp_path)
    [(header, runtimes)] = load_labeled_records(logs_dir)
    assert (header.function_id, header.dimension, header.instance_id) == ("f1", 2, 1)
    assert header.algorithm == "random"
    assert header.refset_version == results[0].refset_version
    # End-to-end replay equivalence: replayed runtimes equal live ones.
    assert runtimes.first_hit == results[0].runtimes.first_hit
    assert runtimes.evaluations == results[0].runtimes.evaluations
    live = ecdf([results[0].runtimes])
    replayed = ecdf([runtimes])
    assert live.support == replayed.support
    assert live.proportion == replayed.proportion


def test_load_labeled_records_requires_index(tmp_path) -> None:
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError, match="experiment_index.tsv"):
        load_labeled_records(tmp_path / "empty")


def test_load_labeled_records_rejects_version_mismatch(tmp_path) -> None:
    _, logs_dir = _small_experiment(tmp_path)
    index = logs_dir / "random" / "experiment_index.tsv"
    text = index.read_text()
    tampered = text.replace("\t" + text.rsplit("\t", 1)[1].strip(), "\t" + "f" * 16)
    index.write_text(tampered + "\n")
    with pytest.raises(ValueError, match="refset version"):
        load_labeled_records(logs_dir)


def test_process_experiment_writes_all_csv(tmp_path) -> None:
    _, logs_dir = _small_experiment(tmp_path)
    out = tmp_path / "post"
    written = process_experiment(logs_dir, out)
    names = sorted(p.relative_to(out).as_posix() for p in written)
    assert names == [
        "random/ecdf_all.csv",
        "random/ecdf_d2.csv",
        "random/runtime_table.csv",
    ]
    ecdf_d2 = (out / "random" / "ecdf_d2.csv").read_text().splitlines()
    assert ecdf_d2[0].startswith("# refset_version=")
    assert ecdf_d2[0] != "# refset_version="  # version actually present
    # Single dimension: aggregate equals per-dimension data, minus the
    # per-dimension budget column.
    body = [line.split(",") for line in ecdf_d2[3:]]
    all_body = [
        line.split(",")
        for line in (out / "random" / "ecdf_all.csv").read_text().splitlines()[3:]
    ]
    assert [(r[0], r[2], r[3], r[4]) for r in body] == [
        (r[0], r[2], r[3], r[4]) for r in all_body
    ]
    assert all(r[1] == "" for r in all_body)


def test_process_experiment_warns_on_mixed_refset_versions(tmp_path) -> None:
    # A run without --refsets rewrites <out>/refsets, so two such runs at
    # different seeds into one tree leave logs of one problem that name
    # different versions; postprocess still aggregates them, with a warning.
    out = tmp_path / "exp"
    grid = dict(functions=("f1",), dimensions=(2,), instances=(1,), budget=100,
                bootstrap_budget=100)
    run_experiment(ExperimentConfig(algorithm="random", output_dir=out, seed=1, **grid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        process_experiment(out, tmp_path / "one")
    run_experiment(ExperimentConfig(algorithm="hillclimber", output_dir=out, seed=2, **grid))
    versions = {
        algorithm: read_log(out / algorithm / "f1_d2_i1.tsv").header.refset_version
        for algorithm in ("random", "hillclimber")
    }
    assert versions["random"] != versions["hillclimber"]
    named = re.escape(f"f1:2:1 (hillclimber {versions['hillclimber']}, random {versions['random']})")
    with pytest.warns(UserWarning, match=named):
        written = process_experiment(out, tmp_path / "both")
    assert len(written) == 6
    with pytest.warns(UserWarning, match=named):
        assert main(["postprocess", "--logs", str(out), "--out", str(tmp_path / "cli")]) == 0
