"""Postprocessing tests: ECDF counting, runtime tables, CSV output."""

from __future__ import annotations

import random

import pytest

from bibench import refset
from bibench.core import ObjectiveVector, ProblemSpec
from bibench.postprocess import (
    DEFAULT_INSTANCES_DISPLAY,
    DEFAULT_TABLE_PRECISIONS,
    MISSED_MARK,
    EcdfCurve,
    LabeledRecord,
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
    with pytest.raises(ValueError, match="not on the 58-value target grid"):
        resolve_precisions([0.123])


def _labeled(instance_id: int, hit_at: int | None, budget: int) -> LabeledRecord:
    """One f1/d2 record that hits only the coarsest target (ΔI = 1.0)."""
    rec = RuntimeRecord(absolute_targets(_spec()))
    if hit_at is not None:
        # 0.4 <= -0.5 + 1.0 but exceeds every finer target.
        rec.record(hit_at, 0.4)
        if hit_at < budget:
            rec.record(budget, 0.4)
    else:
        rec.record(budget, 0.95)  # above even the coarsest target
    return LabeledRecord(
        function_id="f1",
        instance_id=instance_id,
        dimension=2,
        algorithm="random",
        refset_version="c" * 16,
        runtimes=rec,
    )


def test_runtime_table_cells_and_missed_marker() -> None:
    records = [_labeled(i, hit_at=7 * i, budget=1000) for i in range(1, 6)]
    records += [_labeled(i, hit_at=None, budget=1000) for i in range(6, 11)]
    rows = runtime_table(records, precisions=[1.0])
    assert len(rows) == 1
    row = rows[0]
    assert (row.function_id, row.dimension, row.precision) == ("f1", 2, 1.0)
    assert row.n_instances == 10
    assert row.n_hit == 5
    assert [inst for inst, _ in row.cells] == [1, 2, 3, 4, 5]
    assert [cell for _, cell in row.cells] == ["7", "14", "21", "28", "35"]


def test_runtime_table_shows_missed_with_budget() -> None:
    records = [_labeled(1, hit_at=None, budget=250)]
    rows = runtime_table(records, precisions=[1.0, 1e-1])
    assert len(rows) == 2
    for row in rows:
        assert row.cells == ((1, f"{MISSED_MARK}(250)"),)
        assert row.n_hit == 0


def test_runtime_table_display_width_default_five() -> None:
    assert DEFAULT_INSTANCES_DISPLAY == 5
    records = [_labeled(i, hit_at=3, budget=100) for i in range(1, 11)]
    rows = runtime_table(records, precisions=[1.0])
    assert len(rows[0].cells) == 5
    wide = runtime_table(records, precisions=[1.0], instances_display=10)
    assert len(wide[0].cells) == 10


def test_runtime_table_groups_by_function_and_dimension() -> None:
    records = [_labeled(1, hit_at=5, budget=100)]
    other = LabeledRecord(
        function_id="f2",
        instance_id=1,
        dimension=3,
        algorithm="random",
        refset_version="d" * 16,
        runtimes=records[0].runtimes,
    )
    rows = runtime_table(records + [other], precisions=[1.0, 1e-1])
    keys = [(r.function_id, r.dimension, r.precision) for r in rows]
    assert keys == [
        ("f1", 2, 1.0), ("f1", 2, 1e-1),
        ("f2", 3, 1.0), ("f2", 3, 1e-1),
    ]


def test_runtime_table_rejects_off_grid_precision() -> None:
    with pytest.raises(ValueError, match="not on the 58-value target grid"):
        runtime_table([_labeled(1, hit_at=5, budget=10)], precisions=[0.05])


def test_write_ecdf_csv_format(tmp_path) -> None:
    curve = EcdfCurve(
        support=(10, 100),
        proportion=(0.25, 0.75),
        n_hit=(1, 3),
        n_total=4,
        algorithm="random",
        slice_label="d2",
        refset_version="e" * 16,
    )
    path = write_ecdf_csv(curve, tmp_path / "ecdf_d2.csv", dimension=2)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# refset_version={'e' * 16}"
    assert lines[1] == "# algorithm=random slice=d2"
    assert lines[2] == "budget,budget_per_dimension,proportion,n_hit,n_total"
    assert lines[3] == "10,5.0,0.25,1,4"
    assert lines[4] == "100,50.0,0.75,3,4"
    aggregate = write_ecdf_csv(curve, tmp_path / "ecdf_all.csv")
    assert aggregate.read_text().splitlines()[3] == "10,,0.25,1,4"


def test_write_runtime_table_csv(tmp_path) -> None:
    records = [_labeled(1, hit_at=42, budget=100), _labeled(2, hit_at=None, budget=100)]
    rows = runtime_table(records, precisions=[1.0])
    path = write_runtime_table_csv(rows, tmp_path / "table.csv", refset_version="c" * 16)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# refset_version={'c' * 16}"
    assert lines[1] == "function,dimension,precision,instance_1,instance_2,n_hit,n_instances"
    assert lines[2] == f"f1,2,1.0,42,{MISSED_MARK}(100),1,2"


def _small_experiment(tmp_path):
    fn = get_function("f1", instance_id=1, dimension=2)
    pts = [analytic_front_oracle(fn, k / 500) for k in range(501)]
    rs = refset.merge(
        [pts], function_id="f1", instance_id=1, dimension=2,
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
    records = load_labeled_records(logs_dir)
    assert len(records) == 1
    rec = records[0]
    assert (rec.function_id, rec.dimension, rec.instance_id) == ("f1", 2, 1)
    assert rec.algorithm == "random"
    # End-to-end replay equivalence: replayed runtimes equal live ones.
    assert rec.runtimes.first_hit == results[0].runtimes.first_hit
    assert rec.runtimes.evaluations == results[0].runtimes.evaluations
    live = ecdf([results[0].runtimes])
    replayed = ecdf([rec.runtimes])
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
