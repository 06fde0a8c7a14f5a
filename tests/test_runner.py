"""Runner tests: orchestration, determinism, bootstrap, regression fixture."""

from __future__ import annotations

import filecmp
import gc
import hashlib
import math
import re
import shutil
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import point_columns, record_columns
from hypothesis import HealthCheck, given, settings, strategies as st

from bibench import datalog, postprocess, refset, runner, suite
from bibench.core import ObjectiveVector, normalize
from bibench.datalog import read_experiment_index, read_log, recalculate
from bibench.runner import (
    ALGORITHMS,
    BOOTSTRAP_WEIGHTS,
    ExperimentConfig,
    bootstrap_refsets,
    default_budget,
    recalc_experiment,
    run_experiment,
)
from bibench.suite import analytic_front_oracle, get_function
from bibench.targets import precision_grid


def _analytic_f1_refset_dir(base: Path, instance_id: int = 1, n: int = 2000) -> Path:
    """Reference set from a dense sample of f1's closed-form front."""
    fn = get_function("f1", instance_id=instance_id, dimension=2)
    pts = [analytic_front_oracle(fn, k / n) for k in range(n + 1)]
    rs = refset.merge(
        [point_columns(pts)],
        function_id="f1",
        instance_id=instance_id,
        dimension=2,
        ideal=fn.analytic_ideal,
        nadir=fn.analytic_nadir,
    )
    refdir = base / "refsets"
    refset.write_reference_set(rs, refset.refset_path(refdir, "f1", 2, instance_id))
    return refdir


def _f1_config(tmp_path: Path, *, budget: int, seed: int = 0, out: str = "out") -> ExperimentConfig:
    return ExperimentConfig(
        algorithm="random",
        output_dir=tmp_path / out,
        seed=seed,
        functions=("f1",),
        dimensions=(2,),
        instances=(1,),
        budget=budget,
        refset_dir=_analytic_f1_refset_dir(tmp_path),
    )


def test_default_budget_scales_with_dimension() -> None:
    assert default_budget(2) == 20_000
    assert default_budget(10) == 100_000


def test_config_validation() -> None:
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algorithm="simplex", output_dir=Path("x"), seed=0)
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(algorithm="random", output_dir=Path("x"), seed=0, budget=0)
    cfg = ExperimentConfig(algorithm="random", output_dir=Path("x"), seed=0)
    assert cfg.budget_for(5) == 50_000
    assert ExperimentConfig(
        algorithm="random", output_dir=Path("x"), seed=0, budget=7
    ).budget_for(5) == 7


@pytest.mark.parametrize(
    ("field", "value", "message"),
    [
        ("budget", True, "budget must be an integer, got True"),
        ("budget", 2.5, "budget must be an integer, got 2.5"),
        ("budget", 2**63, "budget must be below 2**63, got 9223372036854775808"),
        ("bootstrap_budget", True, "bootstrap budget must be an integer, got True"),
        ("bootstrap_budget", 0, "bootstrap budget must be at least 1, got 0"),
    ],
    ids=["budget-bool", "budget-float", "budget-beyond-int64", "bootstrap-bool", "bootstrap-zero"],
)
def test_config_refuses_a_bad_budget_before_anything_runs(tmp_path, field, value, message) -> None:
    # Before, the run died with a bare TypeError naming neither field ("an
    # integer is required", "'float' object cannot be interpreted as an
    # integer"), a bad budget after bootstrapping reference sets into the tree.
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(ExperimentConfig(
            algorithm="random", output_dir=out, seed=1, functions=("f1",), dimensions=(2,),
            instances=(1,), **{field: value},
        ))
    assert not out.exists()


def test_registered_algorithms() -> None:
    assert set(ALGORITHMS) == {"random", "hillclimber"}
    assert len(BOOTSTRAP_WEIGHTS) == 101
    assert BOOTSTRAP_WEIGHTS[0] == 0.0 and BOOTSTRAP_WEIGHTS[-1] == 1.0


def test_budget_one_run(tmp_path) -> None:
    results = run_experiment(_f1_config(tmp_path, budget=1))
    assert len(results) == 1
    res = results[0]
    assert res.archive_size == 1
    assert res.runtimes.evaluations == 1
    log = read_log(res.log_path)
    assert len(log.records) == 1
    assert log.records.eval_count.tolist() == [1]
    assert log.header.budget == 1
    # One random point hits at most the very easy targets.
    grid = precision_grid()
    for k, hit in enumerate(res.runtimes.first_hit):
        if hit is not None:
            assert grid[k] > 0.0


def test_same_seed_is_byte_identical(tmp_path) -> None:
    run_experiment(_f1_config(tmp_path, budget=400, seed=5, out="a"))
    run_experiment(_f1_config(tmp_path, budget=400, seed=5, out="b"))
    a = tmp_path / "a" / "random" / "f1_d2_i1.tsv"
    b = tmp_path / "b" / "random" / "f1_d2_i1.tsv"
    assert a.read_bytes() == b.read_bytes()
    assert filecmp.cmp(
        tmp_path / "a" / "random" / "experiment_index.tsv",
        tmp_path / "b" / "random" / "experiment_index.tsv",
        shallow=False,
    )


def test_different_seeds_differ(tmp_path) -> None:
    run_experiment(_f1_config(tmp_path, budget=400, seed=5, out="a"))
    run_experiment(_f1_config(tmp_path, budget=400, seed=6, out="b"))
    a = tmp_path / "a" / "random" / "f1_d2_i1.tsv"
    b = tmp_path / "b" / "random" / "f1_d2_i1.tsv"
    assert a.read_bytes() != b.read_bytes()


def test_problem_results_independent_of_selection(tmp_path) -> None:
    """A problem's log does not depend on which other problems ran."""
    refdir = _analytic_f1_refset_dir(tmp_path)
    _analytic_f1_refset_dir(tmp_path, instance_id=2)
    solo = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "solo", seed=3,
        functions=("f1",), dimensions=(2,), instances=(1,),
        budget=300, refset_dir=refdir,
    )
    pair = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "pair", seed=3,
        functions=("f1",), dimensions=(2,), instances=(1, 2),
        budget=300, refset_dir=refdir,
    )
    run_experiment(solo)
    run_experiment(pair)
    assert (tmp_path / "solo" / "random" / "f1_d2_i1.tsv").read_bytes() == (
        tmp_path / "pair" / "random" / "f1_d2_i1.tsv"
    ).read_bytes()


def test_missing_refset_names_problem(tmp_path) -> None:
    cfg = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "out", seed=0,
        functions=("f2",), dimensions=(3,), instances=(4,),
        budget=10, refset_dir=tmp_path / "nowhere",
    )
    with pytest.raises(FileNotFoundError, match="f2:3:4"):
        run_experiment(cfg)


def test_mismatched_refset_file_rejected(tmp_path) -> None:
    refdir = _analytic_f1_refset_dir(tmp_path)
    right = refset.refset_path(refdir, "f1", 2, 1)
    wrong = refset.refset_path(refdir, "f1", 2, 2)
    wrong.write_bytes(right.read_bytes())  # instance 1 content at instance 2 path
    cfg = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "out", seed=0,
        functions=("f1",), dimensions=(2,), instances=(2,),
        budget=10, refset_dir=refdir,
    )
    message = f"{wrong}: file is for f1:2:1, not f1:2:2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg)


def test_index_lists_every_run(tmp_path) -> None:
    refdir = _analytic_f1_refset_dir(tmp_path)
    _analytic_f1_refset_dir(tmp_path, instance_id=2)
    cfg = ExperimentConfig(
        algorithm="random", output_dir=tmp_path / "out", seed=1,
        functions=("f1",), dimensions=(2,), instances=(1, 2),
        budget=50, refset_dir=refdir,
    )
    results = run_experiment(cfg)
    entries = read_experiment_index(tmp_path / "out" / "random" / "experiment_index.tsv")
    assert len(entries) == len(results) == 2
    assert {e.file for e in entries} == {"f1_d2_i1.tsv", "f1_d2_i2.tsv"}
    versions = {e.refset_version for e in entries}
    assert versions == {results[0].refset_version, results[1].refset_version}


def test_recalc_experiment_rescores_against_new_refsets(tmp_path) -> None:
    [live] = run_experiment(_f1_config(tmp_path, budget=300))
    new_dir = tmp_path / "new"
    coarse = refset.read_reference_set(_analytic_f1_refset_dir(new_dir, n=50) / "f1_d2_i1.tsv")
    assert coarse.version != live.refset_version

    written = recalc_experiment(tmp_path / "out", new_dir / "refsets", tmp_path / "rescored")
    assert written == [tmp_path / "rescored" / "random" / "f1_d2_i1.tsv"]
    old, new = read_log(live.log_path), read_log(written[0])
    assert new.records == old.records
    assert (new.header.refset_version, new.header.i_ref) == (coarse.version, coarse.i_ref)
    entries = read_experiment_index(tmp_path / "rescored" / "random" / "experiment_index.tsv")
    assert [(e.file, e.refset_version) for e in entries] == [("f1_d2_i1.tsv", coarse.version)]
    # The rewritten log replays to the old log's runtimes under the new spec.
    _, rescored = recalculate(old, coarse.problem_spec())
    _, reread = recalculate(new, new.header.problem_spec())
    assert rescored.first_hit == reread.first_hit


def test_recalc_experiment_reads_each_reference_set_once(tmp_path, monkeypatch) -> None:
    """Two algorithms' logs of two problems: each problem's reference set is
    read once, not once per log, and the rewritten logs are unchanged."""
    refdir = _analytic_f1_refset_dir(tmp_path)
    _analytic_f1_refset_dir(tmp_path, instance_id=2)
    for algorithm in ALGORITHMS:
        run_experiment(ExperimentConfig(
            algorithm=algorithm, output_dir=tmp_path / "out", seed=1,
            functions=("f1",), dimensions=(2,), instances=(1, 2),
            budget=60, refset_dir=refdir,
        ))
    reads: list[Path] = []
    read_reference_set = refset.read_reference_set

    def counting_read(path):
        reads.append(Path(path))
        return read_reference_set(path)

    monkeypatch.setattr(refset, "read_reference_set", counting_read)
    written = recalc_experiment(tmp_path / "out", refdir, tmp_path / "rescored")
    assert len(written) == 4
    assert sorted(p.name for p in reads) == ["f1_d2_i1.tsv", "f1_d2_i2.tsv"]
    for path in written:
        original = tmp_path / "out" / path.relative_to(tmp_path / "rescored")
        assert path.read_bytes() == original.read_bytes()


def test_recalc_experiment_rejects_mismatched_refset_file(tmp_path) -> None:
    run_experiment(_f1_config(tmp_path, budget=50))
    refdir = tmp_path / "wrong"
    refdir.mkdir()
    other = _analytic_f1_refset_dir(tmp_path / "i2", instance_id=2)
    refset.refset_path(refdir, "f1", 2, 1).write_bytes((other / "f1_d2_i2.tsv").read_bytes())
    with pytest.raises(ValueError, match="f1:2:1"):
        recalc_experiment(tmp_path / "out", refdir, tmp_path / "rescored")


def test_recalc_experiment_rejects_renamed_algorithm_directory(tmp_path) -> None:
    run_experiment(_f1_config(tmp_path, budget=50))
    (tmp_path / "out" / "random").rename(tmp_path / "out" / "rs")
    with pytest.raises(
        ValueError, match=r"f1_d2_i1\.tsv: index lists algorithm rs but the log header says random"
    ):
        recalc_experiment(tmp_path / "out", tmp_path / "refsets", tmp_path / "rescored")
    assert not (tmp_path / "rescored").exists()


def _tree(root: Path) -> dict:
    """Every path under ``root``, directories included, with a file's bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def test_failed_recalc_leaves_existing_tree_unchanged(tmp_path) -> None:
    cfg = _f1_config(tmp_path, budget=200, out="logs")
    for algorithm in ("hillclimber", "random"):
        run_experiment(replace(cfg, algorithm=algorithm))
    out = tmp_path / "out"
    recalc_experiment(cfg.output_dir, cfg.refset_dir, out)
    before = _tree(out)
    # hillclimber/ re-assesses cleanly against other reference sets, then
    # the renamed rs/ fails.
    broken = shutil.copytree(cfg.output_dir, tmp_path / "broken")
    (broken / "random").rename(broken / "rs")
    coarse = _analytic_f1_refset_dir(tmp_path / "new", n=50)
    with pytest.raises(ValueError, match="index lists algorithm rs"):
        recalc_experiment(broken, coarse, out)
    assert _tree(out) == before
    assert postprocess.process_experiment(out, tmp_path / "tables")


def test_failed_run_leaves_no_log(tmp_path) -> None:
    # Instance 1 runs and is staged; instance 2 has no reference set.
    cfg = replace(_f1_config(tmp_path, budget=50), instances=(1, 2))
    with pytest.raises(FileNotFoundError, match="f1:2:2"):
        run_experiment(cfg)
    assert _tree(cfg.output_dir) == {}


def test_failed_run_or_recalc_removes_the_output_directory_it_created(tmp_path) -> None:
    # Instance 1 is assessed and staged; instance 2 has no reference set.
    cfg = replace(_f1_config(tmp_path, budget=50), instances=(1, 2))
    with pytest.raises(FileNotFoundError, match="f1:2:2"):
        run_experiment(cfg)
    assert not cfg.output_dir.exists()
    cfg.output_dir.mkdir()  # a directory the run did not create stays
    with pytest.raises(FileNotFoundError, match="f1:2:2"):
        run_experiment(cfg)
    assert cfg.output_dir.is_dir()
    _analytic_f1_refset_dir(tmp_path, instance_id=2)
    run_experiment(cfg)
    only_i1 = _analytic_f1_refset_dir(tmp_path / "only_i1")
    with pytest.raises(FileNotFoundError, match="f1:2:2"):
        recalc_experiment(cfg.output_dir, only_i1, tmp_path / "rescored")
    assert not (tmp_path / "rescored").exists()


def test_baseline_over_its_budget_fails_and_leaves_the_tree(tmp_path) -> None:
    # A baseline only sees the runner's budgeted callback, which refuses the
    # evaluation past the budget; the failed run publishes nothing.
    cfg = _f1_config(tmp_path, budget=40)
    run_experiment(cfg)
    before = _tree(cfg.output_dir)
    asked = []

    def greedy(evaluate, dimension, budget, rng):
        for _ in range(budget + 1):
            evaluate(rng.uniform(-5.0, 5.0, dimension))
            asked.append(1)

    with pytest.MonkeyPatch.context() as m:
        m.setitem(ALGORITHMS, "random", greedy)
        with pytest.raises(RuntimeError, match="^evaluation budget 40 exhausted$"):
            run_experiment(replace(cfg, seed=1))
    assert len(asked) == 40
    assert _tree(cfg.output_dir) == before


def test_failed_run_keeps_its_in_run_reference_sets(tmp_path) -> None:
    cfg = replace(_f1_config(tmp_path, budget=50), refset_dir=None, bootstrap_budget=50)

    def broken(*_):
        raise RuntimeError("optimizer crashed")

    with pytest.MonkeyPatch.context() as m:
        m.setitem(ALGORITHMS, "random", broken)
        with pytest.raises(RuntimeError, match="optimizer crashed"):
            run_experiment(cfg)
    assert sorted(_tree(cfg.output_dir)) == ["refsets", "refsets/f1_d2_i1.tsv"]


def test_failed_bootstrapping_run_over_a_tree_keeps_its_logs_not_its_refsets(tmp_path) -> None:
    # In-run reference sets are written before the first problem runs, so a
    # failed run has already replaced them; its logs and index stay as they were.
    cfg = replace(_f1_config(tmp_path, budget=50), refset_dir=None, bootstrap_budget=50)
    run_experiment(cfg)
    before = _tree(cfg.output_dir)

    def broken(*_):
        raise RuntimeError("optimizer crashed")

    with pytest.MonkeyPatch.context() as m:
        m.setitem(ALGORITHMS, "random", broken)
        with pytest.raises(RuntimeError, match="optimizer crashed"):
            run_experiment(replace(cfg, seed=1))
    after = _tree(cfg.output_dir)
    assert sorted(after) == sorted(before)
    assert not (cfg.output_dir / ".staging").exists()
    for name in ("random/f1_d2_i1.tsv", "random/experiment_index.tsv"):
        assert after[name] == before[name]
    assert after["refsets/f1_d2_i1.tsv"] != before["refsets/f1_d2_i1.tsv"]


def test_run_result_is_its_logs_header(tmp_path) -> None:
    cfg = replace(_f1_config(tmp_path, budget=300), instances=(1, 2))
    _analytic_f1_refset_dir(tmp_path, instance_id=2)
    results = run_experiment(cfg)
    assert len(results) == 2
    for r in results:
        h = read_log(r.log_path).header
        assert r.problem_spec() == h.problem_spec()
        assert (r.algorithm, r.budget) == (h.algorithm, h.budget) == ("random", 300)


def test_bootstrap_writes_deterministic_refsets(tmp_path) -> None:
    kwargs = dict(
        seed=11, budget=300, functions=("f1", "f2"), dimensions=(2,), instances=(1,)
    )
    first = bootstrap_refsets(tmp_path / "a", **kwargs)
    second = bootstrap_refsets(tmp_path / "b", **kwargs)
    assert [p.name for p in first] == [p.name for p in second] == [
        "f1_d2_i1.tsv", "f2_d2_i1.tsv"
    ]
    for p, q in zip(first, second):
        assert p.read_bytes() == q.read_bytes()
    f1 = refset.read_reference_set(first[0])
    f2 = refset.read_reference_set(first[1])
    assert not f1.bounds_estimated  # both bounds analytic for f1
    assert f2.bounds_estimated  # f2's nadir read off the merged front
    assert (f2.ideal.f_alpha, f2.ideal.f_beta) == (0.0, 0.0)
    assert -1.0 <= f1.i_ref <= 0.0 and -1.0 <= f2.i_ref <= 0.0


def test_bootstrap_rejects_budget_below_one_before_any_work(tmp_path) -> None:
    with pytest.raises(ValueError, match="bootstrap budget must be at least 1, got 0"):
        bootstrap_refsets(tmp_path / "refsets", seed=1, budget=0, functions=("f1",))
    assert not (tmp_path / "refsets").exists()
    # Before, each died in the first baseline with a bare TypeError.
    for budget in (True, 2.5):
        with pytest.raises(ValueError, match=f"^bootstrap budget must be an integer, got {budget}$"):
            bootstrap_refsets(tmp_path / "refsets", seed=1, budget=budget, functions=("f1",))
    assert not (tmp_path / "refsets").exists()


def test_streamed_bootstrap_equals_merge_of_full_point_lists(tmp_path, monkeypatch) -> None:
    """With a 7-point buffer every baseline folds its front dozens of times;
    the written sets must still be the bytes of one merge over every point
    either baseline evaluated."""
    budget = 3000
    collected: list[list[ObjectiveVector]] = []
    budgeted = runner._budgeted

    def collecting(algo, fn, budget, rng, observe):
        points: list[ObjectiveVector] = []
        collected.append(points)

        def both(counts, f_alpha, f_beta):
            assert counts.tolist() == list(range(len(points) + 1, len(points) + len(counts) + 1))
            points.extend(map(ObjectiveVector, f_alpha.tolist(), f_beta.tolist()))
            observe(counts, f_alpha, f_beta)

        return budgeted(algo, fn, budget, rng, both)

    folds = 0
    rows = refset.nondominated_rows

    def counting(alpha, beta):
        nonlocal folds
        folds += 1
        return rows(alpha, beta)

    monkeypatch.setattr(runner, "_CHUNK", 7)
    monkeypatch.setattr(runner, "_budgeted", collecting)
    monkeypatch.setattr(refset, "nondominated_rows", counting)
    written = bootstrap_refsets(
        tmp_path / "streamed", seed=5, budget=budget,
        functions=("f1", "f2", "f3"), dimensions=(2,), instances=(1,),
    )
    assert folds > 24 * len(written)
    assert [len(points) for points in collected] == [budget] * 2 * len(written)
    for k, path in enumerate(written):
        streamed = refset.read_reference_set(path)
        fn = get_function(streamed.function_id, streamed.instance_id, streamed.dimension)
        whole = refset.merge(
            [point_columns(points) for points in collected[2 * k : 2 * k + 2]],
            function_id=fn.function_id, instance_id=fn.instance_id, dimension=fn.dimension,
            ideal=fn.analytic_ideal, nadir=fn.analytic_nadir,
        )
        expected = refset.write_reference_set(whole, tmp_path / "whole" / path.name)
        assert path.read_bytes() == expected.read_bytes()


def test_bootstrap_collector_memory_is_bounded_by_front_not_budget() -> None:
    # 200 000 points, of which only the ten with t % 7 == 0 lie on the front
    # (k / 10, 1 - k / 10).  Held in a list, these points would peak at about
    # 29 MB; the references alone would take 1.6 MB.
    collector = runner._FrontCollector("f1:2:1")
    tracemalloc.start()
    try:
        for start in range(0, 200_000, runner._CHUNK):
            t = np.arange(start, min(start + runner._CHUNK, 200_000))
            k, shift = t % 10, (t % 7) / 7
            collector(t + 1, k / 10 + shift, 1 - k / 10 + shift)
        front = collector.front()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(p.f_alpha, p.f_beta) for p in front] == [(k / 10, 1 - k / 10) for k in range(10)]
    assert peak < 1_000_000


def test_bootstrap_collector_folds_once_its_blocks_hold_as_many_points_as_the_front(
    monkeypatch,
) -> None:
    # Every point lies on one front, which doubles with each fold: the blocks
    # are folded once they hold _CHUNK points, then as many as the front.
    monkeypatch.setattr(runner, "_CHUNK", 4)
    collector, folds, after = runner._FrontCollector("f1:2:1"), [], []
    fold = collector.front
    monkeypatch.setattr(collector, "front", lambda: folds.append(1) or fold())
    start = 0
    for size in (3, 1, 2, 2, 4, 4):
        x = np.arange(start, start + size, dtype=float)
        start += size
        collector(x + 1, x, -x)
        after.append(len(folds))
    assert after == [0, 1, 1, 2, 2, 3]
    assert len(fold()) == start


def test_live_run_records_hold_no_object_per_record(tmp_path) -> None:
    # A walk along f1's Pareto set puts each of its 50 000 evaluations into
    # the archive and the log.  A LogRecord and an ObjectiveVector per record
    # held about 11 MB; three columns hold 1.2 MB.
    n = 50_000
    fn = get_function("f1", instance_id=1, dimension=2)
    step = (fn.optimum_beta - fn.optimum_alpha) / n

    def front_walk(evaluate, dimension, budget, rng):
        for k in range(budget):
            evaluate(fn.optimum_alpha + k * step)

    logs = []
    write = datalog.ExperimentWriter.write

    def keep(writer, log):
        logs.append(log)
        return write(writer, log)

    cfg = _f1_config(tmp_path, budget=n)
    with pytest.MonkeyPatch.context() as m:
        m.setitem(ALGORITHMS, "random", front_walk)
        m.setattr(datalog.ExperimentWriter, "write", keep)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            gc.collect()
            with_records = tracemalloc.get_traced_memory()[0]
            count = len(logs.pop().records)
            held = with_records - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert count == n
    assert held < 3_000_000


def test_bootstrap_names_the_problem_of_a_non_finite_value(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(
        suite.SuiteFunction, "evaluate", lambda self, x: ObjectiveVector(math.inf, 0.5)
    )
    with pytest.raises(ValueError, match="bootstrap f2:2:1: non-finite objective value"):
        bootstrap_refsets(
            tmp_path / "refsets", seed=1, budget=10,
            functions=("f2",), dimensions=(2,), instances=(1,),
        )
    assert not (tmp_path / "refsets" / "f2_d2_i1.tsv").exists()


def test_run_without_refset_dir_bootstraps_first(tmp_path) -> None:
    cfg = ExperimentConfig(
        algorithm="hillclimber", output_dir=tmp_path / "out", seed=2,
        functions=("f1",), dimensions=(2,), instances=(1,),
        budget=100, bootstrap_budget=300,
    )
    results = run_experiment(cfg)
    rs_path = tmp_path / "out" / "refsets" / "f1_d2_i1.tsv"
    assert rs_path.is_file()
    rs = refset.read_reference_set(rs_path)
    assert results[0].refset_version == rs.version
    assert read_log(results[0].log_path).header.refset_version == rs.version


def test_random_search_regression_fixture(tmp_path) -> None:
    """Frozen behavior of the reference random-search run (seed 0, f1:2:1,
    budget 10^4, reference set = 2001-point closed-form front sample).

    Values were observed once from this exact configuration and pinned;
    any change to instance generation, seeding, the archive, or the
    indicator shows up here.
    """
    cfg = _f1_config(tmp_path, budget=10_000)
    rs = refset.read_reference_set(refset.refset_path(cfg.refset_dir, "f1", 2, 1))
    assert rs.version == "500a62d12c1cc4a3"
    assert rs.i_ref == -0.8331665833125

    res = run_experiment(cfg)[0]
    assert res.runtimes.hit_count == 25
    assert res.archive_size == 175

    grid = precision_grid()
    observed = {
        k: res.runtimes.first_hit[k] for k in range(58) if grid[k] >= 0.1 - 1e-12
    }
    assert observed == {
        47: 112, 48: 73, 49: 47, 50: 35, 51: 27, 52: 12,
        53: 12, 54: 12, 55: 3, 56: 3, 57: 1,
    }
    # Every coarse positive precision (>= 1e-1) was reached.
    assert all(hit is not None for hit in observed.values())


def _tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``, in sorted relative-path order,
    of each path and the SHA-256 of its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        digest.update(f"{name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def test_tiny_pipeline_tree_digest_is_pinned(tmp_path) -> None:
    """Every byte of a small pipeline: bootstrapped reference sets, both
    baselines' logs and indexes, and the post-processed tables, for f1-f3 at
    dimensions 2 and 10.  Any moved point, objective or format shows here;
    re-pinned when the indexes became ``experiment-index-v2``, and when the
    reference sets became ``refset-v2``: each time those were the only files
    that changed."""
    grid = dict(functions=("f1", "f2", "f3"), dimensions=(2, 10), instances=(1,))
    refsets = tmp_path / "tree" / "refsets"
    bootstrap_refsets(refsets, seed=1, budget=1000, **grid)
    for algorithm in ("random", "hillclimber"):
        run_experiment(ExperimentConfig(
            algorithm=algorithm, output_dir=tmp_path / "tree" / "logs", seed=1,
            budget=500, refset_dir=refsets, **grid,
        ))
    postprocess.process_experiment(tmp_path / "tree" / "logs", tmp_path / "tree" / "tables")
    assert _tree_digest(tmp_path / "tree") == "1f0242545d252edb79c83f407b35849352ad6985537d2094db0b8657d8aa31d5"


# -- the budget guard's blocks against the per-evaluation loop they replaced ------


def _per_point_run(spec, points):
    """The live loop before the budget guard handed out blocks: each
    evaluation normalized by ``core.normalize`` and assessed at once, and
    each accepted one kept as a log row."""
    assessment, rows = datalog.Assessment(spec), []
    for t, (f_alpha, f_beta) in enumerate(points, start=1):
        if assessment.add_normalized(t, normalize(ObjectiveVector(f_alpha, f_beta), spec)):
            rows.append((t, f_alpha, f_beta))
    return record_columns(rows), assessment


def _raw_values(lo: float, hi: float):
    # Below the ideal, on it, inside, on the nadir and beyond it; drawing from
    # few values makes exact duplicates and equal-u ties.
    span = hi - lo
    return st.sampled_from((lo - span / 2, lo, lo + span / 4, lo + span / 2, hi, hi + span)) \
        | st.floats(lo - span, hi + span)


@pytest.fixture(scope="module")
def f1_refsets(tmp_path_factory) -> Path:
    return _analytic_f1_refset_dir(tmp_path_factory.mktemp("f1"))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_blocks_of_the_budget_guard_match_assessing_each_evaluation(
    f1_refsets, chunk, data
) -> None:
    fn = get_function("f1", instance_id=1, dimension=2)
    ideal, nadir = fn.analytic_ideal, fn.analytic_nadir
    values = st.tuples(_raw_values(ideal.f_alpha, nadir.f_alpha),
                       _raw_values(ideal.f_beta, nadir.f_beta))
    points = data.draw(st.lists(values, min_size=1, max_size=4 * chunk + 3))
    budget = len(points) + data.draw(st.integers(0, 2))
    raise_after = data.draw(st.none() | st.integers(0, len(points) - 1))
    made = []

    class Kept(datalog.Assessment):
        def __init__(self, spec) -> None:
            super().__init__(spec)
            made.append(self)

    def scripted(evaluate, dimension, budget, rng):
        for k, point in enumerate(points):
            if k == raise_after:
                raise RuntimeError("scripted crash")
            evaluate(list(point))

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as m:
        m.setattr(runner, "_CHUNK", chunk)
        m.setattr(datalog, "Assessment", Kept)
        m.setattr(suite.SuiteFunction, "evaluate", lambda self, x: ObjectiveVector(*x))
        m.setitem(ALGORITHMS, "random", scripted)
        cfg = ExperimentConfig(
            algorithm="random", output_dir=Path(out) / "exp", seed=0, functions=("f1",),
            dimensions=(2,), instances=(1,), budget=budget, refset_dir=f1_refsets,
        )
        if raise_after is not None:
            # The evaluations of the unfinished block were never assessed.
            with pytest.raises(RuntimeError, match="scripted crash"):
                run_experiment(cfg)
            assert made[0].runtimes.evaluations == raise_after // chunk * chunk
            assert not cfg.output_dir.exists()
            return
        (result,) = run_experiment(cfg)
        logged = read_log(result.log_path).records
    records, expected = _per_point_run(made[0].spec, points)
    for name in ("eval_count", "f_alpha", "f_beta"):
        assert getattr(logged, name).tobytes() == getattr(records, name).tobytes()
    assert result.runtimes.first_hit == expected.runtimes.first_hit
    assert result.runtimes.evaluations == expected.runtimes.evaluations == len(points)
    assert result.archive_size == len(expected.archive)
    assert made[0].archive.clamp_warnings == expected.archive.clamp_warnings
