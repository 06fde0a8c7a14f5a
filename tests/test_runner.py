"""Runner tests: orchestration, determinism, bootstrap, regression fixture."""

from __future__ import annotations

import filecmp
from pathlib import Path

import pytest

from bibench import refset
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
        [pts],
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
    assert log.records[0].eval_count == 1
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
    with pytest.raises(ValueError, match="f1:2:2"):
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
    assert versions == {results[0].spec.refset_version, results[1].spec.refset_version}


def test_recalc_experiment_rescores_against_new_refsets(tmp_path) -> None:
    [live] = run_experiment(_f1_config(tmp_path, budget=300))
    new_dir = tmp_path / "new"
    coarse = refset.read_reference_set(_analytic_f1_refset_dir(new_dir, n=50) / "f1_d2_i1.tsv")
    assert coarse.version != live.spec.refset_version

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


def test_recalc_experiment_rejects_mismatched_refset_file(tmp_path) -> None:
    run_experiment(_f1_config(tmp_path, budget=50))
    refdir = tmp_path / "wrong"
    refdir.mkdir()
    other = _analytic_f1_refset_dir(tmp_path / "i2", instance_id=2)
    refset.refset_path(refdir, "f1", 2, 1).write_bytes((other / "f1_d2_i2.tsv").read_bytes())
    with pytest.raises(ValueError, match="f1:2:1"):
        recalc_experiment(tmp_path / "out", refdir, tmp_path / "rescored")


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
    assert results[0].spec.refset_version == rs.version
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
    assert rs.version == "cb4d9e24b23b5845"
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
