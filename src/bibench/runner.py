"""Experiment orchestration: run baselines, log runs, bootstrap and recalc.

Every problem gets a fresh archive and an independent random stream
derived from the master seed and the problem key, so per-problem results
do not depend on which other problems run or in what order, and a
repeated run with the same configuration is byte-identical on disk.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from bibench import baselines, datalog, refset, suite
from bibench.core import ObjectiveVector, ProblemSpec
from bibench.targets import RuntimeRecord

__all__ = [
    "ALGORITHMS",
    "DEFAULT_BOOTSTRAP_BUDGET",
    "BOOTSTRAP_WEIGHTS",
    "ExperimentConfig",
    "RunResult",
    "bootstrap_refsets",
    "default_budget",
    "recalc_experiment",
    "run_experiment",
]

# Bootstrapping sweeps a much denser weight grid than the registered
# baseline: the scalarized optima alone must trace the front closely
# enough that the reference hypervolume approaches the true front's.
BOOTSTRAP_WEIGHTS = tuple(k / 100.0 for k in range(101))
DEFAULT_BOOTSTRAP_BUDGET = 100_000

ALGORITHMS: dict[str, Callable] = {
    "random": baselines.random_search,
    "hillclimber": baselines.scalarized_hill_climber,
}

# Stream labels mixed into per-problem seeds.
_PURPOSE_RUN = 1
_PURPOSE_BOOTSTRAP = 2


def default_budget(dimension: int) -> int:
    """Default per-problem evaluation budget: 10^4 * dimension."""
    return 10_000 * dimension


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; immutable and reusable."""

    algorithm: str
    output_dir: Path
    seed: int
    functions: tuple[str, ...] = suite.FUNCTION_IDS
    dimensions: tuple[int, ...] = suite.DIMENSIONS
    instances: tuple[int, ...] = suite.INSTANCE_IDS
    budget: int | None = None  # None: 10^4 * dimension per problem
    refset_dir: Path | None = None  # None: bootstrap mode
    bootstrap_budget: int = DEFAULT_BOOTSTRAP_BUDGET

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}, expected one of "
                f"{sorted(ALGORITHMS)}"
            )
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be positive, got {self.budget}")

    def budget_for(self, dimension: int) -> int:
        return self.budget if self.budget is not None else default_budget(dimension)


@dataclass
class RunResult:
    """Live outcome of one problem's run."""

    function_id: str
    instance_id: int
    dimension: int
    algorithm: str
    spec: ProblemSpec
    runtimes: RuntimeRecord
    log_path: Path
    archive_size: int


def _budgeted(fn: suite.SuiteFunction, budget: int, observe: Callable) -> Callable:
    """The evaluation callback handed to a baseline, and the one budget guard:
    it counts evaluations, refuses any beyond ``budget`` and passes each
    ``(count, x, objectives)`` to ``observe``.  Baselines only ever see this
    callback, which keeps them black-box by construction."""
    count = 0

    def evaluate(x: np.ndarray) -> tuple[float, float]:
        nonlocal count
        if count >= budget:
            raise RuntimeError(f"evaluation budget {budget} exhausted")
        count += 1
        y = fn.evaluate(x)
        observe(count, x, y)
        return y.f_alpha, y.f_beta

    return evaluate


def _problem_rng(master_seed: int, purpose: int, algo_index: int,
                 function_id: str, dimension: int, instance_id: int) -> np.random.Generator:
    fid_index = suite.FUNCTION_IDS.index(function_id) + 1
    seed = suite.mix_seed(master_seed, purpose, algo_index, fid_index, dimension, instance_id)
    return np.random.default_rng(seed)


def bootstrap_refsets(
    output_dir: Path | str,
    seed: int,
    budget: int = DEFAULT_BOOTSTRAP_BUDGET,
    functions: Sequence[str] | None = None,
    dimensions: Sequence[int] | None = None,
    instances: Sequence[int] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[Path]:
    """Build one reference set per problem from all built-in baselines.

    Each baseline runs with the full ``budget`` on every problem; the
    union of everything either evaluated is filtered to its non-dominated
    subset.  Bounds are analytic where the suite knows them (always the
    ideal; the nadir only for ``f1``), otherwise estimated from the merged
    front's extremes.  Bootstrapping twice with the same seed yields
    identical files, hence identical versions.
    """
    output_dir = Path(output_dir)
    hill_climber = functools.partial(
        baselines.scalarized_hill_climber, weights=BOOTSTRAP_WEIGHTS
    )
    bootstrap_algos = ((1, baselines.random_search), (2, hill_climber))
    written: list[Path] = []
    for fid, dim, inst in suite.enumerate_problems(functions, dimensions, instances):
        fn = suite.get_function(fid, inst, dim)
        collected: list[list[ObjectiveVector]] = []
        for algo_index, algo in bootstrap_algos:
            points: list[ObjectiveVector] = []
            rng = _problem_rng(seed, _PURPOSE_BOOTSTRAP, algo_index, fid, dim, inst)
            algo(_budgeted(fn, budget, lambda t, x, y: points.append(y)), dim, budget, rng)
            collected.append(points)
        rs = refset.merge(
            collected,
            function_id=fid,
            instance_id=inst,
            dimension=dim,
            ideal=fn.analytic_ideal,
            nadir=fn.analytic_nadir,
        )
        path = refset.write_reference_set(rs, refset.refset_path(output_dir, fid, dim, inst))
        written.append(path)
        if progress is not None:
            progress(f"{fn.key}: {len(rs.points)} reference points, i_ref={rs.i_ref:.6f}")
    return written


def run_experiment(
    cfg: ExperimentConfig, progress: Callable[[str], None] | None = None
) -> list[RunResult]:
    """Run the configured baseline over the problem grid and write logs.

    Without a ``refset_dir`` the experiment first bootstraps reference
    sets into ``<output_dir>/refsets``.  Returns live per-problem results;
    the experiment index is written last.
    """
    problems = suite.enumerate_problems(cfg.functions, cfg.dimensions, cfg.instances)
    refset_dir = cfg.refset_dir
    if refset_dir is None:
        refset_dir = Path(cfg.output_dir) / "refsets"
        bootstrap_refsets(
            refset_dir,
            cfg.seed,
            cfg.bootstrap_budget,
            cfg.functions,
            cfg.dimensions,
            cfg.instances,
            progress=progress,
        )

    algo = ALGORITHMS[cfg.algorithm]
    results: list[RunResult] = []
    index_entries: list[datalog.IndexEntry] = []
    for fid, dim, inst in problems:
        fn = suite.get_function(fid, inst, dim)
        spec = refset.load_reference_set(refset_dir, fid, dim, inst).problem_spec()
        budget = cfg.budget_for(dim)
        assessment = datalog.Assessment(spec)
        records: list[datalog.LogRecord] = []

        def observe(t: int, x: np.ndarray, y: ObjectiveVector) -> None:
            if assessment.add(t, y):
                records.append(datalog.LogRecord(t, y, tuple(float(c) for c in x)))

        rng = _problem_rng(cfg.seed, _PURPOSE_RUN, 0, fid, dim, inst)
        algo(_budgeted(fn, budget, observe), dim, budget, rng)

        header = datalog.RunHeader(
            function_id=fid,
            instance_id=inst,
            dimension=dim,
            algorithm=cfg.algorithm,
            refset_version=spec.refset_version,
            i_ref=spec.i_ref,
            ideal=spec.ideal,
            nadir=spec.nadir,
            budget=budget,
        )
        path = datalog.log_path(cfg.output_dir, cfg.algorithm, fid, dim, inst)
        datalog.write_log(datalog.RunLog(header, tuple(records)), path)
        index_entries.append(
            datalog.IndexEntry(path.name, fid, inst, dim, spec.refset_version)
        )
        results.append(
            RunResult(
                function_id=fid,
                instance_id=inst,
                dimension=dim,
                algorithm=cfg.algorithm,
                spec=spec,
                runtimes=assessment.runtimes,
                log_path=path,
                archive_size=len(assessment.archive),
            )
        )
        if progress is not None:
            progress(
                f"{fn.key} {cfg.algorithm}: {assessment.runtimes.hit_count}/"
                f"{len(assessment.runtimes.targets)} targets hit in {budget} evaluations"
            )
    write_dir = Path(cfg.output_dir) / cfg.algorithm
    datalog.write_experiment_index(write_dir, index_entries)
    return results


def recalc_experiment(
    logs_dir: Path | str, refset_dir: Path | str, output_dir: Path | str
) -> list[Path]:
    """Re-assess every indexed run log under ``logs_dir`` against the
    reference sets in ``refset_dir`` without re-running anything: each log
    is replayed once under its new reference set, then written to
    ``output_dir`` with the new reference data in its header.  The indexes
    are written last.  Returns the log paths."""
    output_dir = Path(output_dir)
    written: list[Path] = []
    indexes: dict[str, list[datalog.IndexEntry]] = {}
    for algorithm_dir, log in datalog.iter_experiment(logs_dir):
        h = log.header
        rs = refset.load_reference_set(refset_dir, h.function_id, h.dimension, h.instance_id)
        spec = rs.problem_spec()
        datalog.recalculate(log, spec)  # raises LogReplayError on a corrupt log
        path = datalog.write_log(
            datalog.rewrite_with_spec(log, spec),
            datalog.log_path(output_dir, h.algorithm, h.function_id, h.dimension, h.instance_id),
        )
        written.append(path)
        indexes.setdefault(algorithm_dir, []).append(
            datalog.IndexEntry(path.name, h.function_id, h.instance_id, h.dimension, rs.version)
        )
    for algorithm_dir, entries in indexes.items():
        datalog.write_experiment_index(output_dir / algorithm_dir, entries)
    return written
