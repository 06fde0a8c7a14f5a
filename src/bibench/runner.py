"""Experiment orchestration: run baselines, log runs, bootstrap and recalc.

Every problem gets a fresh archive and an independent random stream
derived from the master seed and the problem key, so per-problem results
do not depend on which other problems run or in what order, and a
repeated run with the same configuration is byte-identical on disk.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from bibench import baselines, datalog, refset, suite
from bibench.core import ProblemSpec, check_budget
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

# Evaluations per block the budget guard hands on; the fewest a bootstrap fold takes.
_CHUNK = 4096


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
        if self.budget is not None:
            check_budget("budget", self.budget)
        check_budget("bootstrap budget", self.bootstrap_budget)

    def budget_for(self, dimension: int) -> int:
        return self.budget if self.budget is not None else default_budget(dimension)


@dataclass(frozen=True)
class RunResult(datalog.RunHeader):
    """Live outcome of one problem's run: its log's header, plus what the
    run measured and where its log is published."""

    runtimes: RuntimeRecord
    log_path: Path
    archive_size: int


def _budgeted(algo: Callable, fn: suite.SuiteFunction, budget: int,
              rng: np.random.Generator, observe: Callable) -> None:
    """Run the baseline ``algo`` on ``fn`` through ``evaluate``, the one
    budget guard and the one place evaluations become data: it refuses any
    beyond ``budget`` and hands ``observe`` each ``_CHUNK`` of them as numpy
    columns ``(counts, f_alpha, f_beta)``, the rest once ``algo`` returns,
    none if it raises.  Baselines only ever see ``evaluate``: black-box."""
    count, objectives, chunk = 0, fn.evaluate, _CHUNK
    alpha, beta = array("d"), array("d")

    def flush() -> None:
        counts = np.arange(count - len(alpha) + 1, count + 1, dtype=np.int64)
        observe(counts, np.array(alpha), np.array(beta))
        del alpha[:], beta[:]

    def evaluate(x: Sequence[float]) -> tuple[float, float]:
        nonlocal count
        if count >= budget:
            raise RuntimeError(f"evaluation budget {budget} exhausted")
        count += 1
        y = objectives(x)
        alpha.append(y.f_alpha)
        beta.append(y.f_beta)
        if len(alpha) == chunk:
            flush()
        return y.f_alpha, y.f_beta

    algo(evaluate, fn.dimension, budget, rng)
    if alpha:
        flush()


class _FrontCollector:
    """Observer of one problem's bootstrap baselines: folds the blocks it is
    shown into their non-dominated subset by ``refset.front`` once they hold
    as many points as the front (at least ``_CHUNK``), which keeps sorting
    O(n log n) and memory at about one front plus those blocks."""

    def __init__(self, key: str) -> None:
        self._key = key
        self._front = refset.PointColumns((), ())
        self._blocks: list[refset.PointColumns] = []

    def __call__(self, counts: np.ndarray, f_alpha: np.ndarray, f_beta: np.ndarray) -> None:
        self._blocks.append(refset.PointColumns(f_alpha, f_beta))
        if sum(map(len, self._blocks)) >= max(_CHUNK, len(self._front)):
            self.front()

    def front(self) -> refset.PointColumns:
        """The non-dominated subset of every point shown so far, each equal
        point's first-seen bits kept."""
        try:
            self._front = refset.front((self._front, *self._blocks))
        except ValueError as exc:
            raise ValueError(f"bootstrap {self._key}: {exc}") from None
        self._blocks = []
        return self._front


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

    Each baseline runs with the full ``budget`` on every problem, and both
    stream their evaluations, in turn, into one running non-dominated front
    per problem, so memory grows with the front, not with the budget.
    Bounds are analytic where the suite knows them (always the ideal; the
    nadir only for ``f1``), otherwise estimated from the front's extremes.
    Bootstrapping twice with the same seed yields identical files, hence
    identical versions.
    """
    check_budget("bootstrap budget", budget)
    output_dir = Path(output_dir)
    hill_climber = functools.partial(
        baselines.scalarized_hill_climber, weights=BOOTSTRAP_WEIGHTS
    )
    bootstrap_algos = ((1, baselines.random_search), (2, hill_climber))
    written: list[Path] = []
    for fid, dim, inst in suite.enumerate_problems(functions, dimensions, instances):
        fn = suite.get_function(fid, inst, dim)
        collector = _FrontCollector(fn.key)
        for algo_index, algo in bootstrap_algos:
            rng = _problem_rng(seed, _PURPOSE_BOOTSTRAP, algo_index, fid, dim, inst)
            _budgeted(algo, fn, budget, rng, collector)
        rs = refset.merge(
            [collector.front()],
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
    sets into ``<output_dir>/refsets``.  Returns live per-problem results.
    The logs and the experiment index are published together once every
    problem has run; a failure publishes none of them.
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
    with datalog.ExperimentWriter(cfg.output_dir) as writer:
        for fid, dim, inst in problems:
            fn = suite.get_function(fid, inst, dim)
            spec = refset.load_reference_set(refset_dir, fid, dim, inst).problem_spec()
            budget = cfg.budget_for(dim)
            assessment = datalog.Assessment(spec)
            blocks = [(np.empty(0, np.int64), np.empty(0), np.empty(0))]

            def observe(counts: np.ndarray, f_alpha: np.ndarray, f_beta: np.ndarray) -> None:
                add, points = assessment.add_normalized, assessment.normalized(f_alpha, f_beta)
                accepted = np.array([add(t, z) for t, z in zip(counts.tolist(), points)], bool)
                blocks.append((counts[accepted], f_alpha[accepted], f_beta[accepted]))

            rng = _problem_rng(cfg.seed, _PURPOSE_RUN, 0, fid, dim, inst)
            _budgeted(algo, fn, budget, rng, observe)

            header = datalog.RunHeader.for_run(spec, cfg.algorithm, budget)
            records = datalog.RecordColumns(*map(np.concatenate, zip(*blocks)))
            path = writer.write(datalog.RunLog(header, records))
            results.append(RunResult(
                **vars(header), runtimes=assessment.runtimes, log_path=path,
                archive_size=len(assessment.archive),
            ))
            if progress is not None:
                progress(
                    f"{fn.key} {cfg.algorithm}: {assessment.runtimes.hit_count}/"
                    f"{len(assessment.runtimes.targets)} targets hit in {budget} evaluations"
                )
    return results


def recalc_experiment(
    logs_dir: Path | str, refset_dir: Path | str, output_dir: Path | str
) -> list[Path]:
    """Re-assess every indexed run log under ``logs_dir`` against the
    reference sets in ``refset_dir`` without re-running anything: each log
    is replayed once under its new reference set, then written to the same
    place in the tree under ``output_dir`` with the new reference data in
    its header.  The logs and indexes are published together once every
    log has been re-assessed; a failure publishes none of them, so an
    existing output tree is left as it was.  Returns the log paths."""
    written: list[Path] = []
    specs: dict[tuple[str, int, int], ProblemSpec] = {}  # read each reference set once
    with datalog.ExperimentWriter(output_dir) as writer:
        for log in datalog.iter_experiment(logs_dir):
            h = log.header
            key = (h.function_id, h.dimension, h.instance_id)
            if key not in specs:
                specs[key] = refset.load_reference_set(refset_dir, *key).problem_spec()
            spec = specs[key]
            datalog.recalculate(log, spec)  # raises LogReplayError on a corrupt log
            header = datalog.RunHeader.for_run(spec, h.algorithm, h.budget)
            written.append(writer.write(datalog.RunLog(header, log.records)))
    return written
