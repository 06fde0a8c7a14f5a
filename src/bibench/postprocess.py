"""Aggregation of runtime records into ECDFs and runtime tables.

A run is the pair of its log's ``RunHeader`` and the ``RuntimeRecord``
that replaying the log gives.  The ECDF over a set of runs reports, per
evaluation budget, the fraction of all (problem, target) pairs whose
target was hit within that budget.  Missed targets never contribute; no
restarts are simulated, so a curve's final value is exactly the overall
hit fraction.  Runtime tables list per-instance first-hit evaluation
counts for selected target precisions, rendering missed targets as an
em-dash plus the budget spent.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from bibench import datalog, suite
from bibench.targets import RuntimeRecord, precision_grid

__all__ = [
    "EcdfCurve",
    "combined_version",
    "ecdf",
    "load_labeled_records",
    "process_experiment",
    "resolve_precisions",
    "runtime_table",
    "write_ecdf_csv",
    "write_runtime_table_csv",
]

DEFAULT_TABLE_PRECISIONS = (1.0, 1e-1, 1e-2, 1e-3, 1e-5)
DEFAULT_INSTANCES_DISPLAY = 5
MISSED_MARK = "—"  # em dash

Run = tuple[datalog.RunHeader, RuntimeRecord]


@dataclass(frozen=True)
class EcdfCurve:
    """Step curve of hit counts over evaluation budgets.

    The support holds every distinct first-hit count plus the largest
    budget any contributing run spent; ``n_hit[k]`` of the ``n_total``
    (problem, target) pairs are hit within ``support[k]`` evaluations.
    """

    support: tuple[int, ...]
    n_hit: tuple[int, ...]
    n_total: int

    @property
    def proportion(self) -> tuple[float, ...]:
        """The fraction of all pairs hit within each support budget."""
        return tuple(k / self.n_total for k in self.n_hit)

    @property
    def final_proportion(self) -> float:
        return self.proportion[-1] if self.n_hit else 0.0


def ecdf(records: Sequence[RuntimeRecord]) -> EcdfCurve:
    """Aggregate runtime records into one ECDF curve.

    The denominator is the total number of (record, target) pairs; the
    result does not depend on the order of ``records``.
    """
    if not records:
        raise ValueError("ecdf: no runtime records supplied")
    hits = sorted(h for r in records for h in r.first_hit if h is not None)
    support = sorted(set(hits) | {max(r.evaluations for r in records)})
    return EcdfCurve(
        support=tuple(support),
        n_hit=tuple(bisect_right(hits, budget) for budget in support),
        n_total=sum(len(r.targets) for r in records),
    )


def combined_version(versions: Iterable[str]) -> str:
    """Single display version for a set of per-problem refset versions.

    One distinct version is shown verbatim; several are digested into a
    ``multi-`` prefixed hash so any constituent change shows up.
    """
    distinct = sorted(set(versions))
    if not distinct:
        return "none"
    if len(distinct) == 1:
        return distinct[0]
    digest = hashlib.sha256("\n".join(distinct).encode("ascii")).hexdigest()[:16]
    return f"multi-{digest}"


def resolve_precisions(requested: Sequence[float]) -> tuple[int, ...]:
    """Map requested precisions onto grid indices, in request order.

    Values must match a grid precision (tiny parse-rounding slack is
    allowed); anything else is a usage error.  A repeated precision
    counts once.
    """
    grid = precision_grid()
    indices: list[int] = []
    for value in requested:
        for k, g in enumerate(grid):
            if value == g or math.isclose(value, g, rel_tol=1e-12, abs_tol=0.0):
                indices.append(k)
                break
        else:
            raise ValueError(
                f"precision {value!r} is not on the 58-value target grid"
            )
    return tuple(dict.fromkeys(indices))


def runtime_table(
    runs: Sequence[Run],
    indices: Sequence[int],
    instances_display: int = DEFAULT_INSTANCES_DISPLAY,
) -> list[list[str]]:
    """Per-(function, dimension) first-hit table at the grid ``indices``,
    as CSV rows of cells, column names first.

    Each group displays its ``instances_display`` lowest instance ids (all
    runs still feed ``n_hit``); an instance column a group does not
    display is an empty cell.  A missed target renders as the em-dash
    marker followed by the budget spent, e.g. ``—(1000)``.
    """
    grid = precision_grid()
    groups: dict[tuple[str, int], list[Run]] = {}
    for run in sorted(runs, key=lambda run: run[0].instance_id):
        groups.setdefault((run[0].function_id, run[0].dimension), []).append(run)
    shown = {
        key: {h.instance_id: r for h, r in group[:instances_display]}
        for key, group in groups.items()
    }
    instance_ids = sorted({i for cells in shown.values() for i in cells})
    header = ["function", "dimension", "precision"]
    header += [f"instance_{i}" for i in instance_ids]
    header += ["n_hit", "n_instances"]
    rows = [header]
    for (fid, dim), group in sorted(groups.items()):
        for k in indices:
            n_hit = sum(runtimes.first_hit[k] is not None for _, runtimes in group)
            cells = [_cell(shown[fid, dim].get(i), k) for i in instance_ids]
            rows.append([fid, str(dim), repr(grid[k]), *cells, str(n_hit), str(len(group))])
    return rows


def _cell(runtimes: RuntimeRecord | None, k: int) -> str:
    """One runtime-table cell; empty for an instance its group does not display."""
    if runtimes is None:
        return ""
    hit = runtimes.first_hit[k]
    return str(hit) if hit is not None else f"{MISSED_MARK}({runtimes.evaluations})"


def write_ecdf_csv(
    curve: EcdfCurve,
    path: Path | str,
    algorithm: str,
    refset_version: str,
    dimension: int | None = None,
) -> Path:
    """Write one ECDF curve as CSV, sliced ``d<dimension>``, or ``all``
    when ``dimension`` is None.

    Budgets are emitted both raw and per dimension; the per-dimension
    column stays empty for aggregates over mixed dimensions.
    """
    lines = [
        f"# refset_version={refset_version}",
        f"# algorithm={algorithm} slice={'all' if dimension is None else f'd{dimension}'}",
        "budget,budget_per_dimension,proportion,n_hit,n_total",
    ]
    for budget, proportion, hit in zip(curve.support, curve.proportion, curve.n_hit):
        per_dim = repr(budget / dimension) if dimension is not None else ""
        lines.append(f"{budget},{per_dim},{proportion!r},{hit},{curve.n_total}")
    return datalog.write_lines(path, lines)


def write_runtime_table_csv(
    rows: Sequence[Sequence[str]], path: Path | str, refset_version: str = ""
) -> Path:
    lines = [f"# refset_version={refset_version}", *(",".join(row) for row in rows)]
    return datalog.write_lines(path, lines, encoding="utf-8")


def load_labeled_records(logs_dir: Path | str) -> list[Run]:
    """Replay every indexed run log under ``logs_dir`` (one subdirectory
    per algorithm) into ``(header, runtimes)`` pairs."""
    return [
        (log.header, datalog.recalculate(log, log.header)[1])
        for log in datalog.iter_experiment(logs_dir)
    ]


def _warn_on_mixed_versions(runs: Sequence[Run]) -> None:
    """Warn, naming each problem and its versions, when algorithms' logs of
    one problem were assessed against different reference-set versions."""
    versions: dict[str, dict[str, str]] = {}  # problem -> algorithm -> version
    for h, _ in runs:
        problem = suite.problem_id(h.function_id, h.dimension, h.instance_id)
        versions.setdefault(problem, {})[h.algorithm] = h.refset_version
    mixed = []
    for problem, by_algorithm in sorted(versions.items()):
        if len(set(by_algorithm.values())) > 1:
            named = ", ".join(f"{a} {v}" for a, v in sorted(by_algorithm.items()))
            mixed.append(f"{problem} ({named})")
    if mixed:
        warnings.warn(
            "algorithms were assessed against different reference-set versions of the "
            f"same problem, so their results do not compare: {'; '.join(mixed)}"
        )


def process_experiment(
    logs_dir: Path | str,
    output_dir: Path | str,
    precisions: Sequence[float] = DEFAULT_TABLE_PRECISIONS,
    instances_display: int = DEFAULT_INSTANCES_DISPLAY,
) -> list[Path]:
    """Full postprocessing: ECDF CSVs per dimension plus an aggregate, and
    a runtime table, per algorithm found under ``logs_dir``.  Algorithms
    whose logs of one problem name different reference-set versions are
    still aggregated, with a ``UserWarning`` naming each such problem and
    its versions.  A negative ``instances_display`` or a precision off the
    target grid raises ``ValueError`` before any log is read."""
    if instances_display < 0:
        raise ValueError(f"instances_display must be at least 0, got {instances_display}")
    indices = resolve_precisions(precisions)
    loaded = load_labeled_records(logs_dir)
    _warn_on_mixed_versions(loaded)
    by_algorithm: dict[str, list[Run]] = {}
    for run in loaded:
        by_algorithm.setdefault(run[0].algorithm, []).append(run)

    written: list[Path] = []
    for algorithm, runs in sorted(by_algorithm.items()):
        algo_dir = Path(output_dir) / algorithm
        slices: dict[int | None, list[Run]] = {
            dim: [run for run in runs if run[0].dimension == dim]
            for dim in sorted({h.dimension for h, _ in runs})
        }
        slices[None] = runs
        for dim, members in slices.items():
            written.append(write_ecdf_csv(
                ecdf([r for _, r in members]),
                algo_dir / f"ecdf_{'all' if dim is None else f'd{dim}'}.csv",
                algorithm,
                combined_version(h.refset_version for h, _ in members),
                dim,
            ))
        written.append(write_runtime_table_csv(
            runtime_table(runs, indices, instances_display),
            algo_dir / "runtime_table.csv",
            combined_version(h.refset_version for h, _ in runs),
        ))
    return written
