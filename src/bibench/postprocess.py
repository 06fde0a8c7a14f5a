"""Aggregation of runtime records into ECDFs and runtime tables.

The ECDF over a set of runs reports, per evaluation budget, the fraction
of all (problem, target) pairs whose target was hit within that budget.
Missed targets never contribute; no restarts are simulated, so a curve's
final value is exactly the overall hit fraction.  Runtime tables list
per-instance first-hit evaluation counts for selected target precisions,
rendering missed targets as an em-dash plus the budget spent.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from bibench import datalog
from bibench.targets import RuntimeRecord, precision_grid

__all__ = [
    "EcdfCurve",
    "LabeledRecord",
    "TableRow",
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


@dataclass(frozen=True)
class LabeledRecord:
    """A runtime record tagged with the problem and algorithm it came from."""

    function_id: str
    instance_id: int
    dimension: int
    algorithm: str
    refset_version: str
    runtimes: RuntimeRecord


@dataclass(frozen=True)
class EcdfCurve:
    """Step curve of hit proportions over evaluation budgets.

    The support holds every distinct first-hit count plus the largest
    budget any contributing run spent; ``proportion[k]`` is the fraction
    of all (problem, target) pairs hit within ``support[k]`` evaluations.
    """

    support: tuple[int, ...]
    proportion: tuple[float, ...]
    n_hit: tuple[int, ...]
    n_total: int
    algorithm: str = ""
    slice_label: str = ""
    refset_version: str = ""

    @property
    def final_proportion(self) -> float:
        return self.proportion[-1] if self.proportion else 0.0


def ecdf(
    records: Sequence[RuntimeRecord],
    *,
    algorithm: str = "",
    slice_label: str = "",
    refset_version: str = "",
) -> EcdfCurve:
    """Aggregate runtime records into one ECDF curve.

    The denominator is the total number of (record, target) pairs; the
    result does not depend on the order of ``records``.
    """
    if not records:
        raise ValueError("ecdf: no runtime records supplied")
    n_total = sum(len(r.targets) for r in records)
    hits = sorted(h for r in records for h in r.first_hit if h is not None)
    support = sorted(set(hits) | {max(r.evaluations for r in records)})
    proportions: list[float] = []
    n_hit: list[int] = []
    for budget in support:
        count = bisect_right(hits, budget)
        n_hit.append(count)
        proportions.append(count / n_total)
    return EcdfCurve(
        support=tuple(support),
        proportion=tuple(proportions),
        n_hit=tuple(n_hit),
        n_total=n_total,
        algorithm=algorithm,
        slice_label=slice_label,
        refset_version=refset_version,
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
    """Map requested precisions onto grid indices.

    Values must match a grid precision (tiny parse-rounding slack is
    allowed); anything else is a usage error.
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
    return tuple(indices)


@dataclass(frozen=True)
class TableRow:
    """One runtime-table row: a problem/precision with per-instance cells."""

    function_id: str
    dimension: int
    precision: float
    cells: tuple[tuple[int, str], ...]  # (instance_id, rendered cell)
    n_hit: int
    n_instances: int


def runtime_table(
    records: Sequence[LabeledRecord],
    precisions: Sequence[float] = DEFAULT_TABLE_PRECISIONS,
    instances_display: int = DEFAULT_INSTANCES_DISPLAY,
) -> list[TableRow]:
    """Per-(function, dimension) first-hit table over displayed instances.

    Displays the ``instances_display`` lowest instance ids (all counts
    still feed ``n_hit``).  A missed target renders as the em-dash marker
    followed by the budget spent, e.g. ``—(1000)``.
    """
    indices = resolve_precisions(precisions)
    grid = precision_grid()
    by_problem: dict[tuple[str, int], list[LabeledRecord]] = {}
    for rec in records:
        by_problem.setdefault((rec.function_id, rec.dimension), []).append(rec)

    rows: list[TableRow] = []
    for (fid, dim), group in sorted(by_problem.items()):
        group = sorted(group, key=lambda r: r.instance_id)
        shown = group[:instances_display]
        for k in indices:
            cells = []
            n_hit = 0
            for rec in group:
                hit = rec.runtimes.first_hit[k]
                if hit is not None:
                    n_hit += 1
            for rec in shown:
                hit = rec.runtimes.first_hit[k]
                cell = str(hit) if hit is not None else f"{MISSED_MARK}({rec.runtimes.evaluations})"
                cells.append((rec.instance_id, cell))
            rows.append(
                TableRow(
                    function_id=fid,
                    dimension=dim,
                    precision=grid[k],
                    cells=tuple(cells),
                    n_hit=n_hit,
                    n_instances=len(group),
                )
            )
    return rows


def write_ecdf_csv(curve: EcdfCurve, path: Path | str, dimension: int | None = None) -> Path:
    """Write one ECDF curve as CSV.

    Budgets are emitted both raw and per dimension; the per-dimension
    column stays empty for aggregates over mixed dimensions.
    """
    lines = [
        f"# refset_version={curve.refset_version}",
        f"# algorithm={curve.algorithm} slice={curve.slice_label}",
        "budget,budget_per_dimension,proportion,n_hit,n_total",
    ]
    for budget, proportion, hit in zip(curve.support, curve.proportion, curve.n_hit):
        per_dim = repr(budget / dimension) if dimension is not None else ""
        lines.append(f"{budget},{per_dim},{proportion!r},{hit},{curve.n_total}")
    return datalog.write_lines(path, lines)


def write_runtime_table_csv(
    rows: Sequence[TableRow], path: Path | str, refset_version: str = ""
) -> Path:
    instance_ids = sorted({inst for row in rows for inst, _ in row.cells})
    header = ["function", "dimension", "precision"]
    header += [f"instance_{i}" for i in instance_ids]
    header += ["n_hit", "n_instances"]
    lines = [f"# refset_version={refset_version}", ",".join(header)]
    for row in rows:
        cell_map = dict(row.cells)
        cells = [cell_map.get(i, "") for i in instance_ids]
        lines.append(
            ",".join(
                [row.function_id, str(row.dimension), repr(row.precision)]
                + cells
                + [str(row.n_hit), str(row.n_instances)]
            )
        )
    return datalog.write_lines(path, lines, encoding="utf-8")


def load_labeled_records(logs_dir: Path | str) -> list[LabeledRecord]:
    """Replay every indexed run log under ``logs_dir`` (one subdirectory
    per algorithm) into labeled runtime records."""
    records: list[LabeledRecord] = []
    for log in datalog.iter_experiment(logs_dir):
        h = log.header
        _, runtimes = datalog.recalculate(log, h.problem_spec())
        records.append(
            LabeledRecord(
                function_id=h.function_id,
                instance_id=h.instance_id,
                dimension=h.dimension,
                algorithm=h.algorithm,
                refset_version=h.refset_version,
                runtimes=runtimes,
            )
        )
    return records


def process_experiment(
    logs_dir: Path | str,
    output_dir: Path | str,
    precisions: Sequence[float] = DEFAULT_TABLE_PRECISIONS,
    instances_display: int = DEFAULT_INSTANCES_DISPLAY,
) -> list[Path]:
    """Full postprocessing: ECDF CSVs per dimension plus an aggregate, and
    a runtime table, per algorithm found under ``logs_dir``.  A negative
    ``instances_display`` raises ``ValueError`` before any log is read."""
    if instances_display < 0:
        raise ValueError(f"instances_display must be at least 0, got {instances_display}")
    output_dir = Path(output_dir)
    records = load_labeled_records(logs_dir)
    by_algorithm: dict[str, list[LabeledRecord]] = {}
    for rec in records:
        by_algorithm.setdefault(rec.algorithm, []).append(rec)

    written: list[Path] = []
    for algorithm, group in sorted(by_algorithm.items()):
        algo_dir = output_dir / algorithm
        dimensions = sorted({rec.dimension for rec in group})
        for dim in dimensions:
            slice_records = [rec for rec in group if rec.dimension == dim]
            curve = ecdf(
                [rec.runtimes for rec in slice_records],
                algorithm=algorithm,
                slice_label=f"d{dim}",
                refset_version=combined_version(r.refset_version for r in slice_records),
            )
            written.append(write_ecdf_csv(curve, algo_dir / f"ecdf_d{dim}.csv", dim))
        curve = ecdf(
            [rec.runtimes for rec in group],
            algorithm=algorithm,
            slice_label="all",
            refset_version=combined_version(r.refset_version for r in group),
        )
        written.append(write_ecdf_csv(curve, algo_dir / "ecdf_all.csv"))
        rows = runtime_table(group, precisions, instances_display)
        written.append(
            write_runtime_table_csv(
                rows,
                algo_dir / "runtime_table.csv",
                refset_version=combined_version(r.refset_version for r in group),
            )
        )
    return written
