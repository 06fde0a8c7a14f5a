"""Correctness checks on a workload's outputs.

Each check returns ``{problem_key: [failure, ...]}`` for the problems it
covers; a problem with any failure counts as failed in ``failed_ratio``.
The oracles are independent of the stage under test where one exists: the
live run's ``RunResult.runtimes`` for a replay, the sweep-line
``staircase_hypervolume`` of the logged points for the final indicator,
and ECDF and runtime-table cells recomputed here from first-hit lists.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from bibench import datalog, postprocess, refset, suite
from bibench.archive import roi_distance, staircase_hypervolume
from bibench.core import NormalizedObjectives, normalize, ulp_distance
from bibench.indicator import EMPTY_ARCHIVE_VALUE, Branch
from bibench.targets import precision_grid

# Acceptance criterion 3's tolerance between the incremental indicator and
# an independent sweep of the same points.
MAX_ULP = 4


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _key(algorithm: str, fid: str, dim: int, inst: int) -> str:
    return f"{algorithm}/{suite.problem_id(fid, dim, inst)}"


def _nondominated(points: list[NormalizedObjectives]) -> list[NormalizedObjectives]:
    front = []
    best_v = math.inf
    for p in sorted(points, key=lambda p: (p.u, p.v)):
        if p.v < best_v:
            front.append(p)
            best_v = p.v
    return front


def indicator_failures(log: datalog.RunLog) -> tuple[list[str], list]:
    """Replay ``log`` under its own header and compare the final indicator
    with a sweep over its non-dominated points.  Returns the failures and
    the replayed first-hit list."""
    spec = log.header.problem_spec()
    trajectory, runtimes = datalog.recalculate(log, spec)
    final = trajectory[-1][1] if trajectory else EMPTY_ARCHIVE_VALUE
    front = _nondominated([normalize(r.objectives, spec) for r in log.records])
    failures = []
    if not front:
        return ["log has no records"], runtimes.first_hit
    if any(p.u <= 1.0 and p.v <= 1.0 for p in front):
        expected = -staircase_hypervolume(front)
        branch = Branch.HYPERVOLUME
    else:
        expected = min(roi_distance(p.u, p.v) for p in front)
        branch = Branch.DISTANCE
    if final.branch is not branch:
        failures.append(f"final indicator on branch {final.branch.value}, expected {branch.value}")
    elif ulp_distance(final.value, expected) > MAX_ULP:
        failures.append(
            f"final indicator {final.value!r} is {ulp_distance(final.value, expected)} ULP "
            f"from the sweep's {expected!r}"
        )
    if runtimes.evaluations != log.header.budget:
        failures.append(f"replay spent {runtimes.evaluations} of budget {log.header.budget}")
    return failures, runtimes.first_hit


def check_run(results, budget: int) -> dict[str, list[str]]:
    """Live run results: budget spent, replay equals live, final indicator."""
    report = {}
    for r in results:
        failures = []
        if r.runtimes.evaluations != budget:
            failures.append(f"spent {r.runtimes.evaluations} of budget {budget}")
        log = datalog.read_log(r.log_path)
        replay_failures, first_hit = indicator_failures(log)
        failures += replay_failures
        if first_hit != r.runtimes.first_hit:
            failures.append("log replay gives other first hits than the live run")
        report[_key(r.algorithm, r.function_id, r.dimension, r.instance_id)] = failures
    return report


def check_bootstrap(out: Path, problems) -> dict[str, list[str]]:
    """Every written reference set re-reads (version and i_ref verified)."""
    report = {}
    for fid, dim, inst in problems:
        failures = []
        path = refset.refset_path(out, fid, dim, inst)
        try:
            rs = refset.read_reference_set(path)
        except (OSError, ValueError) as exc:
            failures.append(f"reference set does not re-read: {exc}")
        else:
            if (rs.function_id, rs.dimension, rs.instance_id) != (fid, dim, inst):
                failures.append(f"{path} holds {rs.function_id}:{rs.dimension}:{rs.instance_id}")
        report[_key("bootstrap", fid, dim, inst)] = failures
    return report


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    return rows[1:]  # drop the column header


def _expected_ecdf(runs: list[dict]) -> list[tuple[int, float, int, int]]:
    n_total = sum(len(r["first_hit"]) for r in runs)
    hits = sorted(h for r in runs for h in r["first_hit"] if h is not None)
    support = sorted(set(hits) | {max(r["evaluations"] for r in runs)})
    rows = []
    for budget in support:
        n_hit = sum(1 for h in hits if h <= budget)
        rows.append((budget, n_hit / n_total, n_hit, n_total))
    return rows


def _ecdf_matches(path: Path, runs: list[dict]) -> bool:
    try:
        got = [(int(r[0]), float(r[2]), int(r[3]), int(r[4])) for r in _read_csv(path)]
    except (OSError, ValueError, IndexError):
        return False
    return got == _expected_ecdf(runs)


def _expected_table(runs: list[dict]) -> list[list[str]]:
    grid = precision_grid()
    indices = [
        next(k for k, g in enumerate(grid) if math.isclose(p, g, rel_tol=1e-12))
        for p in postprocess.DEFAULT_TABLE_PRECISIONS
    ]
    rows = []
    for fid, dim in sorted({(r["function"], r["dimension"]) for r in runs}):
        group = sorted(
            (r for r in runs if (r["function"], r["dimension"]) == (fid, dim)),
            key=lambda r: r["instance"],
        )
        shown = group[: postprocess.DEFAULT_INSTANCES_DISPLAY]
        for k in indices:
            cells = [
                str(r["first_hit"][k]) if r["first_hit"][k] is not None
                else f"{postprocess.MISSED_MARK}({r['evaluations']})"
                for r in shown
            ]
            n_hit = sum(1 for r in group if r["first_hit"][k] is not None)
            rows.append([fid, str(dim), repr(grid[k]), *cells, str(n_hit), str(len(group))])
    return rows


def check_postprocess(out: Path, runs: list[dict]) -> dict[str, list[str]]:
    """ECDF and runtime-table files against the live runs' first hits."""
    report = {_key(r["algorithm"], r["function"], r["dimension"], r["instance"]): []
              for r in runs}
    for algorithm in sorted({r["algorithm"] for r in runs}):
        group = [r for r in runs if r["algorithm"] == algorithm]
        slices = {"ecdf_all.csv": group}
        for dim in sorted({r["dimension"] for r in group}):
            slices[f"ecdf_d{dim}.csv"] = [r for r in group if r["dimension"] == dim]
        for name, members in slices.items():
            if not _ecdf_matches(out / algorithm / name, members):
                for r in members:
                    report[_key(algorithm, r["function"], r["dimension"], r["instance"])].append(
                        f"{algorithm}/{name} differs from the live runs' ECDF"
                    )
        try:
            table = _read_csv(out / algorithm / "runtime_table.csv")
        except OSError:
            table = []
        expected = _expected_table(group)
        for row in expected:
            if row not in table:
                for r in group:
                    if (r["function"], str(r["dimension"])) == (row[0], row[1]):
                        report[_key(algorithm, r["function"], r["dimension"], r["instance"])].append(
                            f"{algorithm}/runtime_table.csv lacks row {row}"
                        )
        if len(table) != len(expected):
            for r in group:
                report[_key(algorithm, r["function"], r["dimension"], r["instance"])].append(
                    f"{algorithm}/runtime_table.csv has {len(table)} rows, expected {len(expected)}"
                )
    return report


def check_recalc(logs: Path, refsets: Path, out: Path, runs: list[dict]) -> dict[str, list[str]]:
    """Recalculated logs: same records, the new reference data in the header,
    a clean replay against it, and an index listing the new versions."""
    report = {}
    indexes: dict[str, set] = {}
    for r in runs:
        key = _key(r["algorithm"], r["function"], r["dimension"], r["instance"])
        failures = []
        try:
            old = datalog.read_log(logs / r["algorithm"] / r["file"])
            new = datalog.read_log(out / r["algorithm"] / r["file"])
            rs = refset.read_reference_set(
                refset.refset_path(refsets, r["function"], r["dimension"], r["instance"])
            )
        except (OSError, ValueError) as exc:
            report[key] = [f"cannot read recalculated log: {exc}"]
            continue
        h = new.header
        if new.records != old.records:
            failures.append("recalculated log's records differ from the input's")
        if (h.refset_version, h.i_ref, h.ideal, h.nadir) != (rs.version, rs.i_ref, rs.ideal, rs.nadir):
            failures.append("header does not carry the new reference set's data")
        if (h.function_id, h.instance_id, h.dimension, h.algorithm, h.budget) != (
            old.header.function_id, old.header.instance_id, old.header.dimension,
            old.header.algorithm, old.header.budget,
        ):
            failures.append("header's problem, algorithm or budget changed")
        failures += indicator_failures(new)[0]
        if r["algorithm"] not in indexes:
            try:
                entries = datalog.read_experiment_index(
                    out / r["algorithm"] / datalog.INDEX_FILENAME
                )
                indexes[r["algorithm"]] = {(e.file, e.refset_version) for e in entries}
            except (OSError, ValueError):
                indexes[r["algorithm"]] = set()
        if (r["file"], rs.version) not in indexes[r["algorithm"]]:
            failures.append("index does not list the log with its new version")
        report[key] = failures
    return report
