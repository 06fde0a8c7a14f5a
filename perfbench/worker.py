"""Workload processes of the bibench benchmark.

``perfbench/run.py`` starts this script once per mode, each time in a fresh
process with ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread:

  gen      make the workload's inputs from the seed (reference sets, logs)
  setup    time the fixed cost paid before the first evaluation
  measure  repeat the workload's timed stage for --seconds, check its
           outputs; with --trace 1 alternate untraced and traced repeats

Each mode writes one JSON object to the file named by --result.  Only the
``measure`` process runs the stage, so its peak RSS belongs to the workload.

Every stage is entered through an entry point meant to outlive the
roadmap's refactors: ``runner.run_experiment``, ``runner.bootstrap_refsets``,
``postprocess.process_experiment`` and ``bibench.cli.main`` (recalc has no
library function yet).  Internals may change under them freely.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from calibration import SpeedSampler

FUNCTIONS = ("f1", "f2", "f3")
DIMENSIONS = (2, 10)
INSTANCES = (1, 2)
PROBLEMS = tuple((f, d, i) for f in FUNCTIONS for d in DIMENSIONS for i in INSTANCES)
# Bootstrap holds every evaluated point until the merge, so its memory
# grows with the budget; one problem at the default budget keeps a repeat
# short while still showing that growth.
BOOTSTRAP_PROBLEMS = (("f3", 2, 1),)

BUDGET = 3000  # evaluations per problem in run-* and in the assessed logs
REFSET_BUDGET = 2000  # per baseline, for the input reference sets
MIN_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple
    refsets: str | None  # input reference-set directory read at setup
    gen: Callable
    stage: Callable
    check: Callable


def _grid(problems) -> dict:
    return {
        "functions": tuple(sorted({p[0] for p in problems})),
        "dimensions": tuple(sorted({p[1] for p in problems})),
        "instances": tuple(sorted({p[2] for p in problems})),
    }


def _run_config(algorithm: str, out: Path, refsets: Path, seed: int):
    from bibench import runner

    return runner.ExperimentConfig(
        algorithm=algorithm, output_dir=out, seed=seed, budget=BUDGET,
        refset_dir=refsets, **_grid(PROBLEMS),
    )


# -- input generation (excluded from every metric) ---------------------------


def _gen_refsets(inputs: Path, seed: int, name: str = "refsets") -> None:
    from bibench import runner

    runner.bootstrap_refsets(inputs / name, seed, REFSET_BUDGET, **_grid(PROBLEMS))


def _gen_logs(inputs: Path, seed: int) -> dict:
    """Reference sets plus both baselines' logs, with the live first hits."""
    from bibench import runner

    _gen_refsets(inputs, seed)
    runs = []
    for algorithm in sorted(runner.ALGORITHMS):
        cfg = _run_config(algorithm, inputs / "logs", inputs / "refsets", seed)
        for r in runner.run_experiment(cfg):
            runs.append({
                "algorithm": algorithm, "function": r.function_id,
                "dimension": r.dimension, "instance": r.instance_id,
                "file": r.log_path.name, "first_hit": r.runtimes.first_hit,
                "evaluations": r.runtimes.evaluations,
                "records": _record_count(r.log_path),
            })
    return {"runs": runs}


def _record_count(path: Path) -> int:
    with path.open(encoding="ascii") as handle:
        return sum(1 for line in handle if line.strip() and not line.startswith("%"))


def _gen_run(inputs: Path, seed: int) -> dict:
    _gen_refsets(inputs, seed)
    return {}


def _gen_recalc(inputs: Path, seed: int) -> dict:
    # Recalc re-assesses the logs against other reference sets, as after a
    # reference-set update; a neighbouring seed gives other versions and
    # bounds.
    expected = _gen_logs(inputs, seed)
    _gen_refsets(inputs, seed + 1, "refsets_new")
    return expected


def _gen_none(inputs: Path, seed: int) -> dict:
    return {}


# -- timed stages -------------------------------------------------------------


def _stage_run(algorithm: str):
    def stage(inputs: Path, out: Path, seed: int):
        from bibench import runner

        return runner.run_experiment(_run_config(algorithm, out, inputs / "refsets", seed))

    return stage


def _stage_postprocess(inputs: Path, out: Path, seed: int):
    from bibench import postprocess

    return postprocess.process_experiment(inputs / "logs", out)


def _stage_recalc(inputs: Path, out: Path, seed: int):
    import bibench.cli

    argv = ["recalc", "--logs", str(inputs / "logs"),
            "--refsets", str(inputs / "refsets_new"), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        status = bibench.cli.main(argv)
    if status != 0:
        raise RuntimeError(f"bibench recalc exited with status {status}")


def _stage_bootstrap(inputs: Path, out: Path, seed: int):
    from bibench import runner

    return runner.bootstrap_refsets(
        out, seed, runner.DEFAULT_BOOTSTRAP_BUDGET, **_grid(BOOTSTRAP_PROBLEMS)
    )


# -- checks -------------------------------------------------------------------


def _check_run(inputs, out, result, expected):
    import checks

    return checks.check_run(result, BUDGET)


def _check_postprocess(inputs, out, result, expected):
    import checks

    return checks.check_postprocess(out, expected["runs"])


def _check_recalc(inputs, out, result, expected):
    import checks

    return checks.check_recalc(inputs / "logs", inputs / "refsets_new", out, expected["runs"])


def _check_bootstrap(inputs, out, result, expected):
    import checks

    return checks.check_bootstrap(out, BOOTSTRAP_PROBLEMS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-random", PROBLEMS, "refsets", _gen_run, _stage_run("random"), _check_run),
        Workload("run-hillclimber", PROBLEMS, "refsets", _gen_run, _stage_run("hillclimber"),
                 _check_run),
        Workload("postprocess", PROBLEMS, None, _gen_logs, _stage_postprocess, _check_postprocess),
        Workload("recalc", PROBLEMS, "refsets_new", _gen_recalc, _stage_recalc, _check_recalc),
        Workload("bootstrap", BOOTSTRAP_PROBLEMS, None, _gen_none, _stage_bootstrap,
                 _check_bootstrap),
    )
}


def _work_per_repeat(w: Workload, expected: dict) -> tuple[int, int]:
    """(evaluations, records) one repeat performs or assesses.

    A record is a point the stage moves through its archive or merge: every
    evaluation on run-* (each is offered to the archive) and on bootstrap
    (each is held for the merge), every logged record on postprocess and
    recalc.  Evaluations there are those the assessed runs spent.
    """
    if w.name == "bootstrap":
        from bibench import runner

        evals = 2 * runner.DEFAULT_BOOTSTRAP_BUDGET * len(w.problems)
        return evals, evals
    if w.name.startswith("run-"):
        return BUDGET * len(w.problems), BUDGET * len(w.problems)
    runs = expected["runs"]
    return sum(r["evaluations"] for r in runs), sum(r["records"] for r in runs)


# -- modes --------------------------------------------------------------------


def _setup(w: Workload, inputs: Path) -> float:
    """Import bibench.cli, build the problems and read the input reference
    sets; returns the seconds it took.  Must run before any bibench import."""
    start = time.perf_counter()
    import bibench.cli  # noqa: F401
    from bibench import refset, suite

    for fid, dim, inst in w.problems:
        suite.get_function(fid, inst, dim)
        if w.refsets is not None:
            refset.read_reference_set(refset.refset_path(inputs / w.refsets, fid, dim, inst))
    elapsed = time.perf_counter() - start
    src = Path(bibench.cli.__file__).resolve().parents[1]
    if src != Path(__file__).resolve().parents[1] / "src":
        raise RuntimeError(f"bibench was imported from {src}, not from this checkout")
    return elapsed


def _measure(w: Workload, work: Path, seed: int, seconds: float, trace: bool) -> dict:
    inputs = work / "inputs"
    _setup(w, inputs)
    expected = json.loads((inputs / "expected.json").read_text())
    import tracer
    from checks import tree_digest

    walls = {False: [], True: []}  # raw seconds per repeat
    scaled = {False: [], True: []}  # seconds at full machine speed
    snapshots = []
    digests = []
    kept = None
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        out = work / "out" / f"rep{k}"
        gc.collect()
        spans = tracer.Tracer() if traced else None
        if spans is not None:
            spans.install()
        try:
            with SpeedSampler() as speed:
                t0 = time.perf_counter()
                result = w.stage(inputs, out, seed)
                wall = time.perf_counter() - t0
        finally:
            if spans is not None:
                spans.uninstall()
        scale = speed.scale
        walls[traced].append(wall)
        scaled[traced].append(wall * scale)
        if spans is not None:
            snapshots.append(spans.snapshot(scale))
        digests.append(tree_digest(out))
        if kept is None:
            kept = (out, result)
        else:
            shutil.rmtree(out)
        del result
        k += 1
        enough = len(walls[False]) >= MIN_REPEATS and (not trace or len(walls[True]) >= MIN_REPEATS)
        if enough and time.perf_counter() - start >= seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out, result = kept
    report = w.check(inputs, out, result, expected)
    if len(set(digests)) != 1:
        for failures in report.values():
            failures.append("same-seed repeats wrote different output trees")
    evals, records = _work_per_repeat(w, expected)
    measured = {
        "walls": walls[False],
        "traced_walls": walls[True],
        "scaled_walls": scaled[False],
        "scaled_traced_walls": scaled[True],
        "evals_per_repeat": evals,
        "records_per_repeat": records,
        "peak_rss_kb": peak_rss_kb,
        "digest": digests[0],
        "failures": report,
    }
    if trace:
        ratio = statistics.median(scaled[True]) / statistics.median(scaled[False])
        measured["per_layer"] = {
            name: list(v) for name, v in tracer.layer_metrics(snapshots, ratio).items()
        }
        measured["layer_calls"] = [tracer.layer_calls(s) for s in snapshots]
        measured["snapshots"] = snapshots
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    inputs = args.work / "inputs"
    if args.mode == "gen":
        inputs.mkdir(parents=True, exist_ok=True)
        result = w.gen(inputs, args.seed)
        (inputs / "expected.json").write_text(json.dumps(result))
    elif args.mode == "setup":
        with SpeedSampler() as speed:
            setup_s = _setup(w, inputs)
        result = {"setup_s": setup_s, "scaled_setup_s": setup_s * speed.scale}
    else:
        result = _measure(w, args.work, args.seed, args.seconds, bool(args.trace))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
