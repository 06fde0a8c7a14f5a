"""bibench benchmark: one workload per pipeline stage, measured from outside.

    python3 perfbench/run.py --workload run-random --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  One invocation makes the workload's inputs from the
seed, times set-up in fresh processes, then repeats the workload's stage
for ``--seconds`` in one more fresh process and checks its outputs.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the stage alternates untraced and
traced repeats and the metrics are the per-layer ones, plus the traced
over untraced wall-time ratio.  ``--all`` runs every workload both ways
and prints every metric by name with its unit.

Workloads, metrics and the reasons for them are in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("run-random", "run-hillclimber", "postprocess", "recalc", "bootstrap")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # the whole invocation, inputs and set-up included

# Layers each workload must call, and so record calls > 0 for, when traced.
EXPECTED_LAYERS = {
    "run-random": ("suite", "baselines", "runner", "core", "archive", "indicator",
                   "targets", "datalog", "refset"),
    "bootstrap": ("suite", "baselines", "runner", "refset"),
    "postprocess": ("core", "archive", "indicator", "targets", "datalog", "postprocess"),
    "recalc": ("cli", "core", "archive", "indicator", "targets", "datalog", "refset"),
}
EXPECTED_LAYERS["run-hillclimber"] = EXPECTED_LAYERS["run-random"]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    # Pinned here rather than in the program: one BLAS thread per process.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(mode: str, args: argparse.Namespace, work: Path, deadline: float) -> dict:
    result = work / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode,
        "--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S} s reached before {mode}")
    try:
        # The worker's stdout goes to stderr so our last stdout line stays
        # the result.
        subprocess.run(cmd, env=_child_env(), stdout=sys.stderr, check=True,
                       timeout=remaining, cwd=ROOT)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{mode} process failed with status {exc.returncode}") from None
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the {TIME_LIMIT_S} s limit") from None
    return json.loads(result.read_text())


def _environment() -> dict:
    """Versions and the BLAS build the numbers were measured with."""
    probe = (
        "import json, numpy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'numpy': numpy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version'),"
        " 'blas_config': ' '.join(str(blas.get('openblas configuration', '')).split())}))\n"
    )
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
           "git_sha": None}
    try:
        out = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        env.update(json.loads(out.stdout))
    except (subprocess.SubprocessError, ValueError, KeyError) as exc:
        env["numpy"] = f"unknown ({exc})"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30, check=True)
            env["git_sha"] = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _reconcile(workload: str, measured: dict) -> list[str]:
    """Count identities that must hold in every traced repeat."""
    problems = []
    evals = measured["evals_per_repeat"]
    for k, snap in enumerate(measured["snapshots"]):
        spans, counts = snap["spans"], snap["counts"]

        def calls(*names):
            return sum(spans.get(n, (0,))[0] for n in names)

        inserts = calls("archive.insert_accept", "archive.insert_reject")
        identities = [
            ("indicator.update.calls", calls("indicator.evaluate_incremental"),
             "targets.record.calls", calls("targets.record")),
        ]
        if workload.startswith("run-") or workload == "bootstrap":
            identities.append(("suite.evaluate.calls", calls("suite.evaluate"),
                               "evaluations", evals))
        if workload.startswith("run-"):
            identities.append(("archive.insert.calls", inserts, "evaluations", evals))
        if workload in ("postprocess", "recalc"):
            identities.append(("archive.insert.calls", inserts,
                               "datalog.records_read", counts["datalog.records_read"]))
            identities.append(("datalog.records_read", counts["datalog.records_read"],
                               "records in the input logs", measured["records_per_repeat"]))
        for left, lv, right, rv in identities:
            if lv != rv:
                problems.append(f"traced repeat {k}: {left} = {lv} but {right} = {rv}")
        layer_calls = measured["layer_calls"][k]
        for layer in EXPECTED_LAYERS[workload]:
            if layer_calls[layer] == 0:
                problems.append(f"traced repeat {k}: layer {layer} recorded no calls")
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "bibench" / "__init__.py").is_file():
        print(f"perfbench: no bibench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = _environment()
        _worker("gen", args, work, deadline)
        setups = [_worker("setup", args, work, deadline) for _ in range(SETUP_SAMPLES)]
        measured = _worker("measure", args, work, deadline)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    failures = {k: v for k, v in measured["failures"].items() if v}
    attempted = len(measured["failures"])
    problems = [f"{key}: {msg}" for key, msgs in sorted(failures.items()) for msg in msgs]
    if args.trace:
        problems += _reconcile(args.workload, measured)
        metrics = {name: _metric(v, unit) for name, (v, unit) in measured["per_layer"].items()}
    else:
        wall = statistics.median(measured["scaled_walls"])
        metrics = {
            "setup_s": _metric(statistics.median(s["scaled_setup_s"] for s in setups), "s"),
            "wall_s": _metric(wall, "s"),
            "evals_per_s": _metric(measured["evals_per_repeat"] / wall, "1/s"),
            "records_per_s": _metric(measured["records_per_repeat"] / wall, "1/s"),
            "peak_rss_mb": _metric(measured["peak_rss_kb"] / 1024, "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "output_sha256": measured["digest"],
        "setup_samples": setups, "walls_s": measured["walls"],
        "traced_walls_s": measured["traced_walls"], "scaled_walls_s": measured["scaled_walls"],
        "scaled_traced_walls_s": measured["scaled_traced_walls"],
        "evals_per_repeat": measured["evals_per_repeat"],
        "records_per_repeat": measured["records_per_repeat"],
        "failed_ratio": len(failures) / attempted, "problems": problems, "metrics": metrics,
    }
    if args.trace:
        record["spans"] = measured["snapshots"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for line in problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"output_sha256 {measured['digest']}")
    print(f"repeats {len(measured['walls'])} untraced, {len(measured['traced_walls'])} traced")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted} problems)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; a table of every metric."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: no result (status {proc.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            ratio = result["failed"] / result["attempted"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"failed_ratio={ratio:.6g} ratio ({result['failed']}/{result['attempted']})")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
            if trace == 0 and workload in ("postprocess", "recalc"):
                print(f"  {workload + '_s':40s} {result['metrics']['wall_s']['value']:14.6g} s"
                      f"  (= wall_s of this workload)")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        except (OSError, ValueError, KeyError):
            parser.error("--seconds is required without a readable BENCHMARK.json")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
