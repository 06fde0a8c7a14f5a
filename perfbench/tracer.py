"""Outside-in tracing of bibench for the benchmark's per-layer metrics.

A layer is a module of ``src/bibench``.  ``Tracer.install`` replaces every
public function of each module, and the three per-evaluation methods
``SuiteFunction.evaluate``, ``Archive.insert`` and ``RuntimeRecord.record``,
by a wrapper that records a span.  A function is rebound at every name its
callers look up: the module attribute, every ``from x import y`` binding in
another bibench module (``runner.normalize``, ``datalog.normalize``,
``runner.evaluate_incremental``, ...) and the values of
``runner.ALGORITHMS``.  The program itself holds no tracing code;
``uninstall`` restores every original object.

Spans are aggregated in memory by name as (calls, self seconds, errors).
Self time is the span's duration minus the durations of the spans it
directly encloses.  The process runs one thread, so a single stack holds
the open spans, and no layer ever waits on a queue.

The wrappers themselves cost time, most of it charged to the enclosing
span; the benchmark reports traced over untraced wall time as
``trace.overhead_ratio`` so per-layer figures are read with a known
distortion.
"""

from __future__ import annotations

import gc
import importlib
import time
import types
from pathlib import Path

LAYERS = (
    "suite",
    "baselines",
    "runner",
    "core",
    "archive",
    "indicator",
    "targets",
    "datalog",
    "refset",
    "postprocess",
    "cli",
)

# A per-point helper the archive calls on itself on every accepted insert;
# a span there would add overhead without separating another layer, so its
# time stays in archive.insert's self time.
_NOT_TRACED = {"archive.roi_distance"}

_BASELINES = ("baselines.random_search", "baselines.scalarized_hill_climber")


class Tracer:
    """Span and counter store for one traced stage call.

    Call ``install()``, run the stage, call ``uninstall()``; then
    ``spans`` maps a span name to ``[calls, self_s, errors]`` and
    ``counts`` holds the counters gathered at layer boundaries.
    """

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {
            "archive.removed": 0,
            "datalog.bytes_written": 0,
            "datalog.bytes_read": 0,
            "datalog.records_read": 0,
            "datalog.records_replayed": 0,
            "refset.merge.points_in": 0,
            "refset.merge.points_out": 0,
            "gc.collections": 0,
            "gc.pause_s": 0.0,
        }
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._archives: set = set()
        self._records: set = set()
        self._gc_start = 0.0

    # -- span wrappers -----------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0])

    def _span(self, name, fn, after=None):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _baseline_span(self, name, fn):
        """A baseline span whose ``evaluate`` argument is itself traced as
        ``runner.evaluate``: the callback the runner hands the optimizer."""
        traced = self._span(name, fn)
        span = self._span

        def baseline(evaluate, *args, **kwargs):
            return traced(span("runner.evaluate", evaluate), *args, **kwargs)

        baseline.__wrapped__ = fn
        return baseline

    def _insert_span(self, fn):
        """``Archive.insert``, split on the returned ``accepted`` flag."""
        accept = self._stat("archive.insert_accept")
        reject = self._stat("archive.insert_reject")
        failed = self._stat("archive.insert")
        stack = self._stack
        clock = time.perf_counter
        archives = self._archives
        counts = self.counts

        def insert(archive, *args, **kwargs):
            archives.add(archive)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                outcome = fn(archive, *args, **kwargs)
            except BaseException:
                failed[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
            if outcome.accepted:
                accept[0] += 1
                accept[1] += elapsed - child[0]
                counts["archive.removed"] += outcome.removed_count
            else:
                reject[0] += 1
                reject[1] += elapsed - child[0]
            return outcome

        insert.__wrapped__ = fn
        return insert

    def _record_span(self, fn):
        """``RuntimeRecord.record``; remembers each record to sum its hits."""
        traced = self._span("targets.record", fn)
        records = self._records

        def record(runtime_record, *args, **kwargs):
            records.add(runtime_record)
            return traced(runtime_record, *args, **kwargs)

        record.__wrapped__ = fn
        return record

    # -- counters read at layer boundaries ---------------------------------

    def _after_write_log(self, args, path) -> None:
        self.counts["datalog.bytes_written"] += path.stat().st_size

    def _after_read_log(self, args, log) -> None:
        self.counts["datalog.bytes_read"] += Path(args[0]).stat().st_size
        self.counts["datalog.records_read"] += len(log.records)

    def _after_recalculate(self, args, result) -> None:
        self.counts["datalog.records_replayed"] += len(args[0].records)

    def _after_merge(self, args, rs) -> None:
        self.counts["refset.merge.points_in"] += sum(
            len(s.points) if hasattr(s, "points") else len(s) for s in args[0]
        )
        self.counts["refset.merge.points_out"] += len(rs.points)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("bibench")
        modules = {name: importlib.import_module(f"bibench.{name}") for name in LAYERS}
        after = {
            "datalog.write_log": self._after_write_log,
            "datalog.read_log": self._after_read_log,
            "datalog.recalculate": self._after_recalculate,
            "refset.merge": self._after_merge,
        }
        wrappers: dict = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if (
                    not isinstance(fn, types.FunctionType)
                    or fn.__module__ != module.__name__
                    or name in _NOT_TRACED
                ):
                    continue
                if name in _BASELINES:
                    wrappers[fn] = self._baseline_span(name, fn)
                else:
                    wrappers[fn] = self._span(name, fn, after.get(name))
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        algorithms = modules["runner"].ALGORITHMS
        for key, value in list(algorithms.items()):
            if value in wrappers:
                self._patch(algorithms, key, wrappers[value])

        suite_fn = modules["suite"].SuiteFunction
        self._patch(suite_fn, "evaluate", self._span("suite.evaluate", suite_fn.evaluate))
        archive = modules["archive"].Archive
        self._patch(archive, "insert", self._insert_span(archive.insert))
        record = modules["targets"].RuntimeRecord
        self._patch(record, "record", self._record_span(record.record))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.counts["archive.clamp_warnings"] = sum(a.clamp_warnings for a in self._archives)
        self.counts["targets.hit_count"] = sum(r.hit_count for r in self._records)
        self._archives.clear()
        self._records.clear()

    def snapshot(self, scale: float) -> dict:
        """Plain-data copy of the spans and counters, for JSON, with every
        time multiplied by ``scale`` (the machine-speed factor)."""
        counts = dict(self.counts)
        counts["gc.pause_s"] *= scale
        spans = {k: [calls, self_s * scale, errors] for k, (calls, self_s, errors) in self.spans.items()}
        return {"spans": spans, "counts": counts}


# -- per-layer metrics -------------------------------------------------------


def _calls(spans, *names) -> int:
    return sum(spans.get(n, (0, 0.0, 0))[0] for n in names)


def _self(spans, *names) -> float:
    return sum(spans.get(n, (0, 0.0, 0))[1] for n in names)


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def _sum_snapshots(snapshots: list[dict]) -> tuple[dict, dict]:
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for snap in snapshots:
        for name, (calls, self_s, errors) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += errors
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts


def layer_metrics(snapshots: list[dict], overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the traced repeats, as name -> (value, unit).

    Counts are per repeat (every repeat does identical work); per-call
    times are total self time over total calls.  A metric of a layer the
    workload never calls reads 0.
    """
    n = len(snapshots)
    s, c = _sum_snapshots(snapshots)

    def calls(*names):
        return _calls(s, *names)

    def per_call(*names, scale):
        return _per(_self(s, *names), calls(*names), scale)

    def count(name):
        return c.get(name, 0) / n

    us, ms = 1e6, 1e3
    evals = calls("runner.evaluate")
    inserts = calls("archive.insert_accept", "archive.insert_reject")
    accepts = calls("archive.insert_accept")
    update = "indicator.evaluate_incremental"
    csv_writers = ("postprocess.write_ecdf_csv", "postprocess.write_runtime_table_csv")
    m = {
        "suite.evaluate.calls": (calls("suite.evaluate") / n, "count"),
        "suite.evaluate.us_per_call": (per_call("suite.evaluate", scale=us), "us"),
        "suite.get_function.ms_per_call": (per_call("suite.get_function", scale=ms), "ms"),
        "baselines.us_per_eval": (_per(_self(s, *_BASELINES), evals, us), "us"),
        "runner.evaluate.us_per_call": (per_call("runner.evaluate", scale=us), "us"),
        "runner.stage.self_s": (
            _self(s, "runner.run_experiment", "runner.bootstrap_refsets") / n, "s"),
        "core.normalize.calls": (calls("core.normalize") / n, "count"),
        "core.normalize.us_per_call": (per_call("core.normalize", scale=us), "us"),
        "archive.insert.calls": (inserts / n, "count"),
        "archive.insert.accept_ratio": (_per(accepts, inserts), "ratio"),
        "archive.insert.removed_per_accept": (_per(c.get("archive.removed", 0), accepts), "count"),
        "archive.insert_accept.us_per_call": (per_call("archive.insert_accept", scale=us), "us"),
        "archive.insert_reject.us_per_call": (per_call("archive.insert_reject", scale=us), "us"),
        "archive.clamp_warnings": (count("archive.clamp_warnings"), "count"),
        "indicator.update.calls": (calls(update) / n, "count"),
        "indicator.update.us_per_call": (per_call(update, scale=us), "us"),
        "targets.record.calls": (calls("targets.record") / n, "count"),
        "targets.record.us_per_call": (per_call("targets.record", scale=us), "us"),
        "targets.hit_count": (count("targets.hit_count"), "count"),
        "datalog.write_log.calls": (calls("datalog.write_log") / n, "count"),
        "datalog.bytes_written": (count("datalog.bytes_written"), "B"),
        "datalog.write_log.mb_per_s": (
            _per(c.get("datalog.bytes_written", 0), _self(s, "datalog.write_log"), 1e-6), "MB/s"),
        "datalog.read_log.mb_per_s": (
            _per(c.get("datalog.bytes_read", 0), _self(s, "datalog.read_log"), 1e-6), "MB/s"),
        "datalog.bytes_read": (count("datalog.bytes_read"), "B"),
        "datalog.records_read": (count("datalog.records_read"), "count"),
        "datalog.recalculate.us_per_record": (
            _per(_self(s, "datalog.recalculate"), c.get("datalog.records_replayed", 0), us), "us"),
        "refset.merge.ms_per_call": (per_call("refset.merge", scale=ms), "ms"),
        "refset.merge.points_in": (count("refset.merge.points_in"), "count"),
        "refset.merge.keep_ratio": (
            _per(c.get("refset.merge.points_out", 0), c.get("refset.merge.points_in", 0)), "ratio"),
        "refset.read_reference_set.ms_per_call": (
            per_call("refset.read_reference_set", scale=ms), "ms"),
        "refset.write_reference_set.ms_per_call": (
            per_call("refset.write_reference_set", scale=ms), "ms"),
        "postprocess.ecdf.ms_per_call": (per_call("postprocess.ecdf", scale=ms), "ms"),
        "postprocess.runtime_table.ms_per_call": (
            per_call("postprocess.runtime_table", scale=ms), "ms"),
        "postprocess.write_csv.ms_per_call": (per_call(*csv_writers, scale=ms), "ms"),
        "gc.collections": (count("gc.collections"), "count"),
        "gc.pause_s": (count("gc.pause_s"), "s"),
    }
    for layer in LAYERS:
        errors = sum(v[2] for k, v in s.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.errors"] = (errors, "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


def layer_calls(snapshot: dict) -> dict[str, int]:
    """Calls per layer in one traced repeat."""
    calls: dict[str, int] = {layer: 0 for layer in LAYERS}
    for name, (n, _, _) in snapshot["spans"].items():
        calls[name.split(".", 1)[0]] += n
    return calls
