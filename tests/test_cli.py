"""CLI tests: full pipeline through main(), exit codes, error messages."""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import point_columns

from bibench import refset, runner
from bibench.cli import main
from bibench.datalog import iter_experiment, read_log
from bibench.suite import analytic_front_oracle, get_function


def _write_analytic_refset(tmp_path, instance_id: int = 1):
    fn = get_function("f1", instance_id=instance_id, dimension=2)
    pts = [analytic_front_oracle(fn, k / 500) for k in range(501)]
    rs = refset.merge(
        [point_columns(pts)], function_id="f1", instance_id=instance_id, dimension=2,
        ideal=fn.analytic_ideal, nadir=fn.analytic_nadir,
    )
    refdir = tmp_path / "refsets"
    refset.write_reference_set(rs, refset.refset_path(refdir, "f1", 2, instance_id))
    return refdir, rs


def test_full_pipeline(tmp_path, capsys) -> None:
    refdir, rs = _write_analytic_refset(tmp_path)
    logs = tmp_path / "logs"
    assert main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1",
        "--algo", "random", "--budget", "300", "--seed", "7",
        "--refsets", str(refdir), "--out", str(logs),
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote 1 run logs" in out
    log_file = logs / "random" / "f1_d2_i1.tsv"
    assert log_file.is_file()
    assert read_log(log_file).header.refset_version == rs.version

    post = tmp_path / "post"
    assert main(["postprocess", "--logs", str(logs), "--out", str(post)]) == 0
    assert (post / "random" / "ecdf_d2.csv").is_file()
    assert (post / "random" / "ecdf_all.csv").is_file()
    assert (post / "random" / "runtime_table.csv").is_file()

    recalced = tmp_path / "recalced"
    assert main([
        "recalc", "--logs", str(logs), "--refsets", str(refdir),
        "--out", str(recalced),
    ]) == 0
    # Same reference sets: the rewritten logs are byte-identical.
    assert (recalced / "random" / "f1_d2_i1.tsv").read_bytes() == log_file.read_bytes()


def test_bootstrap_refsets_command(tmp_path, capsys) -> None:
    out = tmp_path / "refsets"
    assert main([
        "bootstrap-refsets", "--functions", "f1", "--dims", "2",
        "--instances", "1", "--budget", "300", "--seed", "3",
        "--out", str(out),
    ]) == 0
    assert "wrote 1 reference sets" in capsys.readouterr().out
    rs = refset.read_reference_set(out / "f1_d2_i1.tsv")
    assert rs.function_id == "f1" and not rs.bounds_estimated


def test_run_bootstraps_when_no_refsets_given(tmp_path) -> None:
    logs = tmp_path / "logs"
    assert main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1",
        "--algo", "hillclimber", "--budget", "100", "--seed", "2",
        "--bootstrap-budget", "300", "--out", str(logs),
    ]) == 0
    assert (logs / "refsets" / "f1_d2_i1.tsv").is_file()
    assert (logs / "hillclimber" / "f1_d2_i1.tsv").is_file()


@pytest.mark.parametrize(
    "argv",
    [["bootstrap-refsets", "--budget", "0"], ["run", "--bootstrap-budget", "0"]],
    ids=["bootstrap-refsets", "run"],
)
def test_bootstrap_budget_below_one_is_named(tmp_path, capsys, argv) -> None:
    out = tmp_path / "out"
    assert main(argv + ["--functions", "f1", "--dims", "2", "--out", str(out)]) == 1
    assert "bootstrap budget must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_instance_range_syntax(tmp_path) -> None:
    refdir, _ = _write_analytic_refset(tmp_path, instance_id=1)
    _write_analytic_refset(tmp_path, instance_id=2)
    _write_analytic_refset(tmp_path, instance_id=3)
    logs = tmp_path / "logs"
    assert main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1-3",
        "--budget", "50", "--seed", "1", "--refsets", str(refdir),
        "--out", str(logs),
    ]) == 0
    assert sorted(p.name for p in (logs / "random").glob("f1_*.tsv")) == [
        "f1_d2_i1.tsv", "f1_d2_i2.tsv", "f1_d2_i3.tsv",
    ]


def test_wide_instance_range_fails_in_bounded_memory(tmp_path, capsys) -> None:
    # The range stops one value past the axis, so its first unknown value
    # is still named and its width costs no memory.
    tracemalloc.start()
    try:
        status = main([
            "run", "--functions", "f1", "--dims", "2", "--instances", "1-1000000",
            "--out", str(tmp_path / "x"),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert "unknown instance 11" in capsys.readouterr().err
    assert peak < 10 * 2**20
    assert not (tmp_path / "x").exists()


def test_unknown_function_fails_before_work(tmp_path, capsys) -> None:
    assert main([
        "run", "--functions", "f9", "--out", str(tmp_path / "x"),
    ]) == 1
    err = capsys.readouterr().err
    assert "bibench: error:" in err and "f9" in err
    assert not (tmp_path / "x").exists()


def test_empty_dimension_list_is_named(tmp_path, capsys) -> None:
    assert main(["run", "--dims", ",", "--out", str(tmp_path / "x")]) == 1
    assert "bibench: error: empty dimension list" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    ("flag", "text", "message"),
    [("--dims", "2,5-3", "cannot parse dimension '5-3'"),
     ("--instances", "1,10-1", "cannot parse instance '10-1'")],
)
def test_inverted_range_is_refused(tmp_path, capsys, flag, text, message) -> None:
    # A range ending below its start selects nothing; it is not skipped.  The
    # small grid and budgets keep a run short should the range pass.
    assert main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1", flag, text,
        "--budget", "20", "--bootstrap-budget", "100", "--out", str(tmp_path / "x"),
    ]) == 1
    assert f"bibench: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_baseline_over_its_budget_exits_one(tmp_path, capsys, monkeypatch) -> None:
    # The budget guard is the runner's, not the baseline's: a baseline that
    # asks for one evaluation more than it was given fails the run.
    def greedy(evaluate, dimension, budget, rng):
        for _ in range(budget + 1):
            evaluate(rng.uniform(-5.0, 5.0, dimension))

    monkeypatch.setitem(runner.ALGORITHMS, "random", greedy)
    refdir, _ = _write_analytic_refset(tmp_path)
    assert main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1", "--budget", "40",
        "--refsets", str(refdir), "--out", str(tmp_path / "x"),
    ]) == 1
    assert "bibench: error: evaluation budget 40 exhausted" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_bad_instance_syntax(tmp_path, capsys) -> None:
    assert main([
        "run", "--instances", "one", "--out", str(tmp_path / "x"),
    ]) == 1
    assert "cannot parse instance" in capsys.readouterr().err


def test_missing_refset_error_names_problem(tmp_path, capsys) -> None:
    assert main([
        "run", "--functions", "f2", "--dims", "3", "--instances", "4",
        "--budget", "10", "--refsets", str(tmp_path / "nowhere"),
        "--out", str(tmp_path / "x"),
    ]) == 1
    assert "f2:3:4" in capsys.readouterr().err


def test_postprocess_rejects_off_grid_precision(tmp_path, capsys) -> None:
    assert main([
        "postprocess", "--logs", str(tmp_path), "--out", str(tmp_path / "p"),
        "--precisions", "0.123",
    ]) == 1
    assert "target grid" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_postprocess_rejects_negative_instances_display(tmp_path, capsys) -> None:
    _, logs = _tamper_index(tmp_path, lambda text, _: text)
    (logs / "random" / "f1_d2_i1.tsv").write_text("not a log\n")  # must not be read
    assert main([
        "postprocess", "--logs", str(logs), "--out", str(tmp_path / "p"),
        "--instances-display", "-1",
    ]) == 1
    assert "instances_display must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_postprocess_instances_display_zero_writes_counts_only(tmp_path) -> None:
    _, logs = _tamper_index(tmp_path, lambda text, _: text)
    assert main([
        "postprocess", "--logs", str(logs), "--out", str(tmp_path / "p"),
        "--instances-display", "0",
    ]) == 0
    header = (tmp_path / "p" / "random" / "runtime_table.csv").read_text().splitlines()[1]
    assert header == "function,dimension,precision,n_hit,n_instances"


def test_postprocess_without_logs(tmp_path, capsys) -> None:
    (tmp_path / "empty").mkdir()
    assert main([
        "postprocess", "--logs", str(tmp_path / "empty"), "--out", str(tmp_path / "p"),
    ]) == 1
    assert "experiment_index.tsv" in capsys.readouterr().err


def test_recalc_missing_refset(tmp_path, capsys) -> None:
    refdir, _ = _write_analytic_refset(tmp_path)
    logs = tmp_path / "logs"
    main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1",
        "--budget", "50", "--seed", "1", "--refsets", str(refdir),
        "--out", str(logs),
    ])
    assert main([
        "recalc", "--logs", str(logs), "--refsets", str(tmp_path / "nowhere"),
        "--out", str(tmp_path / "r"),
    ]) == 1
    assert "f1:2:1" in capsys.readouterr().err


def _tamper_index(tmp_path, edit):
    """Run f1 d2 i1, then rewrite the run's index text with ``edit(text, refset)``."""
    refdir, rs = _write_analytic_refset(tmp_path)
    logs = tmp_path / "logs"
    main([
        "run", "--functions", "f1", "--dims", "2", "--instances", "1",
        "--budget", "50", "--seed", "1", "--refsets", str(refdir),
        "--out", str(logs),
    ])
    index = logs / "random" / "experiment_index.tsv"
    index.write_text(edit(index.read_text(), rs))
    return refdir, logs


def test_recalc_rejects_index_version_mismatch(tmp_path, capsys) -> None:
    refdir, logs = _tamper_index(tmp_path, lambda text, rs: text.replace(rs.version, "f" * 16))
    assert main([
        "recalc", "--logs", str(logs), "--refsets", str(refdir),
        "--out", str(tmp_path / "r"),
    ]) == 1
    assert "f1_d2_i1.tsv: index lists refset version" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recalc", "postprocess"])
def test_bad_index_number_names_file_and_line(tmp_path, capsys, command) -> None:
    # A row still holding v1's function, instance and dimension columns.
    refdir, logs = _tamper_index(tmp_path, lambda text, _: text.replace("\t", "\tf1\t1\t2\t"))
    argv = [command, "--logs", str(logs), "--out", str(tmp_path / "r")]
    if command == "recalc":
        argv += ["--refsets", str(refdir)]
    assert main(argv) == 1
    assert "experiment_index.tsv:3: expected 2 columns, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recalc", "postprocess"])
def test_index_row_must_match_log_problem(tmp_path, capsys, command) -> None:
    refdir, logs = _tamper_index(tmp_path, lambda text, _: text.replace("f1_d2_i1", "f3_d5_i1"))
    (logs / "random" / "f1_d2_i1.tsv").rename(logs / "random" / "f3_d5_i1.tsv")
    argv = [command, "--logs", str(logs), "--out", str(tmp_path / "r")]
    if command == "recalc":
        argv += ["--refsets", str(refdir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "f3_d5_i1.tsv: the log header's problem f1:2:1 must be listed as f1_d2_i1.tsv" in err


@pytest.mark.parametrize("command", ["recalc", "postprocess"])
def test_repeated_index_row_names_file_and_line(tmp_path, capsys, command) -> None:
    refdir, logs = _tamper_index(tmp_path, lambda text, _: text + text.splitlines()[-1] + "\n")
    argv = [command, "--logs", str(logs), "--out", str(tmp_path / "r")]
    if command == "recalc":
        argv += ["--refsets", str(refdir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "experiment_index.tsv:4: f1_d2_i1.tsv is listed twice" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["recalc", "postprocess"])
def test_index_row_listing_copied_log_is_rejected(tmp_path, capsys, command) -> None:
    def list_copy(text, _):
        return text + text.splitlines()[-1].replace("f1_d2_i1.tsv", "copy.tsv") + "\n"

    refdir, logs = _tamper_index(tmp_path, list_copy)
    shutil.copy(logs / "random" / "f1_d2_i1.tsv", logs / "random" / "copy.tsv")
    argv = [command, "--logs", str(logs), "--out", str(tmp_path / "r")]
    if command == "recalc":
        argv += ["--refsets", str(refdir)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "copy.tsv: the log header's problem f1:2:1 must be listed as f1_d2_i1.tsv" in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("linked, what", [
    ("random/f1_d2_i1.tsv", "run log"),
    ("random/experiment_index.tsv", "index"),
    ("random", "algorithm directory"),
])
def test_symlink_in_the_tree_is_rejected(tmp_path, capsys, linked, what) -> None:
    # The link leads out of the tree to an intact copy, which would
    # otherwise read, replay and pass every index check.
    refdir, logs = _tamper_index(tmp_path, lambda text, _: text)
    target = tmp_path / "elsewhere" / linked
    target.parent.mkdir(parents=True, exist_ok=True)
    (logs / linked).rename(target)
    depth = len(Path(linked).parts)
    (logs / linked).symlink_to(Path(*[".."] * depth, "elsewhere", linked))
    for argv in (
        ["postprocess", "--logs", str(logs), "--out", str(tmp_path / "post")],
        ["recalc", "--logs", str(logs), "--refsets", str(refdir), "--out", str(tmp_path / "r")],
    ):
        assert main(argv) == 1
        assert f"{linked}: {what} is a symbolic link" in capsys.readouterr().err
    assert not (tmp_path / "post").exists()
    assert not (tmp_path / "r").exists()


def test_postprocess_reports_log_header_that_fails_problem_spec(tmp_path, capsys) -> None:
    # Lines are parsed before the header's values are checked, so a record
    # of the wrong width is named first; before, the header was checked at
    # the first record.
    _, logs = _tamper_index(tmp_path, lambda text, _: text)
    log = logs / "random" / "f1_d2_i1.tsv"
    header = log.read_text().replace("% dimension=2", "% dimension=-1").splitlines()[:12]
    for record, error in (("1\t0.5", ":13: expected 3 columns, got 2"),
                          ("1\t0.5\t0.5", ":12: dimension must be positive")):
        log.write_text("\n".join([*header, record]) + "\n")
        assert main(["postprocess", "--logs", str(logs), "--out", str(tmp_path / "p")]) == 1
        assert f"f1_d2_i1.tsv{error}" in capsys.readouterr().err


def test_usage_error_exits_two(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- a publish killed at every step -------------------------------------------

# Run as ``python -c _KILL_AT k <bibench argv>``: the child SIGKILLs itself
# just before its k-th call of os.replace, os.unlink, os.rmdir or
# shutil.rmtree (pathlib's replace, unlink and rmdir call the first three).
_KILL_AT = """
import os, shutil, signal, sys
from bibench.cli import main

k, calls = int(sys.argv[1]), 0

def killed_before(call):
    def counted(*args, **kwargs):
        global calls
        calls += 1
        if calls == k:
            os.kill(os.getpid(), signal.SIGKILL)
        return call(*args, **kwargs)
    return counted

for module, name in ((os, "replace"), (os, "unlink"), (os, "rmdir"), (shutil, "rmtree")):
    setattr(module, name, killed_before(getattr(module, name)))
sys.exit(main(sys.argv[2:]))
"""


def _read_tree(root):
    """The logs ``iter_experiment`` accepts under ``root``, or its error's type."""
    try:
        return list(iter_experiment(root))
    except (OSError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("command", ["run", "recalc"])
def test_a_publish_killed_at_any_step_never_yields_a_mixed_tree(tmp_path, command) -> None:
    # One child at a time runs into a copy of a published tree, another run
    # with a new seed or a recalc in place against other reference sets, and
    # is killed at its k-th step, for k = 1, 2, ... until it exits cleanly.
    # Each killed tree must read as the old tree or the new one, compared by
    # header and records, or fail with a named error.  A kill inside
    # ExperimentWriter.close deletes the old index before the new one is
    # written, so some kills lose both trees (FileNotFoundError).
    grid = ["--functions", "f1", "--dims", "2", "--instances", "1-2"]
    for seed in ("1", "2"):
        assert main(["bootstrap-refsets", *grid, "--budget", "200", "--seed", seed,
                     "--out", str(tmp_path / f"refsets{seed}")]) == 0
    run = ["run", *grid, "--budget", "100", "--refsets", str(tmp_path / "refsets1")]
    old = tmp_path / "old"
    assert main([*run, "--seed", "1", "--out", str(old)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(runner.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    killed = []
    for k in itertools.count(1):
        assert k <= 100, "the child was still killed at its 100th step"
        work = tmp_path / f"kill{k}"
        shutil.copytree(old, work)
        argv = ([*run, "--seed", "2", "--out", str(work)] if command == "run" else
                ["recalc", "--logs", str(work), "--refsets", str(tmp_path / "refsets2"),
                 "--out", str(work)])
        child = subprocess.run([sys.executable, "-c", _KILL_AT, str(k), *argv],
                               env=env, capture_output=True, text=True, timeout=120)
        if child.returncode == 0:
            break
        assert child.returncode == -signal.SIGKILL, child.stderr
        killed.append(_read_tree(work))
    old_logs, new_logs = _read_tree(old), _read_tree(work)
    assert isinstance(new_logs, list) and len(new_logs) == len(old_logs) == 2
    assert all(a != b for a, b in zip(old_logs, new_logs))
    assert all(tree in (old_logs, new_logs, FileNotFoundError) for tree in killed), killed
    assert old_logs in killed and new_logs in killed
