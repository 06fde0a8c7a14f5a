"""CLI tests: full pipeline through main(), exit codes, error messages."""

from __future__ import annotations

import pytest

from bibench import refset
from bibench.cli import main
from bibench.datalog import read_log
from bibench.suite import analytic_front_oracle, get_function


def _write_analytic_refset(tmp_path, instance_id: int = 1):
    fn = get_function("f1", instance_id=instance_id, dimension=2)
    pts = [analytic_front_oracle(fn, k / 500) for k in range(501)]
    rs = refset.merge(
        [pts], function_id="f1", instance_id=instance_id, dimension=2,
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


def test_unknown_function_fails_before_work(tmp_path, capsys) -> None:
    assert main([
        "run", "--functions", "f9", "--out", str(tmp_path / "x"),
    ]) == 1
    err = capsys.readouterr().err
    assert "bibench: error:" in err and "f9" in err
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
    refdir, logs = _tamper_index(tmp_path, lambda text, _: text.replace("\tf1\t1\t", "\tf1\tone\t"))
    argv = [command, "--logs", str(logs), "--out", str(tmp_path / "r")]
    if command == "recalc":
        argv += ["--refsets", str(refdir)]
    assert main(argv) == 1
    assert "experiment_index.tsv:3: instance: invalid literal" in capsys.readouterr().err


def test_usage_error_exits_two(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --out is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
