import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import marginsparse
from marginsparse import cli
from marginsparse.data import LabeledDataset, gen_synthetic, load_dataset, write_svmlight
from marginsparse.pipelines import select_geometry

from test_svm import _text_corpus


@pytest.fixture()
def lowrank_path(tmp_path):
    """Class-balanced rank-3 dataset with 10 features, saved as svmlight."""
    rng = np.random.default_rng(21)
    n = 24
    Z = rng.standard_normal((n, 3))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    Z[:, 0] += 2.0 * y
    X = Z @ rng.standard_normal((3, 10))
    path = tmp_path / "lowrank.svm"
    path.write_text(write_svmlight(LabeledDataset(X, y)))
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out


# -------------------------------------------------------------------- synth

def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.svm", tmp_path / "b.svm"
    assert cli.main(["synth", "--n", "20", "--d", "10", "--k", "2",
                     "--seed", "1", "--out", str(a)]) == 0
    assert cli.main(["synth", "--n", "20", "--d", "10", "--k", "2",
                     "--seed", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 20


def test_synth_to_stdout(capsys):
    code, out = run_json(capsys, ["synth", "--n", "3", "--d", "4", "--k", "1",
                                  "--seed", "0"])
    assert code == 0
    assert len(out.out.splitlines()) == 3


# ------------------------------------------------------------------- select

def test_select_json_schema(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "select", "--data", lowrank_path, "--method", "bss",
        "--mode", "unsupervised", "--features", "12", "--C", "1",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["schema"] == "margin-sparse/1"
    assert doc["method"] == "bss" and doc["mode"] == "unsupervised"
    assert doc["r"] == 12
    assert len(doc["selected_indices"]) == 12
    assert len(doc["weights"]) == 12
    assert doc["margin_full"] > 0 and doc["margin_sampled"] > 0
    assert doc["spectral_error"] is not None
    assert doc["bound_checks"]["margin"] in ("pass", "fail", "na")
    assert doc["bound_checks"]["ratio"] in ("pass", "fail", "na")
    assert doc["wall_time_s"] >= 0
    assert doc["n_support"] >= 2


def test_select_deterministic_except_wall_time(tmp_path, lowrank_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        assert cli.main([
            "select", "--data", lowrank_path, "--method", "leverage",
            "--mode", "unsupervised", "--features", "12", "--seed", "7",
            "--out", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_time_s")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_select_writes_unit_weights_for_baselines(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "select", "--data", lowrank_path, "--method", "uniform",
        "--mode", "unsupervised", "--features", "5", "--seed", "2",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["weights"] == [1.0] * 5
    assert doc["spectral_error"] is None
    assert doc["bound_checks"]["margin"] == "na"


# -------------------------------------------------------------- exit codes

def test_missing_file_is_data_error(capsys):
    code, out = run_json(capsys, ["select", "--data", "/nonexistent/x.svm",
                                  "--features", "5"])
    assert code == 3
    err = json.loads(out.err)
    assert err["error"]["type"] == "data"


def test_rfe_unsupervised_is_usage_error(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "select", "--data", lowrank_path, "--method", "rfe",
        "--mode", "unsupervised", "--features", "5",
    ])
    assert code == 2
    assert json.loads(out.err)["error"]["type"] == "usage"


def test_r_not_above_rank_is_usage_error(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "select", "--data", lowrank_path, "--method", "bss",
        "--mode", "unsupervised", "--features", "2",
    ])
    assert code == 2
    assert "ell" in json.loads(out.err)["error"]["message"]


def test_malformed_dataset_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.svm"
    bad.write_text("+5 1:1.0\n")
    code, out = run_json(capsys, ["select", "--data", str(bad), "--features", "5"])
    assert code == 3
    assert "label" in json.loads(out.err)["error"]["message"]


def test_verify_margin_requires_data(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--bound", "margin", "--features", "8"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------- cv

def test_cv_grid_rows(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "cv", "--data", lowrank_path, "--methods", "bss,leverage",
        "--mode", "unsupervised", "--features", "8",
        "--folds", "3", "--repeats", "2", "--seed", "4",
    ])
    assert code == 0
    doc = json.loads(out.out)
    rows = {(row["method"], row["r"]): row for row in doc["results"]}
    assert ("bss", 8) in rows and ("leverage", 8) in rows
    assert ("full", None) in rows  # no-selection baseline present by default
    for row in rows.values():
        assert row["cells"] == 6
        assert row["skipped"] + len(row["margins"]) == row["cells"]
        if row["mean_error"] is not None:
            assert 0.0 <= row["mean_error"] <= 1.0
            assert row["std_error"] >= 0.0


@pytest.mark.parametrize("methods, message", [
    ("bogus", "unknown method 'bogus'"),
    ("", "no method"),
])
def test_cv_unknown_or_no_methods_are_usage_errors(capsys, lowrank_path, methods,
                                                   message):
    code, out = run_json(capsys, ["cv", "--data", lowrank_path, "--methods", methods,
                                  "--features", "8", "--folds", "3", "--repeats", "1"])
    assert code == 2
    assert message in json.loads(out.err)["error"]["message"]
    assert out.out == ""


def test_cv_no_full_baseline(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "cv", "--data", lowrank_path, "--methods", "bss",
        "--mode", "unsupervised", "--features", "8",
        "--folds", "3", "--repeats", "1", "--no-full-baseline",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert all(row["method"] != "full" for row in doc["results"])


# ------------------------------------------------------------------- verify

def test_verify_parser_options():
    # Pins the verify subcommand's interface: option strings, choices,
    # required flags and every default.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    verify = sub.choices["verify"]
    options = {s: a for a in verify._actions for s in a.option_strings}
    assert set(options) == {
        "-h", "--help", "--bound", "--l", "--d", "--r", "--trials", "--data",
        "--method", "--mode", "--features", "--C", "--seed", "--t",
        "--chunk-fraction", "--kkt-tol", "--delta", "--out",
    }
    assert [a.dest for a in verify._actions if a.required] == ["bound"]
    assert options["--bound"].choices == ["spectral", "margin", "radius"]
    assert options["--method"].choices == list(cli.METHODS)
    assert options["--mode"].choices == ["supervised", "unsupervised"]
    types = {s: a.type for s, a in options.items() if a.type is not None}
    assert types == {
        "--l": int, "--d": int, "--r": int, "--trials": int, "--features": int,
        "--seed": int, "--t": int, "--C": float, "--chunk-fraction": float,
        "--kkt-tol": float, "--delta": float,
    }
    args = vars(parser.parse_args(["verify", "--bound", "spectral"]))
    assert args == {
        "command": "verify", "bound": "spectral", "l": 8, "d": 100, "r": 128,
        "trials": 50, "data": None, "method": "bss", "mode": "supervised",
        "features": None, "C": 1.0, "seed": 0, "t": None,
        "chunk_fraction": 0.1, "kkt_tol": 1e-4, "delta": 1e-3, "out": None,
        "func": cli.cmd_verify,
    }


def test_verify_spectral(capsys):
    code, out = run_json(capsys, [
        "verify", "--bound", "spectral", "--l", "2", "--r", "16",
        "--d", "40", "--trials", "5", "--seed", "0",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["all_passed"] is True
    assert doc["failures"] == 0
    assert doc["max_spectral_error"] <= doc["error_bound"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["--l", "8", "--d", "5", "--r", "16"],  # qr would hand BSS a 5 x 5 V
    ["--l", "0"],
    ["--l", "-2"],
    ["--trials", "0"],
    ["--trials", "-1"],
])
def test_verify_spectral_rejects_bad_l_and_trials(capsys, monkeypatch, argv):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "bss_select", no_trial)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--bound", "spectral", *argv])
    assert exc.value.code == 2
    assert f"error: {argv[0]} must be" in capsys.readouterr().err


def test_verify_spectral_accepts_l_equal_to_d(capsys):
    code, out = run_json(capsys, [
        "verify", "--bound", "spectral", "--l", "3", "--d", "3", "--r", "12",
        "--trials", "1",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert (doc["l"], doc["d"], doc["trials"], doc["all_passed"]) == (3, 3, 1, True)


def test_verify_margin(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "verify", "--bound", "margin", "--data", lowrank_path,
        "--method", "bss", "--mode", "unsupervised", "--features", "24",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["margin_check"]["status"] == "pass"
    assert doc["spectral_error"] < 1.0
    for name in ("margin_check", "radius_check", "ratio_check"):
        assert set(doc[name]) >= {"status", "lhs", "rhs", "reason"}
    assert doc["radius_check"]["status"] == "pass"
    assert doc["radius_check"]["lhs"] == pytest.approx(doc["radius_sampled"] ** 2, rel=1e-12)
    assert doc["radius_check"]["rhs"] >= doc["radius_check"]["lhs"]


def test_verify_margin_reasons_for_unweighted_method(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "verify", "--bound", "margin", "--data", lowrank_path,
        "--method", "uniform", "--mode", "unsupervised", "--features", "8",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["spectral_error"] is None
    assert doc["radius_full"] > 0 and doc["radius_sampled"] > 0
    for name in ("margin_check", "radius_check", "ratio_check"):
        assert doc[name]["status"] == "na"
        assert "unweighted" in doc[name]["reason"]


def test_verify_radius(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "verify", "--bound", "radius", "--data", lowrank_path,
        "--method", "bss", "--features", "20",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["status"] == "pass"
    assert doc["reason"] == ""
    assert doc["radius_sampled"] > 0
    assert doc["radius_sampled"] ** 2 <= doc["bound_value"]


@pytest.mark.parametrize("method", ["bss", "leverage"])
def test_verify_radius_selects_from_full_data(capsys, lowrank_path, method):
    code, out = run_json(capsys, ["verify", "--bound", "radius", "--data", lowrank_path,
                                  "--method", method, "--features", "20", "--seed", "4"])
    assert code == 0
    doc = json.loads(out.out)
    rep = select_geometry(load_dataset(lowrank_path), method, 20, 4)
    assert doc["radius_full"] == rep.ball_full.radius
    assert doc["radius_sampled"] == rep.ball_sampled.radius
    assert doc["spectral_error"] == rep.spectral_error


@pytest.mark.parametrize("bound, argv, unread", [
    ("spectral", ["--l", "2", "--d", "20", "--r", "8", "--trials", "1",
                  "--data", "/nonexistent.svm", "--method", "rfe"], "--data, --method"),
    ("margin", ["--data", "/nonexistent.svm", "--features", "5", "--l", "2",
                "--trials", "3"], "--l, --trials"),
    ("radius", ["--data", "/nonexistent.svm", "--features", "5", "--mode=supervised",
                "--C", "5", "--kkt-tol", "0.1", "--chunk-fraction", "0.2"],
     "--C, --chunk-fraction, --kkt-tol, --mode"),
])
def test_verify_refuses_flags_its_bound_does_not_read(capsys, bound, argv, unread):
    # refused before the (missing) dataset is read, which would exit 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--bound", bound, *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: --bound {bound} does not read {unread}\n" in out.err


@pytest.mark.parametrize("method", ["uniform", "rrqr"])
def test_verify_radius_unweighted_method_is_na(capsys, lowrank_path, method):
    code, out = run_json(capsys, [
        "verify", "--bound", "radius", "--data", lowrank_path,
        "--method", method, "--features", "8",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["status"] == "na"
    assert "unweighted" in doc["reason"]
    assert doc["spectral_error"] is None and doc["bound_value"] is None
    assert doc["radius_full"] > 0 and doc["radius_sampled"] > 0


def test_verify_radius_rfe_is_usage_error(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "verify", "--bound", "radius", "--data", lowrank_path,
        "--method", "rfe", "--features", "5",
    ])
    assert code == 2
    assert out.out == ""
    assert json.loads(out.err)["error"]["type"] == "usage"


# ------------------------------------------------------------- feature-freq

def test_feature_freq_ranking(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "feature-freq", "--data", lowrank_path, "--method", "bss",
        "--mode", "unsupervised", "--features", "8",
        "--folds", "3", "--repeats", "2", "--top", "5",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["r"] == 8
    assert len(doc["top"]) <= 5
    counts = [row["count"] for row in doc["frequencies"]]
    assert counts == sorted(counts, reverse=True)
    for row in doc["frequencies"]:
        assert row["feature_id"] == row["index"] + 1
        assert 1 <= row["count"] <= doc["cells"]
    assert "selected in" in out.err


@pytest.mark.parametrize("argv", [
    ["--method", "rfe", "--mode", "unsupervised", "--features", "5"],
    ["--method", "rrqr", "--features", "11"],
])
def test_feature_freq_with_every_cell_skipped(capsys, lowrank_path, argv):
    # rfe has no unsupervised form, and rrqr cannot pick 11 of 10 columns
    code, out = run_json(capsys, ["feature-freq", "--data", lowrank_path,
                                  "--folds", "3", "--repeats", "1", *argv])
    assert code == 0, out.err
    doc = json.loads(out.out)
    assert doc["r"] == int(argv[-1])
    assert (doc["cells"], doc["top"], doc["frequencies"]) == (0, [], [])


@pytest.mark.parametrize("command", ["cv", "feature-freq"])
@pytest.mark.parametrize("argv", [
    ["--folds", "1"],
    ["--folds", "0"],
    ["--repeats", "0"],
    ["--workers", "0"],
    ["--workers", "-3"],
])
def test_cv_counts_below_their_minimum_are_usage_errors(
        capsys, monkeypatch, lowrank_path, command, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("a CV grid ran")

    monkeypatch.setattr(cli, "cv_experiment", no_grid)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--data", lowrank_path, *argv])
    assert exc.value.code == 2
    assert f"error: {argv[0]} must be at least" in capsys.readouterr().err



_SOLVER_FLAG_COMMANDS = [
    ["select", "--features", "5"],
    ["cv", "--features", "5"],
    ["feature-freq", "--features", "5"],
    ["verify", "--bound", "margin", "--features", "5"],
]
_SOLVER_FLAG_VALUES = [
    ("--C", "0", "positive"),
    ("--C", "-2", "positive"),
    ("--C", "nan", "positive"),
    ("--kkt-tol", "-1", "non-negative"),
    ("--delta", "0", "in (0, 1)"),
    ("--delta", "1", "in (0, 1)"),
    ("--delta", "1.5", "in (0, 1)"),
    ("--delta", "1e-09", "at least 0.0001"),
    ("--delta", "9e-05", "at least 0.0001"),
    ("--chunk-fraction", "1", "in [0, 1)"),
    ("--chunk-fraction", "-0.1", "in [0, 1)"),
]


# cv and feature-freq compute no ball, so they take no --delta
@pytest.mark.parametrize("command, flag, value, rule", [
    pytest.param(command, flag, value, rule, id=f"{flag}-{value}-{rule}-command{i}")
    for i, command in enumerate(_SOLVER_FLAG_COMMANDS)
    for flag, value, rule in _SOLVER_FLAG_VALUES
    if not (flag == "--delta" and command[0] in ("cv", "feature-freq"))
])
def test_invalid_solver_flags_are_usage_errors(capsys, monkeypatch, lowrank_path,
                                               command, flag, value, rule):
    def no_load(path):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--data", lowrank_path, flag, value])
    assert exc.value.code == 2
    assert f"error: {flag} must be {rule}, got {float(value)}" in capsys.readouterr().err


def test_delta_below_the_floor_exits_at_once(capsys, tmp_path):
    path = tmp_path / "synth.svm"
    path.write_text(write_svmlight(gen_synthetic(60, 300, 10, seed=0)))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["select", "--data", str(path), "--features", "40", "--delta", "1e-9"])
    assert time.perf_counter() - start < 1.0
    assert exc.value.code == 2
    assert "--delta must be at least 0.0001, got 1e-09" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cv", "feature-freq"])
def test_delta_is_a_usage_error_where_no_ball_is_computed(
        capsys, monkeypatch, lowrank_path, command):
    def no_load(path):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(cli, "load_dataset", no_load)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--data", lowrank_path, "--delta", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --delta 0.5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cv", "--method", "leverage", "--mode", "unsupervised", "--features", "8"],
    ["select", "--feat", "5", "--meth", "bss"],
])
def test_flag_prefix_is_a_usage_error(capsys, lowrank_path, argv):
    # No flag prefix is read as the flag it starts: cv has no --method, so
    # it is not --methods, and --feat and --meth name no select flag.
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--data", lowrank_path])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err


class _ReadRecorder(argparse.Namespace):
    """A Namespace that records the name of every attribute read from it."""

    def __init__(self, **kwargs):
        object.__setattr__(self, "reads", set())
        super().__init__(**kwargs)

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "reads").add(name)
        return super().__getattribute__(name)


@pytest.mark.parametrize("argv", [
    ["select", "--features", "5"],
    ["cv", "--features", "5", "--folds", "3", "--repeats", "1"],
    ["verify", "--bound", "spectral", "--l", "2", "--d", "20", "--r", "8",
     "--trials", "1"],
    ["feature-freq", "--features", "5", "--folds", "3", "--repeats", "1"],
])
def test_every_declared_flag_is_read_by_its_handler(capsys, tmp_path, lowrank_path,
                                                    argv):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    declared = {a.dest for a in sub.choices[argv[0]]._actions} - {"help"}
    runs = [[*argv, "--data", lowrank_path]]
    if argv[0] == "verify":  # --bound spectral reads no dataset
        runs = [argv] + [["verify", "--bound", bound, "--data", lowrank_path,
                          "--features", "5"] for bound in ("margin", "radius")]
    read = set()
    for run in runs:
        args = parser.parse_args([*run, "--out", str(tmp_path / "out.json")],
                                 namespace=_ReadRecorder())
        args.reads.clear()
        assert args.func(args) == 0
        read |= args.reads
    assert declared - read == set()


def test_memory_error_is_a_data_error(capsys, monkeypatch, lowrank_path):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.2 GiB for an array")

    monkeypatch.setattr(cli, "unsupervised_select", out_of_memory)
    code, out = run_json(capsys, ["select", "--data", lowrank_path, "--method",
                                  "leverage", "--mode", "unsupervised",
                                  "--features", "100000000"])
    assert code == 3
    error = json.loads(out.err)["error"]
    assert error["type"] == "data"
    assert "not enough memory" in error["message"] and "14.2 GiB" in error["message"]
    assert out.out == ""

def test_feature_freq_negative_top_is_usage_error(capsys, lowrank_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["feature-freq", "--data", lowrank_path, "--top", "-1"])
    assert exc.value.code == 2
    assert "error: --top must be at least 0, got -1" in capsys.readouterr().err


def test_feature_freq_top_zero_lists_nothing_on_top(capsys, lowrank_path):
    code, out = run_json(capsys, ["feature-freq", "--data", lowrank_path,
                                  "--folds", "3", "--repeats", "1",
                                  "--features", "5", "--top", "0"])
    assert code == 0, out.err
    doc = json.loads(out.out)
    assert doc["top"] == [] and doc["frequencies"]


def test_more_folds_than_rows_is_still_a_data_error(capsys, lowrank_path):
    code, out = run_json(capsys, ["cv", "--data", lowrank_path, "--folds", "25",
                                  "--repeats", "1", "--features", "3"])
    assert code == 3
    assert json.loads(out.err)["error"]["type"] == "data"


# -------------------------------------------------------------- entry point

def _console_entry_point():
    """The `marginsparse` console script declared in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["marginsparse"]
    module, _, func = spec.partition(":")
    return module, func


def test_console_entry_point(tmp_path):
    """The declared entry point runs as its own process and reads its argv.

    The child runs what the wrapper that `pip install` generates runs, so
    no install is needed: the imported package's directory goes on its
    PYTHONPATH.
    """
    module, func = _console_entry_point()
    code = (f"import sys; sys.argv[0] = 'marginsparse'; "
            f"from {module} import {func}; sys.exit({func}())")
    proc = subprocess.run(
        [sys.executable, "-c", code, "synth", "--n", "4", "--d", "3",
         "--k", "1", "--seed", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


def _child_env():
    """os.environ with the imported package's directory on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(marginsparse.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("method", ["rrqr", "rfe", "uniform"])
def test_nonpositive_r_is_usage_error(tmp_path, method):
    """--features -3 exits 2.  Run in a child process with a timeout, so
    that an endless rfe elimination loop fails instead of hanging."""
    path = tmp_path / "six.svm"
    path.write_text(write_svmlight(gen_synthetic(20, 6, 2, seed=1)))
    proc = subprocess.run(
        [sys.executable, "-m", "marginsparse.cli", "select", "--data", str(path),
         "--method", method, "--features", "-3"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stderr)["error"]["message"] == "need r >= 1, got r=-3"


@pytest.mark.skipif(shutil.which("marginsparse") is None,
                    reason="marginsparse console script is not installed")
def test_installed_console_script():
    proc = subprocess.run(
        ["marginsparse", "synth", "--n", "4", "--d", "3", "--k", "1",
         "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4


# ------------------------------------------------- sparse text, svmlight and CSV

TEXT_CALLS = {
    "select bss": ["select", "--method", "bss"],
    "select leverage": ["select", "--method", "leverage"],
    "select approx-bss": ["select", "--method", "approx-bss", "--t", "60"],
    "verify radius": ["verify", "--bound", "radius", "--method", "bss"],
}


@pytest.fixture(scope="module")
def text_files(tmp_path_factory):
    """The sparse-text corpus as svmlight and as CSV, every value exact."""
    data = _text_corpus()
    folder = tmp_path_factory.mktemp("text")
    svm, csv = folder / "text.svm", folder / "text.csv"
    svm.write_text(write_svmlight(data))
    rows = np.column_stack([data.X.toarray(), data.y])
    csv.write_text("".join(",".join(map(repr, row.tolist())) + "\n" for row in rows))
    return str(svm), str(csv)


def _text_call(capsys, argv, path):
    code, out = run_json(capsys, [*argv, "--data", path, "--features", "200",
                                  "--seed", "902"])
    assert code == 0, out.err
    return json.loads(out.out)


@pytest.mark.parametrize("call", TEXT_CALLS)
def test_sparse_text_calls_densify_nothing(capsys, text_files, refuse_to_dense, call):
    _text_call(capsys, TEXT_CALLS[call], text_files[0])


@pytest.mark.parametrize("call", TEXT_CALLS)
def test_svmlight_and_csv_copies_give_one_result(capsys, text_files, call):
    sparse, dense = (_text_call(capsys, TEXT_CALLS[call], path) for path in text_files)
    for key in ("radius_full", "radius_sampled"):
        assert sparse[key] == pytest.approx(dense[key], rel=1e-10)
    if call == "verify radius":
        return
    assert sparse["selected_indices"] == dense["selected_indices"]
    np.testing.assert_allclose(sparse["weights"], dense["weights"], rtol=1e-12)
    for key in ("margin_full", "margin_sampled", "margin_sampled_full_data"):
        assert sparse[key] == pytest.approx(dense[key], rel=1e-10)
