import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import marginsparse
from marginsparse import cli
from marginsparse.data import LabeledDataset, gen_synthetic, write_svmlight


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


def test_verify_radius(capsys, lowrank_path):
    code, out = run_json(capsys, [
        "verify", "--bound", "radius", "--data", lowrank_path,
        "--method", "bss", "--features", "20",
    ])
    assert code == 0
    doc = json.loads(out.out)
    assert doc["status"] == "pass"
    assert doc["radius_sampled"] > 0


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
