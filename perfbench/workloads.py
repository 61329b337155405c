"""The benchmark's workloads: inputs from a seed, operations, output checks.

An operation is one top-level public call: one ``cv_experiment``, one
``unsupervised_select`` plus ``verify_margin_bound``, or one in-process
``marginsparse.cli.main``.  Every call goes through a module attribute
(``pipelines.cv_experiment``, ``cli.main``) so that the tracer's wrappers
see it.  Checks use only guarantees the package states and run outside
the timed region; ``digest`` is what the output fingerprint hashes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import marginsparse.cli as cli
import marginsparse.data as data_mod
import marginsparse.linalg as linalg
import marginsparse.pipelines as pipelines
import marginsparse.svm as svm

from textgen import write_techtc_like

SCHEMA = "margin-sparse/1"
SINGULAR_SLACK = 1e-9  # same slack as `marginsparse verify --bound spectral`


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object]


def sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def rounded(x):
    """A margin or radius to 1e-9, None when not finite."""
    x = float(x)
    return round(x, 9) if math.isfinite(x) else None


# -- checks ----------------------------------------------------------------

def operator_problems(indices, weights, r) -> list:
    indices, weights = np.asarray(indices), np.asarray(weights, dtype=float)
    problems = []
    if indices.size != r or weights.size != r:
        problems.append(f"{indices.size} selections, expected exactly {r}")
    if not (np.all(np.isfinite(weights)) and np.all(weights > 0)):
        problems.append("weights not all positive and finite")
    return problems


def window_problems(V, indices, weights) -> list:
    """Every singular value of R^T V inside [1 - sqrt(l/r), 1 + sqrt(l/r)]."""
    ell, r = V.shape[1], len(indices)
    M = V[np.asarray(indices)] * np.asarray(weights, dtype=float)[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    lo, hi = 1.0 - math.sqrt(ell / r), 1.0 + math.sqrt(ell / r)
    if s.min() < lo - SINGULAR_SLACK or s.max() > hi + SINGULAR_SLACK:
        return [f"singular values [{s.min():.12g}, {s.max():.12g}] leave [{lo:.12g}, {hi:.12g}]"]
    return []


def select_op(name, data, method, r, seed):
    """unsupervised_select plus verify_margin_bound on an in-memory dataset."""

    def run():
        report = pipelines.unsupervised_select(data, method, r, seed=seed)
        return report, pipelines.verify_margin_bound(report)

    def check(out):
        report, bounds = out
        problems = operator_problems(report.selected_indices, report.weights, r)
        if method == "bss":
            V = linalg.thin_svd(data.X).V
            problems += window_problems(V, report.selected_indices, report.weights)
        if not (report.margin_full > 0 and report.margin_sampled > 0):
            problems.append("non-positive margin")
        if not math.isfinite(report.spectral_error):
            problems.append("spectral error not measured")
        return problems

    def digest(out):
        report, bounds = out
        return [report.selected_indices.tolist(), rounded(report.margin_full),
                rounded(report.margin_sampled), bounds.margin_status, bounds.ratio_status]

    return Op(name, run, check, digest)


# -- cv-grid -----------------------------------------------------------------

CV_SHAPE = (200, 1000, 40)          # gen_synthetic(n, d, k)
CV_DATA_SEED = 0                    # criterion 6's dataset
CV_METHODS = ("bss", "rrqr", "rfe")
CV_FEATURES = (30, 40)
CV_FOLDS, CV_REPEATS = 10, 1
SKIP_ALLOWED = "single-class training fold"


def cv_grid(seed, workdir):
    """One operation: the whole grid, with the no-selection baseline."""
    data = data_mod.gen_synthetic(*CV_SHAPE, seed=CV_DATA_SEED)

    def run():
        return pipelines.cv_experiment(
            data, CV_METHODS, CV_FEATURES, folds=CV_FOLDS, repeats=CV_REPEATS,
            seed=seed, mode="supervised", include_full=True, workers=1)

    def check(cells):
        expected = CV_FOLDS * CV_REPEATS * (len(CV_METHODS) * len(CV_FEATURES) + 1)
        problems = [] if len(cells) == expected else [f"{len(cells)} cells, expected {expected}"]
        for c in cells:
            where = f"{c.method} r={c.r} repeat {c.repeat} fold {c.fold}"
            if c.skipped:
                if c.reason != SKIP_ALLOWED:
                    problems.append(f"{where} skipped: {c.reason}")
                continue
            if not (0.0 <= c.error <= 1.0 and c.margin_sampled > 0):
                problems.append(f"{where}: error {c.error}, margin {c.margin_sampled}")
            if c.method in ("rrqr", "rfe") and len(c.selected) != c.r:
                problems.append(f"{where}: {len(c.selected)} features, expected {c.r}")
        return problems

    def digest(cells):
        return [[c.method, c.r, c.repeat, c.fold,
                 None if c.selected is None else c.selected.tolist(),
                 rounded(c.margin_sampled), rounded(c.error)] for c in cells]

    return [Op("cv grid", run, check, digest)]


# -- select-tall ---------------------------------------------------------------

# (n, d, r): two shapes whose right basis V is tall and thin, where BSS time
# goes to scoring rows, and one with a wide ell, where it goes to eigh.
TALL_SHAPES = ((50, 4000, 400), (20, 20000, 80), (80, 400, 320))


def select_tall(seed, workdir):
    ops = []
    for i, (n, d, r) in enumerate(TALL_SHAPES):
        data = data_mod.gen_synthetic(n, d, min(40, d), seed=sub_seed(seed, 1, i))
        for method in ("bss", "leverage"):
            ops.append(select_op(f"{method} {n}x{d} r={r}", data, method, r,
                                 sub_seed(seed, 2, i)))
    return ops


# -- sparse-text ---------------------------------------------------------------

TEXT_SHAPE = (100, 4000, 60)   # documents, vocabulary, tokens per document
TEXT_CORPUS_SEED = 0
TEXT_R, TEXT_SKETCH_ROWS = 200, 60


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def sparse_text(seed, workdir):
    path = str(workdir / "techtc-like.svm")
    write_techtc_like(path, *TEXT_SHAPE, seed=TEXT_CORPUS_SEED)
    common = ["--data", path, "--features", str(TEXT_R), "--seed", str(seed)]

    def basis(method):
        """Right basis the supervised selector saw: that of the support
        vectors, or of their Gaussian sketch drawn from the same seed."""
        ds = data_mod.load_dataset(path)
        X = linalg.to_dense(ds.subset(svm.solve_dual(ds).support_indices).X)
        if method == "approx-bss":
            X = np.random.default_rng(seed).standard_normal((TEXT_SKETCH_ROWS, X.shape[0])) @ X
        return linalg.thin_svd(X).V

    def op(argv, method):
        def run():
            return _cli(argv + common)

        def check(out):
            code, text, err = out
            if code != 0:
                return [f"exit code {code}: {err.strip()}"]
            payload = json.loads(text)
            if payload.get("schema") != SCHEMA:
                return [f"schema {payload.get('schema')!r}"]
            if argv[0] == "verify":
                ok = all(math.isfinite(payload[k]) for k in ("radius_full", "radius_sampled", "spectral_error"))
                return [] if ok else ["radius check incomplete"]
            idx, w = payload["selected_indices"], payload["weights"]
            problems = operator_problems(idx, w, TEXT_R)
            if method in ("bss", "approx-bss") and not problems:
                problems += window_problems(basis(method), idx, w)
            return problems

        def digest(out):
            code, text, _ = out
            if code != 0:
                return code
            p = json.loads(text)
            if argv[0] == "verify":
                return [rounded(p["radius_full"]), rounded(p["radius_sampled"]),
                        rounded(p["spectral_error"]), p["status"]]
            return [p["selected_indices"], rounded(p["margin_full"]),
                    rounded(p["margin_sampled"]), p["bound_checks"]]

        return Op(" ".join(argv[:3]), run, check, digest)

    return [
        op(["select", "--method", "bss"], "bss"),
        op(["select", "--method", "leverage"], "leverage"),
        op(["select", "--method", "approx-bss", "--t", str(TEXT_SKETCH_ROWS)], "approx-bss"),
        op(["verify", "--bound", "radius", "--method", "bss"], "bss"),
    ]


WORKLOADS = {
    "cv-grid": cv_grid,
    "select-tall": select_tall,
    "sparse-text": sparse_text,
}
