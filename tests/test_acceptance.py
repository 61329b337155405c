"""End-to-end acceptance suite.

Each test exercises one of the package's headline guarantees at full
protocol scale and records a PASS/FAIL line in the terminal summary via
conftest.record_criterion.  Tests assert after recording, so a red
criterion still leaves a complete scoreboard.

Runtime is dominated by the ratio bound (criterion 5, ~30 s); the two
cross-validation experiments take ~8 s (criterion 6) and ~12 s
(criterion 7), and everything else is seconds.
"""

import math

import numpy as np
import pytest

from marginsparse.bss import bss_select
from marginsparse.data import LabeledDataset, apply_fold, gen_synthetic, make_folds
from marginsparse.geometry import meb_radius
from marginsparse.leverage import leverage_select
from marginsparse.linalg import spectral_error, thin_svd
from marginsparse.pipelines import (
    cv_experiment,
    feature_frequencies,
    select_geometry,
    summarize_cv,
    supervised_select,
    unsupervised_select,
    verify_margin_bound,
)
from marginsparse.sketch import approx_bss_select
from marginsparse.svm import error_rate, solve_dual

from conftest import record_criterion
from oracles import exhaustive_meb, qp_dual_solve


# ---------------------------------------------------------------- helpers

def _orthonormal(d, ell, rng):
    Q, _ = np.linalg.qr(rng.normal(size=(d, ell)))
    return Q


def _rank10_data(seed, n=40, d=200, rank=10, push=0.8):
    """Exactly rank-`rank` dataset with a label direction inside the span."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, rank))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    w = rng.normal(size=rank)
    w /= np.linalg.norm(w)
    Z = Z + push * y[:, None] * w[None, :]
    X = Z @ rng.normal(size=(rank, d))
    return LabeledDataset(X, y)


def _overlap_data(seed, n=120, d=200):
    """Noisy near-separable data with ~60 support vectors at C=1."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    X = rng.normal(size=(n, d))
    X[:, 0] += 4.0 * y
    flips = rng.choice(n, size=n // 20, replace=False)
    y = y.copy()
    y[flips] *= -1.0
    return LabeledDataset(X, y)


def _sv_rank(data, C=1.0):
    model = solve_dual(data, C)
    sv = data.subset(model.support_indices)
    return thin_svd(sv.X).rank


# ------------------------------------------------- 1. spectral guarantees

def test_criterion_01_spectral_suite():
    worst_sigma = 0.0
    worst_err = 0.0
    failures = 0
    for ell, r in ((2, 16), (4, 64), (8, 128)):
        bound = np.sqrt(ell / r)
        for trial in range(50):
            rng = np.random.default_rng(1000 * ell + trial)
            V = _orthonormal(100, ell, rng)
            op = bss_select(V, r)
            sig = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
            err = spectral_error(V, op.indices, op.weights)
            sig_dev = np.max(np.abs(sig - 1.0)) / bound
            worst_sigma = max(worst_sigma, sig_dev)
            worst_err = max(worst_err, err / (3.0 * bound))
            if sig_dev > 1.0 + 1e-9 or err > 3.0 * bound * (1.0 + 1e-9):
                failures += 1
    passed = failures == 0
    record_criterion(
        1, passed,
        f"150 orthonormal bases: worst singular-value deviation "
        f"{worst_sigma:.3f}x sqrt(l/r), worst error {worst_err:.3f}x 3*sqrt(l/r), "
        f"{failures} failures")
    assert passed


# ------------------------------------------- 2/3. margin preservation

def _leverage_draws(ell, eps=0.5, delta=0.05):
    """Leverage draws that give spectral error <= eps with prob. >= 1 - delta.

    r = ceil(4 * l * ln(2 l / delta) / eps^2), the matrix-Bernstein
    row-sampling bound for exact leverage scores (Magdon-Ismail, "Row
    sampling for matrix algorithms via a non-commutative Bernstein bound",
    2010).  eps = 1/2 is where the margin inequality's right-hand side
    falls to 0, so any smaller error makes it non-vacuous; delta = 1/20
    matches the 19/20 seeds that criterion 3 requires.
    """
    return math.ceil(4 * ell * math.log(2 * ell / delta) / eps**2)


def _margin_chain(method, draws):
    """Run the supervised chain on 20 seeds with r = draws(support-vector rank).

    Returns (passes, non-vacuous passes, largest measured error).  A pass is
    non-vacuous when its right-hand side (1 - e/(1-e)) * margin^2 is
    positive, i.e. e < 1/2; otherwise the inequality holds for any margin.
    """
    passes = 0
    nonvacuous = 0
    errs = []
    for seed in range(20):
        data = gen_synthetic(60, 300, 10, seed=seed)
        r = draws(_sv_rank(data))
        rep = supervised_select(data, method, r, seed=seed)
        chk = verify_margin_bound(rep)
        if chk.margin_status == "pass":
            passes += 1
            if chk.margin.rhs > 0:
                nonvacuous += 1
        errs.append(chk.spectral_error)
    return passes, nonvacuous, float(np.max(errs))


def test_criterion_02_margin_bound_deterministic():
    passes, nonvacuous, max_err = _margin_chain("bss", lambda ell: 4 * ell)
    passed = passes == 20
    record_criterion(
        2, passed,
        f"{passes}/20 seeds satisfy margin^2 >= (1 - e/(1-e)) * full margin^2 "
        f"at r = 4*rank, {nonvacuous} with a positive right-hand side "
        f"(largest measured error {max_err:.3f})")
    assert passed


def test_criterion_03_margin_bound_sampled():
    """Leverage sampling meets the margin bound non-vacuously on 19/20 seeds.

    r comes from the support-vector rank l alone, through the sampling
    bound in _leverage_draws (eps = 1/2, delta = 1/20).  A seed counts only
    if its status is "pass" and the right-hand side is positive: at
    e >= 1/2 the inequality holds for any sampled margin and shows nothing.
    """
    passes, nonvacuous, max_err = _margin_chain("leverage", _leverage_draws)
    passed = nonvacuous >= 19
    record_criterion(
        3, passed,
        f"{nonvacuous}/20 seeds satisfy the margin bound with a positive "
        f"right-hand side ({passes} pass in all) with leverage sampling at "
        f"r = ceil(4 l ln(2 l / delta) / eps^2), eps = 1/2, delta = 1/20 "
        f"(largest measured error {max_err:.3f})")
    assert passed


# ------------------------------------------------------- 4. radius bound

def test_criterion_04_radius_bound():
    passes = 0
    worst = 0.0
    for seed in range(20):
        rep = select_geometry(_rank10_data(seed), "bss", 40)
        e, b_full, b_sampled = rep.spectral_error, rep.ball_full.radius, rep.ball_sampled.radius
        literal = b_sampled**2 <= (1.0 + e) * b_full**2 * (1.0 + 1e-9)
        if verify_margin_bound(rep).radius.status == "pass" and literal:
            passes += 1
        worst = max(worst, b_sampled**2 / ((1.0 + e) * b_full**2))
    passed = passes == 20
    record_criterion(
        4, passed,
        f"{passes}/20 rank-10 datasets satisfy sampled B^2 <= (1+e) B^2 "
        f"(worst ratio {worst:.3f})")
    assert passed


# ------------------------------------------------- 5. radius/margin ratio

def test_criterion_05_ratio_bound():
    bss_passes = 0
    lev_passes = 0
    for seed in range(20):
        data = _rank10_data(seed)
        rep_b = unsupervised_select(data, "bss", 160)
        chk_b = verify_margin_bound(rep_b)
        if chk_b.margin_status == "pass" and chk_b.ratio_status == "pass":
            bss_passes += 1
        rep_l = unsupervised_select(data, "leverage", 256, seed=seed)
        chk_l = verify_margin_bound(rep_l)
        if chk_l.ratio_status == "pass":
            lev_passes += 1
    passed = bss_passes == 20 and lev_passes >= 19
    record_criterion(
        5, passed,
        f"ratio bound (B~/margin~)^2 <= (1+e)/(1-e) * (B/margin)^2: "
        f"deterministic {bss_passes}/20, sampled {lev_passes}/20")
    assert passed


# ------------------------------------------- 6. cross-validated error

def test_criterion_06_cv_error():
    data = gen_synthetic(200, 1000, 40, seed=0)
    cells = cv_experiment(data, ("bss", "leverage", "rfe", "rrqr"), 30,
                          folds=10, repeats=10, seed=1, C=1.0,
                          mode="supervised")
    stats = summarize_cv(cells)
    means = {m: stats[(m, 30)]["mean_error"]
             for m in ("bss", "leverage", "rfe", "rrqr")}
    passed = all(v <= 0.02 for v in means.values())
    detail = ", ".join(f"{m} {v:.4f}" for m, v in means.items())
    record_criterion(6, passed, f"mean 10x10-fold CV error at r=30: {detail}")
    assert passed


# ------------------------------------- 7. most-frequent feature identity

def test_criterion_07_feature_frequency():
    ok_cells = 0
    misses = []
    for k in (40, 50):
        data = gen_synthetic(n=200, d=1000, k=k, seed=k)
        cells = cv_experiment(data, ("bss", "leverage", "rfe", "rrqr"),
                              (30, 40), folds=10, repeats=10, seed=1,
                              C=1.0, mode="supervised")
        freqs = feature_frequencies(cells, data.d)
        for (method, r), freq in sorted(freqs.items()):
            order = np.argsort(freq, kind="stable")[::-1][:5]
            top5 = set((order + 1).tolist())
            if top5 <= set(range(1, k + 1)) and k in top5:
                ok_cells += 1
            else:
                misses.append(f"{method}(k={k},r={r})")
    passed = ok_cells == 16
    detail = f"{ok_cells}/16 cells have an all-informative top-5 containing feature k"
    if misses:
        detail += "; missed: " + ", ".join(misses)
    record_criterion(7, passed, detail)
    assert passed


# ------------------------------------------------- 8. solver equivalence

def test_criterion_08_solver_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        X = rng.normal(size=(n, d))
        X[:, 0] += 1.5 * y
        C = (0.1, 1.0, 10.0)[trial % 3]
        data = LabeledDataset(X, y)
        model = solve_dual(data, C, kkt_tol=1e-8)
        _, ref = qp_dual_solve(X, y, C)
        Q = (y[:, None] * X) @ (y[:, None] * X).T
        ours = model.alpha.sum() - 0.5 * model.alpha @ Q @ model.alpha
        rel = abs(ours - ref) / max(abs(ref), 1e-12)
        worst = max(worst, rel)

    two = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([1.0, -1.0]))
    m2 = solve_dual(two, C=10.0, kkt_tol=1e-10)
    analytic_ok = (np.max(np.abs(m2.alpha - 0.5)) <= 1e-6
                   and abs(m2.margin - 1.0) <= 1e-6)
    passed = worst <= 1e-4 and analytic_ok
    record_criterion(
        8, passed,
        f"20 projected-gradient oracle instances, worst relative dual "
        f"objective gap {worst:.2e}; analytic two-point case "
        f"{'exact' if analytic_ok else 'WRONG'}")
    assert passed


# ------------------------------------------------- 9. sketched selection

def test_criterion_09_sketch_trend():
    diffs8 = []
    err4s, err8s = [], []
    for seed in range(5):
        data = _overlap_data(seed)
        plan = make_folds(data.n, 5, 1, seed)
        fold_err = {"exact": [], "t4": [], "t8": []}
        for fold in range(5):
            train, test = apply_fold(data, plan, 0, fold)
            model = solve_dual(train, 1.0)
            sv = train.subset(model.support_indices)
            ell = thin_svd(sv.X).rank
            r = 2 * ell
            ops = {
                "exact": bss_select(thin_svd(sv.X).V, r),
                "t4": approx_bss_select(sv.X, 4 * ell, r, seed=100 * seed + fold),
                "t8": approx_bss_select(sv.X, 8 * ell, r, seed=100 * seed + fold),
            }
            for name, op in ops.items():
                m = solve_dual(LabeledDataset(op.apply(train.X), train.y), 1.0)
                fold_err[name].append(
                    error_rate(m, LabeledDataset(op.apply(test.X), test.y)))
        e_exact = float(np.mean(fold_err["exact"]))
        e4 = float(np.mean(fold_err["t4"]))
        e8 = float(np.mean(fold_err["t8"]))
        diffs8.append(abs(e8 - e_exact))
        err4s.append(e4)
        err8s.append(e8)
    close = max(diffs8) <= 0.05
    trend = np.mean(err8s) <= np.mean(err4s) + 0.02
    passed = close and trend
    record_criterion(
        9, passed,
        f"sketched selection: max |err(t=8l) - err(exact)| = {max(diffs8):.3f}, "
        f"mean err t=8l {np.mean(err8s):.3f} vs t=4l {np.mean(err4s):.3f}")
    assert passed


# ----------------------------------------------------- 10. ball radius

def test_criterion_10_meb_oracle():
    worst = 0.0
    failures = 0
    for trial in range(50):
        rng = np.random.default_rng(9000 + trial)
        P = rng.normal(size=(10, 2))
        exact, _ = exhaustive_meb(P)
        ball = meb_radius(P, delta=1e-3)
        ratio = ball.radius / exact
        worst = max(worst, ratio)
        if not (exact * (1.0 - 1e-9) <= ball.radius <= exact * (1.0 + 1e-3) * (1.0 + 1e-9)):
            failures += 1
    passed = failures == 0
    record_criterion(
        10, passed,
        f"50 planar 10-point sets: ball radius within (1+1e-3) of exhaustive "
        f"oracle (worst ratio {worst:.6f}, {failures} failures)")
    assert passed
