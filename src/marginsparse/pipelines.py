"""Feature-selection protocols, baselines, and bound verification.

Two protocols:

* supervised — solve the SVM on the full training data, keep only the
  support vectors, select columns from the right singular basis of the
  support-vector matrix, then recalibrate the SVM on the sampled
  support-vector set.
* unsupervised — select columns from the right singular basis of the whole
  training matrix (labels never touched), then solve on the sampled data.

Methods: bss (deterministic), leverage (seeded), approx-bss (sketched),
plus unweighted baselines uniform / rrqr / rfe.  Baselines feed raw
columns to the solver; only bss/leverage/approx-bss carry weights and a
measured spectral error, and only for those does verify_margin_bound have
something to check.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError, NumericalError
from .bss import bss_select
from .data import LabeledDataset, make_folds, apply_fold
from .geometry import meb_radius
from .leverage import leverage_select
from .linalg import spectral_norm, thin_svd, to_dense
from .operators import SamplingOperator
from .sketch import approx_bss_select
from .svm import SvmModel, error_rate, solve_dual

WEIGHTED_METHODS = ("bss", "leverage", "approx-bss")
BASELINE_METHODS = ("uniform", "rrqr", "rfe")
METHODS = WEIGHTED_METHODS + BASELINE_METHODS


def uniform_select(d: int, r: int, seed: int) -> np.ndarray:
    """r distinct feature indices, uniform without replacement."""
    if r > d:
        raise ValueError(f"cannot pick {r} of {d} features without replacement")
    return np.random.default_rng(seed).choice(d, size=r, replace=False)


def rrqr_select(X, r: int) -> np.ndarray:
    """First r pivot columns of a column-pivoted QR of X."""
    M = to_dense(X)
    if r > M.shape[1]:
        raise ValueError(f"cannot pick {r} of {M.shape[1]} columns")
    _, _, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    return piv[:r].astype(np.intp)


def rfe_select(data: LabeledDataset, r: int, C: float = 1.0,
               chunk_fraction: float = 0.1, kkt_tol: float = 1e-4) -> np.ndarray:
    """Recursive feature elimination: repeatedly drop the smallest-|w_j| chunk.

    Each round solves the dual on the surviving columns and removes the
    max(1, ceil(chunk_fraction * remaining)) features with the smallest
    absolute weight, until r remain.  Supervised only.
    """
    if not (0.0 <= chunk_fraction < 1.0):
        raise ValueError("chunk_fraction must be in [0, 1)")
    if r >= data.d:
        raise ValueError(f"need r < d, got r={r}, d={data.d}")
    X = to_dense(data.X)
    active = np.arange(data.d)
    while active.size > r:
        try:
            model = solve_dual(LabeledDataset(X[:, active], data.y), C, kkt_tol)
        except Exception as e:
            raise NumericalError(
                f"solver failed with {active.size} features remaining "
                f"(target {r}): {e}"
            ) from e
        k = max(1, math.ceil(chunk_fraction * active.size))
        k = min(k, active.size - r)
        drop = np.argsort(np.abs(model.w), kind="stable")[:k]
        active = np.delete(active, drop)
    return active


@dataclass(frozen=True)
class SelectionReport:
    method: str
    mode: str
    r: int
    operator: SamplingOperator
    margin_full: float
    margin_sampled: float
    margin_sampled_full_data: float
    radius_full: float
    radius_sampled: float
    spectral_error: float | None
    seed: int | None
    C: float
    meb_delta: float
    n_support: int
    model_sampled: SvmModel

    @property
    def selected_indices(self) -> np.ndarray:
        return self.operator.indices

    @property
    def weights(self) -> np.ndarray:
        return self.operator.weights


def _select_operator(method, source, V, r, seed, *, C, t, chunk_fraction,
                     kkt_tol) -> SamplingOperator:
    """Dispatch one selection method; source is the matrix V came from."""
    d = V.shape[0]
    if method == "bss":
        return bss_select(V, r)
    if method == "leverage":
        if seed is None:
            raise ValueError("leverage selection needs a seed")
        return leverage_select(V, r, seed)
    if method == "approx-bss":
        if seed is None:
            raise ValueError("approx-bss needs a seed for the sketch")
        if t is None:
            raise ValueError("approx-bss needs t (sketch rows)")
        return approx_bss_select(source.X, t, r, seed)
    if method == "uniform":
        if seed is None:
            raise ValueError("uniform selection needs a seed")
        idx = uniform_select(d, r, seed)
    elif method == "rrqr":
        idx = rrqr_select(source.X, r)
    elif method == "rfe":
        idx = rfe_select(source, r, C=C, chunk_fraction=chunk_fraction,
                         kkt_tol=kkt_tol)
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return SamplingOperator(d, idx, np.ones(idx.size))


def _finish_report(method, op, source, V, full_margin_data, *, C, kkt_tol,
                   meb_delta, compute_radii):
    """Shared tail of both protocols: sampled solves, error, radii.

    V is the right singular basis of source.X; the spectral error of op is
    measured on it.
    """
    sampled = LabeledDataset(op.apply(source.X), source.y)
    model_sampled = solve_dual(sampled, C, kkt_tol)
    if full_margin_data is None:
        margin_sampled_full = model_sampled.margin
    else:
        full_sampled = LabeledDataset(op.apply(full_margin_data.X), full_margin_data.y)
        margin_sampled_full = solve_dual(full_sampled, C, kkt_tol).margin
    if method in WEIGHTED_METHODS:
        M = V[op.indices] * op.weights[:, None]  # R^T V without the d x r R
        err = spectral_norm(V.T @ V - M.T @ M)
    else:
        err = None
    if compute_radii:
        radius_full = meb_radius(source.X, meb_delta).radius
        radius_sampled = meb_radius(sampled.X, meb_delta).radius
    else:
        radius_full = radius_sampled = float("nan")
    return model_sampled, margin_sampled_full, err, radius_full, radius_sampled


def supervised_select(data: LabeledDataset, method: str, r: int, C: float = 1.0,
                      seed: int | None = None, *, t: int | None = None,
                      chunk_fraction: float = 0.1, kkt_tol: float = 1e-4,
                      meb_delta: float = 1e-3,
                      compute_radii: bool = True) -> SelectionReport:
    """Select on the support-vector set, recalibrate on it, report margins.

    margin_full is the margin of the SVM solved on the support vectors in
    the original feature space (identical to the full-data margin for a
    converged solve); margin_sampled comes from the recalibrated solve on
    the sampled support-vector set.
    """
    full_model = solve_dual(data, C, kkt_tol)
    sv = full_model.support_indices
    if sv.size < 2:
        raise DataError(f"only {sv.size} support vectors; nothing to select from")
    sv_data = data.subset(sv)
    if not sv_data.has_both_classes:
        raise DataError("support-vector set is single-class; margin undefined")
    sv_model = solve_dual(sv_data, C, kkt_tol)
    V = thin_svd(sv_data.X).V
    op = _select_operator(method, sv_data, V, r, seed, C=C, t=t,
                          chunk_fraction=chunk_fraction, kkt_tol=kkt_tol)
    model_sampled, m_sf, err, rad_f, rad_s = _finish_report(
        method, op, sv_data, V, data, C=C, kkt_tol=kkt_tol,
        meb_delta=meb_delta, compute_radii=compute_radii)
    return SelectionReport(
        method=method, mode="supervised", r=op.r, operator=op,
        margin_full=sv_model.margin, margin_sampled=model_sampled.margin,
        margin_sampled_full_data=m_sf, radius_full=rad_f, radius_sampled=rad_s,
        spectral_error=err, seed=seed, C=float(C), meb_delta=meb_delta,
        n_support=int(sv.size), model_sampled=model_sampled)


def unsupervised_select(data: LabeledDataset, method: str, r: int, C: float = 1.0,
                        seed: int | None = None, *, t: int | None = None,
                        kkt_tol: float = 1e-4, meb_delta: float = 1e-3,
                        compute_radii: bool = True) -> SelectionReport:
    """Select from the full data matrix; labels are used only to fit SVMs."""
    if method == "rfe":
        raise ValueError("rfe requires supervised mode (it uses the labels)")
    full_model = solve_dual(data, C, kkt_tol)
    V = thin_svd(data.X).V
    op = _select_operator(method, data, V, r, seed, C=C, t=t,
                          chunk_fraction=0.1, kkt_tol=kkt_tol)
    model_sampled, m_sf, err, rad_f, rad_s = _finish_report(
        method, op, data, V, None, C=C, kkt_tol=kkt_tol,
        meb_delta=meb_delta, compute_radii=compute_radii)
    return SelectionReport(
        method=method, mode="unsupervised", r=op.r, operator=op,
        margin_full=full_model.margin, margin_sampled=model_sampled.margin,
        margin_sampled_full_data=m_sf, radius_full=rad_f, radius_sampled=rad_s,
        spectral_error=err, seed=seed, C=float(C), meb_delta=meb_delta,
        n_support=int(full_model.support_indices.size),
        model_sampled=model_sampled)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking the margin and radius/margin-ratio inequalities.

    Each status is 'pass', 'fail', or 'na' (not applicable: missing or
    vacuous, e.g. spectral error >= 1 or an unweighted baseline).
    """

    spectral_error: float | None
    margin_full: float
    margin_sampled: float
    radius_full: float
    radius_sampled: float
    margin_status: str
    margin_lhs: float
    margin_rhs: float
    ratio_status: str
    ratio_lhs: float
    ratio_rhs: float
    epsilon_hat: float


def verify_margin_bound(report: SelectionReport, slack: float = 1e-6) -> BoundReport:
    """Test the measured-error margin inequality and the B^2/margin^2 ratio.

    Margin:  margin_sampled^2 >= (1 - e/(1-e)) * margin_full^2   with
    e = measured spectral error; vacuous (na) when e >= 1.

    Ratio:  (B~/margin_sampled)^2 <= ((1+eh)/(1-eh)) * (B/margin_full)^2
    where eh combines the margin factor e/(1-e) with the radius factor
    (1+delta)^2 (1+e) - 1; the (1+delta)^2 covers the approximate ball.
    Requires radii to have been computed.
    """
    e = report.spectral_error
    nan = float("nan")
    if e is None:
        return BoundReport(e, report.margin_full, report.margin_sampled,
                           report.radius_full, report.radius_sampled,
                           "na", nan, nan, "na", nan, nan, nan)
    gf, gs = report.margin_full, report.margin_sampled
    margins_ok = np.isfinite(gf) and np.isfinite(gs)
    if e >= 1.0 or not margins_ok:
        margin_status, lhs, rhs = "na", nan, nan
    else:
        lhs = gs**2
        rhs = (1.0 - e / (1.0 - e)) * gf**2
        margin_status = "pass" if lhs >= rhs - slack * abs(rhs) else "fail"

    eps_margin = e / (1.0 - e) if e < 1.0 else float("inf")
    eps_radius = (1.0 + report.meb_delta) ** 2 * (1.0 + e) - 1.0
    eps_hat = max(eps_margin, eps_radius)
    radii_ok = np.isfinite(report.radius_full) and np.isfinite(report.radius_sampled)
    if eps_hat >= 1.0 or not radii_ok or not margins_ok or gf <= 0 or gs <= 0:
        ratio_status, rlhs, rrhs = "na", nan, nan
    else:
        rlhs = report.radius_sampled**2 / gs**2
        rrhs = (1.0 + eps_hat) / (1.0 - eps_hat) * report.radius_full**2 / gf**2
        ratio_status = "pass" if rlhs <= rrhs * (1.0 + slack) else "fail"
    return BoundReport(e, gf, gs, report.radius_full, report.radius_sampled,
                       margin_status, lhs, rhs, ratio_status, rlhs, rrhs,
                       eps_hat)


# ---------------------------------------------------------------------------
# Cross-validation engine


@dataclass(frozen=True)
class CvCell:
    method: str
    r: int | None
    repeat: int
    fold: int
    error: float
    margin_sampled: float
    selected: np.ndarray | None
    skipped: bool
    reason: str = ""


_CV_CTX = None


def _cv_init(ctx):
    global _CV_CTX
    _CV_CTX = ctx


def _cv_run(task):
    method, r, repeat, fold, cell_seed = task
    data, plan, mode, C, t, chunk_fraction, kkt_tol = _CV_CTX
    train, test = apply_fold(data, plan, repeat, fold)
    if not train.has_both_classes:
        return CvCell(method, r, repeat, fold, float("nan"), float("nan"),
                      None, True, "single-class training fold")
    try:
        if method == "full":
            model = solve_dual(train, C, kkt_tol)
            err = error_rate(model, test)
            return CvCell(method, None, repeat, fold, err, model.margin,
                          None, False)
        if mode == "supervised":
            rep = supervised_select(train, method, r, C=C, seed=cell_seed,
                                    t=t, chunk_fraction=chunk_fraction,
                                    kkt_tol=kkt_tol, compute_radii=False)
        else:
            rep = unsupervised_select(train, method, r, C=C, seed=cell_seed,
                                      t=t, kkt_tol=kkt_tol,
                                      compute_radii=False)
        sampled_test = LabeledDataset(rep.operator.apply(test.X), test.y)
        err = error_rate(rep.model_sampled, sampled_test)
        return CvCell(method, r, repeat, fold, err, rep.margin_sampled,
                      rep.operator.selected_features(), False)
    except (DataError, NumericalError, ValueError) as exc:
        return CvCell(method, r, repeat, fold, float("nan"), float("nan"),
                      None, True, str(exc))


def cv_experiment(data: LabeledDataset, methods, r, folds: int = 10,
                  repeats: int = 10, seed: int =  0, C: float = 1.0,
                  mode: str = "supervised", t: int | None = None,
                  chunk_fraction: float = 0.1, kkt_tol: float = 1e-4,
                  include_full: bool = False, workers: int = 1):
    """Run a (method x r) grid of repeated k-fold cross-validation.

    The per-cell selection seed is derived from (seed, repeat, fold) with a
    seed sequence, so cells are reproducible independently of execution
    order and worker count.  Returns a flat list of CvCell.
    """
    if isinstance(methods, str):
        methods = [methods]
    r_list = [r] if np.isscalar(r) else list(r)
    plan = make_folds(data.n, folds, repeats, seed)
    tasks = []
    for method in methods:
        for rv in r_list:
            for repeat in range(repeats):
                for fold in range(folds):
                    ss = np.random.SeedSequence(seed, spawn_key=(repeat, fold))
                    cell_seed = int(ss.generate_state(1)[0])
                    tasks.append((method, rv, repeat, fold, cell_seed))
    if include_full:
        for repeat in range(repeats):
            for fold in range(folds):
                tasks.append(("full", None, repeat, fold, 0))

    ctx = (data, plan, mode, C, t, chunk_fraction, kkt_tol)
    if workers <= 1:
        _cv_init(ctx)
        return [_cv_run(tk) for tk in tasks]
    with ProcessPoolExecutor(max_workers=workers, initializer=_cv_init,
                             initargs=(ctx,)) as pool:
        return list(pool.map(_cv_run, tasks, chunksize=8))


def summarize_cv(cells):
    """Aggregate cells into per-(method, r) mean/std error and skip counts."""
    groups = {}
    for c in cells:
        groups.setdefault((c.method, c.r), []).append(c)
    out = {}
    for key, grp in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        errs = np.array([c.error for c in grp if not c.skipped])
        out[key] = {
            "mean_error": float(errs.mean()) if errs.size else float("nan"),
            "std_error": float(errs.std()) if errs.size else float("nan"),
            "cells": len(grp),
            "skipped": sum(c.skipped for c in grp),
        }
    return out


def feature_frequencies(cells, d: int):
    """How many cells selected each feature, per (method, r) group."""
    groups = {}
    for c in cells:
        if c.skipped or c.selected is None:
            continue
        counts = groups.setdefault((c.method, c.r), np.zeros(d, dtype=int))
        counts[c.selected] += 1
    return groups
