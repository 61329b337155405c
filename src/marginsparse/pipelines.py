"""Feature-selection protocols, baselines, and bound verification.

One protocol serves select and every CV fold: solve the SVM on the
training data; take the source, which is its support-vector set in
supervised mode and the whole training matrix (labels never touched) in
unsupervised mode; select columns from the right singular basis of the
source; solve the SVM again on the sampled source.  A CV fold adds each
cell's test error.  supervised_select and unsupervised_select add the
spectral error, the enclosing balls of the source and of its sampled copy
and, in supervised mode, the margin re-solved on the support vectors and
the one solved on the sampled full data.  select_geometry makes the
selection and those measures without any solve.

Methods: bss (deterministic), leverage (seeded), approx-bss (sketched),
plus unweighted baselines uniform / rrqr / rfe.  Baselines feed raw
columns to the solver; only bss/leverage/approx-bss carry weights and a
measured spectral error.  verify_margin_bound decides the margin, radius
and ratio bounds of any report in one place, and marks a bound na, with
its reason, when the report cannot support it.
"""

from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgeqp3

from .errors import DataError, NumericalError
from .bss import bss_select
from .data import LabeledDataset, make_folds, apply_fold
from .geometry import EnclosingBall, meb_radius
from .leverage import leverage_select
from .linalg import _one_blas_thread, spectral_error, thin_svd, to_dense
from .operators import SamplingOperator
from .sketch import gaussian_sketch
from .svm import (SvmModel, _check_dual, _check_solver_params, _smo, error_rate,
                  solve_dual)

WEIGHTED_METHODS = ("bss", "leverage", "approx-bss")
BASELINE_METHODS = ("uniform", "rrqr", "rfe")
METHODS = WEIGHTED_METHODS + BASELINE_METHODS
MODES = ("supervised", "unsupervised")

# Relative slack verify_margin_bound allows every inequality for rounding.
BOUND_SLACK = 1e-6

# A CV fold whose training matrix has fewer entries (n_train * d) than this
# runs its BLAS on one thread: its calls are too small to repay a second.
ONE_THREAD_FOLD_ENTRIES = 4_000_000


def uniform_select(d: int, r: int, seed: int) -> np.ndarray:
    """r distinct feature indices, uniform without replacement."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if r > d:
        raise ValueError(f"cannot pick {r} of {d} features without replacement")
    return np.random.default_rng(seed).choice(d, size=r, replace=False)


def _per_target(r, results):
    """A grid call's results as the caller asked: a list for a sequence r;
    for a scalar r, its one result, or its error raised."""
    if not np.isscalar(r):
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def rrqr_select(X, r):
    """First r pivot columns of a column-pivoted QR of X.

    r may be an int or a sequence of ints.  A sequence shares one QR and
    returns a list holding, per target, its pivot columns or the ValueError
    that target alone raised (r below 1 or above the number of columns).
    """
    M = to_dense(X)
    targets = [r] if np.isscalar(r) else list(r)
    d = M.shape[1]
    results = [ValueError(f"need r >= 1, got r={rv}") if rv < 1
               else ValueError(f"cannot pick {rv} of {d} columns") if rv > d
               else None
               for rv in targets]
    if any(res is None for res in results):
        # Only the pivots are read: no R and no Q.  The workspace comes from
        # the same query scipy.linalg.qr makes, so the pivots match its own.
        A = np.array(np.asarray_chkfinite(M), order="F")
        lwork = int(dgeqp3(A, lwork=-1, overwrite_a=1)[3][0])  # a query: A is untouched
        _, jpvt, _, _, info = dgeqp3(A, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgeqp3")
        piv = jpvt.astype(np.intp) - 1  # LAPACK's pivots are 1-based
        results = [piv[:rv] if res is None else res
                   for rv, res in zip(targets, results)]
    return _per_target(r, results)


def rfe_select(data: LabeledDataset, r, C: float = 1.0,
               chunk_fraction: float = 0.1, kkt_tol: float = 1e-4):
    """Recursive feature elimination: repeatedly drop the smallest-|w_j| chunk.

    Each round solves the dual on the surviving columns and removes the
    max(1, ceil(chunk_fraction * remaining)) features with the smallest
    absolute weight, capped so that exactly r remain at the end.
    Supervised only.

    r may be an int or a sequence of ints.  All targets follow one
    elimination path; a target leaves it at the round whose chunk would
    reach it, dropping only down to r there, so a sequence costs the
    rounds of its smallest target.  A sequence returns a list holding, per
    target, the surviving indices or the error that target alone raised:
    r < 1, r >= d, or a failed solve before the target was reached.

    A path of n points forms one n x n Gram matrix K.  Each round starts
    its pair steps from the previous round's alpha, which stays feasible
    because the points, labels and C do not change, and takes at most
    10 n^2 of them, as solve_dual does.  After a cut K loses the dropped
    columns' outer products; it is formed again from the surviving columns
    whenever they have halved since K was last formed, which bounds its
    drift.
    """
    if not (0.0 <= chunk_fraction < 1.0):
        raise ValueError("chunk_fraction must be in [0, 1)")
    targets = [r] if np.isscalar(r) else list(r)
    results = [ValueError(f"need r >= 1, got r={rv}") if rv < 1
               else ValueError(f"need r < d, got r={rv}, d={data.d}") if rv >= data.d
               else None
               for rv in targets]
    pending = [i for i, res in enumerate(results) if res is None]
    if not pending:
        return _per_target(r, results)
    active = np.arange(data.d)
    try:
        _check_dual(data, C, kkt_tol)
        X, y = to_dense(data.X), data.y
        K, built, alpha = X @ X.T, active.size, None
        while True:
            alpha = _smo(K, y, C, kkt_tol, 10 * data.n**2, alpha)[0]
            w = X[:, active].T @ (y * alpha)
            k = max(1, math.ceil(chunk_fraction * active.size))
            order = np.argsort(np.abs(w), kind="stable")
            for i in pending:
                excess = active.size - targets[i]
                if excess <= k:
                    results[i] = np.delete(active, order[:excess])
            pending = [i for i in pending if results[i] is None]
            if not pending:
                break
            dropped, active = active[order[:k]], np.delete(active, order[:k])
            if 2 * active.size <= built:
                K, built = X[:, active] @ X[:, active].T, active.size
            else:
                K -= X[:, dropped] @ X[:, dropped].T
    except Exception as e:
        for i in pending:
            results[i] = NumericalError(
                f"solver failed with {active.size} features remaining "
                f"(target {targets[i]}): {e}")
            results[i].__cause__ = e
    return _per_target(r, results)


@dataclass(frozen=True)
class SelectionReport:
    """One selection and what its bounds are decided from.

    select_geometry fills the selection, the spectral error (weighted
    methods only) and the enclosing balls of the source and sampled data;
    supervised_select and unsupervised_select add the SVM solves.  A report
    without solves has nan margins and C, n_support 0 and no model.
    """

    method: str
    mode: str
    r: int
    operator: SamplingOperator
    spectral_error: float | None
    ball_full: EnclosingBall
    ball_sampled: EnclosingBall
    seed: int | None
    margin_full: float = math.nan
    margin_sampled: float = math.nan
    margin_sampled_full_data: float = math.nan
    C: float = math.nan
    n_support: int = 0
    model_sampled: SvmModel | None = None

    @property
    def selected_indices(self) -> np.ndarray:
        return self.operator.indices

    @property
    def weights(self) -> np.ndarray:
        return self.operator.weights


_CELL_ERRORS = (DataError, NumericalError, ValueError)


def _attempt(fn, *args, **kwargs):
    """fn's result, or the error that stops one selection or CV cell."""
    try:
        return fn(*args, **kwargs)
    except _CELL_ERRORS as exc:
        return exc


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")


def _check_method(method, mode=None):
    """Refuse an unknown method, and rfe in unsupervised mode."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if mode == "unsupervised" and method == "rfe":
        raise ValueError("rfe requires supervised mode (it uses the labels)")


def _support_vector_set(data: LabeledDataset, full_model: SvmModel) -> LabeledDataset:
    """The supervised protocol's selection source: full_model's support vectors."""
    sv = full_model.support_indices
    if sv.size < 2:
        raise DataError(f"only {sv.size} support vectors; nothing to select from")
    sv_data = data.subset(sv)
    if not sv_data.has_both_classes:
        raise DataError("support-vector set is single-class; margin undefined")
    return sv_data


def _select_operators(method, source, basis, rs, seed, *, C, t, chunk_fraction,
                      kkt_tol) -> list:
    """Per r in rs, the operator, or the error that stopped that selection.

    source is the dataset selected from; basis() returns the ThinSvd of
    source.X, whose V is its right singular basis, computed on first use.
    rrqr and rfe run one QR or one elimination path for all of rs, and
    approx-bss one sketch and its SVD.
    """
    if method == "rrqr":
        picks = _attempt(rrqr_select, source.X, rs)
    elif method == "rfe":
        picks = _attempt(rfe_select, source, rs, C=C,
                         chunk_fraction=chunk_fraction, kkt_tol=kkt_tol)
    elif seed is None and method != "bss":
        picks = ValueError(f"{method} selection needs a seed")
    elif method == "approx-bss" and t is None:
        picks = ValueError("approx-bss needs t (sketch rows)")
    elif method == "uniform":
        picks = [_attempt(uniform_select, source.d, r, seed) for r in rs]
    else:
        if method == "approx-bss":
            basis = functools.cache(lambda: thin_svd(gaussian_sketch(source.X, t, seed)))
        select = ((lambda r: leverage_select(basis(), r, seed)) if method == "leverage"
                  else (lambda r: bss_select(basis(), r)))
        return [_attempt(select, r) for r in rs]
    if isinstance(picks, Exception):
        return [picks] * len(rs)
    return [idx if isinstance(idx, Exception)
            else SamplingOperator(source.d, idx, np.ones(idx.size)) for idx in picks]


def _protocol(train, mode, methods, r_list, seed, *, C, t, chunk_fraction, kkt_tol):
    """The protocol that select and every CV fold share.

    Solves the SVM on train, selects from the source (its support vectors
    in supervised mode, else train) for each method and r, and solves on
    each sampled source.  Returns the full-train model (or its error), the
    source (or its error), basis() (the ThinSvd of source.X, computed on
    first use) and, per method, for each r (op, the sampled source, the
    model solved on it) or the error that stopped that cell.
    """
    full_model = _attempt(solve_dual, train, C, kkt_tol)
    if isinstance(full_model, Exception):
        source = full_model
    else:
        source = (_attempt(_support_vector_set, train, full_model)
                  if mode == "supervised" else train)
    basis = functools.cache(lambda: thin_svd(source.X))

    def fit(op):
        sampled = LabeledDataset(op.apply(source.X), source.y)
        return op, sampled, solve_dual(sampled, C, kkt_tol)

    fits = {}
    for method in dict.fromkeys(methods):
        refusal = _attempt(_check_method, method, mode)
        if refusal is None and not isinstance(source, Exception):
            ops = _select_operators(method, source, basis, r_list, seed, C=C, t=t,
                                    chunk_fraction=chunk_fraction, kkt_tol=kkt_tol)
        else:
            ops = [refusal or source] * len(r_list)
        fits[method] = [op if isinstance(op, Exception) else _attempt(fit, op)
                        for op in ops]
    return full_model, source, basis, fits


def _measure(method, mode, seed, source, basis, op, sampled_X, meb_delta) -> SelectionReport:
    """The report of op, selected from source, before any margin: the
    spectral error on source's basis (weighted methods only), which also
    spans the centre of source's ball, as the radius bound needs, and the
    balls of source.X and of its sampled copy sampled_X."""
    err = spectral_error(basis(), op.indices, op.weights) if method in WEIGHTED_METHODS else None
    return SelectionReport(
        method=method, mode=mode, r=op.r, operator=op, spectral_error=err,
        ball_full=meb_radius(source.X, meb_delta),
        ball_sampled=meb_radius(sampled_X, meb_delta), seed=seed)


def _select(data, mode, method, r, C, seed, *, t, chunk_fraction, kkt_tol,
            meb_delta) -> SelectionReport:
    """One selection by the protocol, measured, with its margins.  In
    supervised mode margin_full is re-solved on the support vectors and
    margin_sampled_full_data on the sampled full data."""
    _check_mode(mode)
    _check_method(method, mode)
    full_model, source, basis, fits = _protocol(
        data, mode, [method], [r], seed, C=C, t=t, chunk_fraction=chunk_fraction,
        kkt_tol=kkt_tol)
    [fit] = fits[method]
    if isinstance(fit, Exception):
        raise fit
    op, sampled, model_sampled = fit
    if mode == "supervised":
        margin_full, n_support = solve_dual(source, C, kkt_tol).margin, source.n
        full_sampled = LabeledDataset(op.apply(data.X), data.y)
        margin_sampled_full = solve_dual(full_sampled, C, kkt_tol).margin
    else:
        margin_full = full_model.margin
        n_support = int(full_model.support_indices.size)
        margin_sampled_full = model_sampled.margin
    return replace(
        _measure(method, mode, seed, source, basis, op, sampled.X, meb_delta),
        margin_full=margin_full, margin_sampled=model_sampled.margin,
        margin_sampled_full_data=margin_sampled_full, C=float(C),
        n_support=n_support, model_sampled=model_sampled)


def select_geometry(data: LabeledDataset, method: str, r: int,
                    seed: int | None = None, *, t: int | None = None,
                    meb_delta: float = 1e-3) -> SelectionReport:
    """Unsupervised selection from data and its two enclosing balls.

    The selection is unsupervised_select's, but no SVM is solved, so the
    report decides the radius bound and leaves the margin and ratio na.
    """
    _check_method(method, "unsupervised")
    basis = functools.cache(lambda: thin_svd(data.X))
    [op] = _select_operators(method, data, basis, [r], seed, C=1.0, t=t,
                             chunk_fraction=0.1, kkt_tol=1e-4)
    if isinstance(op, Exception):
        raise op
    return _measure(method, "unsupervised", seed, data, basis, op,
                    op.apply(data.X), meb_delta)


def supervised_select(data: LabeledDataset, method: str, r: int, C: float = 1.0,
                      seed: int | None = None, *, t: int | None = None,
                      chunk_fraction: float = 0.1, kkt_tol: float = 1e-4,
                      meb_delta: float = 1e-3) -> SelectionReport:
    """Select on the support-vector set, recalibrate on it, report margins.

    margin_full is the margin of the SVM solved on the support vectors in
    the original feature space (identical to the full-data margin for a
    converged solve); margin_sampled comes from the recalibrated solve on
    the sampled support-vector set.  The balls are those of the
    support-vector set and its sampled copy.
    """
    return _select(data, "supervised", method, r, C, seed, t=t,
                   chunk_fraction=chunk_fraction, kkt_tol=kkt_tol,
                   meb_delta=meb_delta)


def unsupervised_select(data: LabeledDataset, method: str, r: int, C: float = 1.0,
                        seed: int | None = None, *, t: int | None = None,
                        kkt_tol: float = 1e-4, meb_delta: float = 1e-3) -> SelectionReport:
    """Select from the full data matrix; labels are used only to fit SVMs."""
    return _select(data, "unsupervised", method, r, C, seed, t=t,
                   chunk_fraction=0.1, kkt_tol=kkt_tol, meb_delta=meb_delta)


@dataclass(frozen=True)
class BoundCheck:
    """One inequality, decided: 'pass', 'fail', or 'na' with its reason.

    lhs and rhs are the inequality's two sides, nan when it is na.
    """

    status: str
    lhs: float = math.nan
    rhs: float = math.nan
    reason: str = ""


@dataclass(frozen=True)
class BoundReport:
    """The margin, radius and ratio bounds of one SelectionReport.

    epsilon_hat is the ratio bound's combined error; see verify_margin_bound.
    """

    spectral_error: float | None
    epsilon_hat: float
    margin: BoundCheck
    radius: BoundCheck
    ratio: BoundCheck

    @property
    def margin_status(self) -> str:
        return self.margin.status

    @property
    def ratio_status(self) -> str:
        return self.ratio.status


def _decide(holds, lhs, rhs) -> BoundCheck:
    return BoundCheck("pass" if holds else "fail", lhs, rhs)


def verify_margin_bound(report: SelectionReport) -> BoundReport:
    """Decide the report's three bounds, each to a relative BOUND_SLACK.

    With e the measured spectral error and delta the balls' parameter:

    Margin:  margin_sampled^2 >= (1 - e/(1-e)) * margin_full^2,
             na when e >= 1.
    Radius:  B~^2 <= (1+e) (1+delta)^2 B^2, where the (1+delta)^2 covers
             the approximate sampled ball.
    Ratio:   (B~/margin_sampled)^2 <= ((1+eh)/(1-eh)) * (B/margin_full)^2
             with eh = max(e/(1-e), (1+delta)^2 (1+e) - 1), na when eh >= 1.

    Every check is na for an unweighted method, which measures no e.  The
    margin and ratio are na without finite margins (no SVM solved), the
    radius and ratio when a ball is not certified.
    """
    e = report.spectral_error
    if e is None:
        na = BoundCheck("na", reason="unweighted method: no spectral error measured")
        return BoundReport(e, math.nan, na, na, na)
    gf, gs = report.margin_full, report.margin_sampled
    bf, bs = report.ball_full, report.ball_sampled
    margins_ok = bool(np.isfinite(gf) and np.isfinite(gs))
    if not margins_ok:
        margin = BoundCheck("na", reason="margins not measured or not finite")
    elif e >= 1.0:
        margin = BoundCheck("na", reason=f"spectral error {e:.3g} >= 1")
    else:
        lhs, rhs = gs**2, (1.0 - e / (1.0 - e)) * gf**2
        margin = _decide(lhs >= rhs - BOUND_SLACK * abs(rhs), lhs, rhs)

    uncertified = " and ".join(name for name, ball in (("full", bf), ("sampled", bs))
                               if not ball.certified)
    factor = (1.0 + bs.delta) ** 2 * (1.0 + e)
    if uncertified:
        radius = BoundCheck("na", reason=f"{uncertified} ball not certified")
    else:
        lhs, rhs = bs.radius**2, factor * bf.radius**2
        radius = _decide(lhs <= rhs * (1.0 + BOUND_SLACK), lhs, rhs)

    eps_hat = max(e / (1.0 - e) if e < 1.0 else math.inf, factor - 1.0)
    if uncertified:
        ratio = radius
    elif not (margins_ok and gf > 0 and gs > 0):
        ratio = BoundCheck("na", reason="margins not measured, finite and positive")
    elif eps_hat >= 1.0:
        ratio = BoundCheck("na", reason=f"combined error {eps_hat:.3g} >= 1")
    else:
        lhs = bs.radius**2 / gs**2
        rhs = (1.0 + eps_hat) / (1.0 - eps_hat) * bf.radius**2 / gf**2
        ratio = _decide(lhs <= rhs * (1.0 + BOUND_SLACK), lhs, rhs)
    return BoundReport(e, eps_hat, margin, radius, ratio)


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


def _cv_fold(task):
    """Every cell of one (repeat, fold), its BLAS on one thread when the
    fold is below ONE_THREAD_FOLD_ENTRIES, whatever the worker count."""
    repeat, fold, cell_seed = task
    data, plan = _CV_CTX[:2]
    train, test = apply_fold(data, plan, repeat, fold)
    small = train.n * train.d < ONE_THREAD_FOLD_ENTRIES
    with _one_blas_thread() if small else contextlib.nullcontext():
        return _fold_cells(train, test, repeat, fold, cell_seed)


def _fold_cells(train, test, repeat, fold, cell_seed):
    """The cells of one fold: (method, r) cells in grid order, then the
    full cell when asked for.

    _protocol runs the fold's work once; the fold adds each cell's test
    error, and skips every cell of a single-class training fold.
    """
    methods, r_list, include_full, mode, C, t, chunk_fraction, kkt_tol = _CV_CTX[2:]
    nan = float("nan")

    def cell(method, r, fit):
        """fit is (op, the data solved on, its model), op None for the
        full cell, or the error that skips the cell."""
        if isinstance(fit, Exception):
            return CvCell(method, r, repeat, fold, nan, nan, None, True, str(fit))
        op, _, model = fit
        if op is None:
            return CvCell(method, r, repeat, fold, error_rate(model, test),
                          model.margin, None, False)
        sampled_test = LabeledDataset(op.apply(test.X), test.y)
        return CvCell(method, r, repeat, fold, error_rate(model, sampled_test),
                      model.margin, op.selected_features(), False)

    grid = [(m, i) for m in methods for i in range(len(r_list))]
    if include_full:
        grid.append(("full", None))
    if not train.has_both_classes:
        skip = DataError("single-class training fold")
        return [cell(m, None if m == "full" else r_list[i], skip) for m, i in grid]

    full_model, _, _, fits = _protocol(
        train, mode, [m for m in methods if m != "full"], r_list, cell_seed, C=C,
        t=t, chunk_fraction=chunk_fraction, kkt_tol=kkt_tol)
    full_fit = full_model if isinstance(full_model, Exception) else (None, train, full_model)
    return [cell(m, None, full_fit) if m == "full" else cell(m, r_list[i], fits[m][i])
            for m, i in grid]


def cv_experiment(data: LabeledDataset, methods, r, folds: int = 10,
                  repeats: int = 10, seed: int =  0, C: float = 1.0,
                  mode: str = "supervised", t: int | None = None,
                  chunk_fraction: float = 0.1, kkt_tol: float = 1e-4,
                  include_full: bool = False, workers: int = 1):
    """Run a (method x r) grid of repeated k-fold cross-validation.

    The unit of work is one (repeat, fold).  Its shared work runs once for
    all of its cells: the split, the full-train solve (which also gives the
    full baseline cell), the support-vector set, the right singular basis
    (only for bss and leverage cells), one pivoted QR for all rrqr r, one
    RFE elimination path for all rfe r and one sketch and its SVD for all
    approx-bss r.  Each selecting cell then costs one selection, one
    sampled solve and its test error.

    A fold whose training matrix has fewer than ONE_THREAD_FOLD_ENTRIES
    entries runs its BLAS on one thread; the caller's thread count comes
    back when the fold returns or raises.  Larger folds keep the caller's
    threads.  The rule depends on the fold's size only, not on the worker
    count.  Only OpenBLAS is limited; with another BLAS every fold runs as
    called.  The limit is process-wide, so with workers=1 no other thread
    of the calling process may run BLAS, or another cv_experiment, while
    a small fold runs: that BLAS would run on one thread too, and the
    counts put back could be the wrong ones.

    C or kkt_tol outside their ranges (nan among them) raise DataError, and
    a mode not in MODES, an empty methods or a method neither in METHODS
    nor "full" raise ValueError, before any fold runs; a refusal that
    depends on a fold or a cell (rfe in unsupervised mode among them) skips
    only those cells.

    The per-cell selection seed is derived from (seed, repeat, fold) with a
    seed sequence, as in a cell-at-a-time run, so cells are reproducible
    independently of execution order and worker count; workers > 1 maps
    folds over a process pool.  Returns a flat list of CvCell ordered by
    (method, r, repeat, fold), then the full cells by (repeat, fold).
    """
    _check_solver_params(C, kkt_tol)
    _check_mode(mode)
    methods = [methods] if isinstance(methods, str) else list(methods)
    if not methods:
        raise ValueError("no method to cross-validate")
    for method in methods:
        if method != "full":
            _check_method(method)
    r_list = [r] if np.isscalar(r) else list(r)
    plan = make_folds(data.n, folds, repeats, seed)
    tasks = []
    for repeat in range(repeats):
        for fold in range(folds):
            ss = np.random.SeedSequence(seed, spawn_key=(repeat, fold))
            tasks.append((repeat, fold, int(ss.generate_state(1)[0])))

    ctx = (data, plan, methods, r_list, include_full, mode, C, t,
           chunk_fraction, kkt_tol)
    if workers <= 1:
        _cv_init(ctx)
        try:
            per_fold = [_cv_fold(task) for task in tasks]
        finally:
            _cv_init(None)  # let go of the dataset
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_cv_init,
                                 initargs=(ctx,)) as pool:
            per_fold = list(pool.map(_cv_fold, tasks))
    return [fold_cells[j] for j in range(len(per_fold[0]))
            for fold_cells in per_fold]


def summarize_cv(cells):
    """Aggregate cells into per-(method, r) mean/std error and skip counts,
    with the margins of the live cells and the (repeat, fold, reason) of the
    skipped ones, each in the order the cells come in."""
    groups = {}
    for c in cells:
        groups.setdefault((c.method, c.r), []).append(c)
    out = {}
    for key, grp in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        live = [c for c in grp if not c.skipped]
        errs = np.array([c.error for c in live])
        out[key] = {
            "mean_error": float(errs.mean()) if errs.size else float("nan"),
            "std_error": float(errs.std()) if errs.size else float("nan"),
            "cells": len(grp),
            "skipped": len(grp) - len(live),
            "margins": [c.margin_sampled for c in live],
            "skipped_cells": [{"repeat": c.repeat, "fold": c.fold, "reason": c.reason}
                              for c in grp if c.skipped],
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
