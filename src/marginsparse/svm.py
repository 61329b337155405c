"""Linear soft-margin SVM, solved in the dual.

    max_a  1'a - 1/2 a' Y X X' Y a   s.t.  y'a = 0,  0 <= a <= C

Pairwise (SMO-style) coordinate ascent: each step picks the maximal
violating pair with a second-order gain heuristic for the partner and
solves the two-variable subproblem exactly, which preserves y'a = 0 by
construction.  Stops when the violation gap m(a) - M(a) drops below
kkt_tol, at which point every point's KKT residual (with the bias chosen
inside [M, m]) is at most kkt_tol.

Sparse (CSR) X stays sparse: the kernel K = X X' is one sparse product
made dense (n x n), and w = X'(y*a) and X w are sparse products too, so no
dense n x d copy is made.  Dense X keeps the dense products X X', X'(y*a)
and X w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .data import LabeledDataset
from .linalg import is_sparse

SV_THRESHOLD_REL = 1e-6  # alpha > 1e-6 * C counts as a support vector


@dataclass(frozen=True)
class SvmModel:
    alpha: np.ndarray
    w: np.ndarray
    b: float
    support_indices: np.ndarray
    margin: float
    C: float
    objective: float
    converged: bool
    kkt_gap: float
    steps: int  # pair updates taken


def predict(model: SvmModel, X) -> np.ndarray:
    if X.shape[1] != model.w.size:
        raise DataError(f"model has {model.w.size} features, data has {X.shape[1]}")
    scores = np.asarray(X @ model.w).ravel() + model.b
    return np.where(scores >= 0, 1.0, -1.0)


def error_rate(model: SvmModel, data: LabeledDataset) -> float:
    return float(np.mean(predict(model, data.X) != data.y))


def _check_solver_params(C: float, kkt_tol: float) -> None:
    """Raise DataError unless C and kkt_tol are valid for any dual; nan is not."""
    if not C > 0:
        raise DataError("C must be positive")
    if not kkt_tol >= 0:
        raise DataError("kkt_tol must be non-negative")


def _check_dual(data: LabeledDataset, C: float, kkt_tol: float) -> None:
    """Raise DataError unless the dual on (data, C) with kkt_tol is solvable."""
    _check_solver_params(C, kkt_tol)
    if data.n < 2:
        raise DataError("need at least two points")
    if not data.has_both_classes:
        raise DataError("both classes must be present")


def _smo(K, y, C, kkt_tol, max_steps, alpha0=None):
    """Pair steps on the dual with kernel K, from alpha0 (0 when None).

    alpha0 must be feasible: y'alpha0 = 0 and 0 <= alpha0 <= C.  Returns
    (alpha, converged, gap, steps) after at most max_steps pair updates.
    """
    n = y.size
    Kdiag = np.diag(K)
    # curv[i, j] = max(K_ii + K_jj - 2 K_ij, 1e-12), the curvature of the
    # pair (i, j), formed once for every step to read row i.
    curv = Kdiag[:, None] + Kdiag
    curv -= 2.0 * K
    np.maximum(curv, 1e-12, out=curv)
    if alpha0 is None:
        alpha0 = np.zeros(n)
    alpha = alpha0.tolist()
    neg_yg = y - K @ (y * alpha0)  # y_i - w.x_i
    pos = y > 0
    # up: alpha_i can rise along y_i (positives below C, negatives above 0);
    # low: alpha_i can fall along y_i.  Every point is on one side at least.
    up = np.where(pos, alpha0 < C, alpha0 > 0)
    low = np.where(pos, alpha0 > 0, alpha0 < C)
    # vals[0] is neg_yg on the up side and -inf off it, vals[1] neg_yg on
    # the low side and +inf off it.  A step subtracts the same update from
    # both, which leaves the infinities, so only the entries of i and j,
    # whose sides can change, are reset.
    vals = np.where([up, low], neg_yg, [[-np.inf], [np.inf]])
    up_vals, low_vals = vals
    up, low = up.tolist(), low.tolist()
    y_list, pos_list = y.tolist(), pos.tolist()
    viol, score, delta, buf = np.empty((4, n))

    converged = False
    gap = np.inf
    steps = 0
    for _ in range(max_steps):
        # argmax/argmin return the first extreme index, as over an ascending
        # index gather.  neg_yg is finite, so a side is empty exactly when its
        # pick falls outside its mask.
        i = int(up_vals.argmax())
        k = int(low_vals.argmin())
        if not (up[i] and low[k]):
            converged = True
            gap = 0.0
            break
        m_val = up_vals.item(i)
        gap = m_val - low_vals.item(k)
        if gap <= kkt_tol:
            converged = True
            break
        # Second-order partner: maximize (violation)^2 / curvature over the
        # points on the low side that violate against i.  viol*|viol| is
        # viol^2 on them and <= 0 off them (viol = -inf off the low side),
        # so a positive best score is theirs; with kkt_tol >= 0, k is such a
        # point.  Only when squares underflow is the mask needed.
        np.subtract(m_val, low_vals, out=viol)
        curv_i = curv[i]
        np.abs(viol, out=score)
        score *= viol
        score /= curv_i
        j = int(score.argmax())
        if not score.item(j) > 0.0:
            j = int(np.where(viol > 0, score, -np.inf).argmax())

        # Exact 2-variable solve along a + s(y_i e_i - y_j e_j).
        s = viol.item(j) / curv_i.item(j)
        s_max_i = (C - alpha[i]) if pos_list[i] else alpha[i]
        s_max_j = alpha[j] if pos_list[j] else (C - alpha[j])
        s = min(s, s_max_i, s_max_j)
        di = y_list[i] * s
        dj = -y_list[j] * s
        alpha[i] = min(max(alpha[i] + di, 0.0), C)
        alpha[j] = min(max(alpha[j] + dj, 0.0), C)
        # neg_yg -= y_i di K_i + y_j dj K_j, which is s K_i - s K_j to the
        # last bit: y = +-1, and sign flips commute with rounding.
        np.multiply(K[i], s, out=delta)
        np.multiply(K[j], s, out=buf)
        delta -= buf
        vals -= delta
        for t in (i, j):
            v = up_vals.item(t) if up[t] else low_vals.item(t)
            below_c, above_0 = alpha[t] < C, alpha[t] > 0
            up[t] = below_c if pos_list[t] else above_0
            low[t] = above_0 if pos_list[t] else below_c
            up_vals[t] = v if up[t] else -np.inf
            low_vals[t] = v if low[t] else np.inf
        steps += 1
    return np.array(alpha, dtype=np.float64), converged, gap, steps


def solve_dual(data: LabeledDataset, C: float = 1.0, kkt_tol: float = 1e-4,
               max_passes: int | None = None) -> SvmModel:
    """Solve the dual on (X, y); max_passes counts epochs of n pair updates."""
    _check_dual(data, C, kkt_tol)
    n = data.n
    if max_passes is None:
        max_passes = 10 * n

    X, y = data.X, data.y
    if is_sparse(X):
        X = X.astype(np.float64, copy=False)
        K = (X @ X.T).toarray()
    else:
        X = np.asarray(X, dtype=np.float64)
        K = X @ X.T
    alpha, converged, gap, steps = _smo(K, y, C, kkt_tol, max_passes * n)

    w = X.T @ (y * alpha)
    neg_yg = y - X @ w  # recomputed exactly: y_i - w.x_i
    sv_threshold = SV_THRESHOLD_REL * C
    free = (alpha > sv_threshold) & (alpha < C - sv_threshold)
    if free.any():
        b = float(np.mean(neg_yg[free]))
    else:
        pos = y > 0
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        hi = np.max(neg_yg[up]) if up.any() else 0.0
        lo = np.min(neg_yg[low]) if low.any() else 0.0
        b = float(0.5 * (hi + lo))

    norm_w = float(np.linalg.norm(w))
    gamma = 1.0 / norm_w if norm_w > 0 else np.inf
    objective = float(alpha.sum() - 0.5 * norm_w**2)
    support = np.flatnonzero(alpha > sv_threshold)
    return SvmModel(alpha=alpha, w=w, b=b, support_indices=support,
                    margin=gamma, C=float(C), objective=objective,
                    converged=converged, kkt_gap=float(gap), steps=steps)
