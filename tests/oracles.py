"""Independent reference implementations used to pin expected test values.

Nothing here imports from marginsparse: these are deliberately separate
code paths (dense eigendecompositions, projected gradient, exhaustive
enumeration, one-row-at-a-time barrier scores, the eigh-per-step BSS loop,
the gather-based SMO loop, LAPACK's dense SVD, the mat-vec ball loop) so
agreement is meaningful.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


class BarrierHitError(ArithmeticError):
    """A shifted barrier sits exactly on an eigenvalue, or a potential
    difference vanishes, so the oracle's scores are undefined."""


def eig_spectral_norm(M):
    """Largest singular value via an eigendecomposition of the Gram matrix."""
    M = np.asarray(M, dtype=np.float64)
    G = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    if G.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(G)
    return float(np.sqrt(max(w[-1], 0.0)))


def project_dual_feasible(v, y, C):
    """Euclidean projection onto {0 <= a <= C, y.a = 0} for y in {+-1}^n.

    The KKT system gives a = clip(v - lam*y, 0, C) with lam chosen so the
    equality constraint holds.  g(lam) = y.clip(v - lam*y, 0, C) is piecewise
    linear and nonincreasing with kinks at lam in {v*y, (v-C)*y}; the root is
    found exactly by scanning the sorted kinks and interpolating.
    """
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def g(lam):
        return float(y @ np.clip(v - lam * y, 0.0, C))

    bps = np.sort(np.concatenate([v * y, (v - C) * y]))
    vals = np.array([g(b) for b in bps])
    if vals[0] <= 0.0:
        lam = bps[0]
    elif vals[-1] >= 0.0:
        lam = bps[-1]
    else:
        k = int(np.searchsorted(-vals, 0.0, side="left")) - 1
        k = min(max(k, 0), bps.size - 2)
        run, drop = bps[k + 1] - bps[k], vals[k] - vals[k + 1]
        lam = bps[k] if drop <= 0.0 else bps[k] + vals[k] * run / drop
    return np.clip(v - lam * y, 0.0, C)


def qp_dual_solve(X, y, C, iters=30000, tol=1e-14):
    """Projected-gradient reference solver for the box/equality SVM dual.

    Returns (alpha, dual objective).  Slow and simple on purpose; intended
    for n <= a few dozen.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    Q = (y[:, None] * y[None, :]) * (X @ X.T)
    lam_max = float(np.linalg.eigvalsh(Q)[-1])
    step = 1.0 / max(lam_max, 1e-12)
    a = project_dual_feasible(np.zeros(y.size), y, C)
    for _ in range(iters):
        a_new = project_dual_feasible(a - step * (Q @ a - 1.0), y, C)
        moved = float(np.abs(a_new - a).max())
        a = a_new
        if moved <= tol * max(1.0, C):
            break
    obj = float(a.sum() - 0.5 * (a @ Q @ a))
    return a, obj


@dataclass(frozen=True)
class SmoResult:
    alpha: np.ndarray
    w: np.ndarray
    b: float
    objective: float
    converged: bool
    kkt_gap: float
    steps: int


def smo_reference(X, y, C, kkt_tol=1e-4, max_passes=None):
    """The SMO loop with index gathers and a tracked gradient, one pair step
    at a time: the reference for the incremental loop in solve_dual.

    Same working-set rule (maximal violator i, second-order partner j over
    the low-side points violating against i), same two-variable solve, and
    the same w, b and objective afterwards; steps counts pair updates.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.size
    if max_passes is None:
        max_passes = 10 * n
    K = X @ X.T
    Kdiag = np.diag(K).copy()

    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of 1/2 a'Qa - 1'a at a = 0
    pos = y > 0

    converged = False
    gap = np.inf
    steps = 0
    for _ in range(max_passes):
        for _ in range(n):
            neg_yg = -y * grad  # equals y_i - w.x_i
            up = np.where(pos, alpha < C, alpha > 0)
            low = np.where(pos, alpha > 0, alpha < C)
            if not up.any() or not low.any():
                converged = True
                gap = 0.0
                break
            up_idx = np.flatnonzero(up)
            i = up_idx[np.argmax(neg_yg[up_idx])]
            m_val = neg_yg[i]
            low_idx = np.flatnonzero(low)
            M_val = np.min(neg_yg[low_idx])
            gap = m_val - M_val
            if gap <= kkt_tol:
                converged = True
                break
            viol = m_val - neg_yg[low_idx]
            mask = viol > 0
            cand = low_idx[mask]
            bvec = viol[mask]
            avec = Kdiag[i] + Kdiag[cand] - 2.0 * K[i, cand]
            avec = np.maximum(avec, 1e-12)
            j = cand[np.argmax(bvec * bvec / avec)]

            a_ij = max(Kdiag[i] + Kdiag[j] - 2.0 * K[i, j], 1e-12)
            s = (m_val - neg_yg[j]) / a_ij
            s_max_i = (C - alpha[i]) if pos[i] else alpha[i]
            s_max_j = alpha[j] if pos[j] else (C - alpha[j])
            s = min(s, s_max_i, s_max_j)
            di = y[i] * s
            dj = -y[j] * s
            alpha[i] = min(max(alpha[i] + di, 0.0), C)
            alpha[j] = min(max(alpha[j] + dj, 0.0), C)
            grad += (y[i] * di) * (y * K[i]) + (y[j] * dj) * (y * K[j])
            steps += 1
        if converged:
            break

    w = X.T @ (y * alpha)
    neg_yg = y - X @ w
    sv_threshold = 1e-6 * C
    free = (alpha > sv_threshold) & (alpha < C - sv_threshold)
    if free.any():
        b = float(np.mean(neg_yg[free]))
    else:
        up = np.where(pos, alpha < C, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < C)
        hi = np.max(neg_yg[up]) if up.any() else 0.0
        lo = np.min(neg_yg[low]) if low.any() else 0.0
        b = float(0.5 * (hi + lo))
    norm_w = float(np.linalg.norm(w))
    objective = float(alpha.sum() - 0.5 * norm_w**2)
    return SmoResult(alpha=alpha, w=w, b=b, objective=objective,
                     converged=converged, kkt_gap=float(gap), steps=steps)


def exhaustive_meb(P):
    """Exact smallest enclosing ball for small planar instances.

    Enumerates every ball determined by 1, 2, or 3 points and returns the
    smallest one covering all points (radius, center).  In the plane the
    optimum is always determined by at most 3 points.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]

    def covers(c, r):
        d2 = np.einsum("ij,ij->i", P - c, P - c)
        return np.all(d2 <= r * r * (1.0 + 1e-12) + 1e-12)

    best_r, best_c = np.inf, None
    for i in range(n):
        if covers(P[i], 0.0):
            return 0.0, P[i]
    for i, j in itertools.combinations(range(n), 2):
        c = 0.5 * (P[i] + P[j])
        r = 0.5 * np.linalg.norm(P[i] - P[j])
        if r < best_r and covers(c, r):
            best_r, best_c = r, c
    for i, j, k in itertools.combinations(range(n), 3):
        A = 2.0 * np.array([P[j] - P[i], P[k] - P[i]])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        rhs = np.array([P[j] @ P[j] - P[i] @ P[i], P[k] @ P[k] - P[i] @ P[i]])
        c = np.linalg.solve(A, rhs)
        r = float(np.linalg.norm(P[i] - c))
        if r < best_r and covers(c, r):
            best_r, best_c = r, c
    return float(best_r), best_c


def sampled_gram_error(V, indices, weights):
    """|| V'V - V'RR'V ||_2 computed directly from the selection lists."""
    V = np.asarray(V, dtype=np.float64)
    S = (weights[:, None] * V[indices]).T @ (weights[:, None] * V[indices])
    return eig_spectral_norm(V.T @ V - S)


# ------------------------------------------------------------------ BSS

def lower_potential(L, eigenvalues):
    """sum_i 1/(lambda_i - L); requires the barrier L below the spectrum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size and lam.min() <= L:
        raise ValueError(f"lower barrier {L} is not below the spectrum (min {lam.min()})")
    return float(np.sum(1.0 / (lam - L)))


def upper_potential(U, eigenvalues):
    """sum_i 1/(U - lambda_i); requires the barrier U above the spectrum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size and lam.max() >= U:
        raise ValueError(f"upper barrier {U} is not above the spectrum (max {lam.max()})")
    return float(np.sum(1.0 / (U - lam)))


@dataclass(frozen=True)
class BarrierState:
    """Running matrix A = sum t * v v^T with its cached eigendecomposition."""

    A: np.ndarray
    tau: int
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # columns match eigenvalues

    @classmethod
    def initial(cls, ell: int) -> "BarrierState":
        return cls(np.zeros((ell, ell)), 0, np.zeros(ell), np.eye(ell))

    def updated(self, v, t: float) -> "BarrierState":
        A = self.A + t * np.outer(v, v)
        A = 0.5 * (A + A.T)
        lam, W = np.linalg.eigh(A)
        return BarrierState(A, self.tau + 1, lam, W)


def candidate_scores(v, state: BarrierState, L, U, delta_lower, delta_upper):
    """Lower/upper scores of one candidate row against the current barriers.

    lscore = v^T (A - (L+dL)I)^-2 v / (Phi(L+dL) - Phi(L)) - v^T (A - (L+dL)I)^-1 v
    uscore = v^T ((U+dU)I - A)^-2 v / (Phihat(U) - Phihat(U+dU)) + v^T ((U+dU)I - A)^-1 v

    Resolvents are applied through the cached eigendecomposition.  The
    shifted points L+dL / U+dU may sit inside the spectrum as long as they
    do not hit an eigenvalue exactly.
    """
    lam = state.eigenvalues
    q2 = (state.eigenvectors.T @ np.asarray(v, dtype=np.float64)) ** 2
    gap_lo = lam - (L + delta_lower)
    gap_hi = (U + delta_upper) - lam
    if np.any(gap_lo == 0.0) or np.any(gap_hi == 0.0):
        raise BarrierHitError("shifted barrier coincides with an eigenvalue")
    dphi_l = np.sum(1.0 / gap_lo) - np.sum(1.0 / (lam - L))
    dphi_u = np.sum(1.0 / (U - lam)) - np.sum(1.0 / gap_hi)
    if dphi_l == 0.0 or dphi_u == 0.0:
        raise BarrierHitError("degenerate potential difference")
    lscore = np.sum(q2 / gap_lo**2) / dphi_l - np.sum(q2 / gap_lo)
    uscore = np.sum(q2 / gap_hi**2) / dphi_u + np.sum(q2 / gap_hi)
    return float(lscore), float(uscore)


@dataclass(frozen=True)
class BssReplay:
    indices: np.ndarray
    step_sizes: np.ndarray
    rows_scored: int
    reselections: int


def bss_replay(V, r, score_slack, block):
    """Re-run greedy BSS by scoring every row, one candidate at a time.

    Picks the eligible untaken row of largest squared norm (lowest index
    among ties), or, when every eligible row is taken, the largest eligible
    row again.  rows_scored is what a lazy scan of the untaken rows in
    stable descending-norm order, with blocks of `block` rows, pays: a
    normal step ends at the block holding its pick (capped at the number
    of untaken rows), a reselection step scores all d rows.
    """
    V = np.asarray(V, dtype=np.float64)
    d, ell = V.shape
    ratio = math.sqrt(ell / r)
    delta_upper = (1 + ratio) / (1 - ratio)
    sqrt_rl = math.sqrt(r * ell)
    row_sq = np.sum(V * V, axis=1)

    state = BarrierState.initial(ell)
    taken = np.zeros(d, dtype=bool)
    indices = np.empty(r, dtype=np.intp)
    steps = np.empty(r)
    rows_scored = reselections = 0
    for tau in range(r):
        L = tau - sqrt_rl
        U = delta_upper * (tau + sqrt_rl)
        scores = np.array(
            [candidate_scores(V[i], state, L, U, 1.0, delta_upper) for i in range(d)]
        )
        lsc, usc = scores[:, 0], scores[:, 1]
        slack = score_slack * np.maximum(np.abs(lsc), np.abs(usc))
        eligible = (usc <= lsc + slack) & (usc + lsc > 0)
        fresh = np.flatnonzero(eligible & ~taken)
        cand = fresh if fresh.size else np.flatnonzero(eligible)
        i = cand[np.argmax(row_sq[cand])]
        if fresh.size:
            # Position of row i among the untaken rows in stable
            # descending-norm order.
            ahead = (row_sq > row_sq[i]) | ((row_sq == row_sq[i]) & (np.arange(d) < i))
            pos = int(np.sum(ahead & ~taken))
            rows_scored += min(math.ceil((pos + 1) / block) * block, int(np.sum(~taken)))
        else:
            reselections += 1
            rows_scored += d
        t = 2.0 / (usc[i] + lsc[i])
        indices[tau], steps[tau] = i, t
        taken[i] = True
        state = state.updated(V[i], t)
    return BssReplay(indices, steps, rows_scored, reselections)


@dataclass(frozen=True)
class BssReference:
    indices: np.ndarray
    weights: np.ndarray
    step_sizes: np.ndarray
    eig_count: int
    score_evaluations: int
    reselections: int


def bss_reference(V, r, score_slack, block):
    """The lazy BSS loop with one ell x ell eigh per step: the reference for
    the Cholesky-factored loop in bss_select.

    Same block scan of the untaken rows in descending-norm order, falling
    back to the taken rows when none is acceptable; same scores (through
    the eigenbasis of A), eligibility test, step size and weights.  Barrier
    failures raise ArithmeticError with bss_select's message text.
    """
    V = np.ascontiguousarray(np.asarray(V, dtype=np.float64))
    d, ell = V.shape
    ratio = math.sqrt(ell / r)
    delta_lower = 1.0
    delta_upper = (1.0 + ratio) / (1.0 - ratio)
    sqrt_rl = math.sqrt(r * ell)

    order = np.argsort(-np.einsum("ij,ij->i", V, V), kind="stable")
    V_sorted = V[order]
    A = np.zeros((ell, ell))
    taken = np.zeros(d, dtype=bool)  # by position in `order`
    indices = np.empty(r, dtype=np.intp)
    steps = np.empty(r)
    eig_count = 0
    score_evals = 0
    reselections = 0

    for tau in range(r):
        lam, W = np.linalg.eigh(A)
        eig_count += 1
        L = tau - sqrt_rl
        U = delta_upper * (tau + sqrt_rl)
        if not (lam[0] > L and lam[-1] < U):
            raise ArithmeticError(
                f"barrier crossed at iteration {tau}: spectrum "
                f"[{lam[0]:.9g}, {lam[-1]:.9g}] vs barriers ({L:.9g}, {U:.9g})"
            )
        gap_lo = lam - (L + delta_lower)
        gap_hi = (U + delta_upper) - lam
        if gap_lo[0] <= 0.0:
            raise ArithmeticError(
                f"lower barrier shift overtook the spectrum at iteration {tau}"
            )
        dphi_l = np.sum(1.0 / gap_lo) - np.sum(1.0 / (lam - L))
        dphi_u = np.sum(1.0 / (U - lam)) - np.sum(1.0 / gap_hi)
        inv_lo, inv_lo2 = 1.0 / gap_lo, gap_lo**-2
        inv_hi, inv_hi2 = 1.0 / gap_hi, gap_hi**-2

        def score(positions):
            P2 = (V_sorted[positions] @ W) ** 2
            lsc = (P2 @ inv_lo2) / dphi_l - P2 @ inv_lo
            usc = (P2 @ inv_hi2) / dphi_u + P2 @ inv_hi
            slack = score_slack * np.maximum(np.abs(lsc), np.abs(usc))
            return lsc, usc, (usc <= lsc + slack) & (usc + lsc > 0.0)

        untaken = np.flatnonzero(~taken)
        scored = []
        pick = None
        for start in range(0, untaken.size, block):
            positions = untaken[start:start + block]
            lsc, usc, eligible = score(positions)
            score_evals += positions.size
            hits = np.flatnonzero(eligible)
            if hits.size:
                k = hits[0]
                pick = positions[k], lsc[k], usc[k]
                break
            scored.append((lsc, usc, eligible))

        if pick is None:
            # No untaken row is acceptable: score the taken ones as well.
            taken_positions = np.flatnonzero(taken)
            for start in range(0, taken_positions.size, block):
                scored.append(score(taken_positions[start:start + block]))
            score_evals += taken_positions.size
            lsc, usc, eligible = (np.concatenate(a) for a in zip(*scored))
            if not eligible.any():
                raise ArithmeticError(
                    f"no acceptable column at iteration {tau} "
                    f"(max lscore-uscore = {np.max(lsc - usc):.3e}, "
                    f"potentials {np.sum(1.0 / (lam - L)):.6g}/{np.sum(1.0 / (U - lam)):.6g}, "
                    f"spectrum [{lam[0]:.9g}, {lam[-1]:.9g}], barriers ({L:.9g}, {U:.9g}))"
                )
            k = np.flatnonzero(eligible)[0]  # allow re-selection
            pick = np.concatenate([untaken, taken_positions])[k], lsc[k], usc[k]
            reselections += 1
        pos, l_i, u_i = pick

        t = 2.0 / (u_i + l_i)
        v = V_sorted[pos]
        A += t * np.outer(v, v)
        taken[pos] = True
        indices[tau] = order[pos]
        steps[tau] = t

    weights = np.sqrt(steps) * math.sqrt((1.0 - ratio) / r)
    return BssReference(indices, weights, steps, eig_count, score_evals, reselections)


# ------------------------------------------------------ SVD and ball loop

def svd_reference(M, rank_threshold=1e-10):
    """Thin SVD of the dense matrix by LAPACK, truncated at
    rank_threshold * sigma_1: the dense route of thin_svd.  Returns
    (U, s, V) with V of shape d x rank."""
    M = np.asarray(M, dtype=np.float64)
    n, d = M.shape
    if n == 0 or d == 0 or not M.any():
        return np.zeros((n, 0)), np.zeros(0), np.zeros((d, 0))
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > rank_threshold * s[0]
    return U[:, keep], s[keep], Vt[keep].T


@dataclass(frozen=True)
class BallResult:
    center: np.ndarray
    radius: float
    iterations: int
    certified: bool


def meb_reference(X, delta=1e-3):
    """The core-set ball loop with one n x d mat-vec per iteration: the
    reference for the Gram-row loop in meb_radius.

    Same mean shift, same harmonic step toward the farthest point, same
    stopping test max_dist^2 <= (1+delta)^2 g(u), and the radius is the
    covering radius of the final center.
    """
    P = np.asarray(X, dtype=np.float64)
    n = P.shape[0]
    shift = P.mean(axis=0)
    P = P - shift
    sq = np.einsum("ij,ij->i", P, P)

    u = np.zeros(n)
    u[0] = 1.0
    c = P[0].copy()
    max_iter = math.ceil(1.0 / delta**2)
    certified = False
    k = 0
    for k in range(1, max_iter + 1):
        d2 = sq - 2.0 * (P @ c) + c @ c
        far = int(np.argmax(d2))
        gap_target = (1.0 + delta) ** 2 * (u @ sq - c @ c)
        if d2[far] <= gap_target:
            certified = True
            break
        step = 1.0 / (k + 1.0)
        u *= 1.0 - step
        u[far] += step
        c += step * (P[far] - c)

    d2 = sq - 2.0 * (P @ c) + c @ c
    radius = float(math.sqrt(max(d2.max(), 0.0)))
    return BallResult(center=c + shift, radius=radius, iterations=k,
                      certified=certified)
