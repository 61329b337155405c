"""Deterministic spectral column selection.

Given V (d x ell) with orthonormal columns, greedily pick r > ell rows
(= features) with positive weights so that the sampled Gram matrix
V^T R R^T V stays spectrally close to the identity.  The selection is
driven by two barrier potentials on the eigenvalues of the running
matrix A = sum of t * v v^T over accepted rows: a lower barrier L that
advances by 1 per step and an upper barrier U advancing by
delta_upper = (1 + sqrt(ell/r)) / (1 - sqrt(ell/r)).  A row v is
acceptable when its upper score does not exceed its lower score; the
step size t is pinned between them.  After r steps every singular value
of R^T V lies in [1 - sqrt(ell/r), 1 + sqrt(ell/r)], hence

    ||V^T V - V^T R R^T V||_2 <= 3 sqrt(ell / r).

Each step picks the acceptable untaken row of largest norm.  Rows are
scored lazily: in descending-norm order, SCORE_BLOCK rows at a time,
stopping at the first block that holds an acceptable untaken row.  The
scores need the two shifted resolvents (A - (L+1)I)^-1 and
((U+delta_upper)I - A)^-1, not the spectrum of A.  A step costs two
Cholesky factors and their two triangular inverses, one more factor-only
Cholesky that tests lambda_max < U, and one ell x 2ell GEMM per block of
rows scored.  The unshifted potentials tr (A - L I)^-1 and tr (U I - A)^-1
are carried from one step to the next by Sherman-Morrison.  A step scores
all d rows only when every acceptable row is already taken.

The procedure is fully deterministic: no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import NumericalError
from .linalg import check_matrix, require_orthonormal, row_norms_sq
from .operators import SamplingOperator

# Relative slack when testing uscore <= lscore, so exact ties survive rounding.
SCORE_SLACK = 1e-12
# Rows scored per block of the lazy scan.
SCORE_BLOCK = 64


@dataclass(frozen=True)
class BssDiagnostics:
    """Instrumentation from one bss_select run.

    eig_count counts eigendecompositions.  The barriers are tested by
    Cholesky factors, so it is 0; only a failing run takes a spectrum, and
    that run raises.
    score_evaluations counts rows scored: per iteration, the whole blocks
    of the descending-norm order up to the one holding the pick, or all d
    rows on an iteration that reselects a taken row.
    """

    eig_count: int
    score_evaluations: int
    step_sizes: np.ndarray
    reselections: int


def _inverse(M):
    """(M^-1, tr M^-1) for symmetric positive definite M, or None when its
    Cholesky factor fails.  With M = C^T C, M^-1 = C^-1 C^-T, whose trace
    is ||C^-1||_F^2.  M is overwritten."""
    C, info = dpotrf(M.T, overwrite_a=1)  # M = M^T; its F-order view factors in place
    if info != 0:
        return None
    Ci, info = dtrtri(C, overwrite_c=1)
    if info != 0:
        return None
    # Upper triangle of Ci Ci^T, zeros below.  From ell ~ 80, OpenBLAS's
    # threaded GEMM takes several times as long for the full product.
    S = dsyrk(1.0, Ci)
    Q = S + S.T
    Q.flat[::Q.shape[0] + 1] *= 0.5  # the diagonal was doubled; halving is exact
    return Q, float(np.trace(S))


def _spectrum_error(A, tau, L, U, lower_shift=False):
    """The NumericalError for a failed factor at iteration tau.  Only this
    path pays for the spectrum."""
    lam = np.linalg.eigvalsh(A)
    if lower_shift and lam[0] > L and lam[-1] < U:
        # The potential bound keeps lambda_min > L + 1; hitting this
        # means accumulated rounding broke the induction.
        head = f"lower barrier shift overtook the spectrum at iteration {tau}"
    else:
        head = f"barrier crossed at iteration {tau}"
    return NumericalError(
        f"{head}: spectrum [{lam[0]:.9g}, {lam[-1]:.9g}] "
        f"vs barriers ({L:.9g}, {U:.9g})"
    )


def bss_select(V, r: int, *, return_diagnostics: bool = False):
    """Select r weighted rows of an orthonormal-column V (d x ell).

    Returns a SamplingOperator R with exactly r selections (indices may
    repeat) such that all singular values of R^T V lie in
    [1 - sqrt(ell/r), 1 + sqrt(ell/r)].  Requires r > ell.  Deterministic.
    """
    V = np.ascontiguousarray(np.asarray(V, dtype=np.float64))
    check_matrix(V, name="V")
    require_orthonormal(V, name="V")
    d, ell = V.shape
    if r <= ell:
        raise ValueError(f"need r > ell, got r={r} with ell={ell}")

    ratio = math.sqrt(ell / r)
    delta_lower = 1.0
    delta_upper = (1.0 + ratio) / (1.0 - ratio)
    sqrt_rl = math.sqrt(r * ell)

    # Stable sort: rows of equal norm keep ascending index order, so the
    # first eligible row in this order is the largest-norm, lowest-index one.
    order = np.argsort(-row_norms_sq(V), kind="stable")
    V_sorted = V[order]
    A = np.zeros((ell, ell))
    eye = np.eye(ell)
    taken = np.zeros(d, dtype=bool)  # by position in `order`
    indices = np.empty(r, dtype=np.intp)
    steps = np.empty(r)
    score_evals = 0
    reselections = 0
    # Potentials tr (A - L I)^-1 and tr (U I - A)^-1 at A = 0.
    phi_l = ell / sqrt_rl
    phi_u = ell / (delta_upper * sqrt_rl)

    for tau in range(r):
        L = tau - sqrt_rl
        U = delta_upper * (tau + sqrt_rl)
        # lambda_max < U exactly when U I - A has a Cholesky factor, and
        # lambda_min > L + 1 > L exactly when A - (L+1) I has one.
        if dpotrf((U * eye - A).T, clean=0, overwrite_a=1)[1] != 0:
            raise _spectrum_error(A, tau, L, U)
        lo = _inverse(A - (L + delta_lower) * eye)
        if lo is None:
            raise _spectrum_error(A, tau, L, U, lower_shift=True)
        hi = _inverse((U + delta_upper) * eye - A)
        if hi is None:
            raise _spectrum_error(A, tau, L, U)
        (Q_lo, tr_lo), (Q_hi, tr_hi) = lo, hi
        dphi_l = tr_lo - phi_l
        dphi_u = phi_u - tr_hi
        Q = np.hstack([Q_lo, Q_hi])

        # Per row: v'Q_lo v, v'Q_hi v and v'Q_lo^2 v, v'Q_hi^2 v from one GEMM.
        scored = []
        pick = None
        for start in range(0, d, SCORE_BLOCK):
            Vb = V_sorted[start:start + SCORE_BLOCK]
            Y = (Vb @ Q).reshape(-1, 2, ell)
            quad = np.einsum("ijk,ijk->ij", Y, Y)
            lin = np.einsum("ijk,ik->ij", Y, Vb)
            lsc = quad[:, 0] / dphi_l - lin[:, 0]
            usc = quad[:, 1] / dphi_u + lin[:, 1]
            score_evals += Vb.shape[0]
            slack = SCORE_SLACK * np.maximum(np.abs(lsc), np.abs(usc))
            eligible = (usc <= lsc + slack) & (usc + lsc > 0.0)
            hits = np.flatnonzero(eligible & ~taken[start:start + SCORE_BLOCK])
            if hits.size:
                k = hits[0]
                pick = start + k, lsc[k], usc[k], quad[k], lin[k]
                break
            scored.append((lsc, usc, eligible, quad, lin))

        if pick is None:
            # Every eligible row is taken, and all d rows have been scored.
            lsc, usc, eligible, quad, lin = (np.concatenate(a) for a in zip(*scored))
            if not eligible.any():
                lam = np.linalg.eigvalsh(A)
                raise NumericalError(
                    f"no acceptable column at iteration {tau} "
                    f"(max lscore-uscore = {np.max(lsc - usc):.3e}, "
                    f"potentials {phi_l:.6g}/{phi_u:.6g}, "
                    f"spectrum [{lam[0]:.9g}, {lam[-1]:.9g}], barriers ({L:.9g}, {U:.9g}))"
                )
            k = np.flatnonzero(eligible)[0]  # allow re-selection
            pick = k, lsc[k], usc[k], quad[k], lin[k]
            reselections += 1
        pos, l_i, u_i, (vq2_lo, vq2_hi), (vq_lo, vq_hi) = pick

        t = 2.0 / (u_i + l_i)
        v = V_sorted[pos]
        A += t * np.outer(v, v)
        # Next step's potentials: its barriers are this step's shifted ones,
        # so tr (A + t v v' - (L+1) I)^-1 and tr ((U+dU) I - A - t v v')^-1.
        phi_l = tr_lo - t * vq2_lo / (1.0 + t * vq_lo)
        denom = 1.0 - t * vq_hi
        if denom <= 0.0:
            raise _spectrum_error(A, tau + 1, L + delta_lower, U + delta_upper)
        phi_u = tr_hi + t * vq2_hi / denom
        taken[pos] = True
        indices[tau] = order[pos]
        steps[tau] = t

    weights = np.sqrt(steps) * math.sqrt((1.0 - ratio) / r)
    op = SamplingOperator(d, indices, weights)
    if return_diagnostics:
        diag = BssDiagnostics(0, score_evals, steps.copy(), reselections)
        return op, diag
    return op
