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
stopping at the first block that holds an acceptable untaken row.  A step
costs one ell x ell eigendecomposition plus O(ell^2) per row scored, and
scores all d rows only when every acceptable row is already taken.

The procedure is fully deterministic: no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    eig_count counts eigendecompositions (one per iteration).
    score_evaluations counts rows scored: per iteration, the whole blocks
    of the descending-norm order up to the one holding the pick, or all d
    rows on an iteration that reselects a taken row.
    """

    eig_count: int
    score_evaluations: int
    step_sizes: np.ndarray
    reselections: int


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
            raise NumericalError(
                f"barrier crossed at iteration {tau}: spectrum "
                f"[{lam[0]:.9g}, {lam[-1]:.9g}] vs barriers ({L:.9g}, {U:.9g})"
            )
        gap_lo = lam - (L + delta_lower)
        gap_hi = (U + delta_upper) - lam
        if gap_lo[0] <= 0.0:
            # The potential bound keeps lambda_min > L + 1; hitting this
            # means accumulated rounding broke the induction.
            raise NumericalError(
                f"lower barrier shift overtook the spectrum at iteration {tau}"
            )
        dphi_l = np.sum(1.0 / gap_lo) - np.sum(1.0 / (lam - L))
        dphi_u = np.sum(1.0 / (U - lam)) - np.sum(1.0 / gap_hi)
        inv_lo, inv_lo2 = 1.0 / gap_lo, gap_lo**-2
        inv_hi, inv_hi2 = 1.0 / gap_hi, gap_hi**-2

        # Score rows in the eigenbasis of A, one block at a time.
        scored = []
        pick = None
        for start in range(0, d, SCORE_BLOCK):
            P2 = (V_sorted[start:start + SCORE_BLOCK] @ W) ** 2
            lsc = (P2 @ inv_lo2) / dphi_l - P2 @ inv_lo
            usc = (P2 @ inv_hi2) / dphi_u + P2 @ inv_hi
            score_evals += P2.shape[0]
            slack = SCORE_SLACK * np.maximum(np.abs(lsc), np.abs(usc))
            eligible = (usc <= lsc + slack) & (usc + lsc > 0.0)
            hits = np.flatnonzero(eligible & ~taken[start:start + SCORE_BLOCK])
            if hits.size:
                k = hits[0]
                pick = start + k, lsc[k], usc[k]
                break
            scored.append((lsc, usc, eligible))

        if pick is None:
            # Every eligible row is taken, and all d rows have been scored.
            lsc, usc, eligible = (np.concatenate(a) for a in zip(*scored))
            if not eligible.any():
                raise NumericalError(
                    f"no acceptable column at iteration {tau} "
                    f"(max lscore-uscore = {np.max(lsc - usc):.3e}, "
                    f"potentials {np.sum(1.0 / (lam - L)):.6g}/{np.sum(1.0 / (U - lam)):.6g}, "
                    f"spectrum [{lam[0]:.9g}, {lam[-1]:.9g}], barriers ({L:.9g}, {U:.9g}))"
                )
            k = np.flatnonzero(eligible)[0]  # allow re-selection
            pick = k, lsc[k], usc[k]
            reselections += 1
        pos, l_i, u_i = pick

        t = 2.0 / (u_i + l_i)
        v = V_sorted[pos]
        A += t * np.outer(v, v)
        taken[pos] = True
        indices[tau] = order[pos]
        steps[tau] = t

    weights = np.sqrt(steps) * math.sqrt((1.0 - ratio) / r)
    op = SamplingOperator(d, indices, weights)
    if return_diagnostics:
        diag = BssDiagnostics(eig_count, score_evals, steps.copy(), reselections)
        return op, diag
    return op
