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

Each step picks the acceptable untaken row of largest norm.  Only the
untaken rows are scored, lazily: in their stable descending-norm order, a
block at a time, stopping at the first block that holds an acceptable one;
the pick then leaves that order.  A step's first block holds the least
power of two above the previous pick's offset in that order, clamped to
[8, SCORE_BLOCK] rows, and later blocks hold SCORE_BLOCK rows.  The scores
need the two shifted resolvents Q_lo = (A - (L+1)I)^-1 and
Q_hi = ((U+delta_upper)I - A)^-1, not the spectrum of A.  A step factors
both shifted matrices, C^T C, and inverts both factors in place, side by
side in one ell x 2ell buffer F = [C_lo^-1 | C_hi^-1]; each trace tr Q is
||C^-1||_F^2.  A block of rows V_b costs three GEMMs: Z = V_b F gives
v'Qv as the squared row norms of each half, and Z_half C_half^-T gives
v'Q^2 v the same way.  lambda_max(A) < U is certified by the upper factor
alone: (U+delta_upper)I - A is positive definite, and its least
eigenvalue is at least 1/tr Q_hi, which exceeds delta_upper when
tr Q_hi * delta_upper < 1.  While the barrier invariant holds,
tr Q_hi * delta_upper < tr (U I - A)^-1 * delta_upper <= sqrt(ell/r) < 1,
and the factor of U I - A that tests lambda_max < U directly runs only on
a step whose product reaches _CERT_MARGIN, just below 1.  The unshifted
potentials tr (A - L I)^-1 and tr (U I - A)^-1 are carried from one step
to the next by Sherman-Morrison.
Only when no untaken row is acceptable are the taken rows scored too, in
their own descending-norm order, and the first acceptable one is picked
again; such a step scores all d rows.

The procedure is fully deterministic: no randomness anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .errors import NumericalError
from .linalg import _row_norms_sq, require_orthonormal
from .operators import SamplingOperator

# Relative slack when testing uscore <= lscore, so exact ties survive rounding.
SCORE_SLACK = 1e-12
# Rows scored per block of the lazy scan.
SCORE_BLOCK = 64
# Fewest rows in a step's first block, which is sized to the last pick.
_FIRST_BLOCK_MIN = 8
# tr ((U+dU)I - A)^-1 * dU below this certifies lambda_max(A) < U; the
# margin absorbs rounding in the computed trace.
_CERT_MARGIN = 1.0 - 1e-6


@dataclass(frozen=True)
class BssDiagnostics:
    """Instrumentation from one bss_select run.

    eig_count counts eigendecompositions.  The barriers are tested by
    Cholesky factors, so it is 0; only a failing run takes a spectrum, and
    that run raises.
    score_evaluations counts rows scored: per iteration, the whole blocks
    of the untaken rows' descending-norm order up to the one holding the
    pick (the first sized to the previous pick's offset, the rest
    SCORE_BLOCK rows), or all d rows on an iteration that reselects a
    taken row.
    """

    eig_count: int
    score_evaluations: int
    step_sizes: np.ndarray
    reselections: int


def _descending_order(x):
    """Indices of x by descending value, equal values in ascending index
    order: np.argsort(-x, kind="stable"), from a faster unstable sort whose
    runs of equal values are then put in index order."""
    order = np.argsort(-x)
    tied = x[order[1:]] == x[order[:-1]]
    if tied.any():
        # Sort by (run, index): one key per row, so the sort need not be stable.
        run = np.concatenate(([0], np.cumsum(~tied)))
        order = np.sort(run * x.size + order) % x.size
    return order


def _inverse_factor(M):
    """Overwrite the symmetric M with its inverse upper Cholesky factor and
    return tr M^-1; None when M is not positive definite.  With M = C^T C,
    M^-1 = C^-1 C^-T, whose trace is ||C^-1||_F^2.  M's F-order view (its
    transpose, since M = M^T) ends up holding C^-1."""
    C, info = dpotrf(M.T, overwrite_a=1)  # factors in place; zeros below
    if info != 0:
        return None
    C, info = dtrtri(C, overwrite_c=1)
    if info != 0:
        return None
    return float(np.vdot(C, C))


def _score(Vb, F, B, dphi_l, dphi_u):
    """Lower and upper scores of the rows Vb against F = [C_lo^-1 | C_hi^-1],
    with their acceptability and v'Q^2 v, v'Q v per half, from three GEMMs.
    Z = Vb F holds v'C^-1 per half: v'Qv = |v'C^-1|^2 and v'Q^2 v =
    |v'C^-1 C^-T|^2, for Q = C^-1 C^-T.  The slabs of B are the halves of F
    transposed, so one batched product against B forms both v'C^-1 C^-T."""
    ell = Vb.shape[1]
    Z = (Vb @ F).reshape(-1, 2, ell)
    W = np.matmul(Z.transpose(1, 0, 2), B)
    quad = np.einsum("jik,jik->ij", W, W)
    lin = np.einsum("ijk,ijk->ij", Z, Z)
    lsc = quad[:, 0] / dphi_l - lin[:, 0]
    usc = quad[:, 1] / dphi_u + lin[:, 1]
    slack = SCORE_SLACK * np.maximum(np.abs(lsc), np.abs(usc))
    eligible = (usc <= lsc + slack) & (usc + lsc > 0.0)
    return lsc, usc, eligible, quad, lin


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
    """Select r weighted rows of an orthonormal-column V (d x ell), given as
    an array or as a ThinSvd, whose carried orthonormality check is read.

    Returns a SamplingOperator R with exactly r selections (indices may
    repeat) such that all singular values of R^T V lie in
    [1 - sqrt(ell/r), 1 + sqrt(ell/r)].  Requires r > ell.  Deterministic.
    """
    V = require_orthonormal(V, name="V")
    d, ell = V.shape
    if r <= ell:
        raise ValueError(f"need r > ell, got r={r} with ell={ell}")

    ratio = math.sqrt(ell / r)
    delta_lower = 1.0
    delta_upper = (1.0 + ratio) / (1.0 - ratio)
    sqrt_rl = math.sqrt(r * ell)

    # Stable sort: rows of equal norm keep ascending index order, so the
    # first eligible row in this order is the largest-norm, lowest-index one.
    order = _descending_order(_row_norms_sq(V))
    # live[n_taken:] holds the untaken rows in that order, live[:n_taken]
    # the taken ones in the order they were first picked.
    live = order.copy()
    n_taken = 0
    A = np.zeros((ell, ell))
    # Both halves of F are F-order views, each the transpose of one slab of
    # B: B[0] takes A - (L+1)I and B[1] (U+dU)I - A, and both are factored
    # and inverted in place, so F = [C_lo^-1 | C_hi^-1].
    B = np.empty((2, ell, ell))
    F = B.reshape(2 * ell, ell).T
    # B = (A, -A) * signs, then each slab's diagonal takes its shift.
    signs = np.array([1.0, -1.0])[:, None, None]
    diagonals = B.reshape(2, -1)[:, ::ell + 1]
    shifts = np.empty((2, 1))
    indices = np.empty(r, dtype=np.intp)
    steps = np.empty(r)
    score_evals = 0
    reselections = 0
    offset = 0  # the last pick's offset in the untaken order
    # Potentials tr (A - L I)^-1 and tr (U I - A)^-1 at A = 0.
    phi_l = ell / sqrt_rl
    phi_u = ell / (delta_upper * sqrt_rl)

    for tau in range(r):
        L = tau - sqrt_rl
        U = delta_upper * (tau + sqrt_rl)
        # lambda_min > L + 1 > L exactly when A - (L+1) I has a factor.
        np.multiply(A, signs, out=B)
        shifts[0], shifts[1] = -(L + delta_lower), U + delta_upper
        diagonals += shifts
        tr_lo = _inverse_factor(B[0])
        if tr_lo is None:
            raise _spectrum_error(A, tau, L, U, lower_shift=True)
        tr_hi = _inverse_factor(B[1])
        if tr_hi is None:
            raise _spectrum_error(A, tau, L, U)
        # (U+dU)I - A is positive definite, so its least eigenvalue
        # U + dU - lambda_max is at least 1/tr_hi, which exceeds dU when
        # tr_hi dU < 1.  Only an inconclusive trace pays for the factor of
        # U I - A that tests lambda_max < U directly.
        if tr_hi * delta_upper >= _CERT_MARGIN:
            M = -A
            M.flat[::ell + 1] += U
            if dpotrf(M.T, clean=0, overwrite_a=1)[1] != 0:
                raise _spectrum_error(A, tau, L, U)
        dphi_l = tr_lo - phi_l
        dphi_u = phi_u - tr_hi

        scored = []
        i = None  # the pick; k indexes it in the score arrays it came from
        # The first block holds the least power of two above the last
        # pick's offset (clamped); later blocks hold SCORE_BLOCK rows.
        start = n_taken
        size = min(max(1 << offset.bit_length(), _FIRST_BLOCK_MIN), SCORE_BLOCK)
        while start < d:
            rows = live[start:start + size]
            lsc, usc, eligible, quad, lin = _score(V[rows], F, B, dphi_l, dphi_u)
            score_evals += rows.size
            k = int(eligible.argmax())  # the first acceptable row, if any
            if eligible[k]:
                i = rows[k]
                # Drop the pick from the untaken order in place: the
                # untaken rows before it move back one slot, and it takes
                # the first, which joins the taken prefix.
                j = start + k
                live[n_taken + 1:j + 1] = live[n_taken:j]
                live[n_taken] = i
                offset = int(j - n_taken)
                n_taken += 1
                break
            scored.append((lsc, usc, eligible, quad, lin))
            start += size
            size = SCORE_BLOCK

        if i is None:
            # No untaken row is acceptable: score the taken rows too, in
            # their own descending-norm order, and pick the first acceptable.
            is_taken = np.zeros(d, dtype=bool)
            is_taken[live[:n_taken]] = True
            rows = order[is_taken[order]]
            for start in range(0, n_taken, SCORE_BLOCK):
                block = rows[start:start + SCORE_BLOCK]
                scored.append(_score(V[block], F, B, dphi_l, dphi_u))
            score_evals += n_taken
            # All d rows, the untaken ones first.
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
            i = rows[k - (d - n_taken)]
            reselections += 1
            offset = d - n_taken  # every untaken row was scored
        l_i, u_i = lsc.item(k), usc.item(k)
        (vq2_lo, vq2_hi), (vq_lo, vq_hi) = quad[k].tolist(), lin[k].tolist()

        t = 2.0 / (u_i + l_i)
        v = V[i]
        A += t * np.multiply.outer(v, v)
        # Next step's potentials: its barriers are this step's shifted ones,
        # so tr (A + t v v' - (L+1) I)^-1 and tr ((U+dU) I - A - t v v')^-1.
        phi_l = tr_lo - t * vq2_lo / (1.0 + t * vq_lo)
        denom = 1.0 - t * vq_hi
        if denom <= 0.0:
            raise _spectrum_error(A, tau + 1, L + delta_lower, U + delta_upper)
        phi_u = tr_hi + t * vq2_hi / denom
        indices[tau] = i
        steps[tau] = t

    weights = np.sqrt(steps) * math.sqrt((1.0 - ratio) / r)
    op = SamplingOperator(d, indices, weights)
    if return_diagnostics:
        diag = BssDiagnostics(0, score_evals, steps.copy(), reselections)
        return op, diag
    return op
