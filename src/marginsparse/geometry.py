"""Minimum enclosing ball.

The ball is computed by the core-set iteration: repeatedly move the center
toward the farthest point with harmonic step 1/(k+1).  The center is a
convex combination u of data points throughout, which yields the dual
lower bound  g(u) = sum_i u_i ||x_i||^2 - ||c||^2  <= B*^2, so the loop can
stop with a certificate as soon as the covering radius satisfies
max_dist^2 <= (1+delta)^2 g(u); the iteration cap ceil(1/delta^2) is the
classical worst case and is rarely approached.

The loop works from the Gram matrix G of the points centred on their mean
m.  Dense input is centred and multiplied out.  Sparse input stays sparse:
G = X X^T - (Xm)1^T - 1(Xm)^T + ||m||^2 comes from one sparse product.
Each entry of that G carries rounding of about eps * max ||x_i||^2, which
against the ball's scale max ||x_i - m||^2 is eps * kappa, with
kappa = max ||x_i||^2 / max ||x_i - m||^2.  So the sparse route is taken
only when kappa <= SPARSE_MAX_KAPPA; other sparse input is densified and
centred like dense input.  EnclosingBall.path says which route ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import check_matrix, is_sparse, to_dense

# Largest max ||x_i||^2 / max ||x_i - m||^2 for which the centred Gram
# matrix is formed from sparse products (rounding <= ~1e-12 of the scale).
SPARSE_MAX_KAPPA = 1e4
# Smallest delta accepted: the iteration cap ceil(1/delta^2) is then 1e8.
MIN_DELTA = 1e-4


@dataclass(frozen=True)
class EnclosingBall:
    center: np.ndarray
    radius: float
    delta: float
    iterations: int
    certified: bool
    path: str = "dense"  # "sparse" when G came from sparse products


def _dense_geometry(X):
    """(G, sq, m, centre, "dense") for the rows P of X made dense, centred
    on their mean m; centre(u) returns c = P^T u and P c."""
    P = to_dense(X)
    shift = P.mean(axis=0)
    P = P - shift  # work near the origin to tame cancellation in g(u)

    def centre(u):
        c = u @ P
        return c, P @ c

    return P @ P.T, np.einsum("ij,ij->i", P, P), shift, centre, "dense"


def _sparse_geometry(X):
    """(G, sq, m, centre, "sparse") for the sparse rows X, as _dense_geometry
    gives them but from sparse products; None when kappa exceeds
    SPARSE_MAX_KAPPA or every point is the mean."""
    shift = np.asarray(X.sum(axis=0)).ravel() / X.shape[0]
    K = (X @ X.T).toarray()
    Xm = X @ shift
    G = K - np.add.outer(Xm, Xm)  # symmetric wherever K is
    G += shift @ shift
    sq = G.diagonal().copy()
    scale = sq.max()
    if not (scale > 0 and K.diagonal().max() <= SPARSE_MAX_KAPPA * scale):
        return None

    def centre(u):
        c = X.T @ u - u.sum() * shift
        return c, X @ c - shift @ c

    return G, sq, shift, centre, "sparse"


def meb_radius(X, delta: float = 1e-3) -> EnclosingBall:
    """(1+delta)-approximate minimum enclosing ball of the rows of X.

    The returned radius is the actual covering radius of the returned
    center (max distance to any row), so every point is inside the ball
    and the radius is at most (1+delta) times the optimum when the run
    ends certified.  delta lies in [MIN_DELTA, 1).

    The centred Gram matrix G is formed once, and with it
    S[f] = sq - 2 G[f], for sq the squared norms of the centred points.
    At iteration k the loop carries h = k (sq - 2 P c), so the distances
    are h / k + c.c, and the harmonic step toward the point f, which makes
    the next c = (k c + p_f) / (k+1), is the one vector add h += S[f]; c.c
    follows from G's diagonal.  An iteration thus costs O(n), not O(nd).
    Before certifying, the stopping test is repeated on the exact center
    c = P^T u, which also resets h, so drift cannot certify a ball.
    """
    if not (0.0 < delta < 1.0):
        raise DataError("delta must be in (0, 1)")
    if delta < MIN_DELTA:
        raise DataError(f"delta must be at least {MIN_DELTA:g}, got {delta:g}")
    check_matrix(X, name="X")
    if np.shape(X)[0] < 1:
        raise DataError("need at least one point")
    geometry = _sparse_geometry(X) if is_sparse(X) else None
    G, sq, shift, centre, path = geometry or _dense_geometry(X)
    n = sq.size
    S = sq - 2.0 * G
    sq_list, G_diag = sq.tolist(), G.diagonal().tolist()
    h, d2 = np.empty((2, n))

    def resync(u):
        """The exact center c = P^T u and c.c, with h = sq - 2 P c and the
        distances d2 = h + c.c formed from them."""
        c, Pc = centre(u)
        cc = float(c @ c)
        np.multiply(Pc, 2.0, out=h)
        np.subtract(sq, h, out=h)
        np.add(h, cc, out=d2)
        return c, cc

    u = np.zeros(n)
    u[0] = 1.0
    h[:], cc = S[0], G.item(0, 0)
    slack = (1.0 + delta) ** 2
    max_iter = math.ceil(1.0 / delta**2)
    certified = False
    k = 0
    for k in range(1, max_iter + 1):
        # h holds k (sq - 2 P c); the step 1/(k+1) then makes the next
        # (k+1) (sq - 2 P c) the sum h + S[far].
        far = h.argmax()
        h_far = h.item(far) / k
        if h_far + cc <= slack * (u @ sq - cc):
            c, cc = resync(u)
            far = d2.argmax()
            if d2.item(far) <= slack * (u @ sq - cc):
                certified = True
                break
            h_far = h.item(far)
            h *= k
        step = 1.0 / (k + 1.0)
        u *= 1.0 - step
        u[far] += step
        # 2 p_far.c = sq_far - h_far
        cc = (1.0 - step) ** 2 * cc + step * (
            (1.0 - step) * (sq_list[far] - h_far) + step * G_diag[far])
        h += S[far]

    if not certified:
        c, _ = resync(u)
    radius = float(math.sqrt(max(d2.max(), 0.0)))
    return EnclosingBall(center=c + shift, radius=radius, delta=delta,
                         iterations=k, certified=certified, path=path)
