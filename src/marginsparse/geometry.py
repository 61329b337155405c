"""Minimum enclosing ball.

The ball is computed by the core-set iteration: repeatedly move the center
toward the farthest point with harmonic step 1/(k+1).  The center is a
convex combination u of data points throughout, which yields the dual
lower bound  g(u) = sum_i u_i ||x_i||^2 - ||c||^2  <= B*^2, so the loop can
stop with a certificate as soon as the covering radius satisfies
max_dist^2 <= (1+delta)^2 g(u); the iteration cap ceil(1/delta^2) is the
classical worst case and is rarely approached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .linalg import check_matrix, to_dense


@dataclass(frozen=True)
class EnclosingBall:
    center: np.ndarray
    radius: float
    delta: float
    iterations: int
    certified: bool


def meb_radius(X, delta: float = 1e-3) -> EnclosingBall:
    """(1+delta)-approximate minimum enclosing ball of the rows of X.

    The returned radius is the actual covering radius of the returned
    center (max distance to any row), so every point is inside the ball
    and the radius is at most (1+delta) times the optimum when the run
    ends certified.

    The Gram matrix G = P P^T of the centred points is formed once; the
    loop then keeps P c and c.c current from rows of G, so an iteration
    costs O(n), not O(nd).  Before certifying, the stopping test is
    repeated on the exact center c = P^T u, so drift cannot certify a ball.
    """
    if not (0.0 < delta < 1.0):
        raise DataError("delta must be in (0, 1)")
    check_matrix(X, name="X")
    P = to_dense(X)
    if P.shape[0] < 1:
        raise DataError("need at least one point")
    n = P.shape[0]
    shift = P.mean(axis=0)
    P = P - shift  # work near the origin to tame cancellation in g(u)
    sq = np.einsum("ij,ij->i", P, P)
    G = P @ P.T

    def dist2(Pc, cc):
        """|p_i - c|^2 = |p_i|^2 - 2 p_i.c + c.c for every point, into d2."""
        np.multiply(Pc, 2.0, out=d2)
        np.subtract(sq, d2, out=d2)
        return np.add(d2, cc, out=d2)

    d2 = np.empty(n)
    G_diag = G.diagonal().tolist()
    u = np.zeros(n)
    u[0] = 1.0
    Pc, cc = G[0].copy(), G.item(0, 0)
    slack = (1.0 + delta) ** 2
    max_iter = math.ceil(1.0 / delta**2)
    certified = False
    k = 0
    for k in range(1, max_iter + 1):
        far = dist2(Pc, cc).argmax()
        if d2.item(far) <= slack * (u @ sq - cc):
            c = u @ P
            Pc, cc = P @ c, float(c @ c)  # resync to the exact center
            far = dist2(Pc, cc).argmax()
            if d2.item(far) <= slack * (u @ sq - cc):
                certified = True
                break
        step = 1.0 / (k + 1.0)
        u *= 1.0 - step
        u[far] += step
        cc = (1.0 - step) ** 2 * cc + step * (2.0 * (1.0 - step) * Pc.item(far) + step * G_diag[far])
        # Pc = (1 - step) Pc + step G[far], in place, with d2 as scratch.
        Pc *= 1.0 - step
        Pc += np.multiply(G[far], step, out=d2)

    if not certified:
        c = u @ P
        dist2(P @ c, c @ c)
    radius = float(math.sqrt(max(d2.max(), 0.0)))
    return EnclosingBall(center=c + shift, radius=radius, delta=delta,
                         iterations=k, certified=certified)
