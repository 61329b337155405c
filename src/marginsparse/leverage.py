"""Randomized column selection by leverage scores.

The sampling probability of feature i is the squared norm of row i of the
right singular factor V (d x ell), normalized by ell so the scores form a
probability distribution (row norms of an orthonormal-column V sum to ell).
Columns are drawn i.i.d. with replacement; a draw of column i carries
weight 1/sqrt(r * p_i), which makes V^T R R^T V unbiased for the identity.
"""

from __future__ import annotations

import numpy as np

from .linalg import _row_norms_sq, require_orthonormal
from .operators import SamplingOperator


def leverage_scores(V) -> np.ndarray:
    """The probability vector p_i = ||row i of V||^2 / ell of an
    orthonormal-column V (d x ell), given as an array or as a ThinSvd, whose
    carried orthonormality check is read."""
    V = require_orthonormal(V, name="V")
    p = _row_norms_sq(V) / V.shape[1]
    # Row norms of orthonormal columns sum to ell exactly in real arithmetic;
    # absorb the last few ulps so downstream samplers see a clean simplex point.
    return p / p.sum()


def leverage_select(V, r: int, seed: int) -> SamplingOperator:
    """r i.i.d. draws from the leverage distribution, weight 1/sqrt(r p_i)."""
    if r < 1:
        raise ValueError("need r >= 1")
    p = leverage_scores(V)
    rng = np.random.default_rng(seed)
    indices = rng.choice(p.size, size=r, replace=True, p=p)
    weights = 1.0 / np.sqrt(r * p[indices])
    return SamplingOperator(p.size, indices, weights)
