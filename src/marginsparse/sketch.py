"""Gaussian sketch front end for the deterministic selector.

When the matrix fed to the selector has many rows (e.g. a support-vector
set with large p) and is rank-deficient, so that thin_svd cannot use its
Gram route, its thin SVD dominates the cost.  Sketching with a t x p
standard-normal G preserves the row space of X almost surely, so running
the selector on the right singular vectors of GX is a cheap stand-in for
running it on those of X.  G is left unscaled: a 1/sqrt(t) factor would
only rescale the singular values, not the right singular vectors.
A sparse X is never densified: G X is formed as the sparse product
(X^T G^T)^T.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_matrix, is_sparse, thin_svd
from .bss import bss_select
from .operators import SamplingOperator


def gaussian_sketch(X, t: int, seed: int) -> np.ndarray:
    """Return G @ X with G (t x p) i.i.d. standard normal from seed."""
    if t < 1:
        raise ValueError("sketch needs at least one row")
    check_matrix(X, name="X")
    G = np.random.default_rng(seed).standard_normal((t, X.shape[0]))
    if is_sparse(X):
        return np.asarray(X.T @ G.T).T
    return G @ np.asarray(X, dtype=float)


def approx_bss_select(X, t: int, r: int, seed: int) -> SamplingOperator:
    """Deterministic selection on the right singular basis of a sketch of X:
    bss_select(thin_svd(gaussian_sketch(X, t, seed)), r).  The working
    dimension ell is the numerical rank of GX, so r must exceed it.
    """
    return bss_select(thin_svd(gaussian_sketch(X, t, seed)), r)
