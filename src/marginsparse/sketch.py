"""Gaussian sketch front end for the deterministic selector.

When the matrix fed to the selector has many rows (e.g. a support-vector
set with large p) and is rank-deficient, so that thin_svd cannot use its
Gram route, its thin SVD dominates the cost.  Sketching with a t x p
standard-normal G preserves the row space of X almost surely, so running
the selector on the right singular vectors of GX is a cheap stand-in for
running it on those of X.  G is left unscaled: a 1/sqrt(t) factor would
only rescale the singular values, not the right singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_RANK_THRESHOLD, check_matrix, thin_svd, to_dense
from .bss import bss_select
from .operators import SamplingOperator


@dataclass(frozen=True)
class SketchConfig:
    t: int
    seed: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("sketch needs at least one row")


def gaussian_sketch(X, cfg: SketchConfig) -> np.ndarray:
    """Return G @ X with G (t x p) i.i.d. standard normal from cfg.seed."""
    check_matrix(X, name="X")
    p = X.shape[0]
    G = np.random.default_rng(cfg.seed).standard_normal((cfg.t, p))
    return np.asarray(G @ to_dense(X))


def approx_bss_select(X, t: int, r: int, seed: int,
                      rank_threshold: float = DEFAULT_RANK_THRESHOLD) -> SamplingOperator:
    """Deterministic selection on the right singular basis of a sketch of X.

    Equivalent to bss_select(thin_svd(gaussian_sketch(X)).V, r); the working
    dimension ell is the numerical rank of GX, so r must exceed it.
    """
    Xs = gaussian_sketch(X, SketchConfig(t, seed))
    V = thin_svd(Xs, rank_threshold=rank_threshold).V
    return bss_select(V, r)
