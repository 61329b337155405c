"""Column-sampling operators.

A selection of r features out of d, together with per-feature weights, is
represented as the d x r matrix R whose j-th column is weight[j] * e_{index[j]}.
Applying R^T to a feature vector keeps the chosen coordinates and rescales
them; for a data matrix X (n x d) the sampled data is X R = X[:, idx] * w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import is_sparse


@dataclass(frozen=True)
class SamplingOperator:
    """Weighted feature-selection operator R (d x r).

    indices may repeat (sampling with replacement); weights are positive.
    """

    n_features: int
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        w = np.asarray(self.weights, dtype=np.float64)
        if idx.ndim != 1 or w.ndim != 1 or idx.shape != w.shape:
            raise ValueError("indices and weights must be 1-d arrays of equal length")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n_features):
            raise ValueError("feature index out of range")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)

    @property
    def r(self) -> int:
        return self.indices.size

    def apply(self, X):
        """Return X R, i.e. the sampled-and-rescaled data matrix (n x r)."""
        n, d = X.shape
        if d != self.n_features:
            raise ValueError(f"operator built for {self.n_features} features, got {d}")
        if is_sparse(X):
            out = X.tocsc()[:, self.indices].multiply(self.weights[None, :])
            return sp.csr_matrix(out)
        return np.asarray(X)[:, self.indices] * self.weights

    def selected_features(self) -> np.ndarray:
        """Distinct selected feature indices, ascending."""
        return np.unique(self.indices)
