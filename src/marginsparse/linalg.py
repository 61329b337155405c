"""Core matrix routines: thin SVD, spectral error of a sampled basis, row norms.

Matrices are plain 2-D float ``numpy.ndarray`` objects or
``scipy.sparse.csr_matrix`` / ``csr_array`` (rows are data points, columns
are features). All functions here are pure, except _one_blas_thread, which
sets the BLAS thread count for the duration of a block.
"""

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericalError

# Relative cutoff below which singular values count as zero.
DEFAULT_RANK_THRESHOLD = 1e-10

# Sparse inputs above this column count are never densified for the dense SVD.
DENSIFY_COLUMN_LIMIT = 100_000

# The Gram route squares the condition number, so it is taken only when
# sigma_min / sigma_max clears this with room to spare above sqrt(eps), and
# only when the factor it builds is orthonormal to GRAM_MAX_DEFECT.
GRAM_MIN_SIGMA_RATIO = 1e-6
GRAM_MAX_DEFECT = 1e-10


def is_sparse(M) -> bool:
    return sp.issparse(M)


def check_matrix(M, name: str = "matrix"):
    """Validate a feature matrix: 2-D, finite, sane sparse structure."""
    if is_sparse(M):
        if M.ndim != 2:
            raise DataError(f"{name} must be 2-D, got shape {M.shape}")
        if not np.all(np.isfinite(M.data)):
            raise DataError(f"{name} contains non-finite values")
        return
    M = np.asarray(M)
    if M.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DataError(f"{name} contains non-finite values")


def to_dense(M) -> np.ndarray:
    if is_sparse(M):
        return np.asarray(M.todense(), dtype=float)
    return np.asarray(M, dtype=float)


@dataclass(frozen=True)
class ThinSvd:
    """Rank-truncated SVD: M ~= U @ diag(singular_values) @ V.T.

    U is n x rho, V is d x rho, singular values are positive and
    non-increasing; rho is the numerical rank.  path is "gram" when the
    factors came from the Gram matrix of the short side, "dense" when they
    came from LAPACK's SVD of the densified matrix.

    gram is V^T V and defect is ||V^T V - I||_2 (inf when V^T V is not
    finite): the basis's one orthonormality check, formed from V when the
    ThinSvd is built.  V is held read-only, so they stay V's.  bss_select,
    leverage_scores and spectral_error read them instead of forming V^T V
    again.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray
    path: str
    gram: np.ndarray = field(init=False, repr=False, compare=False)
    defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float).view()
        V.flags.writeable = False
        gram = V.T @ V
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "defect",
                           _gram_defect(gram) if np.isfinite(gram).all() else np.inf)

    @property
    def rank(self) -> int:
        return self.singular_values.size


def thin_svd(M) -> ThinSvd:
    """Thin SVD with relative rank truncation.

    Singular values <= DEFAULT_RANK_THRESHOLD * sigma_1 are dropped. A zero
    matrix yields rank 0 with empty factors.

    The short side of M (k = min(n, d)) is tried first: eigh of its k x k
    Gram matrix, a sparse product for sparse M, gives one factor, and M or
    M^T times it over the singular values gives the other.  That route is
    taken when the Gram matrix has sigma_min / sigma_max above
    GRAM_MIN_SIGMA_RATIO and the built factor is orthonormal; any other
    input gets the dense SVD.
    """
    check_matrix(M)
    if not is_sparse(M):
        M = np.asarray(M, dtype=float)
    n, d = M.shape
    F = _gram_svd(M) if n and d else None
    return _dense_svd(M) if F is None else F


def _gram_svd(M):
    """The ThinSvd from the Gram matrix of M's short side, or None when that
    Gram matrix is too ill-conditioned or the built factor not orthonormal.
    On a wide M the built factor is V, and the ThinSvd's own check of V is
    the test."""
    wide = M.shape[0] <= M.shape[1]
    A = M if wide else M.T  # k x m with k <= m
    G = A @ A.T
    G = G.toarray() if is_sparse(G) else G
    lam, W = np.linalg.eigh(G)
    lam, W = lam[::-1], W[:, ::-1]
    # This ratio gate puts every sigma far above DEFAULT_RANK_THRESHOLD * sigma_1,
    # so the route keeps all k of them.
    if not lam[-1] > GRAM_MIN_SIGMA_RATIO**2 * lam[0]:
        return None
    s = np.sqrt(lam)
    AW = np.asarray(A.T @ W)
    # Both factors are F-order, the layout they had as column gathers:
    # leverage's row norms, and so its draws, follow V's layout.
    other = np.divide(AW, s, out=np.empty((s.size, AW.shape[0])).T)
    W = W.copy(order="F")
    if wide:
        F = ThinSvd(W, s, other, "gram")
        return F if F.defect <= GRAM_MAX_DEFECT else None
    if orthonormality_defect(other) > GRAM_MAX_DEFECT:
        return None
    return ThinSvd(other, s, W, "gram")


def _dense_svd(M) -> ThinSvd:
    if is_sparse(M):
        if M.shape[1] > DENSIFY_COLUMN_LIMIT:
            raise DataError(
                f"sparse matrix is rank-deficient or ill-conditioned on its "
                f"short side, and its {M.shape[1]} columns are too many to "
                f"densify for a dense SVD (limit {DENSIFY_COLUMN_LIMIT})"
            )
        M = to_dense(M)
    n, d = M.shape
    if n == 0 or d == 0 or not M.any():
        return ThinSvd(np.zeros((n, 0)), np.zeros(0), np.zeros((d, 0)), "dense")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > DEFAULT_RANK_THRESHOLD * s[0]
    return ThinSvd(U[:, keep], s[keep], Vt[keep].T, "dense")


def spectral_error(V, indices, weights) -> float:
    """||V^T V - M^T M||_2 for M = R^T V, the rows V[indices] scaled by weights.

    V is a ThinSvd, whose carried V^T V is used, or an array.  The
    difference is a symmetric ell x ell matrix, so its norm is the largest
    absolute eigenvalue, read exactly by eigvalsh.
    """
    if isinstance(V, ThinSvd):
        V, gram = V.V, V.gram
    else:
        V = np.asarray(V, dtype=float)
        gram = V.T @ V
    M = V[indices] * np.asarray(weights, dtype=float)[:, None]  # R^T V without the d x r R
    lam = np.linalg.eigvalsh(gram - M.T @ M)
    return float(max(-lam[0], lam[-1])) if lam.size else 0.0


def row_norms_sq(M) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    check_matrix(M)
    if is_sparse(M):
        out = np.asarray(M.multiply(M).sum(axis=1)).ravel()
        return out.astype(float)
    return _row_norms_sq(np.asarray(M, dtype=float))


def _row_norms_sq(M: np.ndarray) -> np.ndarray:
    """row_norms_sq of a dense float M already checked, such as the array
    require_orthonormal returns; the sum follows M's memory layout."""
    return np.einsum("ij,ij->i", M, M)


def orthonormality_defect(V: np.ndarray) -> float:
    """Spectral norm of V^T V - I; small for orthonormal columns."""
    V = np.asarray(V, dtype=float)
    return _gram_defect(V.T @ V)


def _gram_defect(G: np.ndarray) -> float:
    """Spectral norm of G - I for a Gram matrix G = V^T V."""
    if G.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(G - np.eye(G.shape[0]))).max())


def require_orthonormal(V, tol: float = 1e-8, name: str = "V") -> np.ndarray:
    """The d x ell float array of the basis V, checked to be 2-D, finite, of
    rank >= 1 and orthonormal to tol.  V is a ThinSvd, whose carried defect
    is read, or an array, whose V^T V is formed here.

    A ThinSvd's V is not scanned for non-finite values when its defect is
    finite: a non-finite entry would make its column's diagonal of V^T V,
    and so the defect, inf or nan."""
    svd = V if isinstance(V, ThinSvd) else None
    V = np.asarray(V.V if svd else V, dtype=float)
    if svd is None or not np.isfinite(svd.defect):
        check_matrix(V, name=name)
    if V.shape[1] == 0:
        raise DataError(f"{name} has no columns (rank 0 input)")
    defect = svd.defect if svd else orthonormality_defect(V)
    if defect > tol:
        raise NumericalError(
            f"{name} does not have orthonormal columns "
            f"(defect {defect:.3e} > {tol:.1e})"
        )
    return V


@functools.cache
def _openblas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of each OpenBLAS copy already loaded.

    numpy and scipy each load their own copy.  The copies are found in
    /proc/self/maps, so none is loaded here; where that file, the library
    or the symbol is missing (MKL, Accelerate, non-Linux) the result is ().
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return ()
    setters = []
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS at one thread, then put
    back the counts it had, also when the block raises; a no-op without
    OpenBLAS.

    The count is the process's, not the calling thread's: OpenBLAS's
    pthreads builds set the global count here.  BLAS that another thread
    runs meanwhile is limited too, and two overlapping blocks may put the
    counts back in the wrong order.
    """
    setters = _openblas_thread_setters()
    previous = [set_threads(1) for set_threads in setters]
    try:
        yield
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)
