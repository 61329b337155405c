import numpy as np
import pytest
import scipy.sparse as sp

import marginsparse.linalg as linalg
from marginsparse.bss import bss_select
from marginsparse.errors import DataError, NumericalError
from marginsparse.leverage import leverage_scores, leverage_select
from marginsparse.linalg import (ThinSvd, orthonormality_defect, require_orthonormal,
                                 row_norms_sq, spectral_error, thin_svd)
from oracles import eig_spectral_norm, reconstruct, svd_reference
from test_acceptance import _rank10_data


def test_thin_svd_diagonal():
    F = thin_svd(np.diag([3.0, 1.0]))
    assert F.rank == 2
    np.testing.assert_allclose(F.singular_values, [3.0, 1.0])
    np.testing.assert_allclose(np.abs(F.U), np.eye(2), atol=1e-12)
    np.testing.assert_allclose(np.abs(F.V), np.eye(2), atol=1e-12)


def test_thin_svd_zero_matrix():
    F = thin_svd(np.zeros((3, 4)))
    assert F.rank == 0
    assert F.U.shape == (3, 0) and F.V.shape == (4, 0)
    np.testing.assert_array_equal(reconstruct(F), np.zeros((3, 4)))


def test_thin_svd_low_rank_product():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6))
    F = thin_svd(M)
    assert F.rank == 3
    assert eig_spectral_norm(M - reconstruct(F)) <= 1e-8
    # singular values must match the Gram eigendecomposition oracle
    ev = np.linalg.eigvalsh(M.T @ M)[::-1][:3]
    np.testing.assert_allclose(F.singular_values, np.sqrt(np.maximum(ev, 0)),
                               rtol=1e-10)


def test_thin_svd_reconstruction_sweep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 81))
        M = rng.standard_normal((n, d))
        F = thin_svd(M)
        s1 = F.singular_values[0] if F.rank else 0.0
        assert eig_spectral_norm(M - reconstruct(F)) <= 1e-6 * max(s1, 1e-300)
        assert orthonormality_defect(F.U) <= 1e-8
        assert orthonormality_defect(F.V) <= 1e-8
        assert np.all(np.diff(F.singular_values) <= 0)


def test_thin_svd_truncates_tiny_singular_values(monkeypatch):
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((7, 3)))[0]
    M = U @ np.diag([5.0, 2.0, 5e-12]) @ V.T
    assert thin_svd(M).rank == 2
    monkeypatch.setattr(linalg, "DEFAULT_RANK_THRESHOLD", 1e-14)
    assert thin_svd(M).rank == 3


def test_thin_svd_sparse_matches_dense():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((9, 5))
    M[M < 0.5] = 0.0
    F = thin_svd(sp.csr_matrix(M))
    np.testing.assert_allclose(F.singular_values,
                               thin_svd(M).singular_values, rtol=1e-12)


def _conditioned(kappa, n=30, d=60, seed=7):
    """n x d matrix with singular values spaced geometrically from 1 to 1/kappa."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((d, n)))[0]
    return (U * np.geomspace(1.0, 1.0 / kappa, n)) @ V.T


SVD_CASES = {
    "wide": (lambda: np.random.default_rng(40).standard_normal((20, 300)), "gram"),
    "tall": (lambda: np.random.default_rng(41).standard_normal((300, 20)), "gram"),
    "csr": (lambda: sp.random(30, 500, density=0.1, format="csr", random_state=42), "gram"),
    "1xd": (lambda: np.random.default_rng(43).standard_normal((1, 50)), "gram"),
    "dx1": (lambda: np.random.default_rng(44).standard_normal((50, 1)), "gram"),
    "zero": (lambda: np.zeros((5, 7)), "dense"),
    "rank-deficient": (lambda: _rank10_data(0).X, "dense"),
    "kappa 1e5": (lambda: _conditioned(1e5), "dense"),  # passes the ratio test, not the defect test
    "kappa 1e8": (lambda: _conditioned(1e8), "dense"),
}


@pytest.mark.parametrize("case", SVD_CASES)
def test_thin_svd_matches_dense_reference(case):
    build, path = SVD_CASES[case]
    M = build()
    F = thin_svd(M)
    _, s_ref, V_ref = svd_reference(M.toarray() if sp.issparse(M) else M)
    assert F.path == path
    assert F.rank == s_ref.size
    np.testing.assert_allclose(F.singular_values, s_ref, rtol=1e-12)
    assert eig_spectral_norm(F.V @ F.V.T - V_ref @ V_ref.T) <= 1e-10


def _wide_sparse(rank_deficient):
    M = sp.random(20, 150_000, density=1e-3, format="csr", random_state=45)
    if rank_deficient:
        M = sp.vstack([M[:19], M[0] + M[1]], format="csr")
    return M


def test_thin_svd_wide_sparse_takes_gram_path_without_densifying(monkeypatch):
    def refuse(M):
        raise AssertionError("to_dense called")

    monkeypatch.setattr(linalg, "to_dense", refuse)
    M = _wide_sparse(rank_deficient=False)
    F = thin_svd(M)
    assert F.path == "gram" and F.rank == 20
    assert orthonormality_defect(F.V) <= 1e-10
    G = (M @ M.T).toarray()
    np.testing.assert_allclose(F.singular_values**2,
                               np.linalg.eigvalsh(G)[::-1], rtol=1e-12)


def test_thin_svd_wide_sparse_rank_deficient_raises():
    with pytest.raises(DataError, match="rank-deficient or ill-conditioned"):
        thin_svd(_wide_sparse(rank_deficient=True))


def test_thin_svd_rejects_nonfinite():
    with pytest.raises(DataError):
        thin_svd(np.array([[1.0, np.nan]]))
    with pytest.raises(DataError):
        thin_svd(np.array([[np.inf, 1.0]]))
    with pytest.raises(DataError):
        thin_svd(np.array([1.0, 2.0]))  # 1-d


def test_spectral_error_exact_case():
    # M^T M = diag(2, 0.25), so V^T V - M^T M = diag(-1, 0.75): the norm is
    # the magnitude of the negative eigenvalue.
    assert spectral_error(np.eye(2), np.array([0, 0, 1]), np.array([1.0, 1.0, 0.5])) == 1.0
    assert spectral_error(np.zeros((4, 0)), np.array([1, 2]), np.ones(2)) == 0.0


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0])
def test_spectral_error_matches_eig_oracle(scale):
    rng = np.random.default_rng(46)
    for d, ell, r in [(30, 3, 12), (200, 10, 40), (50, 1, 5), (400, 60, 240)]:
        V = np.linalg.qr(rng.standard_normal((d, ell)))[0]
        idx = rng.integers(0, d, r)
        w = scale * np.sqrt(d / r) * rng.uniform(0.5, 1.5, r)
        M = w[:, None] * V[idx]
        assert spectral_error(V, idx, w) == pytest.approx(
            eig_spectral_norm(V.T @ V - M.T @ M), rel=1e-10)


def test_row_norms_sq():
    np.testing.assert_allclose(row_norms_sq(np.eye(3)), [1, 1, 1])
    np.testing.assert_allclose(row_norms_sq(np.array([[3.0, 4.0]])), [25.0])
    S = sp.csr_matrix(([2.0, -1.0], ([0, 0], [2, 5])), shape=(1, 6))
    np.testing.assert_allclose(row_norms_sq(S), [5.0])


def test_require_orthonormal():
    rng = np.random.default_rng(2)
    Q = np.linalg.qr(rng.standard_normal((10, 4)))[0]
    require_orthonormal(Q)  # no raise
    with pytest.raises(NumericalError):
        require_orthonormal(2.0 * Q)


# ------------------------------------- one orthonormality check per basis

BASIS_CASES = {
    "wide gram": (lambda: np.random.default_rng(50).standard_normal((20, 300)), "gram"),
    "tall gram": (lambda: np.random.default_rng(51).standard_normal((300, 20)), "gram"),
    "dense": (lambda: _rank10_data(0).X, "dense"),
    "sparse input": (lambda: sp.random(30, 500, density=0.1, format="csr",
                                       random_state=52), "gram"),
}


@pytest.mark.parametrize("case", BASIS_CASES)
def test_selectors_on_a_thin_svd_equal_the_calls_on_its_v(case, monkeypatch):
    build, path = BASIS_CASES[case]
    F = thin_svd(build())
    assert F.path == path
    # The carried check is V's own Gram and defect, formed on V itself.
    assert np.array_equal(F.gram, F.V.T @ F.V)
    assert F.defect == orthonormality_defect(F.V)
    r = 3 * F.rank
    bss_ref, lev_ref = bss_select(F.V, r), leverage_select(F.V, r, seed=5)
    err_ref = spectral_error(F.V, bss_ref.indices, bss_ref.weights)
    lev_err_ref = spectral_error(F.V, lev_ref.indices, lev_ref.weights)
    p_ref = leverage_scores(F.V)

    def refuse(V):
        raise AssertionError("V^T V formed again")

    monkeypatch.setattr(linalg, "orthonormality_defect", refuse)
    bss, lev = bss_select(F, r), leverage_select(F, r, seed=5)
    assert np.array_equal(bss.indices, bss_ref.indices)
    assert np.array_equal(bss.weights, bss_ref.weights)
    assert np.array_equal(lev.indices, lev_ref.indices)
    assert np.array_equal(lev.weights, lev_ref.weights)
    assert np.array_equal(leverage_scores(F), p_ref)
    assert spectral_error(F, bss.indices, bss.weights) == err_ref
    assert spectral_error(F, lev.indices, lev.weights) == lev_err_ref


def test_a_thin_svd_built_by_hand_checks_its_own_v():
    F = thin_svd(np.random.default_rng(54).standard_normal((10, 40)))
    G = ThinSvd(F.U, F.singular_values, F.V, F.path)
    assert np.array_equal(G.gram, F.gram) and G.defect == F.defect
    # V is read-only, so its carried Gram and defect cannot go stale.
    with pytest.raises(ValueError):
        F.V[0, 0] = 1.0
    # A V^T V that is not finite leaves no defect to measure.
    assert ThinSvd(F.U, F.singular_values, np.full((40, 10), np.nan), F.path).defect == np.inf


def test_a_non_orthonormal_thin_svd_raises_the_array_error():
    F = thin_svd(np.random.default_rng(53).standard_normal((10, 40)))
    V = 2.0 * F.V
    bad = ThinSvd(F.U, F.singular_values, V, F.path)
    for select in (lambda B: bss_select(B, 30), lambda B: leverage_select(B, 30, seed=1),
                   leverage_scores, require_orthonormal):
        with pytest.raises(NumericalError) as from_svd:
            select(bad)
        with pytest.raises(NumericalError) as from_array:
            select(V)
        assert "does not have orthonormal columns" in str(from_svd.value)
        assert str(from_svd.value) == str(from_array.value)


def test_a_rank_zero_thin_svd_raises_the_array_error():
    F = thin_svd(np.zeros((3, 4)))
    assert F.rank == 0 and F.gram.shape == (0, 0) and F.defect == 0.0
    for select in (lambda B: bss_select(B, 3), lambda B: leverage_select(B, 3, seed=1)):
        with pytest.raises(DataError, match="no columns") as from_svd:
            select(F)
        with pytest.raises(DataError) as from_array:
            select(F.V)
        assert str(from_svd.value) == str(from_array.value)
