import math

import numpy as np
import pytest
import scipy.sparse as sp

from marginsparse.data import LabeledDataset, gen_synthetic
from marginsparse.linalg import thin_svd
from marginsparse.sketch import approx_bss_select, gaussian_sketch
from marginsparse.svm import solve_dual
from marginsparse.bss import bss_select

from oracles import sampled_gram_error
from test_svm import _text_support_vectors


def test_sketch_of_zero_is_zero():
    Xs = gaussian_sketch(np.zeros((5, 7)), t=3, seed=0)
    assert Xs.shape == (3, 7)
    np.testing.assert_array_equal(Xs, np.zeros((3, 7)))


def test_sketch_of_identity_is_g_itself():
    Xs = gaussian_sketch(np.eye(4), t=4, seed=11)
    G = np.random.default_rng(11).standard_normal((4, 4))
    np.testing.assert_allclose(Xs, G)


def test_sketch_preserves_rank():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 20))
    Xs = gaussian_sketch(X, t=8, seed=2)
    assert thin_svd(Xs).rank == 3


def test_sketch_deterministic():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 9))
    a = gaussian_sketch(X, t=4, seed=5)
    b = gaussian_sketch(X, t=4, seed=5)
    np.testing.assert_array_equal(a, b)
    c = gaussian_sketch(X, t=4, seed=6)
    assert not np.allclose(a, c)


@pytest.mark.parametrize("build", [
    lambda: _text_support_vectors().X,
    lambda: sp.random(40, 900, density=0.03, format="csr", random_state=6),
], ids=["text support vectors", "random"])
def test_sparse_sketch_matches_the_dense_one_without_densifying(build, refuse_to_dense):
    X = build()
    sketch = gaussian_sketch(X, t=60, seed=902)
    dense = gaussian_sketch(X.toarray(), t=60, seed=902)
    assert isinstance(sketch, np.ndarray) and sketch.shape == (60, X.shape[1])
    assert np.abs(sketch - dense).max() <= 1e-13 * np.abs(dense).max()
    F, F_dense = thin_svd(sketch), thin_svd(dense)
    np.testing.assert_allclose(F.singular_values, F_dense.singular_values, rtol=1e-12)


def test_sketch_config_validation():
    with pytest.raises(ValueError, match="at least one row"):
        gaussian_sketch(np.eye(3), t=0, seed=0)


def test_approx_select_rank2_matrix():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((50, 2)) @ rng.standard_normal((2, 30))
    op = approx_bss_select(X, t=8, r=16, seed=7)
    assert op.r == 16
    assert op.n_features == 30
    # the sketched right factor obeys the deterministic selector's bound
    V = thin_svd(gaussian_sketch(X, 8, 7)).V
    ell = V.shape[1]
    assert ell == 2
    assert sampled_gram_error(V, op.indices, op.weights) <= 3 * math.sqrt(ell / 16) + 1e-9


def test_approx_select_finds_dominant_column():
    # One column of norm 100, the rest norm ~1: both the exact and the
    # sketched path must pick it up.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((12, 6))
    X[:, 2] *= 100.0 / np.linalg.norm(X[:, 2])
    exact = bss_select(thin_svd(X).V, r=13)
    sketched = approx_bss_select(X, t=12, r=13, seed=9)
    assert 2 in exact.selected_features()
    assert 2 in sketched.selected_features()


def test_approx_select_single_nonzero_column():
    X = np.zeros((10, 5))
    X[:, 3] = np.arange(1.0, 11.0)
    op = approx_bss_select(X, t=4, r=2, seed=10)
    assert np.all(op.indices == 3)


def test_approx_select_deterministic():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((20, 15))
    a = approx_bss_select(X, t=30, r=40, seed=13)
    b = approx_bss_select(X, t=30, r=40, seed=13)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_margin_close_to_exact_selection():
    # Soft regression: on synthetic data the margin after sketched selection
    # should land within 10% of the exact-selection margin once t is a few
    # multiples of the rank.
    data = gen_synthetic(n=60, d=100, k=8, seed=0)
    model = solve_dual(data, C=1.0)
    sv = data.subset(model.support_indices)
    V = thin_svd(sv.X).V
    ell = V.shape[1]
    r = 4 * ell
    exact = bss_select(V, r)
    gamma_exact = solve_dual(LabeledDataset(exact.apply(sv.X), sv.y), C=1.0).margin

    for t in (4 * ell, 8 * ell):
        margins = []
        for seed in range(5):
            op = approx_bss_select(sv.X, t=t, r=r, seed=seed)
            m = solve_dual(LabeledDataset(op.apply(sv.X), sv.y), C=1.0).margin
            margins.append(m)
        rel = np.abs(np.array(margins) - gamma_exact) / gamma_exact
        assert np.all(rel <= 0.10), (t, rel)
