import numpy as np
import pytest

from marginsparse.errors import NumericalError
from marginsparse.leverage import leverage_scores, leverage_select
from marginsparse.linalg import thin_svd

from oracles import sampled_gram_error


def random_orthonormal(d, ell, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, ell)))
    return Q


def test_scores_identity_embedding():
    V = np.eye(4)[:, :2]
    np.testing.assert_allclose(leverage_scores(V), [0.5, 0.5, 0.0, 0.0])


def test_scores_rotation_invariant():
    # Row norms of V are unchanged by a right rotation V -> V Q.
    V = random_orthonormal(20, 3, seed=0)
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    np.testing.assert_allclose(
        leverage_scores(V),
        leverage_scores(V @ Q),
        atol=1e-12,
    )


def test_scores_from_thin_svd():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 50))
    V = thin_svd(X).V
    p = leverage_scores(V)
    assert p.shape == (50,)
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # recompute from raw row norms
    ref = np.einsum("ij,ij->i", V, V)
    np.testing.assert_allclose(p, ref / ref.sum(), atol=1e-12)


def test_scores_reject_non_orthonormal():
    with pytest.raises(NumericalError):
        leverage_scores(np.ones((4, 2)))


def test_select_degenerate_single_column():
    V = np.eye(3)[:, :1]
    for r in (1, 5, 17):
        op = leverage_select(V, r, seed=3)
        assert np.all(op.indices == 0)
        np.testing.assert_allclose(op.weights, 1.0 / np.sqrt(r))


def test_select_empirical_frequencies():
    V = np.eye(4)[:, :2]
    op = leverage_select(V, 10_000, seed=4)
    freq = np.bincount(op.indices, minlength=4) / 10_000
    assert abs(freq[0] - 0.5) <= 0.02
    assert abs(freq[1] - 0.5) <= 0.02
    assert freq[2] == 0 and freq[3] == 0


def test_select_unbiased_gram():
    # E[V^T R R^T V] = I; check the running mean over 1000 fixed seeds stays
    # within 3 standard errors entrywise.
    V = random_orthonormal(50, 3, seed=5)
    trials = 1000
    grams = np.empty((trials, 3, 3))
    for s in range(trials):
        op = leverage_select(V, 8, seed=1000 + s)
        RV = V[op.indices] * op.weights[:, None]
        grams[s] = RV.T @ RV
    mean = grams.mean(axis=0)
    se = grams.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(mean - np.eye(3)) <= 3 * se + 1e-12)


def test_select_spectral_error_concentrates():
    V = random_orthonormal(200, 4, seed=6)
    hits = sum(
        sampled_gram_error(V, op.indices, op.weights) <= 0.5
        for op in (leverage_select(V, 400, seed=s) for s in range(100))
    )
    assert hits >= 95


def test_select_reproducible():
    V = random_orthonormal(30, 2, seed=7)
    a = leverage_select(V, 12, seed=42)
    b = leverage_select(V, 12, seed=42)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)
    c = leverage_select(V, 12, seed=43)
    assert not np.array_equal(a.indices, c.indices)


def test_select_weights_depend_only_on_probability():
    V = random_orthonormal(30, 2, seed=8)
    p = leverage_scores(V)
    op = leverage_select(V, 25, seed=9)
    np.testing.assert_allclose(op.weights, 1.0 / np.sqrt(25 * p[op.indices]), rtol=1e-14)


def test_select_rejects_bad_r():
    V = np.eye(3)[:, :1]
    with pytest.raises(ValueError):
        leverage_select(V, 0, seed=0)
