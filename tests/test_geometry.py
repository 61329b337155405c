import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from marginsparse import geometry
from marginsparse.data import LabeledDataset, gen_synthetic
from marginsparse.errors import DataError
from marginsparse.geometry import MIN_DELTA, SPARSE_MAX_KAPPA, meb_radius
from marginsparse.operators import SamplingOperator
from marginsparse.linalg import spectral_error, thin_svd
from marginsparse.pipelines import SelectionReport, select_geometry, verify_margin_bound

from oracles import (eig_spectral_norm, exhaustive_meb, identity_operator,
                     meb_gram_reference, meb_reference, svd_reference)
from test_svm import _text_corpus, _text_support_vectors


def test_two_point_ball():
    ball = meb_radius(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert ball.radius == pytest.approx(1.0, rel=1e-3)
    np.testing.assert_allclose(ball.center, [1.0, 0.0], atol=2e-3)
    assert ball.certified


def test_single_point_ball():
    ball = meb_radius(np.array([[3.0, -1.0]]))
    assert ball.radius == 0.0
    np.testing.assert_allclose(ball.center, [3.0, -1.0])


def test_equilateral_triangle():
    # side 2: circumradius = 2/sqrt(3)
    P = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])
    ball = meb_radius(P, delta=1e-4)
    assert ball.radius == pytest.approx(2.0 / math.sqrt(3.0), rel=3e-4)


@pytest.mark.parametrize("seed", range(20))
def test_matches_exhaustive_planar_oracle(seed):
    rng = np.random.default_rng(seed)
    P = rng.normal(0, 2, size=(int(rng.integers(3, 12)), 2))
    delta = 1e-3
    ball = meb_radius(P, delta)
    exact_r, _ = exhaustive_meb(P)
    assert ball.certified
    # returned radius is a genuine covering radius, so it cannot beat the optimum
    assert ball.radius >= exact_r - 1e-9
    assert ball.radius <= (1 + delta) * exact_r * (1 + 1e-9)
    assert ball.iterations <= math.ceil(1.0 / delta**2)


def test_translation_invariance():
    rng = np.random.default_rng(30)
    P = rng.standard_normal((15, 4))
    a = meb_radius(P)
    b = meb_radius(P + 1000.0)
    assert b.radius == pytest.approx(a.radius, rel=1e-9)


def test_covering_property():
    rng = np.random.default_rng(31)
    P = rng.standard_normal((40, 6))
    ball = meb_radius(P)
    dists = np.linalg.norm(P - ball.center, axis=1)
    assert dists.max() <= ball.radius * (1 + 1e-12)


def _shifted(seed, offset):
    return np.random.default_rng(seed).standard_normal((15, 4)) + offset


MEB_CASES = {
    **{f"planar {seed}": (lambda seed=seed: np.random.default_rng(seed).normal(size=(10, 2)))
       for seed in range(9000, 9050)},  # criterion 10's sets
    "translation 0": lambda: _shifted(30, 0.0),
    "translation 1000": lambda: _shifted(30, 1000.0),
    **{f"{n}x{d}": (lambda n=n, d=d: gen_synthetic(n, d, 40, seed=n).X)
       for n, d in ((50, 4000), (20, 20000), (80, 400))},  # select-tall shapes
}


@pytest.mark.parametrize("case", MEB_CASES)
def test_meb_radius_matches_reference_loop(case):
    P = MEB_CASES[case]()
    ball, ref = meb_radius(P), meb_reference(P)
    assert (ball.iterations, ball.certified) == (ref.iterations, ref.certified)
    assert ball.radius == pytest.approx(ref.radius, rel=1e-12, abs=0.0)
    assert np.linalg.norm(ball.center - ref.center) <= 1e-12 * np.linalg.norm(ref.center)


GRAM_LOOP_CASES = {
    **{f"random {seed}": (lambda seed=seed: np.random.default_rng(seed).standard_normal((25, 6)), 1e-3)
       for seed in range(10)},
    "20x20000": (lambda: gen_synthetic(20, 20000, 40, seed=20).X, 1e-3),
    "duplicates": (lambda: np.repeat(np.random.default_rng(3).standard_normal((6, 3)), 3, axis=0), 1e-3),
    "one point": (lambda: np.array([[3.0, -1.0, 2.0]]), 1e-3),
    # delta near 1 caps the loop after ceil(1/delta^2) = 2 or 3 iterations.
    "capped triangle": (lambda: np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.99]]), 0.9),
    "capped 100x5": (lambda: np.random.default_rng(20).standard_normal((100, 5)), 0.7),
}


@pytest.mark.parametrize("case", GRAM_LOOP_CASES)
def test_meb_radius_matches_the_gram_row_loop_bitwise(case):
    build, delta = GRAM_LOOP_CASES[case]
    P = build()
    ball, ref = meb_radius(P, delta), meb_gram_reference(P, delta)
    assert np.array_equal(ball.center, ref.center)
    assert ball.radius == ref.radius
    assert (ball.iterations, ball.certified) == (ref.iterations, ref.certified)
    if case.startswith("capped"):
        assert not ball.certified and ball.iterations == math.ceil(1.0 / delta**2)


def test_a_failed_exact_check_resumes_the_loop_as_the_gram_row_loop_does(monkeypatch):
    # A Gram matrix shifted down by 1 % of the scale makes the in-loop test
    # fire while the exact one fails, so the loop goes on from the exact
    # centre, many times over.
    dense = geometry._dense_geometry

    def loosened(X):
        G, sq, shift, centre, path = dense(X)
        return G - 0.01 * sq.max(), sq, shift, centre, path

    monkeypatch.setattr(geometry, "_dense_geometry", loosened)
    P = np.random.default_rng(13).standard_normal((20, 4))
    ball, ref = meb_radius(P), meb_gram_reference(P, loosen=0.01)
    assert ball.iterations == ref.iterations > meb_gram_reference(P).iterations
    assert np.array_equal(ball.center, ref.center) and ball.radius == ref.radius


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_input_raises_at_once(bad):
    P = np.array([[0.0, 0.0], [1.0, bad], [2.0, 3.0]])
    start = time.perf_counter()
    with pytest.raises(DataError):
        meb_radius(P)
    assert time.perf_counter() - start < 1.0


def test_delta_validation():
    with pytest.raises(DataError):
        meb_radius(np.zeros((2, 2)), delta=0.0)
    with pytest.raises(DataError):
        meb_radius(np.zeros((2, 2)), delta=1.5)


def test_delta_below_the_floor_raises_before_any_work(monkeypatch):
    def no_work(X):
        raise AssertionError("the ball was started")

    monkeypatch.setattr(geometry, "check_matrix", no_work)
    for delta in (1e-9, MIN_DELTA * (1 - 1e-12)):
        with pytest.raises(DataError, match=f"at least {MIN_DELTA:g}"):
            meb_radius(np.zeros((2, 2)), delta=delta)
    monkeypatch.undo()
    assert meb_radius(np.array([[0.0, 0.0], [1.0, 0.0]]), delta=MIN_DELTA).certified


# ------------------------------------------------------------- sparse input

def _text_sampled():
    """The support vectors' copy sampled by 200 weighted columns."""
    X = _text_support_vectors().X
    rng = np.random.default_rng(4)
    return SamplingOperator(X.shape[1], rng.integers(0, X.shape[1], 200),
                            rng.uniform(0.5, 2.0, 200)).apply(X)


SPARSE_BALLS = {
    "text": lambda: _text_corpus().X,
    "text support vectors": lambda: _text_support_vectors().X,
    "text sampled": _text_sampled,
    "random": lambda: sp.random(60, 2000, density=0.02, format="csr", random_state=8),
}


@pytest.mark.parametrize("case", SPARSE_BALLS)
def test_sparse_ball_matches_the_dense_ball_without_densifying(case, refuse_to_dense):
    X = SPARSE_BALLS[case]()
    ball, dense = meb_radius(X), meb_radius(X.toarray())
    assert (ball.path, dense.path) == ("sparse", "dense")
    assert (ball.iterations, ball.certified) == (dense.iterations, dense.certified)
    assert ball.radius == pytest.approx(dense.radius, rel=1e-12)
    assert np.linalg.norm(ball.center - dense.center) <= 1e-12 * np.linalg.norm(dense.center)


@pytest.mark.parametrize("case", SPARSE_BALLS)
def test_sparse_centred_gram_matches_the_dense_one(case):
    X = SPARSE_BALLS[case]()
    G, sq, shift, _, path = geometry._sparse_geometry(X)
    G_dense, sq_dense, shift_dense, _, _ = geometry._dense_geometry(X.toarray())
    scale = sq_dense.max()
    assert path == "sparse" and np.array_equal(G, G.T)
    assert np.abs(G - G_dense).max() <= 1e-14 * scale
    # The dense sq sums d squares of the centred rows, so it rounds more.
    assert np.abs(sq - sq_dense).max() <= 1e-13 * scale
    np.testing.assert_allclose(shift, shift_dense, rtol=1e-14, atol=0)


def test_sparse_ball_far_from_the_origin_takes_the_dense_route():
    rng = np.random.default_rng(9)
    X = sp.random(30, 400, density=0.05, format="lil", random_state=rng)
    X[:, 7] = 1e3  # max |x_i|^2 / max |x_i - m|^2 is about 1e6
    X = X.tocsr()
    norms = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    P = X.toarray() - X.toarray().mean(axis=0)
    assert norms.max() > SPARSE_MAX_KAPPA * np.einsum("ij,ij->i", P, P).max()
    assert geometry._sparse_geometry(X) is None
    ball, dense = meb_radius(X), meb_radius(X.toarray())
    assert ball.path == "dense"
    assert ball.radius == pytest.approx(dense.radius, rel=1e-12, abs=0.0)
    # Every point the mean: no scale to measure kappa against.
    same = sp.csr_matrix(np.ones((4, 3)))
    assert geometry._sparse_geometry(same) is None
    assert meb_radius(same).path == "dense" and meb_radius(same).radius == 0.0


# ------------------------------------------------------------ radius bound

def _unlabeled(X):
    """X with alternating labels, which unsupervised selection never reads."""
    return LabeledDataset(X, np.where(np.arange(X.shape[0]) % 2 == 0, 1.0, -1.0))


@pytest.mark.parametrize("shape", ["low rank 40x200", "wide sparse 60x800"])
def test_augmented_basis_spans_the_center(shape):
    # The center is a convex combination of the rows, so the basis of X
    # alone, the one select_geometry selects on, already spans
    # [X; center]; the data sit off the origin so the center is far from 0.
    rng = np.random.default_rng(34)
    if shape == "low rank 40x200":
        X = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 200)) + 3.0
    else:
        X = rng.random((60, 800)) * (rng.random((60, 800)) < 0.02) + 1.0
    V = thin_svd(X).V
    _, _, V_aug = svd_reference(np.vstack([X, meb_radius(X).center]))
    assert V.shape == V_aug.shape
    assert eig_spectral_norm(V @ V.T - V_aug @ V_aug.T) <= 1e-10


def test_identity_sampling_passes_exactly():
    rng = np.random.default_rng(32)
    X = rng.standard_normal((10, 6))
    op = identity_operator(6)
    rep = SelectionReport(
        method="bss", mode="unsupervised", r=6, operator=op,
        spectral_error=spectral_error(thin_svd(X).V, op.indices, op.weights),
        ball_full=meb_radius(X), ball_sampled=meb_radius(op.apply(X)), seed=None)
    chk = verify_margin_bound(rep)
    assert chk.radius.status == "pass"
    assert rep.spectral_error <= 1e-9
    assert rep.ball_sampled.radius == pytest.approx(rep.ball_full.radius, rel=1e-9)
    # no SVM was solved, so the margin and the ratio have nothing to decide
    assert chk.margin.status == chk.ratio.status == "na"


def test_low_rank_synthetic_with_deterministic_selection():
    # n=40 points in a 10-dimensional subspace of R^200; selecting on the
    # basis of X, which spans the center too, keeps the sampled ball
    # within the bound.
    rng = np.random.default_rng(33)
    X = rng.standard_normal((40, 10)) @ rng.standard_normal((10, 200))
    assert thin_svd(X).V.shape[1] <= 11
    rep = select_geometry(_unlabeled(X), "bss", r=40)
    assert verify_margin_bound(rep).radius.status == "pass"
    assert rep.ball_sampled.radius**2 <= (1 + rep.spectral_error) * (1 + 1e-3) ** 2 \
        * rep.ball_full.radius**2 * (1 + 1e-9)


def test_two_point_leverage_sampling():
    data = _unlabeled(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    held = 0
    for seed in range(20):
        rep = select_geometry(data, "leverage", r=64, seed=seed)
        if rep.spectral_error < 1.0:
            held += 1
            assert verify_margin_bound(rep).radius.status == "pass", seed
    assert held > 0  # the r=64 draws concentrate; most trials must qualify
