import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from marginsparse.data import LabeledDataset, gen_synthetic
from marginsparse.errors import DataError
from marginsparse.svm import _smo, error_rate, predict, solve_dual

from oracles import project_dual_feasible, qp_dual_solve, smo_reference
from test_acceptance import _rank10_data


def two_point():
    return LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


def random_dataset(n, d, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    y = np.ones(n)
    y[: n // 2] = -1.0
    X = rng.standard_normal((n, d)) + scale * y[:, None]
    return LabeledDataset(X, y)


# ----------------------------------------------------------- analytic cases

def test_two_point_closed_form():
    m = solve_dual(two_point(), C=1.0)
    np.testing.assert_allclose(m.alpha, [0.5, 0.5], atol=1e-8)
    np.testing.assert_allclose(m.w, [1.0, 0.0], atol=1e-8)
    assert m.b == pytest.approx(0.0, abs=1e-8)
    assert m.margin == pytest.approx(1.0, rel=1e-8)
    assert m.objective == pytest.approx(0.5, rel=1e-8)
    assert m.alpha.sum() == pytest.approx(m.w @ m.w, rel=1e-8)
    assert m.converged
    np.testing.assert_array_equal(m.support_indices, [0, 1])


def test_two_point_box_clipped():
    m = solve_dual(two_point(), C=0.25)
    np.testing.assert_allclose(m.alpha, [0.25, 0.25], atol=1e-10)
    np.testing.assert_allclose(m.w, [0.5, 0.0], atol=1e-10)
    assert m.margin == pytest.approx(2.0, rel=1e-10)


def test_four_point_interior_points_inactive():
    X = np.array([[2.0, 0.0], [3.0, 0.0], [-2.0, 0.0], [-3.0, 0.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    m = solve_dual(LabeledDataset(X, y), C=1.0)
    np.testing.assert_allclose(m.alpha, [0.125, 0.0, 0.125, 0.0], atol=1e-8)
    np.testing.assert_allclose(m.w, [0.5, 0.0], atol=1e-8)
    assert m.margin == pytest.approx(2.0, rel=1e-7)
    np.testing.assert_array_equal(m.support_indices, [0, 2])


# ------------------------------------------------------------------ margin

def test_margin_degenerate_rejected():
    # identical point with opposite labels: alphas cancel, w = 0
    data = LabeledDataset(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
    m = solve_dual(data, C=1.0)
    assert not np.isfinite(m.margin)


# ------------------------------------------------------- predict/error_rate

def test_predict_on_training_points():
    data = two_point()
    m = solve_dual(data, C=1.0)
    np.testing.assert_array_equal(predict(m, data.X), [1.0, -1.0])
    assert error_rate(m, data) == 0.0


def test_predict_zero_scores_map_to_plus_one():
    m = solve_dual(two_point(), C=1.0)
    m = dataclasses.replace(m, w=np.zeros(2), b=0.0, margin=np.inf)
    np.testing.assert_array_equal(predict(m, np.array([[5.0, 5.0]])), [1.0])


def test_error_rate_flips_with_labels():
    data = random_dataset(20, 3, seed=0, scale=0.3)
    m = solve_dual(data, C=1.0)
    e = error_rate(m, data)
    flipped = LabeledDataset(data.X, -data.y)
    assert error_rate(m, flipped) == pytest.approx(1.0 - e)


def test_predict_dimension_mismatch():
    m = solve_dual(two_point(), C=1.0)
    with pytest.raises(DataError):
        predict(m, np.zeros((3, 5)))


# ------------------------------------------------------ solver correctness

@pytest.mark.parametrize("seed", range(20))
def test_matches_projected_gradient_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    d = int(rng.integers(1, 4))
    y = np.ones(n)
    y[: n // 2] = -1.0
    X = rng.standard_normal((n, d)) + 1.5 * y[:, None]
    C = float(rng.choice([0.1, 1.0, 10.0]))
    m = solve_dual(LabeledDataset(X, y), C=C, kkt_tol=1e-8)
    _, obj_ref = qp_dual_solve(X, y, C)
    assert m.objective == pytest.approx(obj_ref, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_constraint_invariants(seed):
    data = random_dataset(30, 4, seed=seed, scale=0.8)
    C = 1.0
    m = solve_dual(data, C=C)
    n = data.n
    assert np.all(m.alpha >= -1e-12)
    assert np.all(m.alpha <= C + 1e-12)
    assert abs(m.alpha @ data.y) <= 1e-8 * C * n
    w_ref = data.X.T @ (data.y * m.alpha)
    np.testing.assert_allclose(m.w, w_ref, rtol=1e-8, atol=1e-12)
    assert m.margin == pytest.approx(1.0 / np.linalg.norm(m.w), rel=1e-12)
    if np.all(m.alpha < C - 1e-9):
        assert abs(m.w @ m.w - m.alpha.sum()) <= 1e-6 * m.alpha.sum()
    assert m.converged
    assert m.kkt_gap <= 1e-4


def test_objective_nondecreasing_in_passes():
    data = random_dataset(40, 6, seed=4, scale=0.2)
    objs = [solve_dual(data, C=1.0, max_passes=k).objective for k in range(1, 8)]
    diffs = np.diff(objs)
    assert np.all(diffs >= -1e-9), objs


def test_support_vector_refit_reproduces_classifier():
    data = gen_synthetic(n=80, d=40, k=6, seed=5)
    m_full = solve_dual(data, C=100.0, kkt_tol=1e-6)
    sv = data.subset(m_full.support_indices)
    m_sv = solve_dual(sv, C=100.0, kkt_tol=1e-6)
    rel = np.linalg.norm(m_sv.w - m_full.w) / np.linalg.norm(m_full.w)
    assert rel <= 1e-4
    assert m_sv.margin == pytest.approx(m_full.margin, rel=1e-4)


def test_single_class_rejected():
    X = np.eye(3)
    with pytest.raises(DataError):
        solve_dual(LabeledDataset(X, np.ones(3)), C=1.0)


def test_bad_c_rejected():
    with pytest.raises(DataError):
        solve_dual(two_point(), C=0.0)


def test_negative_kkt_tol_rejected():
    # A negative tolerance can never be met once the gap reaches 0, and then
    # no low-side point violates against i.
    with pytest.raises(DataError, match="kkt_tol"):
        solve_dual(two_point(), C=1.0, kkt_tol=-1e-3)
    assert solve_dual(two_point(), C=1.0, kkt_tol=0.0).converged


@pytest.mark.parametrize("kwargs, message", [
    ({"C": float("nan")}, "C must be positive"),
    ({"kkt_tol": float("nan")}, "kkt_tol must be non-negative"),
])
def test_nan_solver_parameters_rejected(kwargs, message):
    # nan fails every comparison: C=nan would "converge" in 0 steps with no
    # support vectors, and kkt_tol=nan would run to the step cap.
    with pytest.raises(DataError, match=message):
        solve_dual(two_point(), **{"C": 1.0, **kwargs})


def test_nonconvergence_is_flagged():
    data = random_dataset(60, 5, seed=6, scale=0.05)  # heavily overlapping
    m = solve_dual(data, C=100.0, kkt_tol=1e-10, max_passes=1)
    assert not m.converged
    # best-iterate model still respects the constraints
    assert np.all((m.alpha >= 0) & (m.alpha <= 100.0))
    assert abs(m.alpha @ data.y) <= 1e-6


# ------------------------------------------------------------ warm starts

def test_warm_start_from_converged_alpha_takes_no_steps():
    data = random_dataset(40, 6, seed=8, scale=0.3)
    K, y, cap = data.X @ data.X.T, data.y, 10 * data.n**2
    alpha, converged, _, steps = _smo(K, y, 1.0, 1e-4, cap)
    assert converged and steps > 0
    warm, converged, gap, steps = _smo(K, y, 1.0, 1e-4, cap, alpha)
    assert converged and gap <= 1e-4 and steps == 0
    assert np.array_equal(warm, alpha)


@pytest.mark.parametrize("C", [0.05, 1.0, 20.0])
def test_warm_start_from_feasible_alpha_converges(C):
    data = random_dataset(40, 6, seed=9, scale=0.3)
    K, y, n = data.X @ data.X.T, data.y, data.n
    a0 = project_dual_feasible(np.random.default_rng(10).uniform(0.0, C, n), y, C)
    assert abs(y @ a0) <= 1e-12 * C * n and np.all((a0 >= 0) & (a0 <= C))
    alpha, converged, gap, steps = _smo(K, y, C, 1e-4, 10 * n * n, a0)
    assert converged and gap <= 1e-4 and steps > 0
    assert abs(y @ alpha) <= 1e-12 * C * n
    assert np.all((alpha >= 0) & (alpha <= C))
    # the gap holds for the gradient recomputed from alpha, not just the
    # one the steps carried
    neg_yg = y - K @ (y * alpha)
    up = np.where(y > 0, alpha < C, alpha > 0)
    low = np.where(y > 0, alpha > 0, alpha < C)
    assert neg_yg[up].max() - neg_yg[low].min() <= 1e-4 + 1e-9


# ------------------------------------------- bitwise against the gather loop

def _warm_cases():
    """(X, y, K or None for X X', alpha0, solver kwargs) per warm start."""
    cases = {}
    data = gen_synthetic(30, 60, 6, seed=11)
    X, y, n = data.X, data.y, data.n
    K = X @ X.T
    alpha, converged, _, _ = _smo(K, y, 1.0, 1e-4, 10 * n * n)
    assert converged
    # Warm from its own answer: converged before any step.
    cases["converged"] = (X, y, K.copy(), alpha, {"C": 1.0})
    dropped = np.arange(0, 60, 3)
    K -= X[:, dropped] @ X[:, dropped].T  # an RFE round's cut
    cases["rfe-downdate"] = (np.delete(X, dropped, axis=1), y, K, alpha, {"C": 1.0})
    data = random_dataset(40, 6, seed=9, scale=0.3)
    for C in (0.05, 1.0, 20.0):
        v = np.random.default_rng(12).uniform(-0.5 * C, 1.5 * C, data.n)
        a0 = project_dual_feasible(v, data.y, C)
        cases[f"bounds-C{C:g}"] = (data.X, data.y, None, a0, {"C": C})
    dup = random_dataset(20, 3, seed=7, scale=0.4)
    X, y = np.vstack([dup.X, dup.X]), np.concatenate([dup.y, dup.y])
    a0 = project_dual_feasible(np.random.default_rng(13).uniform(-5.0, 15.0, y.size), y, 10.0)
    cases["duplicates"] = (X, y, None, a0, {"C": 10.0})
    data = random_dataset(30, 5, seed=6, scale=0.2)
    a0 = project_dual_feasible(np.random.default_rng(14).uniform(-0.5, 1.5, data.n), data.y, 1.0)
    cases["kkt-tol-0"] = (data.X, data.y, None, a0,
                          {"C": 1.0, "kkt_tol": 0.0, "max_passes": 2})
    # Curvatures of 2e300 against violations near 2e-16 underflow every
    # score to 0, and point 0 (i itself, no candidate) comes first: only the
    # masked argmax finds the partner.
    a, b = 1e-300 * (1 + 2**-52), 1e-300 * (1 - 2**-52)
    cases["square-underflow"] = (1e150 * np.eye(4), np.array([1.0, -1.0, 1.0, -1.0]),
                                 None, np.array([b, a, a, b]),
                                 {"C": 1e-290, "kkt_tol": 0.0, "max_passes": 5})
    return cases


WARM_CASES = _warm_cases()


@pytest.mark.parametrize("name", list(WARM_CASES))
def test_warm_smo_matches_reference_loop(name):
    X, y, K, a0, kwargs = WARM_CASES[name]
    C, kkt_tol = kwargs["C"], kwargs.get("kkt_tol", 1e-4)
    max_passes = kwargs.get("max_passes", 10 * y.size)
    if name.startswith("bounds"):
        assert np.any(a0 == 0.0) and np.any(a0 == C)
    gram = X @ X.T if K is None else K
    alpha, converged, gap, steps = _smo(gram, y, C, kkt_tol, max_passes * y.size, a0)
    ref = smo_reference(X, y, C, kkt_tol, max_passes, alpha0=a0, K=K)
    assert np.array_equal(alpha, ref.alpha)
    assert (converged, gap, steps) == (ref.converged, ref.kkt_gap, ref.steps)
    assert (steps == 0) == (name == "converged")
    if "kkt_tol" in kwargs:
        assert not converged  # only the step cap ends it


def _reference_cases():
    cases = {}
    for shape, (n, d, k) in {"tall": (60, 12, 4), "wide": (30, 400, 8)}.items():
        for C in (0.01, 1.0, 100.0):
            cases[f"{shape}-C{C:g}"] = (gen_synthetic(n, d, k, seed=n + d), {"C": C})
    cases["capped"] = (random_dataset(60, 5, seed=6, scale=0.05),
                       {"C": 100.0, "kkt_tol": 1e-10, "max_passes": 1})
    cases["w-zero"] = (LabeledDataset(np.array([[1.0, 2.0], [1.0, 2.0], [0.5, -1.0]]),
                                      np.array([1.0, -1.0, 1.0])), {"C": 1.0})
    dup = random_dataset(20, 3, seed=7, scale=0.4)
    cases["duplicates"] = (LabeledDataset(np.vstack([dup.X, dup.X]),
                                          np.concatenate([dup.y, dup.y])), {"C": 10.0})
    csr = gen_synthetic(40, 300, 6, seed=3)
    cases["csr"] = (LabeledDataset(scipy.sparse.csr_matrix(csr.X), csr.y), {"C": 1.0})
    cases["rank10"] = (_rank10_data(0), {"C": 1.0})
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("name", list(REFERENCE_CASES))
def test_solve_dual_matches_reference_loop(name):
    data, kwargs = REFERENCE_CASES[name]
    m = solve_dual(data, **kwargs)
    X, K = data.X, None
    if scipy.sparse.issparse(X):
        X, K = X.toarray(), (X @ X.T).toarray()  # the kernel solve_dual forms
    ref = smo_reference(X, data.y, K=K, **kwargs)
    assert np.array_equal(m.alpha, ref.alpha)
    assert (m.converged, m.kkt_gap, m.steps) == (ref.converged, ref.kkt_gap, ref.steps)
    if K is None:
        assert np.array_equal(m.w, ref.w)
        assert (m.b, m.objective) == (ref.b, ref.objective)
    else:  # w = X'(y*alpha) as a sparse product rounds differently
        assert np.linalg.norm(m.w - ref.w) <= 1e-12 * np.linalg.norm(ref.w)
        assert m.b == pytest.approx(ref.b, rel=1e-12, abs=1e-12)
        assert m.objective == pytest.approx(ref.objective, rel=1e-12)
    assert m.steps > 0
    if name in ("capped", "rank10"):
        assert not m.converged  # the step cap, not the tolerance, ended it
    if name == "w-zero":
        assert not np.any(m.w)


# ------------------------------------------------------- sparse (CSR) input

def _text_corpus():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from textgen import techtc_like
    return techtc_like(100, 4000, 60, seed=0)  # the sparse-text corpus


def _text_support_vectors():
    data = _text_corpus()
    return data.subset(solve_dual(data).support_indices)


CSR_CASES = {
    "synthetic": lambda: gen_synthetic(40, 300, 6, seed=3),
    "text": _text_corpus,
    "text support vectors": _text_support_vectors,
}


@pytest.mark.parametrize("case", CSR_CASES)
def test_csr_and_dense_copies_give_one_solution(case, refuse_to_dense):
    data = CSR_CASES[case]()
    X = data.X.toarray() if scipy.sparse.issparse(data.X) else data.X
    dense = solve_dual(LabeledDataset(X, data.y))
    sparse = solve_dual(LabeledDataset(scipy.sparse.csr_matrix(X), data.y))
    assert np.array_equal(sparse.support_indices, dense.support_indices)
    assert sparse.steps == dense.steps and sparse.converged == dense.converged
    for a, b in ((sparse.alpha, dense.alpha), (sparse.w, dense.w)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert sparse.b == pytest.approx(dense.b, rel=1e-12)
    assert sparse.margin == pytest.approx(dense.margin, rel=1e-12)


def test_sparse_kernel_of_the_text_corpus_is_exactly_symmetric():
    for X in (_text_corpus().X, _text_support_vectors().X):
        K = (X @ X.T).toarray()
        assert np.array_equal(K, K.T)
