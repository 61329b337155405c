import contextlib
import math

import numpy as np
import pytest
import scipy.linalg

import marginsparse.linalg as linalg
import marginsparse.pipelines as pipelines
from marginsparse.data import LabeledDataset, apply_fold, gen_synthetic, make_folds
from marginsparse.errors import DataError, NumericalError
from marginsparse.geometry import EnclosingBall
from marginsparse.pipelines import (
    BoundReport,
    CvCell,
    SelectionReport,
    cv_experiment,
    feature_frequencies,
    rfe_select,
    rrqr_select,
    select_geometry,
    summarize_cv,
    supervised_select,
    uniform_select,
    unsupervised_select,
    verify_margin_bound,
)
from marginsparse.svm import error_rate, solve_dual

from oracles import identity_operator, rfe_reference, select_reference


def rank_limited(n, d, rank, seed, push=2.0):
    """Separable, class-balanced dataset whose X has exact rank `rank`.

    Balance matters for the tiny-C tests: the equality constraint caps the
    majority class's total dual mass, so only balanced data can have every
    alpha at the box.
    """
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, rank))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    Z[:, 0] += push * y  # keep a margin so the solver converges comfortably
    X = Z @ rng.standard_normal((rank, d))
    return LabeledDataset(X, y)


# ------------------------------------------------------------------ uniform

def test_uniform_full_pick_is_permutation():
    idx = uniform_select(6, 6, seed=0)
    assert sorted(idx.tolist()) == list(range(6))


def test_uniform_seeding():
    a = uniform_select(10, 3, seed=1)
    b = uniform_select(10, 3, seed=1)
    c = uniform_select(10, 3, seed=2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        uniform_select(3, 4, seed=0)


def test_uniform_frequencies():
    counts = np.zeros(5)
    for s in range(10_000):
        counts[uniform_select(5, 1, seed=s)[0]] += 1
    np.testing.assert_allclose(counts / 10_000, 0.2, atol=0.02)


# --------------------------------------------------------------------- rrqr

def test_rrqr_ordered_diagonal():
    idx = rrqr_select(np.diag([3.0, 2.0, 1.0]), 3)
    np.testing.assert_array_equal(idx, [0, 1, 2])
    np.testing.assert_array_equal(rrqr_select(np.diag([3.0, 2.0, 1.0]), 2), [0, 1])


def test_rrqr_duplicate_dominant_column():
    rng = np.random.default_rng(5)
    X = 0.1 * rng.standard_normal((4, 6))
    dom = rng.standard_normal(4) * 10.0
    X[:, 0] = dom
    X[:, 5] = dom
    piv = rrqr_select(X, 6)
    assert piv[0] in (0, 5)
    assert piv[-1] in (0, 5)  # the twin has ~zero residual, pivoted last
    assert piv[0] != piv[-1]


def test_rrqr_r_too_large():
    with pytest.raises(ValueError):
        rrqr_select(np.eye(3), 4)


@pytest.fixture(scope="module")
def cv_grid_support_sets():
    """The support-vector sets of the cv-grid benchmark workload's ten
    folds at seed 902: gen_synthetic(200, 1000, 40, seed=0), one repeat."""
    data = gen_synthetic(200, 1000, 40, seed=0)
    plan = make_folds(data.n, 10, 1, 902)
    sets = []
    for fold in range(10):
        train, _ = apply_fold(data, plan, 0, fold)
        sets.append(train.subset(solve_dual(train).support_indices))
    return sets


def test_rrqr_pivots_match_economic_qr(cv_grid_support_sets):
    # rrqr_select asks LAPACK for R alone; the pivots must be those of the
    # QR that also forms Q, past the numerical rank too.
    rng = np.random.default_rng(24)
    dup = rng.standard_normal((8, 10))
    inputs = {
        "wide": rng.standard_normal((6, 20)),
        "tall": rng.standard_normal((30, 8)),
        "rank-deficient": rng.standard_normal((10, 3)) @ rng.standard_normal((3, 12)),
        "duplicated": np.hstack([dup, dup[:, [4, 0, 7]]]),
        "support-vectors": cv_grid_support_sets[0].X,
    }
    assert inputs["support-vectors"].shape[1] == 1000
    for name, M in inputs.items():
        _, _, want = scipy.linalg.qr(M, mode="economic", pivoting=True)
        np.testing.assert_array_equal(rrqr_select(M, M.shape[1]), want, err_msg=name)


# ---------------------------------------------------------------------- rfe

def test_rfe_keeps_informative_feature():
    rng = np.random.default_rng(6)
    y = np.array([1.0] * 10 + [-1.0] * 10)
    X = np.column_stack([y * rng.normal(3.0, 0.3, 20), 1e-3 * rng.standard_normal(20)])
    idx = rfe_select(LabeledDataset(X, y), r=1)
    np.testing.assert_array_equal(idx, [0])


def test_rfe_single_round_zero_chunk():
    data = gen_synthetic(n=30, d=8, k=3, seed=7)
    model = solve_dual(data, C=1.0)
    weakest = int(np.argmin(np.abs(model.w)))
    idx = rfe_select(data, r=7, chunk_fraction=0.0)
    assert idx.size == 7
    assert weakest not in idx


def test_rfe_validation():
    data = gen_synthetic(n=10, d=4, k=2, seed=8)
    with pytest.raises(ValueError):
        rfe_select(data, r=4)
    with pytest.raises(ValueError):
        rfe_select(data, r=1, chunk_fraction=1.0)


def test_rfe_invalid_problem_fails_every_pending_target():
    data = gen_synthetic(n=20, d=6, k=2, seed=1)
    cases = [
        (data, {"C": 0.0}, "C must be positive"),
        (data, {"C": -1.0}, "C must be positive"),
        (data, {"kkt_tol": -1e-3}, "kkt_tol must be non-negative"),
        (LabeledDataset(data.X[:1], data.y[:1]), {}, "need at least two points"),
        (LabeledDataset(data.X, np.ones(data.n)), {}, "both classes must be present"),
    ]
    for source, kwargs, cause in cases:
        got = rfe_select(source, [3, 0, 5], **kwargs)
        assert isinstance(got[1], ValueError) and str(got[1]) == "need r >= 1, got r=0"
        for rv, err in ((3, got[0]), (5, got[2])):
            assert isinstance(err, NumericalError)
            assert str(err) == f"solver failed with 6 features remaining (target {rv}): {cause}"
            assert isinstance(err.__cause__, DataError) and str(err.__cause__) == cause
        with pytest.raises(NumericalError) as alone:
            rfe_select(source, 5, **kwargs)
        assert str(alone.value) == str(got[2])
        assert isinstance(alone.value.__cause__, DataError)


def rfe_datasets():
    """The datasets, targets and chunk fractions of this file's other rfe tests."""
    rng = np.random.default_rng(6)
    y = np.array([1.0] * 10 + [-1.0] * 10)
    X = np.column_stack([y * rng.normal(3.0, 0.3, 20), 1e-3 * rng.standard_normal(20)])
    yield LabeledDataset(X, y), 1, 0.1
    yield gen_synthetic(n=30, d=8, k=3, seed=7), 7, 0.0
    for chunk in (0.1, 0.3, 0.0):
        for rv in (25, 3, 31):
            yield gen_synthetic(n=30, d=40, k=5, seed=21), rv, chunk
    for rv in (15, 5):
        yield gen_synthetic(n=30, d=20, k=4, seed=22), rv, 0.2
    yield gen_synthetic(n=20, d=6, k=2, seed=1), 3, 0.1
    for rv in (7, 2):
        yield rank_limited(20, 10, rank=4, seed=20), rv, 0.0


def test_rfe_matches_cold_reference():
    for data, rv, chunk in rfe_datasets():
        np.testing.assert_array_equal(
            rfe_select(data, rv, chunk_fraction=chunk),
            rfe_reference(data.X, data.y, rv, chunk_fraction=chunk))


def test_rfe_matches_cold_reference_on_cv_grid_support_sets(cv_grid_support_sets):
    for sv_data in cv_grid_support_sets:
        np.testing.assert_array_equal(
            rfe_select(sv_data, 30), rfe_reference(sv_data.X, sv_data.y, 30))


def test_rfe_path_gram_stays_exact(monkeypatch):
    import marginsparse.pipelines as pipelines

    data = gen_synthetic(n=30, d=40, k=5, seed=21)
    real, seen = pipelines._smo, []

    def capture(K, *args):
        out = real(K, *args)
        seen.append((K.copy(), out[0]))
        return out

    monkeypatch.setattr(pipelines, "_smo", capture)
    survivors = rfe_select(data, 3)
    # Replay the path from the captured alphas: every K handed to the
    # solver is the Gram matrix of that round's surviving columns.
    X, y = data.X, data.y
    active, built, rebuilds = np.arange(data.d), data.d, 0
    for K, alpha in seen:
        if 2 * active.size <= built:
            built, rebuilds = active.size, rebuilds + 1
        want = X[:, active] @ X[:, active].T
        assert np.abs(K - want).max() <= 1e-12 * np.abs(want).max()
        w = X[:, active].T @ (y * alpha)
        k = min(max(1, math.ceil(0.1 * active.size)), active.size - 3)
        active = np.delete(active, np.argsort(np.abs(w), kind="stable")[:k])
    np.testing.assert_array_equal(active, survivors)
    assert rebuilds >= 2


# ---------------------------------------------------------------- pipelines

def test_supervised_two_point_exact_margin_ratio():
    # X^sv spans one direction; with ell=1, r=2 the deterministic selector
    # duplicates the only live feature and the sampled Gram is exactly 1/2,
    # so the recalibrated margin is sqrt(1/2) times the original.
    data = LabeledDataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))
    rep = supervised_select(data, "bss", r=2, C=1.0)
    assert np.all(rep.selected_indices == 0)
    assert rep.spectral_error == pytest.approx(0.5, abs=1e-9)
    assert rep.margin_sampled == pytest.approx(math.sqrt(0.5) * rep.margin_full, rel=1e-9)
    assert rep.margin_full == pytest.approx(1.0, rel=1e-6)
    assert rep.n_support == 2


def test_supervised_report_is_reproducible():
    data = gen_synthetic(n=40, d=30, k=4, seed=9)
    a = supervised_select(data, "uniform", r=10, seed=3)
    b = supervised_select(data, "uniform", r=10, seed=3)
    np.testing.assert_array_equal(a.selected_indices, b.selected_indices)
    assert a.margin_sampled == b.margin_sampled
    assert a.ball_sampled.radius == b.ball_sampled.radius


def test_unsupervised_label_oblivious():
    data = rank_limited(30, 40, rank=5, seed=10)
    flipped = LabeledDataset(data.X, -data.y)
    for method, seed in (("bss", None), ("leverage", 4), ("uniform", 4)):
        a = unsupervised_select(data, method, r=12, seed=seed)
        b = unsupervised_select(flipped, method, r=12, seed=seed)
        np.testing.assert_array_equal(a.selected_indices, b.selected_indices)
    a = unsupervised_select(data, "rrqr", r=12)
    b = unsupervised_select(flipped, "rrqr", r=12)
    np.testing.assert_array_equal(a.selected_indices, b.selected_indices)


def test_rfe_rejected_in_unsupervised_mode():
    data = gen_synthetic(n=20, d=10, k=2, seed=11)
    with pytest.raises(ValueError, match="supervised"):
        unsupervised_select(data, "rfe", r=5)


def test_mode_equivalence_when_all_points_are_support_vectors():
    # With C small every alpha hits the box, so X^sv = X^tr and the two
    # protocols select identically for the V-based methods.
    data = rank_limited(24, 30, rank=6, seed=12, push=0.1)
    sup = supervised_select(data, "bss", r=20, C=1e-3)
    uns = unsupervised_select(data, "bss", r=20, C=1e-3)
    assert sup.n_support == data.n
    np.testing.assert_array_equal(sup.selected_indices, uns.selected_indices)
    np.testing.assert_allclose(sup.weights, uns.weights, rtol=1e-12)

    sup = supervised_select(data, "leverage", r=20, C=1e-3, seed=5)
    uns = unsupervised_select(data, "leverage", r=20, C=1e-3, seed=5)
    np.testing.assert_array_equal(sup.selected_indices, uns.selected_indices)


def test_identity_sampling_preserves_margin():
    data = gen_synthetic(n=30, d=12, k=3, seed=13)
    rep = supervised_select(data, "uniform", r=12, seed=0)
    assert rep.margin_sampled == pytest.approx(rep.margin_full, rel=1e-8)


def test_unknown_method_and_missing_arguments(monkeypatch):
    data = gen_synthetic(n=20, d=10, k=2, seed=14)
    with monkeypatch.context() as m:
        m.setattr(pipelines, "solve_dual", None)  # any solve would fail
        for select in (supervised_select, unsupervised_select):
            with pytest.raises(ValueError, match="unknown method 'lasso'"):
                select(data, "lasso", r=5)
    with pytest.raises(ValueError, match="seed"):
        supervised_select(data, "leverage", r=25)
    with pytest.raises(ValueError, match="seed"):
        supervised_select(data, "uniform", r=5)
    with pytest.raises(ValueError, match="t"):
        supervised_select(data, "approx-bss", r=25, seed=1)


UNSUPERVISED_METHODS = ("bss", "leverage", "approx-bss", "uniform", "rrqr")


@pytest.mark.parametrize("mode, method", [
    *(("supervised", m) for m in (*UNSUPERVISED_METHODS, "rfe")),
    *(("unsupervised", m) for m in UNSUPERVISED_METHODS),
])
def test_select_matches_the_step_by_step_reference(mode, method):
    # 60 x 300: 19 support vectors, so the supervised basis is 300 x 19 and
    # the unsupervised one 300 x 60; r = 80 is above both.
    data = gen_synthetic(60, 300, 10)
    select = supervised_select if mode == "supervised" else unsupervised_select
    rep = select(data, method, 80, seed=7, t=30)
    idx, w, model = select_reference(data, mode, method, 80, seed=7, t=30)
    np.testing.assert_array_equal(rep.selected_indices, idx)
    np.testing.assert_array_equal(rep.weights, w)
    assert np.float64(rep.margin_sampled).tobytes() == np.float64(model.margin).tobytes()


def count_calls(monkeypatch, *names):
    """Calls from pipelines to each named function, counted as they run."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _real=getattr(pipelines, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipelines, name, counting)
    return counts


@pytest.mark.parametrize("entry, solves", [
    (lambda data: supervised_select(data, "bss", 80), 4),
    (lambda data: unsupervised_select(data, "bss", 80), 2),
    (lambda data: select_geometry(data, "bss", 80), 0),
], ids=["supervised_select", "unsupervised_select", "select_geometry"])
def test_each_select_entry_point_does_its_known_work(monkeypatch, entry, solves):
    # supervised: the full solve, the support-vector re-solve, the sampled
    # solve and the sampled-full-data solve; unsupervised: the full and the
    # sampled solve.  Every entry point takes one SVD and two balls.
    counts = count_calls(monkeypatch, "solve_dual", "thin_svd", "meb_radius")
    entry(gen_synthetic(60, 300, 10))
    assert counts == {"solve_dual": solves, "thin_svd": 1, "meb_radius": 2}


def test_a_cv_fold_solves_once_plus_once_per_selecting_cell(monkeypatch):
    counts = count_calls(monkeypatch, "solve_dual", "thin_svd", "meb_radius")
    cells = cv_experiment(gen_synthetic(60, 300, 10), ("bss", "rrqr"), (40, 50),
                          folds=2, repeats=1, seed=1, include_full=True)
    assert not any(c.skipped for c in cells)
    selecting = sum(c.method != "full" for c in cells)
    assert counts == {"solve_dual": 2 + selecting, "thin_svd": 2, "meb_radius": 0}

def count_gram_checks(monkeypatch):
    """Orthonormality checks, each of which forms one V^T V, counted as
    they run, and the bases pipelines hands to spectral_error."""
    counts, handed = {"checks": 0}, []

    def check(G, _real=linalg._gram_defect):
        counts["checks"] += 1
        return _real(G)

    def error(V, *args, _real=pipelines.spectral_error):
        handed.append(V)
        return _real(V, *args)

    monkeypatch.setattr(linalg, "_gram_defect", check)
    monkeypatch.setattr(pipelines, "spectral_error", error)
    return counts, handed


@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
@pytest.mark.parametrize("method", ["bss", "leverage", "approx-bss"])
def test_one_select_forms_each_basis_gram_once(monkeypatch, mode, method):
    # Every basis here is a wide Gram-route one, whose single check is on
    # V itself: thin_svd forms V^T V once, the selector reads the defect
    # and spectral_error the Gram that the ThinSvd carries.  approx-bss
    # selects on the sketch's basis and measures on the source's: two.
    counts, handed = count_gram_checks(monkeypatch)
    svds = count_calls(monkeypatch, "thin_svd")
    select = supervised_select if mode == "supervised" else unsupervised_select
    select(gen_synthetic(60, 300, 10), method, 80, seed=7, t=30)
    assert svds["thin_svd"] == (2 if method == "approx-bss" else 1)
    assert counts["checks"] == svds["thin_svd"]
    assert len(handed) == 1 and isinstance(handed[0], linalg.ThinSvd)


def test_a_cv_fold_forms_its_basis_gram_once(monkeypatch):
    counts, _ = count_gram_checks(monkeypatch)
    cells = cv_experiment(gen_synthetic(60, 300, 10), ("bss", "leverage"), (40, 50),
                          folds=2, repeats=1, seed=1)
    assert not any(c.skipped for c in cells)
    assert counts["checks"] == 2  # one basis per fold, four selections on each


# ------------------------------------------------------------ verify bounds

def fake_ball(radius, certified=True):
    return EnclosingBall(center=np.zeros(2), radius=radius, delta=1e-3,
                         iterations=1, certified=certified)


def fake_report(e, margin_full=1.0, margin_sampled=1.0, radius_full=2.0,
                radius_sampled=2.0, certified=(True, True)):
    return SelectionReport(
        method="bss", mode="unsupervised", r=2, operator=identity_operator(2),
        spectral_error=e, ball_full=fake_ball(radius_full, certified[0]),
        ball_sampled=fake_ball(radius_sampled, certified[1]), seed=None,
        margin_full=margin_full, margin_sampled=margin_sampled,
        margin_sampled_full_data=margin_sampled, C=1.0, n_support=2)


def test_verify_zero_error_reduces_to_margin_comparison():
    chk = verify_margin_bound(fake_report(0.0))
    assert chk.margin_status == "pass"
    assert chk.ratio_status == "pass"
    assert chk.radius.status == "pass"
    chk = verify_margin_bound(fake_report(0.0, margin_sampled=0.999))
    assert chk.margin_status == "fail"


def test_verify_margin_fail_detected():
    # e = 0.2 -> factor 0.75; sampled margin 0.8 gives lhs 0.64 < 0.75
    chk = verify_margin_bound(fake_report(0.2, margin_sampled=0.8))
    assert chk.margin_status == "fail"
    assert chk.margin.lhs == pytest.approx(0.64)
    assert chk.margin.rhs == pytest.approx(0.75)
    assert chk.margin.reason == ""


def test_verify_radius_inequality():
    # e = 0.2: B~^2 <= 1.2 (1+1e-3)^2 B^2 = 4.8096... for B = 2
    rhs = 1.2 * (1 + 1e-3) ** 2 * 4.0
    chk = verify_margin_bound(fake_report(0.2, radius_sampled=math.sqrt(rhs)))
    assert chk.radius.status == "pass"
    assert chk.radius.lhs == pytest.approx(rhs, rel=1e-12)
    assert chk.radius.rhs == pytest.approx(rhs, rel=1e-12)
    chk = verify_margin_bound(fake_report(0.2, radius_sampled=math.sqrt(rhs * (1 + 1e-5))))
    assert chk.radius.status == "fail"
    # the radius bound holds at any e, so e >= 1 leaves it decided
    assert verify_margin_bound(fake_report(1.2)).radius.status == "pass"


def test_verify_vacuous_cases():
    chk = verify_margin_bound(fake_report(1.2))
    assert chk.margin_status == "na" and chk.ratio_status == "na"
    assert ">= 1" in chk.margin.reason and ">= 1" in chk.ratio.reason
    chk = verify_margin_bound(fake_report(None))
    assert chk.margin_status == "na" and chk.ratio_status == "na"
    assert chk.radius.status == "na"
    assert all("unweighted" in c.reason for c in (chk.margin, chk.radius, chk.ratio))
    chk = verify_margin_bound(fake_report(0.1, margin_sampled=float("inf")))
    assert chk.margin_status == "na"
    # eps_hat >= 1 kills only the ratio check
    chk = verify_margin_bound(fake_report(0.55))
    assert chk.margin_status in ("pass", "fail")
    assert chk.ratio_status == "na"


@pytest.mark.parametrize("certified", [(False, True), (True, False), (False, False)])
def test_verify_uncertified_ball_is_na(certified):
    chk = verify_margin_bound(fake_report(0.0, certified=certified))
    assert chk.margin_status == "pass"
    for c in (chk.radius, chk.ratio):
        assert c.status == "na"
        assert "not certified" in c.reason
        assert math.isnan(c.lhs) and math.isnan(c.rhs)


def test_uncertified_ball_from_a_run_is_na(monkeypatch):
    def uncertified(X, delta=1e-3):
        ball = meb_radius(X, delta)
        return EnclosingBall(ball.center, ball.radius, delta, ball.iterations, False)

    meb_radius = pipelines.meb_radius
    monkeypatch.setattr(pipelines, "meb_radius", uncertified)
    data = rank_limited(30, 100, rank=5, seed=15)
    for rep in (unsupervised_select(data, "bss", r=80), select_geometry(data, "bss", r=80)):
        chk = verify_margin_bound(rep)
        assert chk.radius.status == chk.ratio.status == "na"
        assert chk.radius.reason == chk.ratio.reason == "full and sampled ball not certified"
    assert verify_margin_bound(unsupervised_select(data, "bss", r=80)).margin_status == "pass"


def test_select_geometry_is_unsupervised_select_without_solves(monkeypatch):
    data = rank_limited(30, 100, rank=5, seed=15)
    for method, seed in (("bss", None), ("leverage", 3), ("uniform", 3), ("rrqr", None)):
        full = unsupervised_select(data, method, r=80, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(pipelines, "solve_dual", None)  # any solve would fail
            geo = select_geometry(data, method, r=80, seed=seed)
        np.testing.assert_array_equal(geo.selected_indices, full.selected_indices)
        np.testing.assert_array_equal(geo.weights, full.weights)
        assert geo.spectral_error == full.spectral_error
        assert geo.ball_full.radius == full.ball_full.radius
        assert geo.ball_sampled.radius == full.ball_sampled.radius
        assert geo.model_sampled is None and math.isnan(geo.margin_full)
    with pytest.raises(ValueError, match="supervised"):
        select_geometry(data, "rfe", r=5)


def test_verify_on_real_low_rank_run():
    data = rank_limited(30, 100, rank=5, seed=15)
    rep = unsupervised_select(data, "bss", r=80)
    assert rep.spectral_error <= 3 * math.sqrt(5 / 80) + 1e-9
    chk = verify_margin_bound(rep)
    assert chk.margin_status == "pass"
    assert chk.ratio_status in ("pass", "na")


def test_verify_leverage_monte_carlo():
    data = rank_limited(30, 100, rank=5, seed=16)
    passes = 0
    for seed in range(20):
        rep = unsupervised_select(data, "leverage", r=80, seed=seed)
        chk = verify_margin_bound(rep)
        if chk.margin_status == "pass":
            passes += 1
    assert passes >= 19


# ----------------------------------------------------------------------- cv

def test_cv_reproducible_and_worker_invariant():
    data = rank_limited(30, 12, rank=4, seed=17)
    kw = dict(methods=("bss", "leverage"), r=30, folds=3, repeats=2, seed=1,
              mode="unsupervised", include_full=True)
    one = cv_experiment(data, workers=1, **kw)
    two = cv_experiment(data, workers=2, **kw)
    again = cv_experiment(data, workers=1, **kw)
    key = lambda c: (c.method, c.r or 0, c.repeat, c.fold)
    for a, b in zip(sorted(one, key=key), sorted(two, key=key)):
        assert (a.method, a.r, a.repeat, a.fold) == (b.method, b.r, b.repeat, b.fold)
        assert a.error == b.error or (np.isnan(a.error) and np.isnan(b.error))
    for a, b in zip(one, again):
        assert a.error == b.error or (np.isnan(a.error) and np.isnan(b.error))


def test_cv_summary_counts():
    data = rank_limited(24, 10, rank=3, seed=18)
    cells = cv_experiment(data, methods="bss", r=15, folds=4, repeats=2,
                          seed=2, mode="unsupervised", include_full=True)
    summary = summarize_cv(cells)
    assert summary[("bss", 15)]["cells"] == 8
    assert summary[("full", None)]["cells"] == 8
    for stats in summary.values():
        if not math.isnan(stats["mean_error"]):
            assert 0.0 <= stats["mean_error"] <= 1.0
            assert stats["std_error"] >= 0.0
    assert summary[("bss", 15)]["skipped"] + 8 >= 8
    for (method, r), stats in summary.items():
        grp = [c for c in cells if (c.method, c.r) == (method, r)]
        assert stats["margins"] == [c.margin_sampled for c in grp if not c.skipped]
        assert stats["skipped_cells"] == [
            {"repeat": c.repeat, "fold": c.fold, "reason": c.reason}
            for c in grp if c.skipped]
        assert len(stats["margins"]) + len(stats["skipped_cells"]) == stats["cells"]


def test_feature_frequencies_counts_are_bounded():
    data = rank_limited(24, 10, rank=3, seed=19)
    cells = cv_experiment(data, methods="bss", r=15, folds=4, repeats=2,
                          seed=3, mode="unsupervised")
    groups = feature_frequencies(cells, d=10)
    counts = groups[("bss", 15)]
    live = [c for c in cells if not c.skipped]
    assert counts.shape == (10,)
    assert counts.max() <= len(live)
    assert counts.sum() >= len(live)  # every cell selects at least one feature


def no_fold(task):
    raise AssertionError("a fold ran")


@pytest.mark.parametrize("kwargs, message", [
    ({"C": 0.0}, "C must be positive"),
    ({"C": -2.0}, "C must be positive"),
    ({"kkt_tol": -1.0}, "kkt_tol must be non-negative"),
    ({"C": math.nan}, "C must be positive"),
    ({"kkt_tol": math.nan}, "kkt_tol must be non-negative"),
])
def test_cv_invalid_solver_parameters_raise_before_any_fold(monkeypatch, kwargs, message):
    monkeypatch.setattr(pipelines, "_cv_fold", no_fold)
    data = rank_limited(24, 10, rank=3, seed=18)
    with pytest.raises(DataError, match=message):
        cv_experiment(data, "bss", 5, folds=3, repeats=1, **kwargs)


@pytest.mark.parametrize("methods, message", [
    (("bss", "bogus"), "unknown method 'bogus'"),
    (("full", "lasso"), "unknown method 'lasso'"),
    ((), "no method"),
])
def test_cv_unknown_or_no_methods_raise_before_any_fold(monkeypatch, methods, message):
    monkeypatch.setattr(pipelines, "_cv_fold", no_fold)
    data = rank_limited(24, 10, rank=3, seed=18)
    with pytest.raises(ValueError, match=message):
        cv_experiment(data, methods, 5, folds=3, repeats=1)


def test_unknown_mode_raises_before_any_fold_or_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an SVM was solved")

    monkeypatch.setattr(pipelines, "_cv_fold", no_fold)
    monkeypatch.setattr(pipelines, "solve_dual", no_solve)
    data = rank_limited(24, 10, rank=3, seed=18)
    with pytest.raises(ValueError, match="unknown mode 'Unsupervised'"):
        cv_experiment(data, "rfe", 5, folds=3, repeats=1, mode="Unsupervised")
    with pytest.raises(ValueError, match="unknown mode 'Unsupervised'"):
        pipelines._select(data, "Unsupervised", "rfe", 5, 1.0, 0, t=None,
                          chunk_fraction=0.1, kkt_tol=1e-4, meb_delta=1e-3)


def test_serial_cv_lets_go_of_its_dataset(monkeypatch):
    data = rank_limited(24, 10, rank=3, seed=18)
    cv_experiment(data, "bss", 5, folds=3, repeats=1, mode="unsupervised")
    assert pipelines._CV_CTX is None

    def failing_fold(*args):
        raise NumericalError("fold failed")

    monkeypatch.setattr(pipelines, "_fold_cells", failing_fold)
    with pytest.raises(NumericalError, match="fold failed"):
        cv_experiment(data, "bss", 5, folds=3, repeats=1, mode="unsupervised")
    assert pipelines._CV_CTX is None


def test_cv_fold_sketches_once_for_every_approx_bss_r(monkeypatch):
    counts = count_calls(monkeypatch, "gaussian_sketch")
    data = rank_limited(30, 12, rank=4, seed=17)
    cells = cv_experiment(data, "approx-bss", (5, 6, 7), folds=2, repeats=1,
                          seed=1, mode="unsupervised", t=4)
    assert sum(not c.skipped for c in cells) == 6
    assert counts == {"gaussian_sketch": 2}


# -------------------------------------------------------- BLAS threads in cv

def _openblas_thread_controls():
    """(getter, global setter) of each OpenBLAS copy loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in (p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                         ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
                         ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(lib, get) and hasattr(lib, put):
                getter, setter = getattr(lib, get), getattr(lib, put)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


@pytest.fixture()
def openblas_at_two_threads():
    """Each loaded OpenBLAS's thread getter, with every copy set to 2 threads
    for the test and set back to its own count after it."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield [get for get, _ in controls]
    for (_, put), count in zip(controls, before):
        put(count)


def test_cv_folds_run_on_one_thread_and_restore_the_count(monkeypatch,
                                                          openblas_at_two_threads):
    getters = openblas_at_two_threads
    data = rank_limited(30, 12, rank=4, seed=17)
    seen = []
    real = pipelines.solve_dual

    def counting(*args, **kwargs):
        seen.append([get() for get in getters])
        return real(*args, **kwargs)

    monkeypatch.setattr(pipelines, "solve_dual", counting)
    cv_experiment(data, "bss", 6, folds=3, repeats=1, seed=1)
    assert seen and all(counts == [1] * len(getters) for counts in seen)
    assert [get() for get in getters] == [2] * len(getters)

    def failing(*args, **kwargs):
        raise RuntimeError("solver crashed")

    monkeypatch.setattr(pipelines, "solve_dual", failing)
    with pytest.raises(RuntimeError, match="solver crashed"):
        cv_experiment(data, "bss", 6, folds=3, repeats=1, seed=1)
    assert [get() for get in getters] == [2] * len(getters)


def test_cv_folds_at_the_gate_keep_their_threads(monkeypatch):
    calls = []

    def setter(count):
        calls.append(count)
        return 7

    monkeypatch.setattr(linalg, "_openblas_thread_setters", lambda: (setter,))
    data = rank_limited(30, 12, rank=4, seed=17)  # 3 folds: 20 x 12 training matrices
    monkeypatch.setattr(pipelines, "ONE_THREAD_FOLD_ENTRIES", 20 * 12)
    cv_experiment(data, "bss", 6, folds=3, repeats=1, seed=1)
    assert calls == []
    monkeypatch.setattr(pipelines, "ONE_THREAD_FOLD_ENTRIES", 20 * 12 + 1)
    cv_experiment(data, "bss", 6, folds=3, repeats=1, seed=1)
    assert calls == [1, 7] * 3


def _cell_bits(cells):
    return [(c.method, c.r, c.repeat, c.fold, c.skipped, c.reason,
             None if c.selected is None else c.selected.tolist(),
             np.float64(c.error).tobytes(), np.float64(c.margin_sampled).tobytes())
            for c in cells]


def test_cv_cells_do_not_depend_on_the_blas_thread_limit(monkeypatch,
                                                        openblas_at_two_threads):
    # A cv-grid-sized fold (180 x 1000), so that two threads have work to
    # split.  Selections and errors must agree exactly; margins may differ
    # in the last bits, since threaded BLAS may sum in another order.
    data = gen_synthetic(200, 1000, 40, seed=0)
    kw = dict(methods=("bss", "rrqr", "rfe"), r=(30, 40), folds=10, repeats=1,
              seed=902, mode="supervised", include_full=True)
    runs = {}
    for name, gate, found in (("limited", math.inf, None), ("unlimited", 0, None),
                              ("no OpenBLAS", math.inf, ())):
        with monkeypatch.context() as m:
            m.setattr(pipelines, "ONE_THREAD_FOLD_ENTRIES", gate)
            if found is not None:
                m.setattr(linalg, "_openblas_thread_setters", lambda: found)
            runs[name] = cv_experiment(data, **kw)
    for name in ("unlimited", "no OpenBLAS"):
        for a, b in zip(runs["limited"], runs[name], strict=True):
            assert _cell_bits([a])[0][:7] == _cell_bits([b])[0][:7]
            assert np.float64(a.error).tobytes() == np.float64(b.error).tobytes()
            np.testing.assert_allclose(a.margin_sampled, b.margin_sampled,
                                       rtol=1e-9, atol=0.0)


def test_cv_folds_above_the_gate_are_worker_invariant(monkeypatch):
    # With the gate at 0 every fold is above it, so no fold may be limited,
    # whatever the worker count: the pool's forked workers see this patch.
    @contextlib.contextmanager
    def no_limit():
        raise AssertionError("a fold above the gate was limited")
        yield

    monkeypatch.setattr(pipelines, "ONE_THREAD_FOLD_ENTRIES", 0)
    monkeypatch.setattr(pipelines, "_one_blas_thread", no_limit)
    data = gen_synthetic(60, 200, 10, seed=3)
    kw = dict(methods=("bss", "rrqr", "rfe"), r=(10, 20), folds=3, repeats=2,
              seed=5, mode="supervised", include_full=True)
    assert (_cell_bits(cv_experiment(data, workers=1, **kw))
            == _cell_bits(cv_experiment(data, workers=2, **kw)))


# ------------------------------------------------- cv against the per-cell oracle

def per_cell_cv(data, methods, r, folds, repeats, seed, C=1.0, mode="supervised",
                t=None, chunk_fraction=0.1, kkt_tol=1e-4, include_full=False):
    """Cell-at-a-time CV: every (method, r, repeat, fold) cell from scratch
    through supervised_select / unsupervised_select, in cv_experiment's
    documented order and with its per-(repeat, fold) selection seed."""
    r_list = [r] if np.isscalar(r) else list(r)
    plan = make_folds(data.n, folds, repeats, seed)

    def run(method, r, repeat, fold, cell_seed):
        train, test = apply_fold(data, plan, repeat, fold)
        if not train.has_both_classes:
            return CvCell(method, r, repeat, fold, float("nan"), float("nan"),
                          None, True, "single-class training fold")
        try:
            if method == "full":
                model = solve_dual(train, C, kkt_tol)
                return CvCell(method, None, repeat, fold, error_rate(model, test),
                              model.margin, None, False)
            if mode == "supervised":
                rep = supervised_select(train, method, r, C=C, seed=cell_seed, t=t,
                                        chunk_fraction=chunk_fraction,
                                        kkt_tol=kkt_tol)
            else:
                rep = unsupervised_select(train, method, r, C=C, seed=cell_seed,
                                          t=t, kkt_tol=kkt_tol)
            sampled_test = LabeledDataset(rep.operator.apply(test.X), test.y)
            return CvCell(method, r, repeat, fold,
                          error_rate(rep.model_sampled, sampled_test),
                          rep.margin_sampled, rep.operator.selected_features(), False)
        except (DataError, NumericalError, ValueError) as exc:
            return CvCell(method, r, repeat, fold, float("nan"), float("nan"),
                          None, True, str(exc))

    def fold_seed(repeat, fold):
        ss = np.random.SeedSequence(seed, spawn_key=(repeat, fold))
        return int(ss.generate_state(1)[0])

    cells = [run(m, rv, rep, f, fold_seed(rep, f)) for m in methods for rv in r_list
             for rep in range(repeats) for f in range(folds)]
    if include_full:
        cells += [run("full", None, rep, f, 0) for rep in range(repeats)
                  for f in range(folds)]
    return cells


def assert_same_cells(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.method, a.r, a.repeat, a.fold, a.skipped, a.reason) == \
            (b.method, b.r, b.repeat, b.fold, b.skipped, b.reason)
        np.testing.assert_array_equal(a.error, b.error)  # NaN == NaN here
        np.testing.assert_array_equal(a.margin_sampled, b.margin_sampled)
        if b.selected is None:
            assert a.selected is None
        else:
            np.testing.assert_array_equal(a.selected, b.selected)


def few_positives(n=18, d=8, positives=(0, 7), seed=0):
    """Two positives in 18 points: some training folds lose both."""
    rng = np.random.default_rng(seed)
    y = -np.ones(n)
    y[list(positives)] = 1.0
    X = rng.standard_normal((n, d)) + 1.5 * y[:, None] * (np.arange(d) < 3)
    return LabeledDataset(X, y)


@pytest.mark.parametrize("mode", ["supervised", "unsupervised"])
def test_cv_matches_per_cell_oracle(mode):
    # d = 8 and r in (3, 6, 9): r = 9 is out of range for uniform, rrqr and
    # rfe, r = 3 is at most ell for bss and approx-bss, and rfe leaves its
    # elimination path at two different rounds.
    data = few_positives()
    kw = dict(methods=("bss", "leverage", "approx-bss", "uniform", "rrqr", "rfe"),
              r=(3, 6, 9), folds=3, repeats=3, seed=3, mode=mode, t=3,
              include_full=True)
    want = per_cell_cv(data, **kw)
    reasons = {c.reason for c in want}
    assert "single-class training fold" in reasons
    assert "cannot pick 9 of 8 columns" in reasons
    assert any(c.method == "bss" and c.reason.startswith("need r > ell") for c in want)
    live = {c.method for c in want if not c.skipped}
    assert live == {"full", *kw["methods"]} - ({"rfe"} if mode == "unsupervised" else set())
    for workers in (1, 2):
        assert_same_cells(cv_experiment(data, workers=workers, **kw), want)


def test_cv_matches_per_cell_oracle_with_repeated_entries():
    # a method named twice, "full" inside the grid and an unsorted r list
    data = rank_limited(20, 10, rank=4, seed=20)
    kw = dict(methods=("rfe", "full", "rfe", "rrqr"), r=(7, 2), folds=4,
              repeats=1, seed=5, chunk_fraction=0.0, include_full=False)
    assert_same_cells(cv_experiment(data, **kw), per_cell_cv(data, **kw))


# --------------------------------------------------------------- grid forms

def test_rfe_grid_equals_separate_calls():
    data = gen_synthetic(n=30, d=40, k=5, seed=21)
    for chunk in (0.1, 0.3, 0.0):
        # the targets leave the shared path at different rounds
        targets = [25, 3, 31, 40, 25]
        got = rfe_select(data, targets, chunk_fraction=chunk)
        assert len(got) == len(targets)
        for rv, idx in zip(targets, got):
            if rv >= data.d:
                assert isinstance(idx, ValueError)
                assert str(idx) == f"need r < d, got r={rv}, d={data.d}"
                with pytest.raises(ValueError, match="need r < d"):
                    rfe_select(data, rv, chunk_fraction=chunk)
            else:
                np.testing.assert_array_equal(
                    idx, rfe_select(data, rv, chunk_fraction=chunk))
    with pytest.raises(ValueError, match="chunk_fraction"):
        rfe_select(data, [3, 5], chunk_fraction=1.0)


def test_rfe_grid_solver_failure_keeps_reached_targets(monkeypatch):
    import marginsparse.pipelines as pipelines

    data = gen_synthetic(n=30, d=20, k=4, seed=22)
    real, rounds = pipelines._smo, 0

    def failing(K, y, C, kkt_tol, max_steps, alpha0=None):
        # A path's first round starts cold.  At chunk 0.2 the path keeps
        # 20, 16, 12 and then 9 features, so its fourth round is the first
        # with fewer than 12.
        nonlocal rounds
        rounds = 1 if alpha0 is None else rounds + 1
        if rounds >= 4:
            raise NumericalError("boom")
        return real(K, y, C, kkt_tol, max_steps, alpha0)

    monkeypatch.setattr(pipelines, "_smo", failing)
    reached, lost = rfe_select(data, [15, 5], chunk_fraction=0.2)
    np.testing.assert_array_equal(reached, rfe_select(data, 15, chunk_fraction=0.2))
    assert isinstance(lost, NumericalError)
    with pytest.raises(NumericalError) as alone:
        rfe_select(data, 5, chunk_fraction=0.2)
    assert str(lost) == str(alone.value)
    assert "(target 5)" in str(lost) and "boom" in str(lost)
    assert "with 9 features remaining" in str(lost)


def test_nonpositive_r_rejected():
    # rfe at r < 0 is tested through the CLI in a child process with a
    # timeout: a regression there loops forever and would hang this test.
    data = gen_synthetic(n=20, d=6, k=2, seed=1)
    for r in (0, -3):
        with pytest.raises(ValueError, match=f"need r >= 1, got r={r}"):
            uniform_select(data.d, r, seed=0)
        with pytest.raises(ValueError, match=f"need r >= 1, got r={r}"):
            rrqr_select(data.X, r)
        bad, good = rrqr_select(data.X, [r, 3])
        assert str(bad) == f"need r >= 1, got r={r}"
        np.testing.assert_array_equal(good, rrqr_select(data.X, 3))
    with pytest.raises(ValueError, match="need r >= 1, got r=0"):
        rfe_select(data, 0)
    bad, good = rfe_select(data, [0, 3])
    assert str(bad) == "need r >= 1, got r=0"
    np.testing.assert_array_equal(good, rfe_select(data, 3))


def test_rrqr_grid_equals_separate_calls():
    X = np.random.default_rng(23).standard_normal((6, 9))
    a, b, c = rrqr_select(X, [4, 9, 10])
    np.testing.assert_array_equal(a, rrqr_select(X, 4))
    np.testing.assert_array_equal(b, rrqr_select(X, 9))
    assert isinstance(c, ValueError) and str(c) == "cannot pick 10 of 9 columns"
