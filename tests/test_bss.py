import math
import re

import numpy as np
import pytest

import marginsparse.bss as bss
from marginsparse.bss import SCORE_BLOCK, SCORE_SLACK, bss_select
from marginsparse.errors import NumericalError

from oracles import (
    BarrierHitError,
    BarrierState,
    bss_reference,
    bss_replay,
    candidate_scores,
    lower_potential,
    upper_potential,
    sampled_gram_error,
)

FIRST_BLOCK_MIN = bss._FIRST_BLOCK_MIN


def random_orthonormal(d, ell, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((d, ell)))
    return Q


# The potentials, scores and barrier state below are the one-row-at-a-time
# reference in oracles.py that the replay tests check bss_select against.

# ---------------------------------------------------------------- potentials

def test_lower_potential_value():
    # 1/(2-1) + 1/(3-1) = 1.5, by hand
    assert lower_potential(1.0, (2.0, 3.0)) == pytest.approx(1.5, rel=1e-15)


def test_upper_potential_value():
    # 1/(5-2) + 1/(5-3) = 5/6
    assert upper_potential(5.0, (2.0, 3.0)) == pytest.approx(5.0 / 6.0, rel=1e-15)


def test_upper_potential_zero_matrix():
    assert upper_potential(12.0, np.zeros(2)) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_potentials_reject_crossed_barriers():
    with pytest.raises(ValueError):
        lower_potential(2.0, (2.0, 3.0))
    with pytest.raises(ValueError):
        lower_potential(2.5, (2.0, 3.0))
    with pytest.raises(ValueError):
        upper_potential(3.0, (2.0, 3.0))
    with pytest.raises(ValueError):
        upper_potential(2.5, (2.0, 3.0))


# ------------------------------------------------------------------- scores

def test_candidate_scores_scalar_case():
    # ell=1, A=[[0]], L=-2, U=6, delta_lower=1, delta_upper=3, v=[1]:
    #   dphi_l = 1/(0+1) - 1/(0+2) = 1/2      -> lscore = 1/(1/2) - 1 = 1
    #   dphi_u = 1/6 - 1/9 = 1/18             -> uscore = (1/81)/(1/18) + 1/9 = 1/3
    state = BarrierState.initial(1)
    lscore, uscore = candidate_scores([1.0], state, -2.0, 6.0, 1.0, 3.0)
    assert lscore == pytest.approx(1.0, rel=1e-14)
    assert uscore == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_candidate_scores_scale_quadratically():
    state = BarrierState.initial(1)
    l1, u1 = candidate_scores([1.0], state, -2.0, 6.0, 1.0, 3.0)
    l2, u2 = candidate_scores([2.0], state, -2.0, 6.0, 1.0, 3.0)
    # Only the rank-one resolvent terms scale with |v|^2; the dphi
    # normalization is shared, so the quadratic terms scale by 4 while the
    # linear terms scale by 4 as well -> both scores scale by 4.
    assert l2 == pytest.approx(4 * l1, rel=1e-12)
    assert u2 == pytest.approx(4 * u1, rel=1e-12)


def test_candidate_scores_reject_eigenvalue_hit():
    state = BarrierState.initial(1)  # spectrum {0}
    with pytest.raises(BarrierHitError):
        candidate_scores([1.0], state, -1.0, 6.0, 1.0, 3.0)  # L + dL = 0
    with pytest.raises(BarrierHitError):
        candidate_scores([1.0], state, -2.0, -3.0, 1.0, 3.0)  # U + dU = 0


def test_barrier_state_update():
    state = BarrierState.initial(2)
    v = np.array([1.0, 0.0])
    new = state.updated(v, 0.5)
    assert new.tau == 1
    np.testing.assert_allclose(new.A, [[0.5, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(np.sort(new.eigenvalues), [0.0, 0.5])
    # original untouched
    np.testing.assert_array_equal(state.A, np.zeros((2, 2)))


# ------------------------------------------------------------- scan order

def _padded_row_norms(rng):
    """Squared row norms of an orthonormal basis padded with zero rows."""
    V = np.vstack([random_orthonormal(40, 5, 3), np.zeros((60, 5))])
    return np.einsum("ij,ij->i", V, V)


ORDER_CASES = {
    "distinct": lambda rng: rng.random(20000),
    "integer ties": lambda rng: rng.integers(0, 5, 3000).astype(float),
    "all equal": lambda rng: np.zeros(500),
    "zero tail": lambda rng: np.concatenate([rng.random(300), np.zeros(700)]),
    "padded basis": _padded_row_norms,
    "one": lambda rng: np.array([2.0]),
}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_descending_order_is_the_stable_argsort(case):
    x = ORDER_CASES[case](np.random.default_rng(8))
    order = bss._descending_order(x)
    expected = np.argsort(-x, kind="stable")
    assert order.dtype == expected.dtype and np.array_equal(order, expected)


# -------------------------------------------------------------- bss_select

def test_identity_embedding_selects_only_live_rows():
    # V = first two columns of I_6: rows 2..5 are zero and never acceptable.
    V = np.eye(6)[:, :2]
    op, diag = bss_select(V, 8, return_diagnostics=True)
    assert diag.reselections > 0
    assert set(op.indices.tolist()) <= {0, 1}
    assert set(op.indices.tolist()) == {0, 1}
    s = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
    bound = math.sqrt(2.0 / 8.0)
    assert s.min() >= 1 - bound - 1e-9
    assert s.max() <= 1 + bound + 1e-9


def test_spectral_error_bound_100x2():
    V = random_orthonormal(100, 2, seed=1)
    op = bss_select(V, 32)
    err = sampled_gram_error(V, op.indices, op.weights)
    assert err <= 3 * math.sqrt(2.0 / 32.0) + 1e-9  # = 0.75


def test_singular_value_window_500x8():
    V = random_orthonormal(500, 8, seed=2)
    op = bss_select(V, 128)
    s = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
    assert s.min() >= 0.75 - 1e-9
    assert s.max() <= 1.25 + 1e-9


@pytest.mark.parametrize(
    "d,ell,r,seed",
    [(50, 3, 16, 3), (80, 5, 40, 4), (200, 10, 61, 5), (120, 4, 9, 6)],
)
def test_guarantees_across_shapes(d, ell, r, seed):
    V = random_orthonormal(d, ell, seed)
    op, diag = bss_select(V, r, return_diagnostics=True)
    ratio = math.sqrt(ell / r)
    s = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
    assert s.min() >= 1 - ratio - 1e-9
    assert s.max() <= 1 + ratio + 1e-9
    assert sampled_gram_error(V, op.indices, op.weights) <= 3 * ratio + 1e-9
    assert diag.eig_count == 0
    replay = bss_replay(V, r, SCORE_SLACK, SCORE_BLOCK, FIRST_BLOCK_MIN)
    assert diag.score_evaluations == replay.rows_scored
    assert diag.reselections == replay.reselections
    assert diag.step_sizes.shape == (r,)
    assert np.all(diag.step_sizes > 0)
    assert np.all(np.isfinite(diag.step_sizes))


def test_deterministic():
    V = random_orthonormal(60, 4, seed=7)
    a = bss_select(V, 24)
    b = bss_select(V, 24)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.weights, b.weights)


def test_weights_follow_step_sizes():
    V = random_orthonormal(60, 4, seed=8)
    op, diag = bss_select(V, 20, return_diagnostics=True)
    ratio = math.sqrt(4 / 20)
    np.testing.assert_allclose(
        op.weights, np.sqrt(diag.step_sizes * (1 - ratio) / 20), rtol=1e-14
    )


def _assert_replay_matches(V, r):
    op, diag = bss_select(V, r, return_diagnostics=True)
    replay = bss_replay(V, r, SCORE_SLACK, SCORE_BLOCK, FIRST_BLOCK_MIN)
    np.testing.assert_array_equal(op.indices, replay.indices)
    np.testing.assert_allclose(diag.step_sizes, replay.step_sizes, rtol=1e-9)
    assert diag.score_evaluations == replay.rows_scored
    assert diag.reselections == replay.reselections
    return op


def test_replay_through_single_candidate_api():
    # Re-run the greedy loop through BarrierState/candidate_scores and check
    # it reproduces bss_select: same picks, same step sizes, and the rows
    # the lazy scan scored.  The second V is taller than one score block;
    # the third has so few rows that most steps reselect a taken row.  In
    # the fourth, 100 zero rows are never acceptable, so fresh picks follow
    # reselections, whose scan sizes the next step's first block.
    _assert_replay_matches(random_orthonormal(40, 3, seed=9), 15)
    _assert_replay_matches(random_orthonormal(400, 3, seed=11), 24)
    _assert_replay_matches(random_orthonormal(10, 3, seed=13), 40)
    _assert_replay_matches(np.vstack([random_orthonormal(10, 3, seed=9), np.zeros((100, 3))]), 40)


def _duplicated_rows(m=60):
    Q = random_orthonormal(m, 3, seed=12)
    return np.vstack([Q, Q]) / math.sqrt(2.0)


def test_duplicated_rows_resolve_ties_to_lower_index():
    # Rows i and i + m are bit-identical, so their norms tie exactly; the
    # lower index must win, as argmax over ascending candidates does.
    m = 60
    V = _duplicated_rows(m)
    r = 24
    op = _assert_replay_matches(V, r)
    for tau, i in enumerate(op.indices):
        if i >= m:
            assert i - m in op.indices[:tau]


BSS_REFERENCE_CASES = {
    # the three select-tall shapes, sparse-text's three bases, a cv-grid
    # ell, exact norm ties, and an input that forces reselections
    "4000x50 r=400": (lambda: random_orthonormal(4000, 50, seed=20), 400),
    "20000x20 r=80": (lambda: random_orthonormal(20000, 20, seed=21), 80),
    "400x80 r=320": (lambda: random_orthonormal(400, 80, seed=22), 320),
    "4000x87 r=200": (lambda: random_orthonormal(4000, 87, seed=23), 200),
    "4000x100 r=200": (lambda: random_orthonormal(4000, 100, seed=26), 200),
    "4000x60 r=200": (lambda: random_orthonormal(4000, 60, seed=27), 200),
    "1000x14 r=40": (lambda: random_orthonormal(1000, 14, seed=24), 40),
    "duplicated rows": (_duplicated_rows, 24),
    "identity embedding": (lambda: np.eye(6)[:, :2], 8),
}


@pytest.mark.parametrize("case", BSS_REFERENCE_CASES)
def test_bss_select_matches_eigh_reference(case):
    build, r = BSS_REFERENCE_CASES[case]
    V = build()
    op, diag = bss_select(V, r, return_diagnostics=True)
    ref = bss_reference(V, r, SCORE_SLACK, SCORE_BLOCK, FIRST_BLOCK_MIN)
    np.testing.assert_array_equal(op.indices, ref.indices)
    np.testing.assert_allclose(op.weights, ref.weights, rtol=1e-12, atol=0)
    np.testing.assert_allclose(diag.step_sizes, ref.step_sizes, rtol=1e-12, atol=0)
    assert diag.score_evaluations == ref.score_evaluations
    assert diag.reselections == ref.reselections
    assert (diag.eig_count, ref.eig_count) == (0, r)
    if case == "identity embedding":
        assert diag.reselections > 0


@pytest.mark.parametrize("factor,message", [
    (0, "barrier crossed"),                              # U I - A
    (1, "lower barrier shift overtook the spectrum"),    # A - (L+1) I
    (2, "barrier crossed"),                              # (U+dU) I - A
])
def test_failed_factor_names_iteration_spectrum_and_barriers(monkeypatch, factor, message):
    # Each step factors A - (L+1) I and (U+dU) I - A, in that order, and
    # then U I - A only when the trace certificate is inconclusive; a zero
    # margin makes it so on every step.  Fail one of step k's factors on a
    # healthy spectrum: the error must still name the step, its spectrum
    # and its barriers.
    V, r, k = random_orthonormal(200, 5, seed=25), 40, 7
    if factor == 0:
        monkeypatch.setattr(bss, "_CERT_MARGIN", 0.0)
        failing_call = 3 * k + 3
    else:
        failing_call = 2 * k + factor
    real, calls = bss.dpotrf, []

    def failing(M, *args, **kwargs):
        calls.append(None)
        C, info = real(M, *args, **kwargs)
        return (C, 1) if len(calls) == failing_call else (C, info)

    monkeypatch.setattr(bss, "dpotrf", failing)
    with pytest.raises(NumericalError) as exc:
        bss_select(V, r)
    assert len(calls) == failing_call
    sqrt_rl = math.sqrt(r * 5)
    delta_upper = (1 + math.sqrt(5 / r)) / (1 - math.sqrt(5 / r))
    L, U = k - sqrt_rl, delta_upper * (k + sqrt_rl)
    num = r"-?\d[\d.e+-]*"
    assert re.fullmatch(
        rf"{message} at iteration {k}: spectrum \[{num}, {num}\] "
        rf"vs barriers \({L:.9g}, {U:.9g}\)", str(exc.value))


def _counting(monkeypatch, name):
    real, calls = getattr(bss, name), []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(bss, name, counted)
    return calls


@pytest.mark.parametrize("case", ["4000x87 r=200", "1000x14 r=40", "duplicated rows"])
def test_healthy_step_makes_two_factors_and_two_inverses(monkeypatch, case):
    build, r = BSS_REFERENCE_CASES[case]
    factors, inverses = _counting(monkeypatch, "dpotrf"), _counting(monkeypatch, "dtrtri")
    bss_select(build(), r)
    assert (len(factors), len(inverses)) == (2 * r, 2 * r)


@pytest.mark.parametrize("case", ["4000x87 r=200", "1000x14 r=40", "identity embedding"])
def test_certificate_holds_on_every_step_it_accepts(monkeypatch, case):
    # Record each step's upper trace tr ((U+dU)I - A)^-1 as bss_select
    # computed it, and check lambda_max < U on the oracle's spectrum of the
    # same step wherever tr * dU fell below the margin.
    build, r = BSS_REFERENCE_CASES[case]
    V = build()
    ell = V.shape[1]
    real, traces = bss._inverse_factor, []

    def recording(M):
        trace = real(M)
        traces.append(trace)
        return trace

    monkeypatch.setattr(bss, "_inverse_factor", recording)
    op, diag = bss_select(V, r, return_diagnostics=True)
    upper = traces[1::2]
    assert len(upper) == r

    ratio = math.sqrt(ell / r)
    delta_upper = (1 + ratio) / (1 - ratio)
    sqrt_rl = math.sqrt(r * ell)
    state = BarrierState.initial(ell)
    accepted = 0
    for tau, (i, t) in enumerate(zip(op.indices, diag.step_sizes)):
        if upper[tau] * delta_upper < bss._CERT_MARGIN:
            accepted += 1
            assert state.eigenvalues.max() < delta_upper * (tau + sqrt_rl)
        state = state.updated(V[i], t)
    assert accepted == r  # a healthy run never needs the check factor


@pytest.mark.parametrize("case", ["4000x87 r=200", "1000x14 r=40", "identity embedding"])
def test_inconclusive_certificate_changes_no_output(monkeypatch, case):
    # With the margin at 0 every step runs the check factor of U I - A,
    # which must pass on a healthy run and leave the selection bit-identical.
    build, r = BSS_REFERENCE_CASES[case]
    V = build()
    op, diag = bss_select(V, r, return_diagnostics=True)
    monkeypatch.setattr(bss, "_CERT_MARGIN", 0.0)
    factors = _counting(monkeypatch, "dpotrf")
    checked, checked_diag = bss_select(V, r, return_diagnostics=True)
    assert len(factors) == 3 * r
    np.testing.assert_array_equal(checked.indices, op.indices)
    np.testing.assert_array_equal(checked.weights, op.weights)
    np.testing.assert_array_equal(checked_diag.step_sizes, diag.step_sizes)
    assert checked_diag.score_evaluations == diag.score_evaluations
    assert checked_diag.reselections == diag.reselections


@pytest.mark.parametrize("k", [0, 22])
def test_no_acceptable_column_reports_the_best_row_of_all_d(monkeypatch, k):
    # From step k on, SCORE_SLACK = -inf makes every row unacceptable.  The
    # error must name step k and give max lscore-uscore over all d rows,
    # the taken ones included: at k = 22 that maximum sits on a taken row,
    # well above the best untaken one.
    V, r = random_orthonormal(200, 5, seed=25), 40
    d, ell = V.shape
    healthy, diag = bss_select(V, r, return_diagnostics=True)
    real, calls = bss.dpotrf, []

    def counting(M, *args, **kwargs):
        calls.append(None)
        if len(calls) == 2 * k + 1:  # the first factor of step k
            monkeypatch.setattr(bss, "SCORE_SLACK", -np.inf)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(bss, "dpotrf", counting)
    with pytest.raises(NumericalError) as exc:
        bss_select(V, r)

    ratio = math.sqrt(ell / r)
    delta_upper = (1 + ratio) / (1 - ratio)
    sqrt_rl = math.sqrt(r * ell)
    state = BarrierState.initial(ell)
    for i, t in zip(healthy.indices[:k], diag.step_sizes[:k]):
        state = state.updated(V[i], t)
    L, U = k - sqrt_rl, delta_upper * (k + sqrt_rl)
    scores = np.array([candidate_scores(V[i], state, L, U, 1.0, delta_upper)
                       for i in range(d)])
    gap = scores[:, 0] - scores[:, 1]
    untaken = np.setdiff1d(np.arange(d), healthy.indices[:k])
    if k:
        assert gap[untaken].max() < 0.6 * gap.max()

    message = str(exc.value)
    assert message.startswith(f"no acceptable column at iteration {k} ")
    reported = float(re.search(r"max lscore-uscore = (\S+),", message).group(1))
    assert reported == pytest.approx(gap.max(), rel=1e-3)


def test_rejects_bad_inputs():
    V = random_orthonormal(30, 3, seed=10)
    with pytest.raises(ValueError):
        bss_select(V, 3)  # r must exceed ell
    with pytest.raises(ValueError):
        bss_select(V, 2)
    with pytest.raises(NumericalError):
        bss_select(2.0 * V, 12)  # not orthonormal
    with pytest.raises(ValueError):
        bss_select(np.full((5, 2), np.nan), 8)
