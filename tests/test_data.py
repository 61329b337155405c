import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from marginsparse.data import (
    FoldPlan,
    LabeledDataset,
    apply_fold,
    fold_test_indices,
    gen_synthetic,
    load_dataset,
    make_folds,
    parse_csv,
    parse_svmlight,
    write_svmlight,
)
from marginsparse.errors import DataError
from marginsparse.svm import error_rate, solve_dual
from oracles import parse_svmlight_reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from textgen import techtc_like  # noqa: E402


# ------------------------------------------------------------ LabeledDataset

def test_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 3)), np.array([1.0, 0.0]))  # bad label
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 3)), np.array([1.0]))  # length mismatch
    ds = LabeledDataset(np.zeros((2, 3)), np.array([1, -1]))
    assert ds.n == 2 and ds.d == 3 and ds.has_both_classes
    assert not LabeledDataset(np.zeros((1, 3)), np.array([1.0])).has_both_classes


@pytest.mark.parametrize("y, shown", [
    ([1.0, -1.0, 2.0, 0.0], "2.0"),
    ([1.0, np.nan, 0.0], "nan"),
    ([-1.0, 1.0, -np.inf, np.nan], "-inf"),
    ([0.0], "0.0"),
])
def test_label_error_names_the_first_bad_label(y, shown):
    with pytest.raises(DataError) as err:
        LabeledDataset(np.zeros((len(y), 2)), np.array(y))
    assert str(err.value) == f"labels must be -1 or +1, found {shown}"


def test_subset_keeps_order():
    ds = gen_synthetic(n=10, d=4, k=2, seed=0)
    sub = ds.subset([3, 1])
    np.testing.assert_array_equal(sub.y, ds.y[[3, 1]])
    np.testing.assert_array_equal(sub.X, ds.X[[3, 1]])


# ----------------------------------------------------------------- svmlight

def test_parse_svmlight_basic():
    ds = parse_svmlight("+1 1:0.5 3:1.25\n")
    assert ds.d == 3
    np.testing.assert_array_equal(ds.y, [1.0])
    np.testing.assert_allclose(ds.dense(), [[0.5, 0.0, 1.25]])


def test_parse_svmlight_empty_row():
    ds = parse_svmlight("-1\n+1 2:1.0\n")
    np.testing.assert_array_equal(ds.y, [-1.0, 1.0])
    np.testing.assert_allclose(ds.dense(), [[0.0, 0.0], [0.0, 1.0]])


def test_parse_svmlight_bare_one_label():
    ds = parse_svmlight("1 1:2.0\n")
    np.testing.assert_array_equal(ds.y, [1.0])


def test_parse_svmlight_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 1.*duplicate|line 1.*not strictly"):
        parse_svmlight("+1 2:1 2:1\n")
    with pytest.raises(DataError, match="line 2"):
        parse_svmlight("+1 1:1\n+1 3:1 2:1\n")
    with pytest.raises(DataError, match="line 1.*label"):
        parse_svmlight("+2 1:1\n")
    with pytest.raises(DataError, match="line 3.*malformed"):
        parse_svmlight("+1 1:1\n-1 1:1\n+1 1:abc\n")
    with pytest.raises(DataError, match="line 1"):
        parse_svmlight("+1 0:1\n")  # 0 is not 1-based
    with pytest.raises(DataError, match="line 1"):
        parse_svmlight("+1 1:nan\n")


def test_parse_svmlight_dimension_override():
    ds = parse_svmlight("+1 2:1.0\n", n_features=5)
    assert ds.d == 5
    with pytest.raises(DataError):
        parse_svmlight("+1 7:1.0\n", n_features=5)


def test_svmlight_round_trip_fixed():
    text = "+1 1:0.5 3:1.25\n-1 2:-3.0\n+1\n"
    ds = parse_svmlight(text)
    again = parse_svmlight(write_svmlight(ds), n_features=ds.d)
    np.testing.assert_array_equal(again.y, ds.y)
    np.testing.assert_array_equal(again.dense(), ds.dense())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_svmlight_round_trip_random(data):
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 8))
    y = np.array([data.draw(st.sampled_from([-1.0, 1.0])) for _ in range(n)])
    dense = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            if data.draw(st.booleans()):
                dense[i, j] = data.draw(
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
                )
    ds = LabeledDataset(sp.csr_matrix(dense), y)
    again = parse_svmlight(write_svmlight(ds), n_features=d)
    np.testing.assert_array_equal(again.y, ds.y)
    np.testing.assert_array_equal(again.dense(), dense)


def assert_parses_like_reference(text, n_features=None):
    """parse_svmlight gives the reference loop's CSR arrays, shape and
    labels exactly, or the same error message."""
    try:
        X_ref, y_ref = parse_svmlight_reference(text, n_features)
    except ValueError as ref_err:
        with pytest.raises(DataError) as err:
            parse_svmlight(text, n_features)
        assert str(err.value) == str(ref_err)
        return
    ds = parse_svmlight(text, n_features)
    assert ds.X.shape == X_ref.shape
    for name in ("data", "indices", "indptr"):
        got, ref = getattr(ds.X, name), getattr(X_ref, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert np.array_equal(ds.y, y_ref)


def test_parse_svmlight_matches_reference_on_the_text_corpus():
    for n, d, tokens, seed in ((100, 4000, 60, 0), (40, 500, 30, 3)):
        text = write_svmlight(techtc_like(n, d, tokens, seed=seed))
        assert_parses_like_reference(text)
        assert_parses_like_reference(text.replace("\n", "\r\n"))


@pytest.mark.parametrize("text", [
    "", "\n\n", "  \t \n", "+1 1:2\n   \n\t\n-1 3:1\n",
    "+1\t1:0.5\t\t4:2\r\n-1  2:1e-300\r\n", "-1\n+1\n",
    "+1 1:1\n+1 2:inf\n", "+1 1:1 1:2", "+1 1:2:3", "+1 x:1", "+1 0:1",
    "+1 3:1 2:1", "2 1:1", "+1 3", "+1 1:-0.0 2:1e308",
])
def test_parse_svmlight_matches_reference_on_edge_cases(text):
    assert_parses_like_reference(text)
    assert_parses_like_reference(text, n_features=2)


TOKENS = st.one_of(
    st.builds(lambda i, v: f"{i}:{v!r}", st.integers(-1, 12),
              st.floats(allow_nan=True, allow_infinity=True)),
    st.sampled_from(["3", "a:1", "1:b", "1:2:3", ":", "4:", "+5:1", "1_0:2"]),
)
LINES = st.builds(
    lambda label, toks, sep, tail: label + "".join(sep + t for t in toks) + tail,
    st.sampled_from(["+1", "1", "-1", "-1", "0", "+2", "", " "]),
    st.lists(TOKENS, max_size=6), st.sampled_from([" ", "\t", "  "]),
    st.sampled_from(["", " ", "\t"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(LINES, max_size=8), st.sampled_from(["\n", "\r\n"]),
       st.one_of(st.none(), st.integers(0, 14)))
def test_parse_svmlight_matches_reference_on_random_text(lines, eol, n_features):
    assert_parses_like_reference(eol.join(lines), n_features)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 3), st.floats(-1e6, 1e6)),
                         max_size=5), min_size=1, max_size=6))
def test_parse_svmlight_matches_reference_on_valid_random_rows(rows):
    # Increasing indices from positive gaps, so every line parses.
    lines = []
    for i, feats in enumerate(rows):
        idx = np.cumsum([g for g, _ in feats]).tolist()
        lines.append(" ".join(["+1" if i % 2 else "-1"]
                              + [f"{j}:{v!r}" for j, (_, v) in zip(idx, feats)]))
    assert_parses_like_reference("\n".join(lines))


# ---------------------------------------------------------------------- CSV

def test_parse_csv_with_header():
    ds = parse_csv("a,b,label\n0.5,1.0,1\n-0.5,2.0,-1\n")
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])
    np.testing.assert_allclose(ds.dense(), [[0.5, 1.0], [-0.5, 2.0]])


def test_parse_csv_headerless_and_first_column():
    # a numeric first line is data, and the first column is a feature
    ds = parse_csv("1,0.5,1\n-1,2.0,-1\n")
    np.testing.assert_array_equal(ds.y, [1.0, -1.0])
    np.testing.assert_allclose(ds.dense(), [[1.0, 0.5], [-1.0, 2.0]])


def test_parse_csv_errors():
    with pytest.raises(DataError):
        parse_csv("")
    with pytest.raises(DataError, match="line 3"):
        parse_csv("1.0,1\n2.0,-1\n3.0\n")


def test_load_dataset_dispatch(tmp_path):
    svm_path = tmp_path / "toy.svm"
    svm_path.write_text("+1 1:1.0\n-1 2:1.0\n")
    ds = load_dataset(svm_path)
    assert ds.d == 2
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("0.5,1\n-0.5,-1\n")
    ds2 = load_dataset(csv_path)
    assert ds2.d == 1


# ---------------------------------------------------------------- synthetic

def test_gen_synthetic_shape_and_determinism():
    a = gen_synthetic(n=50, d=60, k=5, seed=9)
    b = gen_synthetic(n=50, d=60, k=5, seed=9)
    assert a.X.shape == (50, 60)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    c = gen_synthetic(n=50, d=60, k=5, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_gen_synthetic_class_means():
    # feature k has class-conditional means -+k; check both within 4/sqrt(n/2)
    n, k = 400, 7
    ds = gen_synthetic(n=n, d=20, k=k, seed=3)
    col = ds.dense()[:, k - 1]
    tol = 4.0 / np.sqrt(n / 2)
    assert abs(col[ds.y > 0].mean() - (-k)) <= tol
    assert abs(col[ds.y < 0].mean() - k) <= tol


def test_gen_synthetic_pure_noise_is_uninformative():
    ds = gen_synthetic(n=120, d=10, k=0, seed=4)
    train, test = ds.subset(range(80)), ds.subset(range(80, 120))
    m = solve_dual(train, C=1.0)
    assert abs(error_rate(m, test) - 0.5) <= 0.2


def test_gen_synthetic_validation():
    with pytest.raises(DataError):
        gen_synthetic(n=10, d=5, k=6, seed=0)
    with pytest.raises(DataError):
        gen_synthetic(n=1, d=5, k=2, seed=0)


# -------------------------------------------------------------------- folds

def test_fold_sizes_ten_of_ten():
    plan = make_folds(10, folds=10, repeats=1, seed=0)
    tests = [fold_test_indices(plan, 0, f) for f in range(10)]
    assert all(t.size == 1 for t in tests)
    assert sorted(np.concatenate(tests).tolist()) == list(range(10))


def test_fold_sizes_uneven():
    plan = make_folds(10, folds=3, repeats=1, seed=0)
    sizes = [fold_test_indices(plan, 0, f).size for f in range(3)]
    assert sizes == [4, 3, 3]


def test_fold_determinism():
    a = make_folds(25, folds=5, repeats=3, seed=7)
    b = make_folds(25, folds=5, repeats=3, seed=7)
    np.testing.assert_array_equal(a.assignments, b.assignments)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(4, 40),
    folds=st.integers(2, 8),
    repeats=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_folds_partition_every_repeat(n, folds, repeats, seed):
    if folds > n:
        folds = n
    plan = make_folds(n, folds=folds, repeats=repeats, seed=seed)
    for rep in range(repeats):
        tests = [fold_test_indices(plan, rep, f) for f in range(folds)]
        sizes = [t.size for t in tests]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(np.concatenate(tests).tolist()) == list(range(n))


def test_apply_fold_disjoint_union():
    ds = gen_synthetic(n=23, d=6, k=2, seed=1)
    plan = make_folds(23, folds=4, repeats=2, seed=2)
    train, test = apply_fold(ds, plan, repeat=1, fold=0)
    assert train.n + test.n == 23
    joined = np.vstack([train.X, test.X])
    assert {tuple(row) for row in joined} == {tuple(row) for row in ds.dense()}


def test_fold_validation():
    with pytest.raises(DataError):
        make_folds(5, folds=6, repeats=1, seed=0)
    with pytest.raises(DataError):
        make_folds(5, folds=1, repeats=1, seed=0)
    plan = make_folds(6, folds=3, repeats=1, seed=0)
    with pytest.raises(IndexError):
        fold_test_indices(plan, 0, 3)
    with pytest.raises(DataError):
        apply_fold(gen_synthetic(n=10, d=3, k=1, seed=0), plan, 0, 0)
