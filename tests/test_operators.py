import numpy as np
import pytest
import scipy.sparse as sp

from marginsparse.operators import SamplingOperator

from oracles import identity_operator


def dense_R(op):
    """The d x r matrix R whose j-th column is weights[j] * e_{indices[j]}."""
    R = np.zeros((op.n_features, op.r))
    R[op.indices, np.arange(op.r)] = op.weights
    return R


def test_apply_matches_matrix_product():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((5, 7))
    op = SamplingOperator(7, np.array([2, 0, 6]), np.array([1.5, 0.5, 2.0]))
    np.testing.assert_allclose(op.apply(X), X @ dense_R(op))
    Xs = sp.csr_matrix(X)
    np.testing.assert_allclose(op.apply(Xs).toarray(), X @ dense_R(op))


def test_repeated_indices_are_separate_columns():
    op = SamplingOperator(3, np.array([1, 1]), np.array([2.0, 3.0]))
    assert op.r == 2
    X = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(op.apply(X), [[2.0, 3.0], [8.0, 12.0]])
    np.testing.assert_array_equal(op.selected_features(), [1])


def test_identity_operator():
    X = np.arange(12.0).reshape(3, 4)
    op = identity_operator(4)
    np.testing.assert_array_equal(op.apply(X), X)
    np.testing.assert_array_equal(op.indices, np.arange(4))
    np.testing.assert_array_equal(op.weights, np.ones(4))


def test_validation():
    with pytest.raises(ValueError):
        SamplingOperator(4, np.array([0, 4]), np.array([1.0, 1.0]))  # out of range
    with pytest.raises(ValueError):
        SamplingOperator(4, np.array([0, 1]), np.array([1.0, 0.0]))  # zero weight
    with pytest.raises(ValueError):
        SamplingOperator(4, np.array([0, 1]), np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        SamplingOperator(4, np.array([0, 1]), np.array([1.0]))  # length mismatch
    with pytest.raises(ValueError):
        SamplingOperator(4, np.array([-1]), np.array([1.0]))


def test_dimension_check_on_apply():
    op = SamplingOperator(4, np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        op.apply(np.zeros((2, 5)))
