import numpy as np
import pytest

from attnquant.errors import DataError, NumericalError, SizeBudgetError
from attnquant.linalg import (
    as_matrix,
    kron,
    softmax_jacobian_row,
    vec,
)
from conftest import rng_for, trace_quad


class TestSoftmaxJacobianRow:
    def test_symmetric_case(self):
        jac = softmax_jacobian_row(np.array([0.5, 0.5]))
        np.testing.assert_allclose(jac, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)

    def test_one_hot_degenerate(self):
        jac = softmax_jacobian_row(np.array([1.0, 0.0]))
        np.testing.assert_allclose(jac, np.zeros((2, 2)), atol=1e-15)

    def test_random_simplex_identities(self):
        rng = rng_for(1)
        raw = rng.uniform(0.1, 1.0, size=5)
        a = raw / raw.sum()
        jac = softmax_jacobian_row(a)
        np.testing.assert_allclose(jac, jac.T, atol=1e-15)
        np.testing.assert_allclose(jac.sum(axis=1), np.zeros(5), atol=1e-12)
        # J . a = a*a - a (a^T a), verified by direct expansion
        np.testing.assert_allclose(jac @ a, a * a - a * float(a @ a), atol=1e-14)

    def test_rejects_non_probability_row(self):
        with pytest.raises(DataError):
            softmax_jacobian_row(np.array([0.9, 0.2]))
        with pytest.raises(DataError):
            softmax_jacobian_row(np.array([1.2, -0.2]))
        with pytest.raises(DataError):  # sums to 1 + 1e-6, far outside the tolerance
            softmax_jacobian_row(np.array([0.5, 0.500001]))


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_definition_expansion(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array(
            [
                [1.0, 0.0, 2.0, 0.0],
                [0.0, 1.0, 0.0, 2.0],
                [3.0, 0.0, 4.0, 0.0],
                [0.0, 3.0, 0.0, 4.0],
            ]
        )
        np.testing.assert_array_equal(kron(a, np.eye(2)), expected)

    def test_vec_identity(self):
        rng = rng_for(2)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 2))
        lhs = vec(a @ b @ c)
        rhs = kron(c.T, a) @ vec(b)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_transpose_and_mixed_product(self):
        rng = rng_for(3)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
        c, d = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        np.testing.assert_allclose(kron(a, b).T, kron(a.T, b.T), rtol=1e-13)
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), rtol=1e-12
        )

    def test_budget_exceeded(self):
        # 10^8 elements: over the budget, refused before anything is allocated
        a = np.ones((100, 100))
        with pytest.raises(SizeBudgetError):
            kron(a, a)


class TestCarrierAndTrace:
    def test_as_matrix_rejects_bad_input(self):
        with pytest.raises(DataError):
            as_matrix([1.0, 2.0])
        with pytest.raises(NumericalError):
            as_matrix([[np.inf, 0.0]])

    def test_as_matrix_shares_only_frozen_c_ordered_float64(self):
        frozen_c = np.arange(6.0).reshape(2, 3)
        frozen_c.setflags(write=False)
        assert as_matrix(frozen_c) is frozen_c
        frozen_f = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        frozen_f.setflags(write=False)
        for data in (frozen_f, frozen_c.astype(np.float32), np.ones((2, 3)), [[1, 2], [3, 4]]):
            m = as_matrix(data)
            assert m.dtype == np.float64 and m.flags.c_contiguous and not m.flags.writeable
            assert not isinstance(data, np.ndarray) or not np.shares_memory(m, data)
            np.testing.assert_array_equal(m, data)

    def test_as_matrix_names_non_numeric_input(self):
        with pytest.raises(DataError, match="^weights is not a numeric matrix"):
            as_matrix([["x", 1.0]], "weights")
        with pytest.raises(DataError, match="^weights is not a numeric matrix"):
            as_matrix([[1.0, 2.0], [3.0]], "weights")

    def test_trace_quad_matches_explicit_trace(self):
        rng = rng_for(6)
        for _ in range(20):
            w = rng.standard_normal((3, 5))
            m = rng.standard_normal((5, 5))
            explicit = float(np.trace(w @ m @ w.T))
            assert abs(trace_quad(w, m) - explicit) <= 1e-12 * max(1.0, abs(explicit))

    def test_vec_is_column_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(vec(m), [1.0, 3.0, 2.0, 4.0])
