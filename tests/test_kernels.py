"""Kernel matrices, and the pointwise kernel oracles (values and analytic derivatives) of conftest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from active_emu.kernels import KernelParams, kernel_matrix

from conftest import (
    central_difference_gradient,
    kernel_eval,
    kernel_gradient,
    kernel_hessian,
    relative_gradient_error,
)


class TestKernelEval:
    def test_zero_distance_is_one(self):
        x = np.array([0.3, -1.2, 4.0])
        assert kernel_eval(x, x, KernelParams(0.7)) == 1.0

    def test_analytic_value_1d(self):
        value = kernel_eval([0.0], [np.sqrt(2.0)], KernelParams(1.0))
        assert value == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_analytic_value_2d(self):
        value = kernel_eval([0.0, 0.0], [1.0, 1.0], KernelParams(1.0))
        assert value == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval([0.0], [0.0, 1.0], KernelParams(1.0))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            KernelParams(0.0)
        with pytest.raises(ValueError):
            KernelParams(-1.0)

    @given(
        x=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        shift=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
        bandwidth=st.floats(0.05, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_bounds(self, x, shift, bandwidth):
        z = [xi + s for xi, s in zip(x, shift)]
        params = KernelParams(bandwidth)
        k_xz = kernel_eval(x, z, params)
        k_zx = kernel_eval(z, x, params)
        assert k_xz == k_zx
        assert 0.0 <= k_xz <= 1.0
        exponent = sum((xi - zi) ** 2 for xi, zi in zip(x, z)) / (2.0 * bandwidth**2)
        if exponent < 700.0:  # beyond this exp(-q) underflows to 0.0
            assert k_xz > 0.0
        if exponent > 1e-15:  # below this exp(-q) rounds to 1.0
            assert k_xz < 1.0


class TestKernelGradient:
    def test_zero_at_coincident_points(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(kernel_gradient(x, x, KernelParams(0.5)), np.zeros(2))

    def test_analytic_value_1d(self):
        grad = kernel_gradient([1.0], [0.0], KernelParams(1.0))
        assert grad[0] == pytest.approx(-np.exp(-0.5), rel=1e-12)

    def test_analytic_value_2d(self):
        grad = kernel_gradient([1.0, 0.0], [0.0, 0.0], KernelParams(2.0))
        np.testing.assert_allclose(grad, [-np.exp(-0.125) / 4.0, 0.0], rtol=1e-12, atol=1e-15)

    def test_matches_finite_differences(self, rng):
        params_pool = [KernelParams(b) for b in (0.2, 0.7, 1.5)]
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            x = rng.random(dim)
            z = rng.random(dim)
            params = params_pool[int(rng.integers(len(params_pool)))]
            analytic = kernel_gradient(x, z, params)
            numeric = central_difference_gradient(lambda q: kernel_eval(q, z, params), x)
            assert relative_gradient_error(analytic, numeric) < 1e-5


class TestKernelHessian:
    def test_matches_finite_differences_of_gradient(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 4))
            x = rng.random(dim)
            z = rng.random(dim)
            params = KernelParams(0.4 + rng.random())
            H = kernel_hessian(x, z, params)
            for d in range(dim):
                numeric = central_difference_gradient(
                    lambda q, d=d: kernel_gradient(q, z, params)[d], x
                )
                assert relative_gradient_error(H[d], numeric, floor=1e-6) < 1e-4

    def test_symmetric(self):
        H = kernel_hessian([0.2, 0.9], [0.5, 0.1], KernelParams(0.8))
        np.testing.assert_allclose(H, H.T)


class TestKernelMatrix:
    def test_single_node(self):
        K = kernel_matrix(np.array([[0.4]]), KernelParams(1.0), nugget=0.3)
        np.testing.assert_allclose(K, [[1.3]])

    def test_identical_nodes_singular(self):
        X = np.array([[0.5, 0.5]])
        K = kernel_matrix(X, KernelParams(1.0), nugget=0.0)
        np.testing.assert_allclose(K, np.ones((2, 2)))
        assert np.linalg.matrix_rank(K) == 1

    def test_two_node_values(self):
        X = np.array([[0.0, np.sqrt(2.0)]])
        K = kernel_matrix(X, KernelParams(1.0), nugget=0.02)
        expected = np.array([[1.02, np.exp(-1.0)], [np.exp(-1.0), 1.02]])
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_symmetric_positive_definite_with_nugget(self, rng):
        for dim in (1, 2, 3):
            X = rng.random((dim, 12))
            K = kernel_matrix(X, KernelParams(0.5), nugget=1e-3)
            np.testing.assert_allclose(K, K.T)
            np.linalg.cholesky(K)  # raises if not positive definite

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_exactly_symmetric(self, rng, layout):
        # `gram` relies on this: K is built from the distances as they are, unsymmetrised
        for dim, m in ((1, 2), (1, 130), (2, 57), (3, 256)):
            X = rng.random((dim, 2 * m))
            X = {"C": np.ascontiguousarray(X[:, :m]), "F": np.asfortranarray(X[:, :m]), "strided": X[:, ::2]}[layout]
            K = kernel_matrix(X, KernelParams(0.05 + rng.random()), nugget=0.02 * rng.random())
            np.testing.assert_array_equal(K, K.T)

    def test_negative_nugget_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.array([[0.0]]), KernelParams(1.0), nugget=-0.1)
