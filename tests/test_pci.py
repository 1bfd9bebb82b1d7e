"""Piecewise-constant interpolation: optimal nodes, sup-norm cost, density law."""

import numpy as np
import pytest

from active_emu.pci import (
    MonotoneFunction1D,
    cinf_cost,
    node_density_check,
    optimal_nodes,
)

from conftest import CallableMonotone, pci_evaluate

E = np.e
E2 = np.e**2


def brute_force_best_cost(fn, M, grid_points):
    """Independent oracle: minimize the sup-norm cost over a dense grid.

    Vectorized over candidate tuples using the increment structure of the
    cost (max of consecutive increments of f).
    """
    grid = np.linspace(fn.a, fn.b, grid_points)
    f_grid = np.array([fn.forward(float(g)) for g in grid])
    fa, fb = fn.forward(fn.a), fn.forward(fn.b)
    if M == 1:
        costs = np.maximum(f_grid - fa, fb - f_grid)
        best = int(np.argmin(costs))
        return float(costs[best]), grid[[best]]
    if M == 2:
        best_cost, best_pair = np.inf, None
        chunk = 200
        for start in range(0, grid_points, chunk):
            f1 = f_grid[start : start + chunk][:, np.newaxis]
            x1_block = grid[start : start + chunk]
            costs = np.maximum(
                np.maximum(f1 - fa, f_grid[np.newaxis, :] - f1), fb - f_grid[np.newaxis, :]
            )
            upper = x1_block[:, np.newaxis] <= grid[np.newaxis, :]
            costs = np.where(upper, costs, np.inf)
            index = np.unravel_index(np.argmin(costs), costs.shape)
            if costs[index] < best_cost:
                best_cost = float(costs[index])
                best_pair = np.array([x1_block[index[0]], grid[index[1]]])
        return best_cost, best_pair
    raise NotImplementedError


class TestMonotoneFunction:
    def test_log_inverse_round_trip(self):
        fn = MonotoneFunction1D.log(1.0, E2)
        for x in np.linspace(1.0, E2, 7):
            assert fn.inverse(fn.forward(x)) == pytest.approx(x, abs=1e-9)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="increasing"):
            MonotoneFunction1D(forward=lambda x: np.sin(8 * x), inverse=lambda y: y, a=0.0, b=3.0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MonotoneFunction1D.linear(2.0, 1.0)

    def test_rejects_wrong_inverse(self):
        with pytest.raises(ValueError, match="inverse"):
            MonotoneFunction1D(forward=lambda x: x, inverse=lambda y: y + 0.1, a=0.0, b=1.0)

    def test_from_callable_bisection_inverse(self):
        fn = CallableMonotone.from_callable(lambda x: x**3 + x, 0.0, 2.0)
        for x in (0.2, 0.9, 1.7):
            assert fn.inverse(fn.forward(x)) == pytest.approx(x, abs=1e-9)

    def test_from_callable_decreasing_negated(self):
        fn = CallableMonotone.from_callable(lambda x: -x, 0.0, 1.0)
        assert fn.negated
        nodes = optimal_nodes(fn, 3)
        np.testing.assert_allclose(nodes, [0.25, 0.5, 0.75], atol=1e-9)
        assert pci_evaluate(nodes, fn, 0.3) == pytest.approx(-0.25)


class TestPciEvaluate:
    def test_single_node_step(self):
        fn = MonotoneFunction1D.log(1.0, E2)
        nodes = [E]
        assert pci_evaluate(nodes, fn, 1.5) == pytest.approx(0.0)  # f(a) = log 1
        assert pci_evaluate(nodes, fn, E) == pytest.approx(0.0)  # x <= x1 keeps f(a)
        assert pci_evaluate(nodes, fn, E + 0.1) == pytest.approx(1.0)  # f(x1) = log e

    def test_value_at_right_endpoint(self):
        fn = MonotoneFunction1D.linear(0.0, 1.0)
        nodes = [0.4, 1.0]
        assert pci_evaluate(nodes, fn, 1.0) == pytest.approx(0.4)

    def test_unsorted_nodes_rejected(self):
        fn = MonotoneFunction1D.linear(0.0, 1.0)
        with pytest.raises(ValueError, match="sorted"):
            pci_evaluate([0.7, 0.3], fn, 0.5)

    def test_cost_is_the_sup_norm(self, rng):
        fn = MonotoneFunction1D.exp(0.0, 1.0)
        nodes = np.sort(rng.random(4))
        cost = cinf_cost(nodes, fn)
        xs = np.linspace(0.0, 1.0, 4001)
        worst = max(abs(fn.forward(float(x)) - pci_evaluate(nodes, fn, float(x))) for x in xs)
        assert cost == pytest.approx(worst, abs=1e-3)


class TestCinfCost:
    def test_log_single_node_at_e(self):
        fn = MonotoneFunction1D.log(1.0, E2)
        assert cinf_cost([E], fn) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_node_at_left_end(self):
        fn = MonotoneFunction1D.log(1.0, E2)
        assert cinf_cost([1.0], fn) == pytest.approx(2.0, abs=1e-12)  # f(b) - f(a)

    def test_equal_increment_configuration(self):
        fn = MonotoneFunction1D.exp(0.0, 1.0)
        for M in (1, 3, 6):
            nodes = optimal_nodes(fn, M)
            expected = (fn.forward(1.0) - fn.forward(0.0)) / (M + 1)
            assert cinf_cost(nodes, fn) == pytest.approx(expected, abs=1e-9)


class TestOptimalNodes:
    def test_log_m1_is_e(self):
        fn = MonotoneFunction1D.log(1.0, E2)
        nodes = optimal_nodes(fn, 1)
        assert nodes[0] == pytest.approx(E, abs=1e-9)
        assert abs(nodes[0] - (1.0 + E2) / 2.0) > 1.0  # far from the midpoint 4.19

    def test_linear_m1_is_midpoint(self):
        fn = MonotoneFunction1D.linear(2.0, 8.0)
        assert optimal_nodes(fn, 1)[0] == pytest.approx(5.0, abs=1e-12)

    def test_images_form_uniform_grid(self):
        fn = MonotoneFunction1D.exp(0.0, 2.0)
        M = 7
        nodes = optimal_nodes(fn, M)
        images = np.array([fn.forward(float(x)) for x in nodes])
        fa, fb = fn.forward(0.0), fn.forward(2.0)
        expected = fa + np.arange(1, M + 1) * (fb - fa) / (M + 1)
        np.testing.assert_allclose(images, expected, atol=1e-9)

    @pytest.mark.parametrize("M", [1, 2, 5, 20])
    def test_increment_equalization(self, M):
        for fn in (MonotoneFunction1D.log(1.0, E2), MonotoneFunction1D.exp(0.0, 1.0)):
            nodes = optimal_nodes(fn, M)
            anchors = np.concatenate([[fn.a], nodes, [fn.b]])
            increments = np.diff([fn.forward(float(x)) for x in anchors])
            assert np.max(increments) - np.min(increments) < 1e-9

    @pytest.mark.parametrize("M", [1, 2])
    def test_brute_force_confirms_optimality(self, M):
        for fn in (MonotoneFunction1D.log(1.0, E2), MonotoneFunction1D.exp(0.0, 1.0)):
            grid_points = 100_000 if M == 1 else 10_000
            best_cost, _ = brute_force_best_cost(fn, M, grid_points)
            ours = cinf_cost(optimal_nodes(fn, M), fn)
            assert ours <= best_cost + 1e-6


class TestNodeDensity:
    def test_linear_nodes_uniform(self):
        fn = MonotoneFunction1D.linear(0.0, 1.0)
        assert node_density_check(fn, 200, 20) < 0.05

    def test_exp_matches_gradient_density(self):
        fn = MonotoneFunction1D.exp(0.0, 1.0)
        assert node_density_check(fn, 200, 20) < 0.1

    def test_log_matches_inverse_density(self):
        fn = MonotoneFunction1D.log(1.0, 10.0)
        assert node_density_check(fn, 200, 20) < 0.1
        # histogram decreases in x like 1/x
        nodes = optimal_nodes(fn, 200)
        histogram, _ = np.histogram(nodes, bins=np.linspace(1.0, 10.0, 21))
        assert histogram[0] > histogram[-1]
        thirds = histogram.reshape(-1).astype(float)
        assert thirds[:7].sum() > thirds[7:14].sum() > thirds[14:].sum()
