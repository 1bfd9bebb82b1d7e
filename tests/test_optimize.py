"""Box-constrained maximization: random search + ascent, simulated annealing."""

import numpy as np
import pytest

from active_emu.optimize import (
    AnnealingConfig,
    AscentConfig,
    OptimizerConfig,
    OptimizerFailure,
    maximize,
    _reflect,
)
from conftest import separate_random_then_ascent

BOUNDS_2D = np.array([[0.0, 1.0], [0.0, 2.0]])


def quadratic_peak(center):
    center = np.asarray(center, dtype=float)
    return lambda x: -float(np.sum((np.asarray(x) - center) ** 2))


def quadratic_gradient(center):
    center = np.asarray(center, dtype=float)
    return lambda x: -2.0 * (np.asarray(x) - center)


def paired(objective, gradient):
    """One callable giving the value and the gradient at a point, as `maximize` takes them."""
    return lambda x: (objective(x), gradient(x))


class TestRandomThenAscent:
    def test_finds_interior_maximum(self):
        center = np.array([0.4, 1.3])
        config = OptimizerConfig(strategy="random-then-ascent", n_random=50, seed=5)
        x, value = maximize(quadratic_peak(center), BOUNDS_2D, config,
                            value_and_gradient=paired(quadratic_peak(center), quadratic_gradient(center)))
        assert np.linalg.norm(x - center) < 1e-3
        assert value == pytest.approx(0.0, abs=1e-6)

    def test_finds_maximum_without_gradient(self):
        center = np.array([0.7])
        config = OptimizerConfig(strategy="random-then-ascent", n_random=30, seed=1)
        x, _ = maximize(quadratic_peak(center), [[0.0, 1.0]], config)
        assert abs(x[0] - 0.7) < 1e-3

    def test_constant_objective(self):
        config = OptimizerConfig(strategy="random-then-ascent", n_random=10, seed=0)
        x, value = maximize(lambda x: 3.5, BOUNDS_2D, config)
        assert value == 3.5
        assert np.all(x >= BOUNDS_2D[:, 0]) and np.all(x <= BOUNDS_2D[:, 1])

    def test_result_beats_every_random_probe(self):
        rng_check = np.random.default_rng(9)
        objective = lambda x: float(np.sin(7 * x[0]) + np.cos(3 * x[1]))
        config = OptimizerConfig(strategy="random-then-ascent", n_random=40, seed=3)
        _, value = maximize(objective, BOUNDS_2D, config)
        probes = np.random.default_rng(3).random((40, 2)) * np.array([1.0, 2.0])
        assert value >= max(objective(p) for p in probes) - 1e-12
        del rng_check

    def test_default_n_random_is_ten_to_the_d(self):
        calls = []

        def counting(x):
            calls.append(1)
            return 0.0

        config = OptimizerConfig(strategy="random-then-ascent", seed=0,
                                 ascent=AscentConfig(max_iterations=1))
        maximize(counting, BOUNDS_2D, config)
        assert len(calls) >= 100  # 10^2 probes plus the ascent phase


def wavy(x):
    return float(np.sin(7.0 * x[0]) * np.cos(3.0 * x[1]) + 0.1 * x[1])


def wavy_gradient(x):
    return np.array([
        7.0 * np.cos(7.0 * x[0]) * np.cos(3.0 * x[1]),
        -3.0 * np.sin(7.0 * x[0]) * np.sin(3.0 * x[1]) + 0.1,
    ])


def wavy_batch(X):
    """wavy at each row, rounded differently from the per-point form."""
    return np.sin(7.0 * X[:, 0]) * np.cos(3.0 * X[:, 1]) * (1.0 + 1e-15) + 0.1 * X[:, 1]


class TestBatchObjective:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_result_as_per_point_search(self, seed):
        config = OptimizerConfig(strategy="random-then-ascent", n_random=60, seed=seed)
        plain = maximize(wavy, BOUNDS_2D, config, value_and_gradient=paired(wavy, wavy_gradient))
        batched = maximize(
            wavy, BOUNDS_2D, config, value_and_gradient=paired(wavy, wavy_gradient), batch_objective=wavy_batch
        )
        np.testing.assert_array_equal(batched[0], plain[0])
        assert batched[1] == plain[1]

    def test_one_batch_call_and_winner_rescored(self):
        batches, points = [], []

        def counting(x):
            points.append(np.array(x))
            return wavy(x)

        def batch(X):
            batches.append(X.shape)
            return wavy_batch(X)

        config = OptimizerConfig(strategy="random-then-ascent", n_random=40, seed=2,
                                 ascent=AscentConfig(max_iterations=0))
        x, value = maximize(
            counting, BOUNDS_2D, config, value_and_gradient=paired(counting, wavy_gradient), batch_objective=batch
        )
        assert batches == [(40, 2)]
        assert len(points) == 1  # only the winning probe, re-scored per point
        np.testing.assert_array_equal(points[0], x)
        assert value == wavy(x)

    def test_non_finite_batch_value_raises_with_its_probe(self):
        def batch(X):
            values = wavy_batch(X)
            values[X[:, 0] > 0.5] = np.inf
            return values

        config = OptimizerConfig(strategy="random-then-ascent", n_random=50, seed=0)
        with pytest.raises(OptimizerFailure) as excinfo:
            maximize(wavy, BOUNDS_2D, config, batch_objective=batch)
        assert excinfo.value.point[0] > 0.5

    @pytest.mark.parametrize("initial_temperature, rows", [(None, 21), (0.5, 1)])
    def test_annealing_scores_its_start_and_probes_in_one_block(self, initial_temperature, rows):
        points, batches = [], []

        def counting(x):
            points.append(np.array(x))
            return wavy(x)

        def batch(X):
            batches.append(X.copy())
            return np.array([wavy(x) for x in X])

        config = OptimizerConfig(strategy="simulated-annealing", seed=4, annealing=AnnealingConfig(
            iterations=200, initial_temperature=initial_temperature))
        plain = maximize(counting, BOUNDS_2D, config)
        per_point = points[:rows]
        points.clear()
        batched = maximize(counting, BOUNDS_2D, config, batch_objective=batch)
        assert len(batches) == 1
        # the start point and the temperature probes, drawn as the per-point search draws them
        np.testing.assert_array_equal(batches[0], per_point)
        assert len(points) == 200  # one per chain step
        np.testing.assert_array_equal(batched[0], plain[0])
        assert batched[1] == plain[1]


def bumps(x):
    """A seeded sum of Gaussian bumps: many local maxima, some on the box's walls."""
    centers = np.random.default_rng(41).random((12, 2)) * np.array([1.0, 2.0])
    d = np.asarray(x) - centers
    return float(np.exp(-np.sum(d * d, axis=1) / 0.05).sum())


def bumps_gradient(x):
    centers = np.random.default_rng(41).random((12, 2)) * np.array([1.0, 2.0])
    d = np.asarray(x) - centers
    k = np.exp(-np.sum(d * d, axis=1) / 0.05)
    return -(2.0 / 0.05) * (k[:, np.newaxis] * d).sum(axis=0)


class TestCombinedAscent:
    """One (value, gradient) evaluation per visited point, against the separate-callable ascent."""

    @pytest.mark.parametrize("objective, gradient", [(wavy, wavy_gradient), (bumps, bumps_gradient)],
                             ids=["wavy", "bumps"])
    @pytest.mark.parametrize("batch", [None, "exact", "rounded"])
    @pytest.mark.parametrize("seed", range(6))
    def test_same_point_and_value_as_separate_callables(self, objective, gradient, batch, seed):
        batch_objective = {
            None: None,
            "exact": lambda X: np.array([objective(x) for x in X]),
            "rounded": lambda X: np.array([objective(x) for x in X]) * (1.0 + 1e-15),
        }[batch]
        config = OptimizerConfig(strategy="random-then-ascent", n_random=40, seed=seed,
                                 ascent=AscentConfig(max_iterations=80))
        trials = []

        def counted(x):
            trials.append(np.array(x))
            return objective(x)

        expected = separate_random_then_ascent(counted, gradient, batch_objective, BOUNDS_2D, config)
        ranked = 40 if batch is None else 0
        trials = trials[ranked + (batch is not None):]  # the ascent's trial points
        visited = []

        def value_and_gradient(x):
            visited.append(np.array(x))
            return objective(x), gradient(x)

        x, value = maximize(objective, BOUNDS_2D, config, value_and_gradient=value_and_gradient,
                            batch_objective=batch_objective)
        np.testing.assert_array_equal(x, expected[0])
        assert value == expected[1]
        # the start point once, then each trial point exactly once, in the same order
        assert len(visited) == 1 + len(trials)
        np.testing.assert_array_equal(np.array(visited[1:]).reshape(-1, 2), np.array(trials).reshape(-1, 2))


class TestSimulatedAnnealing:
    def test_finds_interior_maximum(self):
        center = np.array([0.6, 0.5])
        config = OptimizerConfig(
            strategy="simulated-annealing", seed=11,
            annealing=AnnealingConfig(iterations=4000, proposal_fraction=0.05),
        )
        x, _ = maximize(quadratic_peak(center), BOUNDS_2D, config)
        assert np.linalg.norm(x - center) < 1e-3

    def test_constant_objective(self):
        config = OptimizerConfig(strategy="simulated-annealing", seed=0,
                                 annealing=AnnealingConfig(iterations=50))
        x, value = maximize(lambda x: -2.0, BOUNDS_2D, config)
        assert value == -2.0
        assert np.all(x >= BOUNDS_2D[:, 0]) and np.all(x <= BOUNDS_2D[:, 1])

    def test_multimodal_landscape(self):
        # many local optima; annealing should land near the global one
        objective = lambda x: float(np.sin(10 * x[0]) * np.exp(-((x[0] - 0.55) ** 2)))
        config = OptimizerConfig(strategy="simulated-annealing", seed=2,
                                 annealing=AnnealingConfig(iterations=3000))
        _, value = maximize(objective, [[0.0, 1.0]], config)
        grid = np.linspace(0.0, 1.0, 10_000)
        assert value >= max(objective([g]) for g in grid) - 1e-3


class TestSharedBehavior:
    @pytest.mark.parametrize("strategy", ["random-then-ascent", "simulated-annealing"])
    def test_returned_point_inside_box(self, strategy):
        objective = lambda x: float(x[0] + x[1])  # pushes to a corner
        config = OptimizerConfig(strategy=strategy, n_random=20, seed=7,
                                 annealing=AnnealingConfig(iterations=500))
        x, _ = maximize(objective, BOUNDS_2D, config)
        assert np.all(x >= BOUNDS_2D[:, 0]) and np.all(x <= BOUNDS_2D[:, 1])

    @pytest.mark.parametrize("strategy", ["random-then-ascent", "simulated-annealing"])
    def test_seed_determinism(self, strategy):
        objective = lambda x: float(np.sin(5 * x[0]) + x[1] ** 2)
        config = OptimizerConfig(strategy=strategy, n_random=25, seed=123,
                                 annealing=AnnealingConfig(iterations=300))
        first = maximize(objective, BOUNDS_2D, config)
        second = maximize(objective, BOUNDS_2D, config)
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_non_finite_objective_propagates(self):
        def bad(x):
            return float("nan") if x[0] > 0.5 else 0.0

        config = OptimizerConfig(strategy="random-then-ascent", n_random=50, seed=0)
        with pytest.raises(OptimizerFailure) as excinfo:
            maximize(bad, [[0.0, 1.0]], config)
        assert excinfo.value.point is not None
        assert excinfo.value.point[0] > 0.5

    def test_invalid_bounds_rejected(self):
        config = OptimizerConfig(seed=0)
        with pytest.raises(ValueError):
            maximize(lambda x: 0.0, [[1.0, 0.0]], config)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(strategy="gradient-descent")
        with pytest.raises(ValueError):
            OptimizerConfig(n_random=0)
        with pytest.raises(ValueError):
            AnnealingConfig(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealingConfig(iterations=0)


class TestReflect:
    def test_inside_unchanged(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        np.testing.assert_allclose(_reflect(np.array([0.3]), lo, hi), [0.3])

    def test_reflects_at_walls(self):
        lo, hi = np.array([0.0]), np.array([1.0])
        np.testing.assert_allclose(_reflect(np.array([1.2]), lo, hi), [0.8])
        np.testing.assert_allclose(_reflect(np.array([-0.4]), lo, hi), [0.4])
        np.testing.assert_allclose(_reflect(np.array([2.3]), lo, hi), [0.3])

    def test_always_lands_inside(self, rng):
        lo, hi = np.array([-1.0, 2.0]), np.array([1.0, 5.0])
        for _ in range(500):
            x = rng.normal(scale=10.0, size=2)
            y = _reflect(x, lo, hi)
            assert np.all(y >= lo) and np.all(y <= hi)
