"""GP fitting, prediction, analytic derivatives, and bandwidth selection."""

import numpy as np
import pytest

from active_emu import gp, loop
from active_emu.acquisition import InputPrior
from active_emu.config import parse_experiment_config
from active_emu.gp import (
    BANDWIDTH_GRID,
    CONDITION_BOUND,
    GOLDEN_SECTION_STEPS,
    Dataset,
    IllConditionedError,
    fit,
    select_hyperparameters,
)
from active_emu.kernels import KernelParams, kernel_matrix, squared_distances
from active_emu.multi_output import fit_all, predict_mean_matrix
from active_emu.harness import run_experiment
from active_emu.optimize import AnnealingConfig, OptimizerConfig
from active_emu.simulators import make_simulator

from conftest import (
    central_difference_gradient,
    denormalize,
    fit_one,
    golden_ml_bandwidths,
    log_marginal_likelihood,
    mean_at,
    random_gp_model,
    relative_gradient_error,
    separated_points,
    terms_at,
)


class TestDataset:
    def test_shapes_and_properties(self):
        ds = Dataset(X=[[0.1, 3.4, 6.7, 10.0]], Y=[[0.0, 1.2, 1.9, 2.3], [1.0, 2.0, 3.0, 4.0]],
                     input_bounds=[[0.1, 10.0]])
        assert ds.dimension == 1
        assert ds.n_outputs == 2
        assert ds.n_nodes == 4

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset(X=[[0.5, 0.5]], Y=[[1.0, 2.0]], input_bounds=[[0.0, 1.0]])

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            Dataset(X=[[2.0]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])

    def test_rejects_column_count_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(X=[[0.1, 0.2]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])

    def test_normalize_round_trip(self, rng):
        bounds = np.array([[2.0, 6.0], [-1.0, 3.0]])
        ds = Dataset(X=[[3.0, 5.0], [0.0, 2.0]], Y=[[0.0, 1.0]], input_bounds=bounds)
        x = np.array([4.0, 1.0])
        np.testing.assert_allclose(denormalize(ds, ds.normalize(x)), x)
        np.testing.assert_allclose(ds.normalize(x), [0.5, 0.5])

    def test_with_node_appends(self):
        ds = Dataset(X=[[0.2]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])
        ds2 = ds.with_node([0.8], [2.0])
        assert ds2.n_nodes == 2
        np.testing.assert_allclose(ds2.X, [[0.2, 0.8]])
        with pytest.raises(ValueError, match="duplicate"):
            ds2.with_node([0.8], [3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_nodes(self, bad):
        with pytest.raises(ValueError, match="nodes must be finite"):
            Dataset(X=[[0.2, bad]], Y=[[1.0, 2.0]], input_bounds=[[0.0, 1.0]])
        ds = Dataset(X=[[0.2]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])
        with pytest.raises(ValueError, match="nodes must be finite"):
            ds.with_node([bad], [2.0])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_rejects_non_finite_outputs(self, bad):
        with pytest.raises(ValueError, match="outputs must be finite"):
            Dataset(X=[[0.2, 0.8]], Y=[[1.0, 2.0], [3.0, bad]], input_bounds=[[0.0, 1.0]])
        ds = Dataset(X=[[0.2]], Y=[[1.0], [3.0]], input_bounds=[[0.0, 1.0]])
        with pytest.raises(ValueError, match="outputs must be finite"):
            ds.with_node([0.8], [2.0, bad])


class TestCholesky:
    @pytest.mark.parametrize("m", [24, 130])
    def test_equals_scipy_cho_factor(self, rng, m):
        from scipy.linalg import cho_factor

        X = rng.random((2, m))
        K = kernel_matrix(X, KernelParams(0.2), 1e-4)
        L, lower = gp.cho_factor(K, lower=True)
        expected, expected_lower = cho_factor(K, lower=True)
        assert lower is True and expected_lower is True
        np.testing.assert_array_equal(np.tril(L), np.tril(expected))

    def test_not_positive_definite_raises(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            gp.cho_factor(K, lower=True)


class TestFit:
    def test_single_node_alpha(self):
        alpha, _ = fit(np.array([[0.3]]), np.array([[5.0]]), [1.0], [0.0], [None])
        np.testing.assert_allclose(alpha, [[5.0]])

    def test_two_node_alpha_closed_form(self):
        X = np.array([[0.0, np.sqrt(2.0)]])
        alpha, _ = fit(X, np.array([[1.0, 1.0]]), [1.0], [0.0], [None])
        expected = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(alpha, [[expected, expected]], rtol=1e-12)
        assert expected == pytest.approx(0.731059, abs=1e-6)

    def test_coincident_nodes_raise(self):
        X = np.array([[0.5, 0.5]])
        with pytest.raises(IllConditionedError) as excinfo:
            fit(X, np.array([[1.0, 2.0]]), [1.0], [0.0], [None])
        assert excinfo.value.condition_estimate is not None

    def test_alpha_solves_system(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            m = int(rng.integers(2, 20))
            X = separated_points(rng, dim, m, 0.03)
            y = rng.normal(size=m)
            nugget = float(rng.choice([0.0, 0.02]))
            alpha, _ = fit(X, y[np.newaxis, :], [0.3], [nugget], [None])
            K = kernel_matrix(X, KernelParams(0.3), nugget)
            residual = np.linalg.norm(K @ alpha[0] - y)
            assert residual < 1e-8 * max(np.linalg.norm(y), 1.0)

    def test_factor_reconstructs_matrix(self, rng):
        X = separated_points(rng, 2, 10, 0.05)
        y = rng.normal(size=10)
        _, (factor,) = fit(X, y[np.newaxis, :], [0.4], [0.01], [None])
        L = np.tril(factor[0])
        K = kernel_matrix(X, KernelParams(0.4), 0.01)
        error = np.linalg.norm(L @ L.T - K) / np.linalg.norm(K)
        assert error < 1e-10


class TestPredictMean:
    def test_interpolates_training_nodes(self, rng):
        model = random_gp_model(rng, dimension=2, n_nodes=8, bandwidth=0.4)
        for i in range(model.dataset.n_nodes):
            x_i = model.nodes[:, i]
            assert mean_at(model, x_i) == pytest.approx(model.dataset.Y[0, i], abs=1e-8)

    def test_reverts_to_prior_mean_far_away(self, rng):
        model = random_gp_model(rng, dimension=1, n_nodes=5, bandwidth=0.2)
        assert abs(mean_at(model, [50.0])) < 1e-6

    def test_two_node_closed_form(self):
        # Nodes 0 and sqrt(2) at bandwidth 1, over a box [0, 2] that
        # normalizes them to 0 and sqrt(2)/2 at bandwidth 1/2.
        ds = Dataset(X=[[0.0, np.sqrt(2.0)]], Y=[[1.0, 1.0]], input_bounds=[[0.0, 2.0]])
        model = fit_all(ds, bandwidths=[0.5], nugget_policy=0.0)
        assert predict_mean_matrix(model, [[0.0]])[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_scalar(self, rng):
        model = random_gp_model(rng, dimension=2, n_nodes=7)
        queries = rng.random((2, 9))
        batch = predict_mean_matrix(model, queries)[0]
        for j in range(9):
            assert batch[j] == pytest.approx(mean_at(model, queries[:, j]), rel=1e-12)


class TestPredictVariance:
    def test_zero_at_nodes_interpolation(self, rng):
        model = random_gp_model(rng, dimension=1, n_nodes=6, bandwidth=0.15)
        for i in range(model.dataset.n_nodes):
            assert terms_at(model, model.nodes[:, i]).variances <= 1e-8

    def test_single_node_with_nugget(self):
        model = fit_one(np.array([[0.5]]), [1.0], KernelParams(1.0), nugget=0.02)
        expected = 0.02 + 1.0 - 1.0 / 1.02
        assert terms_at(model, [0.5]).variances == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.039608, abs=1e-6)

    def test_prior_variance_far_away(self):
        model = fit_one(np.array([[0.5]]), [1.0], KernelParams(0.1), nugget=0.3)
        assert terms_at(model, [30.0]).variances == pytest.approx(1.3, abs=1e-6)

    def test_nonnegative_everywhere(self, rng):
        model = random_gp_model(rng, dimension=2, n_nodes=12, bandwidth=0.3, nugget=0.0)
        variances = gp.evaluate(model, rng.random((200, 2)), strict=False).variances
        assert np.all(variances >= 0.0)

    def test_noise_free_variance_exact_zero_at_nodes(self, rng):
        model = random_gp_model(rng, dimension=1, n_nodes=6, bandwidth=0.2, nugget=0.02)
        for i in range(model.dataset.n_nodes):
            assert terms_at(model, model.nodes[:, i], strict=True).variances == 0.0

    def test_variance_never_increases_with_new_node(self, rng):
        # monotone information gain: refitting with one extra node cannot
        # raise the predictive variance anywhere (interpolation, shared bandwidth)
        for dim in (1, 2):
            params = KernelParams(0.35)
            X = separated_points(rng, dim, 8, 0.1)
            y = rng.normal(size=8)
            extra = rng.random(dim)
            while min(np.linalg.norm(extra - X[:, i]) for i in range(8)) < 0.05:
                extra = rng.random(dim)
            model_small = fit_one(X, y, params, 0.0)
            model_big = fit_one(
                np.column_stack([X, extra]), np.append(y, rng.normal()), params, 0.0
            )
            for _ in range(50):
                probe = rng.random(dim)
                v_small = terms_at(model_small, probe).variances
                v_big = terms_at(model_big, probe).variances
                assert v_big <= v_small + 1e-9


class TestGradients:
    def test_mean_gradient_zero_at_single_node(self):
        model = fit_one(np.array([[0.5]]), [2.0], KernelParams(0.5), nugget=0.0)
        np.testing.assert_allclose(terms_at(model, [0.5]).mean_gradients, [0.0])

    def test_gradient_norm_zero_at_symmetric_midpoint(self):
        X = np.array([[0.3, 0.7]])
        model = fit_one(X, [1.0, 1.0], KernelParams(0.4), nugget=0.0)
        assert terms_at(model, [0.5]).gradient_norms <= 1e-10

    def test_mean_gradient_matches_finite_differences(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            model = random_gp_model(rng, dimension=dim, n_nodes=int(rng.integers(3, 8)),
                                    bandwidth=0.15 + 0.2 * rng.random(), min_separation=0.1)
            x = rng.random(dim)
            analytic = terms_at(model, x).mean_gradients
            numeric = central_difference_gradient(lambda q: mean_at(model, q), x)
            assert relative_gradient_error(analytic, numeric) < 1e-5

    def test_variance_gradient_zero_at_node(self, rng):
        model = random_gp_model(rng, dimension=2, n_nodes=5, bandwidth=0.4)
        grad = terms_at(model, model.nodes[:, 2]).variance_gradients
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-9)

    def test_variance_gradient_zero_between_symmetric_nodes(self):
        X = np.array([[0.3, 0.7]])
        model = fit_one(X, [1.0, -1.0], KernelParams(0.3), nugget=0.0)
        assert abs(terms_at(model, [0.5]).variance_gradients[0]) <= 1e-10

    def test_variance_gradient_matches_finite_differences(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 4))
            nugget = float(rng.choice([0.0, 0.05]))
            model = random_gp_model(rng, dimension=dim, n_nodes=int(rng.integers(3, 8)),
                                    bandwidth=0.15 + 0.2 * rng.random(), nugget=nugget,
                                    min_separation=0.1)
            x = rng.random(dim)
            analytic = terms_at(model, x).variance_gradients
            numeric = central_difference_gradient(lambda q: terms_at(model, q).variances, x)
            assert relative_gradient_error(analytic, numeric, floor=1e-6) < 1e-5

    def test_gradient_norm_gradient_matches_finite_differences(self, rng):
        count = 0
        while count < 30:
            dim = int(rng.integers(1, 3))
            model = random_gp_model(rng, dimension=dim, n_nodes=6, bandwidth=0.3)
            x = rng.random(dim)
            terms = terms_at(model, x)
            if terms.gradient_norms < 1e-3:
                continue  # the norm is nonsmooth near zero gradient
            analytic = terms.norm_gradients
            numeric = central_difference_gradient(lambda q: terms_at(model, q).gradient_norms, x)
            assert relative_gradient_error(analytic, numeric) < 1e-4
            count += 1


class TestHyperparameters:
    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            select_hyperparameters(np.array([[0.5]]), [1.0])

    def test_fixed_nugget_passthrough(self, rng):
        X = separated_points(rng, 1, 6, 0.1)
        y = rng.normal(size=6)
        _, [nugget], _ = select_hyperparameters(X, y, nugget_policy=0.02, seed=1)
        assert nugget == 0.02

    def test_max_stable_two_nodes_closed_form(self):
        # independent oracle: exact 2x2 condition number (1+k)/(1-k)
        X = np.array([[0.0, 1.0]])
        expected = None
        for bandwidth in BANDWIDTH_GRID:
            k = np.exp(-1.0 / (2.0 * bandwidth**2))
            if (1.0 + k) / (1.0 - k) <= CONDITION_BOUND:
                expected = bandwidth
        [bandwidth], [nugget], _ = select_hyperparameters(X, [0.0, 1.0], strategy="max-stable-bandwidth",
                                                          nugget_policy=0.0)
        assert bandwidth == pytest.approx(expected)
        assert nugget == 0.0

    def test_max_stable_respects_bound(self, rng):
        from scipy.linalg import cho_factor

        from active_emu.gp import _condition_estimate

        X = separated_points(rng, 2, 10, 0.1)
        y = rng.normal(size=10)
        [bandwidth], _, _ = select_hyperparameters(X, y, strategy="max-stable-bandwidth", nugget_policy=0.0)
        params = KernelParams(bandwidth)
        # the selected bandwidth factorizes and its estimate is within bound;
        # the next-larger grid bandwidth would violate one of the two
        K = kernel_matrix(X, params, 0.0)
        factor = cho_factor(K, lower=True)
        assert _condition_estimate(K, factor) <= CONDITION_BOUND
        larger = BANDWIDTH_GRID[np.searchsorted(BANDWIDTH_GRID, params.bandwidth) + 1]
        K_next = kernel_matrix(X, KernelParams(larger), 0.0)
        try:
            estimate = _condition_estimate(K_next, cho_factor(K_next, lower=True))
        except np.linalg.LinAlgError:
            estimate = np.inf
        assert estimate > CONDITION_BOUND

    def test_max_stable_with_nugget_respects_true_condition(self):
        # 130 LHS nodes in 2-D with nugget 1e-4: the top of the grid gives a
        # 2-norm condition of about 1.3e6, above the bound
        from active_emu.samplers import lhs_design

        X = lhs_design(2, 130, seed=1)
        [bandwidth], [nugget], _ = select_hyperparameters(
            X, np.zeros(130), strategy="max-stable-bandwidth", nugget_policy=1e-4
        )
        assert nugget == 1e-4
        assert np.linalg.cond(kernel_matrix(X, KernelParams(bandwidth), nugget)) <= CONDITION_BOUND

    def test_marginal_likelihood_recovers_bandwidth(self):
        # statistical self-consistency: data drawn from the prior with a
        # known bandwidth should be assigned a similar bandwidth
        true_bandwidth = 0.2
        recovered = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = np.sort(rng.random(40))[np.newaxis, :]
            K = kernel_matrix(X, KernelParams(true_bandwidth), 1e-6)
            y = np.linalg.cholesky(K) @ rng.normal(size=40)
            [bandwidth], _, _ = select_hyperparameters(
                X, y, nugget_policy=1e-6, seed=seed,
                optimizer=OptimizerConfig(strategy="simulated-annealing",
                                          annealing=AnnealingConfig(iterations=150)),
            )
            recovered.append(bandwidth)
        geometric_mean = float(np.exp(np.mean(np.log(recovered))))
        assert true_bandwidth / 2 <= geometric_mean <= true_bandwidth * 2

    def test_learned_nugget_within_bounds(self, rng):
        X = separated_points(rng, 1, 20, 0.02)
        y = np.sin(6.0 * X[0]) + 0.1 * rng.normal(size=20)
        [bandwidth], [nugget], [factor] = select_hyperparameters(X, y, nugget_policy="learned", seed=7)
        assert factor is None  # the learned search keeps no factor
        assert 1e-8 <= nugget <= 1e-1
        assert BANDWIDTH_GRID[0] <= bandwidth <= BANDWIDTH_GRID[-1]

    def test_deterministic_given_seed(self, rng):
        X = separated_points(rng, 1, 10, 0.05)
        y = rng.normal(size=10)
        first = select_hyperparameters(X, y, nugget_policy=0.02, seed=42)[:2]
        second = select_hyperparameters(X, y, nugget_policy=0.02, seed=42)[:2]
        assert first == second

    def test_max_stable_walks_once_for_every_row(self, rng, monkeypatch):
        # reference: the per-output walk, one grid walk for each row
        X = separated_points(rng, 2, 25, 0.05)
        Y = rng.normal(size=(4, 25))
        expected = []
        for _ in Y:
            chosen = BANDWIDTH_GRID[0]
            for bandwidth in BANDWIDTH_GRID[::-1]:
                K = kernel_matrix(X, KernelParams(bandwidth), 1e-4)
                try:
                    factor = gp.cho_factor(K, lower=True)
                except np.linalg.LinAlgError:
                    continue
                if gp._condition_estimate(K, factor) <= CONDITION_BOUND:
                    chosen = bandwidth
                    break
            expected.append(float(chosen))
        calls = []
        original = gp.cho_factor
        monkeypatch.setattr(gp, "cho_factor", lambda *a, **k: calls.append(1) or original(*a, **k))
        bandwidths, nuggets, _ = select_hyperparameters(X, Y, strategy="max-stable-bandwidth", nugget_policy=1e-4)
        assert bandwidths == expected
        assert all(nugget == 1e-4 for nugget in nuggets)
        one_row = len(calls)
        select_hyperparameters(X, Y[0], strategy="max-stable-bandwidth", nugget_policy=1e-4)
        assert len(calls) == 2 * one_row  # four rows cost what one row costs

    def test_log_marginal_likelihood_value(self):
        # m=1: lml = -0.5 y^2/(1+nugget) - 0.5 log(1+nugget) - 0.5 log(2 pi)
        value = log_marginal_likelihood(np.array([[0.3]]), [2.0], KernelParams(1.0), nugget=0.0)
        expected = -0.5 * 4.0 - 0.5 * np.log(2.0 * np.pi)
        assert value == pytest.approx(expected, rel=1e-12)


def _log_ml(X, y, bandwidth, nugget):
    try:
        return log_marginal_likelihood(X, y, KernelParams(bandwidth), nugget)
    except np.linalg.LinAlgError:
        return -np.inf


def dense_oracle(X, y, nugget):
    """Best log marginal likelihood over 1,000 log-spaced bandwidths, then
    1,000 more inside the cells either side of the best of those."""
    coarse = np.geomspace(BANDWIDTH_GRID[0], BANDWIDTH_GRID[-1], 1000)
    values = [_log_ml(X, y, b, nugget) for b in coarse]
    j = int(np.argmax(values))
    fine = np.geomspace(coarse[max(j - 1, 0)], coarse[min(j + 1, coarse.size - 1)], 1000)
    return max(max(values), max(_log_ml(X, y, b, nugget) for b in fine))


class TestSharedSearch:
    """The fixed-nugget marginal-likelihood search shared by all outputs."""

    @staticmethod
    def outputs(X):
        x0, x1 = X
        return np.vstack([
            np.sin(3.0 * x0) + np.cos(2.0 * x1),
            np.sin(10.0 * x0 * x1),
            np.exp(-x0) + 0.3 * x1,
            np.tanh(8.0 * (x0 - 0.5)) * x1,
        ])

    def test_every_output_near_the_dense_oracle(self, rng):
        X = separated_points(rng, 2, 40, 0.03)
        Y = self.outputs(X)
        for nugget in (1e-4, 1e-2):
            bandwidths, nuggets, _ = select_hyperparameters(X, Y, nugget_policy=nugget)
            assert len(bandwidths) == Y.shape[0]
            for y, bandwidth, chosen_nugget in zip(Y, bandwidths, nuggets):
                assert chosen_nugget == nugget
                assert _log_ml(X, y, bandwidth, nugget) >= dense_oracle(X, y, nugget) - 1e-3

    def test_one_factorisation_per_grid_bandwidth(self, rng, monkeypatch):
        X = separated_points(rng, 2, 30, 0.03)
        Y = self.outputs(X)
        # a factorisation's bandwidth shows in its entry for the nearest pair
        sq = squared_distances(X, X) + np.diag(np.full(30, np.inf))
        pair = np.unravel_index(np.argmin(sq), sq.shape)
        seen = []
        original = gp.cho_factor

        def counting(K, **kwargs):
            seen.append(K[pair])
            return original(K, **kwargs)

        monkeypatch.setattr(gp, "cho_factor", counting)
        select_hyperparameters(X, Y, nugget_policy=1e-4)
        seen = np.array(seen)
        for bandwidth in BANDWIDTH_GRID:
            expected = np.exp(-sq[pair] / (2.0 * bandwidth**2))
            assert np.sum(np.isclose(seen, expected, rtol=1e-12, atol=0.0)) == 1
        assert len(seen) <= BANDWIDTH_GRID.size + Y.shape[0] * GOLDEN_SECTION_STEPS

    @pytest.mark.parametrize("strategy", ["marginal-likelihood", "max-stable-bandwidth"])
    def test_fit_all_factorises_only_in_the_search(self, rng, monkeypatch, strategy):
        X = separated_points(rng, 2, 30, 0.03)
        ds = Dataset(X, self.outputs(X), [[0.0, 1.0]] * 2)
        refinements = ds.n_outputs * GOLDEN_SECTION_STEPS if strategy == "marginal-likelihood" else 0
        in_fit, calls = [], []
        original_factor, original_fit = gp.cho_factor, gp.fit

        def fitting(*args, **kwargs):
            in_fit.append(True)
            try:
                return original_fit(*args, **kwargs)
            finally:
                in_fit.pop()

        monkeypatch.setattr(gp, "cho_factor", lambda K, **kw: calls.append(bool(in_fit)) or original_factor(K, **kw))
        monkeypatch.setattr(gp, "fit", fitting)
        model = fit_all(ds, hyper_strategy=strategy, nugget_policy=1e-4)
        assert 0 < len(calls) <= BANDWIDTH_GRID.size + refinements
        assert not any(calls), "fit factorised again"
        # each output is the one fit builds from its own factorisation
        for p, y in enumerate(ds.Y):
            alpha, (factor,) = fit(X, y[np.newaxis, :], [model.bandwidths[p]], [1e-4], [None])
            np.testing.assert_array_equal(np.tril(model.factors[p][0]), np.tril(factor[0]))
            np.testing.assert_array_equal(model.alpha[p], alpha[0])

    def test_maximum_at_the_grid_edge(self, rng):
        # a constant output prefers the flattest kernel: the top of the grid
        X = separated_points(rng, 2, 20, 0.05)
        y = np.ones(20)
        [bandwidth], _, _ = select_hyperparameters(X, y, nugget_policy=1e-4)
        assert bandwidth == BANDWIDTH_GRID[-1]
        assert _log_ml(X, y, bandwidth, 1e-4) >= dense_oracle(X, y, 1e-4) - 1e-3

    def test_no_grid_bandwidth_factorises(self):
        # nodes 1e-11 apart are distinct, but without a nugget their kernel
        # rows are equal at every grid bandwidth, so K is singular
        ds = Dataset(X=[[0.0, 1e-11, 0.5, 1.0]], Y=[[0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 3.0]],
                     input_bounds=[[0.0, 1.0]])
        with pytest.raises(IllConditionedError, match="output 0"):
            fit_all(ds, nugget_policy=0.0)


@pytest.fixture(scope="module")
def refinement_designs():
    """(name, nodes in the unit cube, outputs, nugget) of the designs the refinement is compared on.

    The nine-output fixture's prior-random design at seed 20240819 at
    m = 30 to 130 (nugget 1e-4, 54 rows), and the six final designs of the
    first comparison of the benchmark's toy-1D workload at its default seed,
    at m = 8, 16 and 24 (nugget 0.02, 36 rows).
    """
    designs = []
    prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
    with make_simulator({"kind": "fixture-9band", "dimension": 2}) as sim:
        fixture = loop._evaluated(loop._design("prior-random", 130, sim, 20240819, prior), sim)
    for m in (30, 45, 60, 80, 100, 130):
        designs.append((f"fixture m={m}", fixture.normalize(fixture.X[:, :m]), fixture.Y[:, :m], 1e-4))
    config = parse_experiment_config({
        "simulator": {"kind": "toy-log-1d"},
        "strategies": ["amogape:PDxPG", "random", "sobol", "seq-lhs", "grid", "lhs"],
        "initial_design": {"points": [[0.1], [3.4], [6.7], [10.0]]},
        "n_add": 20,
        "runs": 1,
        "test_set": {"kind": "grid", "step": 0.5},
        "acquisition": {"tempering": {"kind": "one-minus-inverse-t"}},
        "optimizer": {"strategy": "simulated-annealing", "iterations": 400},
        "hyperparameters": {
            "strategy": "marginal-likelihood",
            "nugget": {"policy": "fixed", "value": 0.02},
            "optimizer": {"strategy": "simulated-annealing", "iterations": 120},
        },
        "seed": int(np.random.SeedSequence([20240817, 0]).generate_state(1)[0]),
    })
    results = run_experiment(config)
    for strategy in config.strategies:
        dataset = results.final_results[strategy].dataset
        for m in (8, 16, 24):
            designs.append((f"toy {strategy} m={m}", dataset.normalize(dataset.X[:, :m]), dataset.Y[:, :m], 0.02))
    return designs


class TestBrentRefinement:
    """Brent's method refines each row's grid maximum in fewer evaluations than golden section, no worse."""

    def test_parabola_vertex_in_one_step(self):
        calls = []

        def f(t):
            calls.append(t)
            return -((t - 0.37) ** 2), t

        seeds = [(f(0.3)[0], 0.3), (f(0.4)[0], 0.4), (f(0.2)[0], 0.2)]
        calls.clear()
        value, point, payload = gp._brent_max(f, 0.2, 0.4, seeds, GOLDEN_SECTION_STEPS, gp.BRENT_TOLERANCE)
        assert calls[0] == pytest.approx(0.37, abs=1e-12)  # no evaluation spent on the seeds
        assert point == payload and abs(point - 0.37) < 1e-5
        assert len(calls) <= 6

    def test_golden_fallback_without_neighbours(self):
        # a single seed at the bracket's end gives no parabola: golden steps find the interior maximum
        calls = []

        def f(t):
            calls.append(t)
            return -abs(t - 0.61), None

        value, point, _ = gp._brent_max(f, 0.0, 1.0, [(-0.61, 0.0)], GOLDEN_SECTION_STEPS, gp.BRENT_TOLERANCE)
        assert len(calls) == GOLDEN_SECTION_STEPS
        assert abs(point - 0.61) < 0.01 and value == max(-abs(t - 0.61) for t in calls)

    def test_at_least_the_golden_section_oracle_in_fewer_evaluations(self, refinement_designs, monkeypatch):
        counts = []
        original = gp._brent_max

        def counting(f, *args):
            calls = []
            result = original(lambda t: calls.append(t) or f(t), *args)
            counts.append(len(calls))
            return result

        monkeypatch.setattr(gp, "_brent_max", counting)
        for name, X, Y, nugget in refinement_designs:
            bandwidths, _, _ = select_hyperparameters(X, Y, nugget_policy=nugget)
            oracle = golden_ml_bandwidths(X, Y, nugget, GOLDEN_SECTION_STEPS)
            sq = squared_distances(X, X)
            for p, row in enumerate(Y):
                chosen, golden = (
                    gp._log_ml_rows(sq, row[np.newaxis], b, nugget)[0][0] for b in (bandwidths[p], oracle[p])
                )
                assert chosen >= golden - 1e-8, f"{name}, output {p}: {chosen} < {golden}"
        assert len(counts) == 90
        assert max(counts) <= GOLDEN_SECTION_STEPS
        assert sum(counts) <= 0.6 * GOLDEN_SECTION_STEPS * len(counts)


class TestNoiseFreeFactor:
    def test_numerically_singular_K_gets_a_bounded_factor(self):
        # 10 nodes on [0, 1] with bandwidth 1: the jitter-free Cholesky
        # succeeds, but LAPACK estimates the condition of K at about 1e17
        X = np.linspace(0.0, 1.0, 10)[np.newaxis, :]
        K = kernel_matrix(X, KernelParams(1.0), 0.0)
        raw = gp.cho_factor(K, lower=True)
        assert gp._condition_estimate(K, raw) * np.finfo(float).eps > 1.0
        factor = gp._noise_free_factor(squared_distances(X, X), 1.0)
        L = np.tril(factor[0])
        assert gp._condition_estimate(L @ L.T, factor) * np.finfo(float).eps < 1.0

    def test_built_on_first_strict_use(self, rng):
        X = separated_points(rng, 2, 12, 0.1)
        y = rng.normal(size=12)
        model = fit_one(X, y, KernelParams(0.4), nugget=1e-4)
        assert model.noise_free_factors == []  # fit and non-strict variances skip it
        gp.evaluate(model, rng.random((1, 2)), strict=False, derivatives=True)
        assert model.noise_free_factors == []
        gp.evaluate(model, rng.random((1, 2)), strict=True)
        expected = gp._noise_free_factor(squared_distances(X, X), 0.4)
        np.testing.assert_array_equal(model.noise_free_factors[0][0], expected[0])
        exact = fit_one(X, y, KernelParams(0.4), nugget=0.0)
        gp.evaluate(exact, rng.random((1, 2)), strict=True)
        assert exact.noise_free_factors[0] is exact.factors[0]
