"""GP fitting, prediction, analytic derivatives, and bandwidth selection."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from active_emu import gp, loop
from active_emu.acquisition import InputPrior
from active_emu.config import parse_experiment_config, parse_run_config
from active_emu.gp import (
    BANDWIDTH_GRID,
    BRENT_EVALUATIONS,
    BRENT_GAIN,
    BRENT_TOLERANCE,
    CONDITION_BOUND,
    HINT_WINDOW,
    Dataset,
    IllConditionedError,
    fit,
    select_hyperparameters,
)
from active_emu.kernels import KernelParams, kernel_matrix, squared_distances
from active_emu.multi_output import fit_all, predict_mean_matrix
from active_emu.harness import run_experiment
from active_emu.simulators import ToyLog1D, make_simulator

from conftest import (
    FIXTURE_RUN,
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
    unit_box,
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

    def test_owns_its_nodes_geometry(self, rng):
        ds = Dataset(X=rng.uniform(2.0, 6.0, size=(2, 40)), Y=rng.normal(size=(3, 40)),
                     input_bounds=[[2.0, 6.0], [2.0, 6.0]])
        np.testing.assert_array_equal(ds.unit_nodes, ds.normalize(ds.X))
        fresh = squared_distances(ds.unit_nodes, ds.unit_nodes)
        off_diagonal = ~np.eye(40, dtype=bool)
        assert ds.node_distances[off_diagonal].tobytes() == fresh[off_diagonal].tobytes()
        assert not ds.unit_nodes.flags.writeable and not ds.node_distances.flags.writeable

    def test_duplicates_within_tolerance_of_a_node(self):
        ds = Dataset(X=[[2.0, 4.0], [0.0, 1.0]], Y=[[1.0, 2.0]], input_bounds=[[2.0, 6.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ds.duplicates([[4.0, 4.001, 3.0], [1.0, 1.0, 1.0]]), [True, False, False])
        assert ds.duplicates([2.0, 0.0])[0] and not ds.duplicates([2.0, 0.5])[0]

    def test_rejects_exact_duplicates(self, rng):
        # the expanded |x|^2 + |z|^2 - 2 x.z of two equal 2-D points can round far above the tolerance^2
        for x in rng.random((1000, 2)):
            with pytest.raises(ValueError, match="duplicate"):
                Dataset(np.column_stack([x, x]), [[0.0, 1.0]], [[0.0, 1.0]] * 2)

    @pytest.mark.parametrize("dimension", [1, 2, 3, 5])
    def test_points_1e9_apart_are_distinct(self, rng, dimension):
        nodes = rng.uniform(0.1, 0.9, size=(dimension, 200))
        shifted = nodes.copy()
        shifted[rng.integers(dimension)] += 1e-9
        ds = Dataset(nodes, np.zeros((1, 200)), [[0.0, 1.0]] * dimension)
        assert ds.duplicates(nodes).all()
        assert not ds.duplicates(shifted).any()
        for x, z in zip(nodes.T, shifted.T):
            assert Dataset(np.column_stack([x, z]), [[0.0, 1.0]], [[0.0, 1.0]] * dimension).n_nodes == 2

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
        alpha, _ = fit(squared_distances([[0.3]], [[0.3]]), np.array([[5.0]]), [1.0], [0.0], [None])
        np.testing.assert_allclose(alpha, [[5.0]])

    def test_two_node_alpha_closed_form(self):
        X = np.array([[0.0, np.sqrt(2.0)]])
        alpha, _ = fit(squared_distances(X, X), np.array([[1.0, 1.0]]), [1.0], [0.0], [None])
        expected = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(alpha, [[expected, expected]], rtol=1e-12)
        assert expected == pytest.approx(0.731059, abs=1e-6)

    def test_coincident_nodes_raise(self):
        X = np.array([[0.5, 0.5]])
        with pytest.raises(IllConditionedError) as excinfo:
            fit(squared_distances(X, X), np.array([[1.0, 2.0]]), [1.0], [0.0], [None])
        assert excinfo.value.condition_estimate is not None

    def test_alpha_solves_system(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            m = int(rng.integers(2, 20))
            X = separated_points(rng, dim, m, 0.03)
            y = rng.normal(size=m)
            nugget = float(rng.choice([0.0, 0.02]))
            alpha, _ = fit(squared_distances(X, X), y[np.newaxis, :], [0.3], [nugget], [None])
            K = kernel_matrix(X, KernelParams(0.3), nugget)
            residual = np.linalg.norm(K @ alpha[0] - y)
            assert residual < 1e-8 * max(np.linalg.norm(y), 1.0)

    def test_factor_reconstructs_matrix(self, rng):
        X = separated_points(rng, 2, 10, 0.05)
        y = rng.normal(size=10)
        _, (factor,) = fit(squared_distances(X, X), y[np.newaxis, :], [0.4], [0.01], [None])
        L = np.tril(factor[0])
        K = kernel_matrix(X, KernelParams(0.4), 0.01)
        error = np.linalg.norm(L @ L.T - K) / np.linalg.norm(K)
        assert error < 1e-10


class TestPredictMean:
    def test_interpolates_training_nodes(self, rng):
        model = random_gp_model(rng, dimension=2, n_nodes=8, bandwidth=0.4)
        for i in range(model.dataset.n_nodes):
            x_i = model.dataset.unit_nodes[:, i]
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
            assert terms_at(model, model.dataset.unit_nodes[:, i]).variances <= 1e-8

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
            assert terms_at(model, model.dataset.unit_nodes[:, i], strict=True).variances == 0.0

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
        grad = terms_at(model, model.dataset.unit_nodes[:, 2]).variance_gradients
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
            select_hyperparameters(squared_distances([[0.5]], [[0.5]]), [1.0])

    def test_fixed_nugget_passthrough(self, rng):
        X = separated_points(rng, 1, 6, 0.1)
        y = rng.normal(size=6)
        _, [nugget], _ = select_hyperparameters(squared_distances(X, X), y, nugget_policy=0.02)
        assert nugget == 0.02

    def test_max_stable_two_nodes_closed_form(self):
        # independent oracle: exact 2x2 condition number (1+k)/(1-k)
        X = np.array([[0.0, 1.0]])
        expected = None
        for bandwidth in BANDWIDTH_GRID:
            k = np.exp(-1.0 / (2.0 * bandwidth**2))
            if (1.0 + k) / (1.0 - k) <= CONDITION_BOUND:
                expected = bandwidth
        [bandwidth], [nugget], _ = select_hyperparameters(squared_distances(X, X), [0.0, 1.0],
                                                          strategy="max-stable-bandwidth", nugget_policy=0.0)
        assert bandwidth == pytest.approx(expected)
        assert nugget == 0.0

    def test_max_stable_respects_bound(self, rng):
        from scipy.linalg import cho_factor

        from active_emu.gp import _condition_estimate

        X = separated_points(rng, 2, 10, 0.1)
        y = rng.normal(size=10)
        [bandwidth], _, _ = select_hyperparameters(squared_distances(X, X), y, strategy="max-stable-bandwidth",
                                                   nugget_policy=0.0)
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

        X = lhs_design(2, 130, seed=1, bounds=unit_box(2))
        [bandwidth], [nugget], _ = select_hyperparameters(
            squared_distances(X, X), np.zeros(130), strategy="max-stable-bandwidth", nugget_policy=1e-4
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
            [bandwidth], _, _ = select_hyperparameters(squared_distances(X, X), y, nugget_policy=1e-6)
            recovered.append(bandwidth)
        geometric_mean = float(np.exp(np.mean(np.log(recovered))))
        assert true_bandwidth / 2 <= geometric_mean <= true_bandwidth * 2

    def test_learned_nugget_within_bounds(self, rng):
        X = separated_points(rng, 1, 20, 0.02)
        y = np.sin(6.0 * X[0]) + 0.1 * rng.normal(size=20)
        [bandwidth], [nugget], [factor] = select_hyperparameters(squared_distances(X, X), y, nugget_policy="learned")
        assert factor is None  # the learned search keeps no factor
        assert 1e-8 <= nugget <= 1e-1
        assert BANDWIDTH_GRID[0] <= bandwidth <= BANDWIDTH_GRID[-1]

    @pytest.mark.parametrize("nugget_policy", [0.02, "learned"])
    def test_overflowing_outputs_name_the_output(self, nugget_policy):
        # outputs near 1e200 overflow every log-ML the search scores
        sim = ToyLog1D()
        X = np.array([[0.1, 3.4, 6.7, 10.0]])
        Y = 1e200 * np.column_stack([sim.evaluate(x) for x in X.T])
        with np.errstate(over="ignore"), pytest.raises(IllConditionedError, match="^output 0: "):
            fit_all(Dataset(X, Y, sim.bounds), nugget_policy=nugget_policy)

    def test_deterministic_given_seed(self, rng):
        X = separated_points(rng, 1, 10, 0.05)
        y = rng.normal(size=10)
        first = select_hyperparameters(squared_distances(X, X), y, nugget_policy=0.02)[:2]
        second = select_hyperparameters(squared_distances(X, X), y, nugget_policy=0.02)[:2]
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
        bandwidths, nuggets, _ = select_hyperparameters(squared_distances(X, X), Y, strategy="max-stable-bandwidth",
                                                        nugget_policy=1e-4)
        assert bandwidths == expected
        assert all(nugget == 1e-4 for nugget in nuggets)
        one_row = len(calls)
        select_hyperparameters(squared_distances(X, X), Y[0], strategy="max-stable-bandwidth", nugget_policy=1e-4)
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


def _log_ml_of_rows(X, Y, bandwidth, nugget):
    """`_log_ml` of every row of Y at one bandwidth, from one scipy factorisation."""
    try:
        factor = cho_factor(kernel_matrix(X, KernelParams(bandwidth), nugget), lower=True)
    except np.linalg.LinAlgError:
        return np.full(Y.shape[0], -np.inf)
    alpha = cho_solve(factor, Y.T)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return -0.5 * np.einsum("pm,mp->p", Y, alpha) - 0.5 * log_det - 0.5 * Y.shape[1] * np.log(2.0 * np.pi)


def dense_oracle_rows(X, Y, nugget):
    """`dense_oracle` of every row of Y, with the 1,000 coarse bandwidths shared by
    all rows and 100 fine ones per row (spacing 1.4e-4 in log b)."""
    coarse = np.geomspace(BANDWIDTH_GRID[0], BANDWIDTH_GRID[-1], 1000)
    values = np.array([_log_ml_of_rows(X, Y, b, nugget) for b in coarse])
    best = values.max(axis=0)
    for p, j in enumerate(values.argmax(axis=0)):
        fine = np.geomspace(coarse[max(j - 1, 0)], coarse[min(j + 1, coarse.size - 1)], 100)
        best[p] = max(best[p], max(_log_ml(X, Y[p], b, nugget) for b in fine))
    return best


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
            bandwidths, nuggets, _ = select_hyperparameters(squared_distances(X, X), Y, nugget_policy=nugget)
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
        select_hyperparameters(squared_distances(X, X), Y, nugget_policy=1e-4)
        seen = np.array(seen)
        for bandwidth in BANDWIDTH_GRID:
            expected = np.exp(-sq[pair] / (2.0 * bandwidth**2))
            assert np.sum(np.isclose(seen, expected, rtol=1e-12, atol=0.0)) == 1
        assert len(seen) <= BANDWIDTH_GRID.size + Y.shape[0] * BRENT_EVALUATIONS

    @pytest.mark.parametrize("strategy", ["marginal-likelihood", "max-stable-bandwidth"])
    def test_fit_all_factorises_only_in_the_search(self, rng, monkeypatch, strategy):
        X = separated_points(rng, 2, 30, 0.03)
        ds = Dataset(X, self.outputs(X), [[0.0, 1.0]] * 2)
        refinements = ds.n_outputs * BRENT_EVALUATIONS if strategy == "marginal-likelihood" else 0
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
            alpha, (factor,) = fit(squared_distances(X, X), y[np.newaxis, :], [model.bandwidths[p]], [1e-4], [None])
            np.testing.assert_array_equal(np.tril(model.factors[p][0]), np.tril(factor[0]))
            np.testing.assert_array_equal(model.alpha[p], alpha[0])

    def test_maximum_at_the_grid_edge(self, rng):
        # a constant output prefers the flattest kernel: the top of the grid
        X = separated_points(rng, 2, 20, 0.05)
        y = np.ones(20)
        [bandwidth], _, _ = select_hyperparameters(squared_distances(X, X), y, nugget_policy=1e-4)
        assert bandwidth == BANDWIDTH_GRID[-1]
        assert _log_ml(X, y, bandwidth, 1e-4) >= dense_oracle(X, y, 1e-4) - 1e-3

    def test_no_grid_bandwidth_factorises(self):
        # nodes 1e-11 apart are distinct, but without a nugget their kernel
        # rows are equal at every grid bandwidth, so K is singular
        ds = Dataset(X=[[0.0, 1e-11, 0.5, 1.0]], Y=[[0.0, 0.0, 1.0, 2.0], [1.0, 1.0, 0.0, 3.0]],
                     input_bounds=[[0.0, 1.0]])
        with pytest.raises(IllConditionedError, match="output 0"):
            fit_all(ds, nugget_policy=0.0)

    @staticmethod
    def scored_bandwidths(monkeypatch):
        """The list to which every later `_log_ml_rows` call appends its bandwidth."""
        seen = []
        original = gp._log_ml_rows

        def spying(sq, Y, bandwidth, nugget):
            seen.append(bandwidth)
            return original(sq, Y, bandwidth, nugget)

        monkeypatch.setattr(gp, "_log_ml_rows", spying)
        return seen

    @staticmethod
    def grid_cells(bandwidths) -> int:
        return int(np.isin(bandwidths, BANDWIDTH_GRID).sum())

    @staticmethod
    def assert_same_search(hinted, full):
        assert hinted[0] == full[0] and hinted[1] == full[1]
        for a, b in zip(hinted[2], full[2]):
            assert a[0].tobytes() == b[0].tobytes()

    def test_hinted_fits_of_the_pinned_fixture_run_equal_the_full_search(self, monkeypatch):
        spec, config = parse_run_config(dict(FIXTURE_RUN, budget=40, seed=20240819))
        models = []
        with make_simulator(spec) as sim:
            loop.run(config, sim, iteration_hook=lambda m, model: models.append(model))
        assert len(models) == 11
        scored = self.scored_bandwidths(monkeypatch)
        for previous, model in zip(models, models[1:]):
            sq, Y = model.dataset.node_distances, model.dataset.Y
            full = select_hyperparameters(sq, Y, nugget_policy=config.nugget_policy)
            scored.clear()
            hinted = select_hyperparameters(sq, Y, nugget_policy=config.nugget_policy, hint=previous.bandwidths)
            assert 0 < self.grid_cells(scored) < BANDWIDTH_GRID.size, "the window fell back to the full grid"
            self.assert_same_search(hinted, full)
            assert list(model.bandwidths) == full[0]  # the run's own warm-started fit

    @staticmethod
    def two_peaks(monkeypatch, low, high):
        """Make every row's log-ML a smooth curve in log b, peaking at grid cells low (1) and high (2).

        A row's factor is then its bandwidth.
        """
        log_grid = np.log(BANDWIDTH_GRID)
        width = 3.0 * (log_grid[1] - log_grid[0])

        def log_ml_rows(sq, Y, bandwidth, nugget):
            t = np.log(bandwidth)
            peaks = np.exp(-0.5 * ((t - log_grid[[low, high]]) / width) ** 2) @ [1.0, 2.0]
            return np.full(len(Y), peaks), (np.array([bandwidth]),)

        monkeypatch.setattr(gp, "_log_ml_rows", log_ml_rows)

    def test_best_cell_on_the_window_edge_takes_the_full_grid(self, monkeypatch):
        self.two_peaks(monkeypatch, 15, 30)
        sq, Y = np.zeros((4, 4)), np.zeros((2, 4))
        full = select_hyperparameters(sq, Y, nugget_policy=1e-4)
        assert abs(np.log(full[0][0] / BANDWIDTH_GRID[30])) < 1e-3
        scored = self.scored_bandwidths(monkeypatch)
        # cells 22 to 26 rise towards the higher peak: the best is the window's top cell
        hinted = select_hyperparameters(sq, Y, nugget_policy=1e-4, hint=[BANDWIDTH_GRID[24]])
        assert self.grid_cells(scored) == BANDWIDTH_GRID.size
        self.assert_same_search(hinted, full)
        # an interior best cell keeps the lower peak: the one way a hinted search differs
        scored.clear()
        local = select_hyperparameters(sq, Y, nugget_policy=1e-4, hint=[BANDWIDTH_GRID[15]])
        assert self.grid_cells(scored) == 2 * HINT_WINDOW + 1
        assert abs(np.log(local[0][0] / BANDWIDTH_GRID[15])) < 1e-3

    @pytest.mark.parametrize("end", [0, -1])
    def test_hint_at_a_grid_end(self, rng, monkeypatch, end):
        X = separated_points(rng, 2, 30, 0.03)
        Y = np.vstack([self.outputs(X), np.ones(30)])  # the constant row peaks at the top end
        sq = squared_distances(X, X)
        full = select_hyperparameters(sq, Y, nugget_policy=1e-4)
        self.assert_same_search(select_hyperparameters(sq, Y, nugget_policy=1e-4, hint=[BANDWIDTH_GRID[end]]), full)
        scored = self.scored_bandwidths(monkeypatch)
        hinted = select_hyperparameters(sq, Y[-1:], nugget_policy=1e-4, hint=[BANDWIDTH_GRID[end]])
        assert hinted[0] == [BANDWIDTH_GRID[-1]]
        # the top end's window holds the constant row's maximum; the bottom's falls back
        assert self.grid_cells(scored) == (HINT_WINDOW + 1 if end == -1 else BANDWIDTH_GRID.size)
        self.assert_same_search(hinted, select_hyperparameters(sq, Y[-1:], nugget_policy=1e-4))

    @pytest.mark.parametrize("kwargs", [
        dict(nugget_policy="learned"),
        dict(strategy="max-stable-bandwidth", nugget_policy=1e-4),
    ], ids=["learned-nugget", "max-stable-bandwidth"])
    def test_other_searches_ignore_a_hint(self, rng, monkeypatch, kwargs):
        X = separated_points(rng, 2, 20, 0.05)
        sq, Y = squared_distances(X, X), self.outputs(X)
        plain = select_hyperparameters(sq, Y, **kwargs)
        monkeypatch.setattr(gp, "_shared_ml_bandwidths", None)
        hinted = select_hyperparameters(sq, Y, hint=[BANDWIDTH_GRID[0]] * 4, **kwargs)
        assert hinted[:2] == plain[:2]


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
        fixture = loop._evaluated(loop._design("prior-random", 130, sim.bounds, 20240819, prior), sim)
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
    """Brent's method refines each row's grid maximum in fewer evaluations than golden section, to within BRENT_GAIN."""

    def test_parabola_vertex_in_one_step(self):
        calls = []

        def f(t):
            calls.append(t)
            return -((t - 0.37) ** 2), t

        seeds = [(f(0.3)[0], 0.3), (f(0.4)[0], 0.4), (f(0.2)[0], 0.2)]
        calls.clear()
        value, point, payload = gp._brent_max(f, 0.2, 0.4, seeds, BRENT_EVALUATIONS, gp.BRENT_TOLERANCE)
        assert calls[0] == pytest.approx(0.37, abs=1e-12)  # no evaluation spent on the seeds
        assert point == payload and abs(point - 0.37) < 1e-5
        assert len(calls) <= 6

    def test_golden_fallback_without_neighbours(self):
        # a single seed at the bracket's end gives no parabola: golden steps find the interior maximum
        calls = []

        def f(t):
            calls.append(t)
            return -abs(t - 0.61), None

        value, point, _ = gp._brent_max(f, 0.0, 1.0, [(-0.61, 0.0)], BRENT_EVALUATIONS, gp.BRENT_TOLERANCE)
        assert len(calls) <= BRENT_EVALUATIONS
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
            bandwidths, _, _ = select_hyperparameters(squared_distances(X, X), Y, nugget_policy=nugget)
            oracle = golden_ml_bandwidths(X, Y, nugget, BRENT_EVALUATIONS)
            sq = squared_distances(X, X)
            for p, row in enumerate(Y):
                chosen, golden = (
                    gp._log_ml_rows(sq, row[np.newaxis], b, nugget)[0][0] for b in (bandwidths[p], oracle[p])
                )
                assert chosen >= golden - BRENT_GAIN, f"{name}, output {p}: {chosen} < {golden}"
        assert len(counts) == 90
        assert max(counts) <= BRENT_EVALUATIONS
        assert sum(counts) <= 0.6 * BRENT_EVALUATIONS * len(counts)

    def test_stops_once_the_parabola_promises_less_than_the_gain(self, monkeypatch):
        calls = []

        def f(t):  # smooth and concave, maximal (-1) at 0.37, but no parabola
            calls.append(t)
            return -np.cosh(3.0 * (t - 0.37)), None

        seeds = [(f(0.4)[0], 0.4), (f(0.3)[0], 0.3), (f(0.5)[0], 0.5)]
        calls.clear()
        value, _, _ = gp._brent_max(f, 0.3, 0.5, seeds, BRENT_EVALUATIONS, BRENT_TOLERANCE)
        stopped = len(calls)
        assert 0 < stopped < BRENT_EVALUATIONS
        assert value >= -1.0 - BRENT_GAIN
        calls.clear()
        monkeypatch.setattr(gp, "BRENT_GAIN", 0.0)
        gp._brent_max(f, 0.3, 0.5, seeds, BRENT_EVALUATIONS, BRENT_TOLERANCE)
        assert stopped < len(calls)  # the width in log b alone probes on

    def test_every_fit_of_the_pinned_fixture_run_near_the_dense_oracle(self):
        spec, config = parse_run_config(dict(FIXTURE_RUN, budget=40, seed=20240819))
        models = []
        with make_simulator(spec) as sim:
            loop.run(config, sim, iteration_hook=lambda m, model: models.append(model))
        assert len(models) == 11  # the first fit searches the whole grid, the rest are hinted
        for model in models:
            X, Y = model.dataset.unit_nodes, model.dataset.Y
            oracle = dense_oracle_rows(X, Y, config.nugget_policy)
            for p, bandwidth in enumerate(model.bandwidths):
                chosen = _log_ml(X, Y[p], bandwidth, config.nugget_policy)
                assert chosen >= oracle[p] - 1e-3, f"m={Y.shape[1]}, output {p}: {chosen} < {oracle[p]}"


def dense_learned_oracle(X, Y, points: int = 400):
    """Best log marginal likelihood of every row of Y over a points x points log-spaced (bandwidth, nugget)
    grid over the learned search's bounds, from numpy's eigendecomposition of K at each bandwidth."""
    sq = squared_distances(X, X)
    nuggets = np.geomspace(*gp.LEARNED_NUGGET_BOUNDS, points)
    best = np.full(Y.shape[0], -np.inf)
    for bandwidth in np.geomspace(BANDWIDTH_GRID[0], BANDWIDTH_GRID[-1], points):
        eigenvalues, Q = np.linalg.eigh(np.exp(-sq / (2.0 * bandwidth**2)))
        shifted = eigenvalues + nuggets[:, np.newaxis]
        usable = (shifted > 0.0).all(axis=1)
        shifted[~usable] = 1.0
        values = -0.5 * (1.0 / shifted) @ (Q.T @ Y.T) ** 2 - 0.5 * np.log(shifted).sum(axis=1)[:, np.newaxis]
        best = np.maximum(best, values[usable].max(axis=0, initial=-np.inf))
    return best - 0.5 * Y.shape[1] * np.log(2.0 * np.pi)


class TestLearnedNugget:
    """The learned nugget's grid-then-Brent search over (bandwidth, nugget), scored from eigendecompositions."""

    def test_every_row_near_the_dense_oracle(self, refinement_designs):
        checked = 0
        for name, X, Y, _ in refinement_designs:
            if name not in ("fixture m=30", "fixture m=80", "fixture m=130"):
                continue
            bandwidths, nuggets, factors = select_hyperparameters(squared_distances(X, X), Y, nugget_policy="learned")
            assert factors == [None] * Y.shape[0]  # `fit` factorises at the choice
            oracle = dense_learned_oracle(X, Y)
            for p, (bandwidth, nugget) in enumerate(zip(bandwidths, nuggets)):
                assert gp.LEARNED_NUGGET_BOUNDS[0] <= nugget <= gp.LEARNED_NUGGET_BOUNDS[1]
                chosen = _log_ml(X, Y[p], bandwidth, nugget)
                assert chosen >= oracle[p] - 1e-3, f"{name}, output {p}: {chosen} < {oracle[p]}"
                checked += 1
        assert checked == 27

    def test_eigen_scores_match_the_cholesky_log_ml(self, rng):
        X = separated_points(rng, 2, 40, 0.03)
        Y = TestSharedSearch.outputs(X)
        sq = squared_distances(X, X)
        nuggets = np.array([1e-6, 1e-4, 1e-2, 1e-1])
        for bandwidth in (0.05, 0.3, 1.0):
            scores = gp._nugget_scores(sq, Y, bandwidth)(nuggets)
            assert scores.shape == (nuggets.size, Y.shape[0])
            for nugget, row in zip(nuggets, scores):
                expected = gp._log_ml_rows(sq, Y, bandwidth, nugget)[0]
                np.testing.assert_allclose(row, expected, rtol=1e-8, atol=1e-5)

    def test_a_nugget_below_minus_the_smallest_eigenvalue_scores_minus_infinity(self, rng):
        X = separated_points(rng, 1, 8, 0.05)
        scores = gp._nugget_scores(squared_distances(X, X), rng.normal(size=(2, 8)), 0.2)(np.array([-2.0, 1e-3]))
        assert np.isneginf(scores[0]).all() and np.isfinite(scores[1]).all()

    def test_one_eigendecomposition_per_grid_bandwidth_and_probe(self, rng, monkeypatch):
        X = separated_points(rng, 2, 30, 0.03)
        Y = TestSharedSearch.outputs(X)
        calls = []
        original = gp.dsyevd
        monkeypatch.setattr(gp, "dsyevd", lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        monkeypatch.setattr(gp, "cho_factor", None)  # the search factorises nothing
        select_hyperparameters(squared_distances(X, X), Y, nugget_policy="learned")
        assert BANDWIDTH_GRID.size < len(calls) <= BANDWIDTH_GRID.size + Y.shape[0] * BRENT_EVALUATIONS


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
