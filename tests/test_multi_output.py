"""Independent per-output GPs over shared inputs."""

import numpy as np
import pytest

from active_emu import gp, multi_output
from active_emu.gp import Dataset, IllConditionedError
from active_emu.kernels import KernelParams, squared_distances
from active_emu.multi_output import fit_all, predict_mean_matrix
from active_emu.samplers import lhs_design
from active_emu.simulators import FixtureNineBand

from conftest import predict_all, random_multi_model, single_block_means


def toy_log_dataset(n=6):
    x = np.linspace(0.1, 10.0, n)
    Y = np.vstack([np.log(x), 0.5 * np.log(3.0 * x)])
    return Dataset(X=x[np.newaxis, :], Y=Y, input_bounds=[[0.1, 10.0]])


class TestFitAll:
    def test_single_output_matches_gp_fit(self, rng):
        ds = Dataset(X=[[0.2, 0.5, 0.9]], Y=[[1.0, -1.0, 2.0]], input_bounds=[[0.0, 1.0]])
        multi = fit_all(ds, bandwidths=[KernelParams(0.3)], nugget_policy=0.01)
        alpha, _ = gp.fit(ds.normalize(ds.X), ds.Y[:1], [0.3], [0.01], [None])
        np.testing.assert_array_equal(multi.alpha[0], alpha[0])

    def test_each_output_gets_own_bandwidth(self):
        ds = toy_log_dataset(8)
        model = fit_all(ds, nugget_policy=0.02, seed=3)
        assert model.n_outputs == 2
        assert model.bandwidths[0] != model.bandwidths[1]

    def test_identical_rows_same_bandwidth_deterministic_strategy(self):
        x = np.linspace(0.1, 10.0, 7)
        row = np.log(x)
        ds = Dataset(X=x[np.newaxis, :], Y=np.vstack([row, row]), input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, hyper_strategy="max-stable-bandwidth", nugget_policy=0.0)
        assert model.bandwidths[0] == model.bandwidths[1]
        assert model.nuggets[0] == model.nuggets[1]
        probe = np.array([4.321])
        means, variances, grads = predict_all(model, probe)
        assert means[0] == means[1]
        assert variances[0] == variances[1]
        assert grads[0] == grads[1]

    def test_fit_error_tagged_with_output_index(self):
        x = np.linspace(0.1, 10.0, 6)
        ds = Dataset(X=x[np.newaxis, :], Y=np.vstack([np.log(x), np.log(x)]), input_bounds=[[0.1, 10.0]])
        # a huge fixed bandwidth makes the nugget-free kernel matrix singular
        with pytest.raises(IllConditionedError, match="output 0"):
            fit_all(ds, bandwidths=[KernelParams(1e4), KernelParams(1e4)], nugget_policy=0.0)

    def test_output_independence(self, rng):
        ds = toy_log_dataset(6)
        base = fit_all(ds, bandwidths=[0.3, 0.4], nugget_policy=0.0)
        Y2 = ds.Y.copy()
        Y2[1] += 1.0  # perturb only the second output row
        perturbed = fit_all(Dataset(ds.X, Y2, ds.input_bounds), bandwidths=[0.3, 0.4], nugget_policy=0.0)
        np.testing.assert_array_equal(base.alpha[0], perturbed.alpha[0])
        assert not np.array_equal(base.alpha[1], perturbed.alpha[1])

    @pytest.mark.parametrize("count", [1, 3])
    def test_needs_one_bandwidth_per_output(self, count):
        with pytest.raises(ValueError, match=f"{count} bandwidths given for 2 outputs"):
            fit_all(toy_log_dataset(6), bandwidths=[0.3] * count, nugget_policy=0.0)

    @pytest.mark.parametrize("bandwidths, nugget, message", [
        ([0.3, 0.0], 0.0, "bandwidth must be positive"),
        ([0.3, 0.4], -0.1, "nugget must be nonnegative"),
    ])
    def test_given_kernel_parameters_are_checked(self, bandwidths, nugget, message):
        with pytest.raises(ValueError, match=message):
            fit_all(toy_log_dataset(6), bandwidths=bandwidths, nugget_policy=nugget)

    def test_models_compare_by_identity(self):
        ds = toy_log_dataset(6)
        first, second = (fit_all(ds, bandwidths=[0.3, 0.4], nugget_policy=0.0) for _ in range(2))
        assert first == first and first != second
        assert len({first, second}) == 2

    def test_requires_two_nodes_for_selection(self):
        ds = Dataset(X=[[0.5]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])
        with pytest.raises(ValueError):
            fit_all(ds)


class TestPredictAll:
    def test_training_node_interpolation(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8)
        i = 4
        means, variances, _ = predict_all(model, model.dataset.X[:, i])
        np.testing.assert_allclose(means, model.dataset.Y[:, i], atol=1e-8)
        assert np.all(variances <= 1e-8)

    def test_zero_output_row_exactly_flat(self):
        x = np.linspace(0.1, 10.0, 14)
        Y = np.vstack([np.log(x), np.zeros_like(x)])
        ds = Dataset(X=x[np.newaxis, :], Y=Y, input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, bandwidths=[0.2, 0.2], nugget_policy=0.0)
        for probe in np.linspace(0.4, 9.7, 25):
            _, _, grads = predict_all(model, [probe])
            assert grads[1] <= 1e-12

    def test_constant_output_row_nearly_flat(self):
        # a nonzero constant interpolates with a small ripple between nodes
        # (the kernel interpolant of constant data is not exactly constant);
        # the gradient stays orders of magnitude below the varying output's
        x = np.linspace(0.1, 10.0, 14)
        Y = np.vstack([np.log(x), np.full_like(x, 2.5)])
        ds = Dataset(X=x[np.newaxis, :], Y=Y, input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, bandwidths=[0.3, 0.3], nugget_policy=0.0)
        for probe in np.linspace(0.4, 9.7, 25):
            _, _, grads = predict_all(model, [probe])
            assert grads[1] <= 1e-3
            assert grads[1] <= 1e-2 * max(grads[0], 1e-9)

    def test_matches_single_output_calls_bitwise(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=7,
                                   bounds=[[0.0, 4.0], [1.0, 3.0]])
        x = np.array([2.2, 1.7])
        xn = model.normalize(x)
        means, variances, grads = predict_all(model, x)
        for p, bandwidth in enumerate(model.bandwidths):
            ds = Dataset(model.dataset.X, model.dataset.Y[p : p + 1], model.dataset.input_bounds)
            alone = fit_all(ds, bandwidths=[bandwidth], nugget_policy=model.nuggets[p])
            terms = gp.evaluate(alone, xn[np.newaxis, :], strict=False)
            assert means[p] == predict_mean_matrix(alone, x[:, np.newaxis])[0, 0]
            assert variances[p] == terms.variances[0, 0]
            assert grads[p] == terms.gradient_norms[0, 0]

    def test_mean_matrix_matches_each_output_kernel_bitwise(self):
        sim = FixtureNineBand(2)
        X = lhs_design(2, 60, seed=5, bounds=sim.bounds)
        Y = np.column_stack([sim.evaluate(x) for x in X.T])
        model = fit_all(Dataset(X, Y, sim.bounds), nugget_policy=1e-4)
        Xq = lhs_design(2, 500, seed=6, bounds=sim.bounds)
        means = predict_mean_matrix(model, Xq)
        Xn = model.normalize(Xq)
        assert means.shape == (9, 500)
        for row, bandwidth, alpha in zip(means, model.bandwidths, model.alpha):
            np.testing.assert_array_equal(row, np.exp(-squared_distances(model.nodes, Xn) / (2.0 * bandwidth**2)).T @ alpha)

    def test_mean_matrix_matches_point_calls(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6,
                                   bounds=[[0.0, 10.0]])
        X = rng.uniform(0.0, 10.0, size=(1, 11))
        matrix = predict_mean_matrix(model, X)
        assert matrix.shape == (2, 11)
        for j in range(11):
            means, _, _ = predict_all(model, X[:, j])
            np.testing.assert_allclose(matrix[:, j], means, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_points", [2000, 1001])
    @pytest.mark.parametrize("block_points", [None, 128, 256, 512])
    def test_mean_matrix_in_blocks_equals_one_block(self, monkeypatch, block_points, n_points):
        # the fixture at m = 130 (192 points per block by default); neither
        # point count is a multiple of any of these blocks
        sim = FixtureNineBand(2)
        X = lhs_design(2, 130, seed=5, bounds=sim.bounds)
        Y = np.column_stack([sim.evaluate(x) for x in X.T])
        model = fit_all(Dataset(X, Y, sim.bounds), nugget_policy=1e-4)
        Xq = lhs_design(2, n_points, seed=6, bounds=sim.bounds)
        if block_points is not None:
            monkeypatch.setattr(multi_output, "PREDICT_BLOCK_ENTRIES", 130 * block_points)
        means = predict_mean_matrix(model, Xq)
        assert means.tobytes() == single_block_means(model, Xq).tobytes()

    def test_toy_test_set_is_one_block(self, monkeypatch):
        # 991 test points at m = 24
        x = np.linspace(0.1, 10.0, 24)
        ds = Dataset(X=x[np.newaxis, :], Y=np.vstack([np.log(x), np.sin(x)]), input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, nugget_policy=0.02)
        buffers = []
        original = multi_output.squared_distances
        monkeypatch.setattr(multi_output, "squared_distances",
                            lambda X, Z, out=None: buffers.append(Z.shape[1]) or original(X, Z, out=out))
        X = np.arange(0.1, 10.0 + 1e-9, 0.01)[np.newaxis, :]
        assert X.shape == (1, 991)
        means = predict_mean_matrix(model, X)
        assert buffers == [991]
        assert means.tobytes() == single_block_means(model, X).tobytes()
