"""Independent per-output GPs over shared inputs."""

import numpy as np
import pytest

from active_emu import gp
from active_emu.gp import Dataset, IllConditionedError
from active_emu.kernels import KernelParams
from active_emu.multi_output import MultiGpModel, fit_all, predict_all, predict_mean_matrix

from conftest import random_multi_model


def toy_log_dataset(n=6):
    x = np.linspace(0.1, 10.0, n)
    Y = np.vstack([np.log(x), 0.5 * np.log(3.0 * x)])
    return Dataset(X=x[np.newaxis, :], Y=Y, input_bounds=[[0.1, 10.0]])


class TestFitAll:
    def test_single_output_matches_gp_fit(self, rng):
        ds = Dataset(X=[[0.2, 0.5, 0.9]], Y=[[1.0, -1.0, 2.0]], input_bounds=[[0.0, 1.0]])
        multi = fit_all(ds, bandwidths=[KernelParams(0.3)], nugget_policy=0.01)
        single = gp.fit(ds.normalize(ds.X), ds.Y[0], KernelParams(0.3), 0.01)
        np.testing.assert_array_equal(multi.models[0].alpha, single.alpha)

    def test_each_output_gets_own_bandwidth(self):
        ds = toy_log_dataset(8)
        model = fit_all(ds, nugget_policy=0.02, seed=3)
        assert len(model.models) == 2
        assert model.models[0].params.bandwidth != model.models[1].params.bandwidth

    def test_identical_rows_same_bandwidth_deterministic_strategy(self):
        x = np.linspace(0.1, 10.0, 7)
        row = np.log(x)
        ds = Dataset(X=x[np.newaxis, :], Y=np.vstack([row, row]), input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, hyper_strategy="max-stable-bandwidth", nugget_policy=0.0)
        assert model.models[0].params == model.models[1].params
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
        np.testing.assert_array_equal(base.models[0].alpha, perturbed.models[0].alpha)
        assert not np.array_equal(base.models[1].alpha, perturbed.models[1].alpha)

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
        for p, single in enumerate(model.models):
            ds = Dataset(model.dataset.X, model.dataset.Y[p : p + 1], model.dataset.input_bounds)
            alone = MultiGpModel(ds, (single,))
            terms = gp.evaluate([single], xn[np.newaxis, :], strict=False)
            assert means[p] == predict_mean_matrix(alone, x[:, np.newaxis])[0, 0]
            assert variances[p] == terms.variances[0, 0]
            assert grads[p] == terms.gradient_norms[0, 0]

    def test_mean_matrix_matches_point_calls(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6,
                                   bounds=[[0.0, 10.0]])
        X = rng.uniform(0.0, 10.0, size=(1, 11))
        matrix = predict_mean_matrix(model, X)
        assert matrix.shape == (2, 11)
        for j in range(11):
            means, _, _ = predict_all(model, X[:, j])
            np.testing.assert_allclose(matrix[:, j], means, rtol=1e-12, atol=1e-12)
