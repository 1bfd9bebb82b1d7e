"""Acquisition variants, tempering, prior weighting, and analytic gradients."""

import pickle

import numpy as np
import pytest
from scipy.linalg import cho_factor
from scipy.stats import truncnorm

from active_emu import acquisition, gp
from active_emu.acquisition import (
    VARIANT_NAMES,
    AcquisitionSpec,
    InputPrior,
    TemperingSchedule,
    acquisition_gradient,
    acquisition_value,
    acquisition_values,
    beta_at,
)
from active_emu.gp import Dataset, IllConditionedError
from active_emu.kernels import KernelParams, kernel_matrix
from active_emu.multi_output import fit_all
from active_emu.optimize import AnnealingConfig, OptimizerConfig, maximize

from conftest import (
    central_difference_gradient,
    predict_all,
    prior_contains,
    prior_density,
    random_multi_model,
    relative_gradient_error,
    separate_random_then_ascent,
)


class TestTempering:
    def test_one_minus_inverse_t_values(self):
        schedule = TemperingSchedule.one_minus_inverse_t()
        assert beta_at(schedule, 1) == 0.0
        assert beta_at(schedule, 2) == 0.5
        assert beta_at(schedule, 10) == pytest.approx(0.9)

    def test_one_minus_exp_zero_gamma(self):
        schedule = TemperingSchedule.one_minus_exp(0.0)
        for t in (1, 5, 100):
            assert beta_at(schedule, t) == 0.0

    def test_constant_one(self):
        schedule = TemperingSchedule.constant(1.0)
        for t in (1, 3, 50):
            assert beta_at(schedule, t) == 1.0

    def test_rejects_bad_iteration(self):
        with pytest.raises(ValueError):
            beta_at(TemperingSchedule.constant(0.5), 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TemperingSchedule.constant(1.5)
        with pytest.raises(ValueError):
            TemperingSchedule.one_minus_exp(-0.1)
        with pytest.raises(ValueError):
            TemperingSchedule(kind="linear")

    @pytest.mark.parametrize(
        "schedule",
        [
            TemperingSchedule.constant(0.3),
            TemperingSchedule.one_minus_inverse_t(),
            TemperingSchedule.one_minus_exp(0.7),
        ],
    )
    def test_monotone_and_bounded(self, schedule):
        betas = [beta_at(schedule, t) for t in range(1, 60)]
        assert all(0.0 <= b <= 1.0 for b in betas)
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))

    @pytest.mark.parametrize(
        "schedule",
        [TemperingSchedule.one_minus_inverse_t(), TemperingSchedule.one_minus_exp(0.2)],
    )
    def test_limit_is_one(self, schedule):
        assert beta_at(schedule, 10_000) == pytest.approx(1.0, abs=1e-3)


class TestInputPrior:
    def test_density_matches_scipy_truncnorm(self, rng):
        prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
        for _ in range(50):
            x = np.array([rng.uniform(20, 90), rng.uniform(0, 10)])
            expected = 1.0
            for mu, sigma, lo, hi, v in zip([45, 3.5], [30, 4.5], [20, 0], [90, 10], x):
                a, b = (lo - mu) / sigma, (hi - mu) / sigma
                expected *= truncnorm.pdf(v, a, b, loc=mu, scale=sigma)
            assert prior_density(prior, x) == pytest.approx(expected, rel=1e-10)

    def test_zero_outside_box(self):
        prior = InputPrior(mu=[0.0], sigma=[1.0], low=[-1.0], high=[1.0])
        assert prior_density(prior, [1.5]) == 0.0
        assert prior_density(prior, [-2.0]) == 0.0

    def test_integrates_to_one_per_dimension(self):
        prior = InputPrior(mu=[45.0], sigma=[30.0], low=[20.0], high=[90.0])
        grid = np.linspace(20.0, 90.0, 20_001)
        densities = [prior_density(prior, [g]) for g in grid]
        assert np.trapezoid(densities, grid) == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            InputPrior(mu=[0.0], sigma=[-1.0], low=[0.0], high=[1.0])
        with pytest.raises(ValueError):
            InputPrior(mu=[0.0], sigma=[1.0], low=[1.0], high=[0.0])
        with pytest.raises(ValueError):
            InputPrior(mu=[0.0, 1.0], sigma=[1.0], low=[0.0], high=[1.0])


def diversity(model, x, op):
    """The pure-diversity acquisition (SD or PD) at one raw point."""
    return acquisition_value(AcquisitionSpec.from_variant({"sum": "SD", "product": "PD"}[op]), model, x, t=1)


def strict_variances(model, x):
    """Each output's noise-free variance at one raw point, from the block evaluation."""
    return gp.evaluate(model, model.normalize(np.ravel(x))[np.newaxis, :], strict=True).variances[0]


class TestDiversityGeometry:
    """The diversity and geometry terms, through the variants that isolate them."""

    def test_interpolation_diversity_zero_at_nodes(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5)
        for i in range(5):
            node = model.dataset.X[:, i]
            assert diversity(model, node, "sum") == 0.0
            assert diversity(model, node, "product") == 0.0

    def test_single_output_sum_equals_product(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=1, n_nodes=4)
        x = [0.37]
        assert diversity(model, x, "sum") == pytest.approx(diversity(model, x, "product"), rel=1e-12)

    def test_sum_and_product_arithmetic(self, rng):
        # Without a nugget the noise-free and predictive variances coincide.
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=6)
        x = rng.random(2)
        _, variances, grads = predict_all(model, x)
        assert diversity(model, x, "sum") == pytest.approx(variances.sum(), rel=1e-9)
        assert diversity(model, x, "product") == pytest.approx(variances.prod(), rel=1e-9)
        # At beta = 1 the value is the geometry term times the diversity term.
        for variant, geometry in (("SDxSG", grads.sum()), ("SDxPG", grads.prod())):
            spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(1.0))
            assert acquisition_value(spec, model, x, t=1) / variances.sum() == pytest.approx(geometry, rel=1e-9)

    def test_product_geometry_zero_when_any_output_flat(self):
        x = np.linspace(0.1, 10.0, 8)
        Y = np.vstack([np.log(x), np.zeros_like(x)])
        ds = Dataset(X=x[np.newaxis, :], Y=Y, input_bounds=[[0.1, 10.0]])
        model = fit_all(ds, bandwidths=[0.25, 0.25], nugget_policy=0.0)
        product, total = (
            AcquisitionSpec.from_variant(v, tempering=TemperingSchedule.constant(1.0)) for v in ("SDxPG", "SDxSG")
        )
        for probe in (0.9, 4.4, 8.2):
            assert diversity(model, [probe], "sum") > 0.0
            assert acquisition_value(product, model, [probe], t=1) == 0.0
            assert acquisition_value(total, model, [probe], t=1) > 0.0


class TestAcquisitionValue:
    def test_beta_zero_reduces_to_diversity(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5)
        spec = AcquisitionSpec.from_variant("PDxPG", tempering=TemperingSchedule.one_minus_inverse_t())
        x = [0.4]
        assert acquisition_value(spec, model, x, t=1) == pytest.approx(
            np.prod(strict_variances(model, x)), rel=1e-12
        )

    def test_geometry_none_equals_diversity_for_all_t(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=7)
        for variant, combine in (("SD", np.sum), ("PD", np.prod)):
            spec = AcquisitionSpec.from_variant(variant)
            for t in (1, 2, 9):
                x = rng.random(2)
                assert acquisition_value(spec, model, x, t) == pytest.approx(
                    combine(strict_variances(model, x)), rel=1e-12
                )

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_zero_at_nodes_interpolation(self, rng, variant):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=6)
        spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(1.0))
        for i in range(model.dataset.n_nodes):
            assert acquisition_value(spec, model, model.dataset.X[:, i], t=3) == 0.0

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_zero_at_nodes_regression_strict(self, rng, variant):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6, nugget=0.02)
        spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.one_minus_inverse_t())
        for i in range(model.dataset.n_nodes):
            assert acquisition_value(spec, model, model.dataset.X[:, i], t=2) == 0.0

    def test_regression_nonstrict_positive_at_nodes(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6, nugget=0.02)
        spec = AcquisitionSpec.from_variant("SD", strict_zero_at_nodes=False)
        node = model.dataset.X[:, 0]
        assert acquisition_value(spec, model, node, t=1) > 0.0

    def test_nonnegative_everywhere(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=8, nugget=0.01)
        for variant in VARIANT_NAMES:
            spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(0.7))
            for _ in range(30):
                assert acquisition_value(spec, model, rng.random(2), t=4) >= 0.0

    def test_prior_zeroes_outside_box(self, rng):
        bounds = [[0.0, 10.0]]
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5, bounds=bounds)
        prior = InputPrior(mu=[5.0], sigma=[3.0], low=[2.0], high=[8.0])
        spec = AcquisitionSpec.from_variant("SD", prior=prior)
        assert acquisition_value(spec, model, [1.0], t=1) == 0.0
        assert acquisition_value(spec, model, [9.5], t=1) == 0.0
        assert acquisition_value(spec, model, [5.0], t=1) > 0.0

    def test_prior_multiplies_value(self, rng):
        bounds = [[0.0, 10.0]]
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5, bounds=bounds)
        prior = InputPrior(mu=[5.0], sigma=[3.0], low=[2.0], high=[8.0])
        bare = AcquisitionSpec.from_variant("SDxSG", tempering=TemperingSchedule.constant(1.0))
        weighted = AcquisitionSpec.from_variant(
            "SDxSG", tempering=TemperingSchedule.constant(1.0), prior=prior
        )
        x = [6.0]
        assert acquisition_value(weighted, model, x, t=2) == pytest.approx(
            acquisition_value(bare, model, x, t=2) * prior_density(prior, x), rel=1e-12
        )

    def test_output_scaling_leaves_argmax_unchanged(self, rng):
        # scaling all outputs by c scales the acquisition pointwise by a
        # positive constant (the variances do not depend on y at all), so
        # the maximizer is unchanged
        from active_emu.optimize import OptimizerConfig

        ds = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6).dataset
        scaled = Dataset(ds.X, 3.7 * ds.Y, ds.input_bounds)
        base_model = fit_all(ds, bandwidths=[0.25, 0.35], nugget_policy=0.0)
        scaled_model = fit_all(scaled, bandwidths=[0.25, 0.35], nugget_policy=0.0)
        spec = AcquisitionSpec.from_variant("PDxPG", tempering=TemperingSchedule.constant(1.0))

        probes = rng.random((12, 1))
        ratios = []
        for probe in probes:
            base_value = acquisition_value(spec, base_model, probe, t=4)
            scaled_value = acquisition_value(spec, scaled_model, probe, t=4)
            if base_value > 1e-12:
                ratios.append(scaled_value / base_value)
        assert len(ratios) > 5
        np.testing.assert_allclose(ratios, np.median(ratios), rtol=1e-6)

        config = OptimizerConfig(strategy="random-then-ascent", n_random=60, seed=17)
        from active_emu.optimize import maximize

        x_base, _ = maximize(lambda x: acquisition_value(spec, base_model, x, 4),
                             [[0.0, 1.0]], config)
        x_scaled, _ = maximize(lambda x: acquisition_value(spec, scaled_model, x, 4),
                               [[0.0, 1.0]], config)
        np.testing.assert_allclose(x_base, x_scaled, atol=1e-8)


class TestAcquisitionGradient:
    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    def test_matches_finite_differences(self, rng, variant):
        checked = 0
        while checked < 15:
            dim = int(rng.integers(1, 3))
            nugget = float(rng.choice([0.0, 0.02]))
            model = random_multi_model(rng, dimension=dim, n_outputs=2,
                                       n_nodes=6, nugget=nugget)
            spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(0.6))
            x = 0.1 + 0.8 * rng.random(dim)
            nodes = model.dataset.X
            if min(np.linalg.norm(x - nodes[:, i]) for i in range(nodes.shape[1])) < 0.08:
                continue  # stay away from nodes where factors vanish
            value = acquisition_value(spec, model, x, t=3)
            if value < 1e-10:
                continue
            _, analytic = acquisition_gradient(spec, model, x, t=3)
            numeric = central_difference_gradient(
                lambda q: acquisition_value(spec, model, q, t=3), x, step=1e-6
            )
            assert relative_gradient_error(analytic, numeric, floor=1e-8) < 1e-4
            checked += 1

    def test_with_prior_matches_finite_differences(self, rng):
        bounds = [[20.0, 90.0], [0.0, 10.0]]
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, bounds=bounds)
        prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
        spec = AcquisitionSpec.from_variant(
            "SDxSG", tempering=TemperingSchedule.constant(1.0), prior=prior
        )
        checked = 0
        while checked < 10:
            x = np.array([rng.uniform(25, 85), rng.uniform(0.5, 9.5)])
            if acquisition_value(spec, model, x, t=2) < 1e-12:
                continue
            _, analytic = acquisition_gradient(spec, model, x, t=2)
            numeric = central_difference_gradient(
                lambda q: acquisition_value(spec, model, q, 2), x, step=1e-5
            )
            assert relative_gradient_error(analytic, numeric, floor=1e-10) < 1e-4
            checked += 1

    def test_pure_diversity_antisymmetric_about_single_node(self):
        ds = Dataset(X=[[0.5]], Y=[[1.0]], input_bounds=[[0.0, 1.0]])
        model = fit_all(ds, bandwidths=[0.3], nugget_policy=0.0)
        spec = AcquisitionSpec.from_variant("SD")
        _, left = acquisition_gradient(spec, model, [0.4], t=1)
        _, right = acquisition_gradient(spec, model, [0.6], t=1)
        np.testing.assert_allclose(left, -right, rtol=1e-9)

    def test_zero_vector_at_nodes(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=5)
        spec = AcquisitionSpec.from_variant("PDxPG", tempering=TemperingSchedule.constant(1.0))
        node = model.dataset.X[:, 1]
        np.testing.assert_array_equal(acquisition_gradient(spec, model, node, t=2)[1], np.zeros(2))

    def test_zero_outside_prior_box(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5, bounds=[[0.0, 10.0]])
        prior = InputPrior(mu=[5.0], sigma=[2.0], low=[3.0], high=[7.0])
        spec = AcquisitionSpec.from_variant("SD", prior=prior)
        np.testing.assert_array_equal(acquisition_gradient(spec, model, [1.0], t=1)[1], np.zeros(1))

    def test_near_zero_gradient_at_interior_maximum(self, rng):
        from active_emu.optimize import AscentConfig, OptimizerConfig, maximize

        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5)
        spec = AcquisitionSpec.from_variant("SD")
        config = OptimizerConfig(
            strategy="random-then-ascent", n_random=200, seed=5,
            ascent=AscentConfig(gradient_tolerance=1e-10, max_iterations=500),
        )
        x_star, _ = maximize(
            lambda x: acquisition_value(spec, model, x, 1),
            [[0.0, 1.0]],
            config,
            value_and_gradient=lambda x: acquisition_gradient(spec, model, x, 1),
        )
        interior = 1e-3 < x_star[0] < 1.0 - 1e-3
        if interior:
            assert np.linalg.norm(acquisition_gradient(spec, model, x_star, 1)[1]) < 1e-6


class TestVariantTable:
    def test_from_variant_round_trip(self):
        for name in VARIANT_NAMES:
            assert AcquisitionSpec.from_variant(name).variant == name

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionSpec.from_variant("XD")

    def test_invalid_ops_rejected(self):
        with pytest.raises(ValueError, match="unknown acquisition variant 'SDxMG'"):
            AcquisitionSpec(variant="SDxMG")
        assert AcquisitionSpec().variant == "SD"


BATCH_BOUNDS = np.array([[-1.0, 2.0], [0.0, 4.0]])
BATCH_PRIOR = InputPrior(mu=[0.5, 2.0], sigma=[0.8, 1.5], low=[-0.5, 0.5], high=[1.5, 3.5])


def _batch_points(model, rng):
    """Random points over the box (some outside the prior box) plus every node."""
    lo, hi = BATCH_BOUNDS[:, 0], BATCH_BOUNDS[:, 1]
    return np.vstack([lo + rng.random((40, 2)) * (hi - lo), model.dataset.X.T])


class TestNineOutputBlocks:
    """Bit for bit, a block evaluation of 9 outputs is its one-row evaluations.

    The per-output terms are summed across outputs row by row; numpy adds a
    strided row of 9 in another order than a contiguous one, so a block
    whose (n, P) arrays were transposed views would round about a third of
    its sums 1 ULP away from the one-row values.
    """

    @staticmethod
    def _model(rng):
        bandwidths = list(np.linspace(0.1, 0.2, 9))
        return random_multi_model(
            rng, dimension=2, n_outputs=9, n_nodes=40, bandwidths=bandwidths, nugget=1e-4, bounds=BATCH_BOUNDS
        )

    @staticmethod
    def _points(model, rng):
        lo, hi = BATCH_BOUNDS[:, 0], BATCH_BOUNDS[:, 1]
        return np.vstack([lo + rng.random((120, 2)) * (hi - lo), model.dataset.X.T])

    @pytest.mark.parametrize("strict", [True, False])
    def test_evaluate_rows_equal_one_row_evaluations(self, rng, strict):
        model = self._model(rng)
        points = self._points(model, rng)
        as_passed = model.normalize(points.T).T  # Fortran-ordered, as `acquisition_values` passes it
        rows = [gp.evaluate(model, x[np.newaxis, :], strict, derivatives=True) for x in as_passed]
        for block_points in (as_passed, np.ascontiguousarray(as_passed)):
            block = gp.evaluate(model, block_points, strict, derivatives=True)
            for name, field in zip(gp.Evaluation._fields, block):
                assert field.shape[:2] == (points.shape[0], 9)
                assert field.flags.c_contiguous, name
                np.testing.assert_array_equal(field, np.concatenate([getattr(row, name) for row in rows]), name)

    @pytest.mark.parametrize("variant", ["SDxSG", "PDxPG"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_values_equal_per_point_values(self, rng, variant, strict):
        model = self._model(rng)
        points = self._points(model, rng)
        spec = AcquisitionSpec.from_variant(
            variant, tempering=TemperingSchedule.constant(0.5), strict_zero_at_nodes=strict
        )
        single = np.array([acquisition_value(spec, model, x, t=3) for x in points])
        np.testing.assert_array_equal(acquisition_values(spec, model, points, t=3), single)


class TestAcquisitionValues:
    """The batch form against the per-point form it replaces in the search."""

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("prior", [None, BATCH_PRIOR])
    def test_matches_per_point_values(self, rng, variant, strict, prior):
        # Interpolation has a round-off variance at the nodes unless strict,
        # so the non-strict cases use a nugget.
        for nugget in (0.0, 1e-3) if strict else (1e-3,):
            model = random_multi_model(
                rng, dimension=2, n_outputs=3, n_nodes=8, bandwidths=[0.15, 0.2, 0.25],
                nugget=nugget, bounds=BATCH_BOUNDS,
            )
            points = _batch_points(model, rng)
            for beta in (0.0, 0.5, 1.0):
                spec = AcquisitionSpec.from_variant(
                    variant, tempering=TemperingSchedule.constant(beta), prior=prior,
                    strict_zero_at_nodes=strict,
                )
                batch = acquisition_values(spec, model, points, t=4)
                single = np.array([acquisition_value(spec, model, x, t=4) for x in points])
                assert batch.shape == (points.shape[0],)
                np.testing.assert_array_equal(batch == 0.0, single == 0.0)
                scale = np.where(np.abs(single) < 1e-300, 1.0, np.abs(single))
                assert np.max(np.abs(batch - single) / scale) <= 1e-12

    def test_exact_zeros_at_nodes_and_outside_prior(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=6, nugget=1e-3, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant(
            "SDxSG", tempering=TemperingSchedule.constant(1.0), prior=BATCH_PRIOR
        )
        outside = np.array([[-0.9, 2.0], [1.9, 2.0], [0.5, 0.2], [0.5, 3.9]])
        nodes = model.dataset.X.T[[prior_contains(BATCH_PRIOR, x) for x in model.dataset.X.T]]
        assert np.all(acquisition_values(spec, model, outside, t=2) == 0.0)
        assert np.all(acquisition_values(spec, model, nodes, t=2) == 0.0)

    def test_clamp_violation_raises_like_per_point(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=6, nugget=1e-3, bounds=BATCH_BOUNDS)
        # A factor of K / 2 doubles k^T K^{-1} k, driving the noise-free
        # variance far below its round-off clamp near the nodes.
        broken = cho_factor(0.5 * kernel_matrix(model.nodes, KernelParams(model.bandwidths[0])), lower=True)
        strict_variances(model, model.dataset.X[:, 0])  # builds every output's noise-free factor
        model.noise_free_factors[0] = broken
        spec = AcquisitionSpec.from_variant("SD")
        near_node = model.dataset.X[:, 0] + 0.01
        with pytest.raises(IllConditionedError, match="^output 0: noise-free variance -"):
            acquisition_value(spec, model, near_node, t=1)
        with pytest.raises(IllConditionedError, match="^output 0: .* more negative than round-off allows"):
            acquisition_values(spec, model, np.vstack([near_node, near_node + 0.5]), t=1)

    def test_pickled_model_scores_the_same(self, rng):
        # once before and once after the first strict evaluation builds the noise-free factors
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, nugget=1e-3, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant("SDxSG", tempering=TemperingSchedule.constant(1.0))
        points = _batch_points(model, rng)
        unbuilt = pickle.loads(pickle.dumps(model))
        expected = acquisition_values(spec, model, points, t=3)
        built = pickle.loads(pickle.dumps(model))
        assert unbuilt.noise_free_factors == []
        assert len(built.noise_free_factors) == 3
        for copy in (unbuilt, built):
            np.testing.assert_array_equal(acquisition_values(spec, copy, points, t=3), expected)

    @pytest.mark.parametrize("variant", ["SDxSG", "PDxPG", "PD"])
    def test_search_with_batch_matches_per_point_search(self, rng, variant):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, nugget=1e-4, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(1.0), prior=BATCH_PRIOR)
        for seed in range(5):
            config = OptimizerConfig(strategy="random-then-ascent", n_random=100, seed=seed)
            objective = lambda x: acquisition_value(spec, model, x, 3)
            value_and_gradient = lambda x: acquisition_gradient(spec, model, x, 3)
            plain = maximize(objective, BATCH_BOUNDS, config, value_and_gradient=value_and_gradient)
            batched = maximize(
                objective, BATCH_BOUNDS, config, value_and_gradient=value_and_gradient,
                batch_objective=lambda X: acquisition_values(spec, model, X, 3),
            )
            np.testing.assert_array_equal(batched[0], plain[0])
            assert batched[1] == plain[1]


    @pytest.mark.parametrize("variant", ["SDxSG", "PDxPG", "PD"])
    def test_annealing_with_batch_matches_per_point_annealing(self, rng, variant):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, nugget=1e-4, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(1.0), prior=BATCH_PRIOR)
        for seed in range(5):
            config = OptimizerConfig(strategy="simulated-annealing", seed=seed,
                                     annealing=AnnealingConfig(iterations=150))
            objective = lambda x: acquisition_value(spec, model, x, 3)
            plain = maximize(objective, BATCH_BOUNDS, config)
            batched = maximize(objective, BATCH_BOUNDS, config,
                               batch_objective=lambda X: acquisition_values(spec, model, X, 3))
            np.testing.assert_array_equal(batched[0], plain[0])
            assert batched[1] == plain[1]


    @pytest.mark.parametrize("variant", ["SDxSG", "PDxPG", "SD"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_search_matches_separate_value_and_gradient(self, rng, variant, batched):
        """The one-evaluation ascent visits the points and returns the value of the separate-callable one."""
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, nugget=1e-4, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant(variant, tempering=TemperingSchedule.constant(1.0), prior=BATCH_PRIOR)
        objective = lambda x: acquisition_value(spec, model, x, 3)
        batch_objective = (lambda X: acquisition_values(spec, model, X, 3)) if batched else None
        for seed in range(5):
            config = OptimizerConfig(strategy="random-then-ascent", n_random=100, seed=seed)
            expected = separate_random_then_ascent(
                objective, lambda x: acquisition_gradient(spec, model, x, 3)[1], batch_objective, BATCH_BOUNDS, config
            )
            x, value = maximize(objective, BATCH_BOUNDS, config, batch_objective=batch_objective,
                                value_and_gradient=lambda x: acquisition_gradient(spec, model, x, 3))
            np.testing.assert_array_equal(x, expected[0])
            assert value == expected[1]

    def test_large_blocks_are_split_with_the_same_values(self, rng, monkeypatch):
        model = random_multi_model(rng, dimension=2, n_outputs=3, n_nodes=8, nugget=1e-4, bounds=BATCH_BOUNDS)
        spec = AcquisitionSpec.from_variant("SDxSG", tempering=TemperingSchedule.constant(1.0), prior=BATCH_PRIOR)
        points = _batch_points(model, rng)  # 48 rows
        whole = acquisition_values(spec, model, points, t=3)
        blocks = []
        original = gp.evaluate
        monkeypatch.setattr(
            gp, "evaluate", lambda model, Xq, *args: blocks.append(len(Xq)) or original(model, Xq, *args)
        )
        monkeypatch.setattr(acquisition, "MAX_BLOCK_ENTRIES", 3 * 8 * 10)  # ten rows of 3 outputs at m = 8
        split = acquisition_values(spec, model, points, t=3)
        np.testing.assert_array_equal(split.view(np.uint64), whole.view(np.uint64))
        assert len(blocks) == 5 and sum(blocks) <= len(points)  # rows outside the prior's box are not evaluated

    def test_fixture_probe_block_is_one_evaluation(self):
        # 100 probes of the nine-output fixture at m = 130
        assert 9 * 100 * 130 <= acquisition.MAX_BLOCK_ENTRIES


class TestBlockGradients:
    """Bit for bit, the block gradients are the one-row `acquisition_gradient`s."""

    @pytest.mark.parametrize("variant", VARIANT_NAMES)
    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("prior", [None, BATCH_PRIOR])
    def test_equal_one_row_gradients(self, rng, variant, strict, prior):
        for n_outputs, nugget in ((3, 0.0), (3, 1e-3), (9, 1e-4)) if strict else ((3, 1e-3), (9, 1e-4)):
            bandwidths = list(np.linspace(0.15, 0.25, n_outputs))
            model = random_multi_model(
                rng, dimension=2, n_outputs=n_outputs, n_nodes=12, bandwidths=bandwidths,
                nugget=nugget, bounds=BATCH_BOUNDS,
            )
            points = _batch_points(model, rng)
            for beta in (0.0, 0.5, 1.0):
                spec = AcquisitionSpec.from_variant(
                    variant, tempering=TemperingSchedule.constant(beta), prior=prior,
                    strict_zero_at_nodes=strict,
                )
                values, grads = acquisition._acquisition(spec, model, points, 4, gradients=True)
                rows = np.array([acquisition_gradient(spec, model, x, t=4)[1] for x in points])
                # As bits, so that a -0.0 where the one-row gradient has 0.0 fails.
                np.testing.assert_array_equal(grads.view(np.uint64), rows.view(np.uint64))
                np.testing.assert_array_equal(values, acquisition_values(spec, model, points, t=4))
                flat = (grads == 0.0).all(axis=1)
                assert not flat.all()
                if strict or prior is not None:
                    assert flat.any()  # at nodes when strict, outside the prior's box

