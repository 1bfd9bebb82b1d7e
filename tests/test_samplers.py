"""Design generators and sequential samplers."""

import numpy as np
import pytest
from scipy.stats import qmc, truncnorm

from active_emu.acquisition import InputPrior
from active_emu.samplers import (
    MAX_SOBOL_DIMENSION,
    PoolExhaustedError,
    PriorSampler,
    SequentialLhsSampler,
    SobolSampler,
    UniformSampler,
    grid_design,
    lhs_design,
    make_sampler,
    sample_truncated_gaussian,
    sobol_sequence,
)

from conftest import prior_contains, unit_box


def assert_stratified(points_unit: np.ndarray):
    """Each dimension has exactly one point per stratum [k/n, (k+1)/n)."""
    dimension, n = points_unit.shape
    for d in range(dimension):
        strata = np.floor(points_unit[d] * n).astype(int)
        strata = np.minimum(strata, n - 1)
        assert sorted(strata) == list(range(n))


class TestSobol:
    def test_first_points_1d(self):
        points = sobol_sequence(1, 3, unit_box(1)).ravel()
        np.testing.assert_allclose(points, [0.5, 0.75, 0.25])

    @pytest.mark.parametrize("dimension", range(1, MAX_SOBOL_DIMENSION + 1))
    def test_matches_scipy_reference(self, dimension):
        ours = sobol_sequence(dimension, 63, unit_box(dimension))
        reference = qmc.Sobol(d=dimension, scramble=False).random(64)[1:]  # drop the zero point
        np.testing.assert_allclose(ours, reference.T, atol=1e-12)

    def test_deterministic_no_seed_dependence(self):
        a = sobol_sequence(3, 20, unit_box(3))
        b = sobol_sequence(3, 20, unit_box(3))
        np.testing.assert_array_equal(a, b)

    def test_scaled_to_bounds(self):
        bounds = [[2.0, 4.0]]
        points = sobol_sequence(1, 5, bounds=bounds)
        assert np.all(points >= 2.0) and np.all(points <= 4.0)
        np.testing.assert_allclose(points.ravel()[0], 3.0)  # 0.5 scaled

    def test_discrepancy_decreases_with_length(self):
        # empirical-CDF deviation over dyadic prefixes shrinks as the
        # sequence grows (low-discrepancy sanity)
        for dimension in (1, 2, 3):
            points = sobol_sequence(dimension, 2**10, unit_box(dimension))
            deviations = []
            for k in (4, 6, 8, 10):
                prefix = points[:, : 2**k]
                grid = np.linspace(0.05, 0.95, 8)
                worst = 0.0
                for g in grid:
                    empirical = np.mean(np.all(prefix <= g, axis=0))
                    worst = max(worst, abs(empirical - g**dimension))
                deviations.append(worst)
            assert deviations[-1] < deviations[0]

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            SobolSampler(0, unit_box(0))
        with pytest.raises(ValueError):
            SobolSampler(MAX_SOBOL_DIMENSION + 1, unit_box(MAX_SOBOL_DIMENSION + 1))


class TestLhs:
    @pytest.mark.parametrize("dimension,n", [(1, 4), (2, 20), (3, 50)])
    def test_stratification_exact(self, dimension, n):
        points = lhs_design(dimension, n, seed=11, bounds=unit_box(dimension))
        assert_stratified(points)

    def test_one_point_per_quarter_1d(self):
        points = lhs_design(1, 4, seed=3, bounds=unit_box(1)).ravel()
        assert_stratified(points[np.newaxis, :])
        edges = np.floor(np.sort(points) * 4).astype(int)
        np.testing.assert_array_equal(np.minimum(edges, 3), [0, 1, 2, 3])

    def test_different_seeds_different_designs(self):
        a = lhs_design(2, 12, seed=0, bounds=unit_box(2))
        b = lhs_design(2, 12, seed=1, bounds=unit_box(2))
        assert not np.array_equal(a, b)
        assert_stratified(a)
        assert_stratified(b)

    def test_bounds_scaling(self):
        bounds = [[10.0, 20.0], [-1.0, 1.0]]
        points = lhs_design(2, 15, seed=5, bounds=bounds)
        assert np.all(points[0] >= 10.0) and np.all(points[0] <= 20.0)
        assert np.all(points[1] >= -1.0) and np.all(points[1] <= 1.0)


class TestGrid:
    def test_paper_offset_start_1d(self):
        points = grid_design(1, 4, bounds=[[0.1, 10.0]]).ravel()
        np.testing.assert_allclose(points, [0.1, 3.4, 6.7, 10.0])

    def test_two_points_are_endpoints(self):
        points = grid_design(1, 2, bounds=[[0.0, 10.0]]).ravel()
        np.testing.assert_allclose(points, [0.0, 10.0])

    def test_5x5_lattice(self):
        points = grid_design(2, 25, bounds=[[0.1, 10.0], [0.1, 10.0]])
        assert points.shape == (2, 25)
        axis = np.linspace(0.1, 10.0, 5)
        np.testing.assert_allclose(np.unique(points[0]), axis)
        np.testing.assert_allclose(np.unique(points[1]), axis)

    def test_rejects_non_lattice_size(self):
        with pytest.raises(ValueError):
            grid_design(2, 24, unit_box(2))

    def test_single_point_is_midpoint(self):
        points = grid_design(2, 1, bounds=[[0.0, 2.0], [0.0, 4.0]])
        np.testing.assert_allclose(points.ravel(), [1.0, 2.0])


class TestTruncatedGaussian:
    def test_samples_inside_box(self):
        prior = InputPrior(mu=[45.0], sigma=[30.0], low=[20.0], high=[90.0])
        samples = sample_truncated_gaussian(prior, 5000, seed=1)
        assert np.all(samples >= 20.0) and np.all(samples <= 90.0)

    def test_tiny_sigma_concentrates_at_mu(self):
        prior = InputPrior(mu=[0.4], sigma=[1e-6], low=[0.0], high=[1.0])
        samples = sample_truncated_gaussian(prior, 2000, seed=2)
        assert np.std(samples) < 1e-4  # of a unit-range box

    def test_empirical_mean_matches_analytic(self):
        mu, sigma, lo, hi = 3.5, 4.5, 0.0, 10.0
        prior = InputPrior(mu=[mu], sigma=[sigma], low=[lo], high=[hi])
        samples = sample_truncated_gaussian(prior, 100_000, seed=3).ravel()
        a, b = (lo - mu) / sigma, (hi - mu) / sigma
        analytic_mean = truncnorm.mean(a, b, loc=mu, scale=sigma)
        analytic_std = truncnorm.std(a, b, loc=mu, scale=sigma)
        stderr = analytic_std / np.sqrt(samples.size)
        assert abs(np.mean(samples) - analytic_mean) < 3 * stderr

    def test_deterministic_given_seed(self):
        prior = InputPrior(mu=[1.0, 2.0], sigma=[1.0, 0.5], low=[0.0, 1.0], high=[2.0, 3.0])
        a = sample_truncated_gaussian(prior, 50, seed=9)
        b = sample_truncated_gaussian(prior, 50, seed=9)
        np.testing.assert_array_equal(a, b)


class TestSequentialSamplers:
    def test_uniform_reproducible_and_in_box(self):
        bounds = np.array([[0.0, 10.0], [5.0, 6.0]])
        a = UniformSampler(2, bounds, seed=4)
        b = UniformSampler(2, bounds, seed=4)
        for _ in range(20):
            pa, pb = a.next_point(), b.next_point()
            np.testing.assert_array_equal(pa, pb)
            assert np.all(pa >= bounds[:, 0]) and np.all(pa <= bounds[:, 1])

    def test_seq_lhs_emits_pool_exactly_once(self):
        sampler = SequentialLhsSampler(2, 20, unit_box(2), seed=6)
        emitted = np.column_stack([sampler.next_point() for _ in range(20)])
        assert_stratified(emitted)
        with pytest.raises(PoolExhaustedError):
            sampler.next_point()

    def test_prior_sampler_in_box(self):
        prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
        sampler = PriorSampler(prior, seed=0)
        for _ in range(50):
            p = sampler.next_point()
            assert prior_contains(prior, p)

    def test_factory(self):
        bounds = np.array([[0.0, 1.0]])
        assert isinstance(make_sampler("random", 1, bounds), UniformSampler)
        assert isinstance(make_sampler("sobol", 1, bounds), SobolSampler)
        assert isinstance(make_sampler("seq-lhs", 1, bounds, pool_size=5), SequentialLhsSampler)
        with pytest.raises(ValueError):
            make_sampler("seq-lhs", 1, bounds)
        with pytest.raises(ValueError):
            make_sampler("halton", 1, bounds)
        with pytest.raises(ValueError):
            make_sampler("prior-random", 1, bounds)
