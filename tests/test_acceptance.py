"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the three experiment criteria (1, 2, 10) dominate the runtime, and
each has a wall-clock gate of its own.  Every test here carries the
`acceptance` marker, so `pytest -m "not acceptance"` runs the rest of the
suite alone.
"""

import time

import numpy as np
import pytest

from active_emu.acquisition import (
    VARIANT_NAMES,
    AcquisitionSpec,
    InputPrior,
    TemperingSchedule,
    acquisition_gradient,
    acquisition_value,
)
from active_emu.gp import Dataset
from active_emu.harness import ExperimentConfig, TestSetSpec, run_experiment
from active_emu.kernels import KernelParams
from active_emu.loop import LoopConfig, baseline_run, run, write_lut_csv
from active_emu.multi_output import fit_all
from active_emu.optimize import AnnealingConfig, AscentConfig, OptimizerConfig
from active_emu.pci import MonotoneFunction1D, cinf_cost, node_density_check, optimal_nodes
from active_emu.samplers import SequentialLhsSampler, lhs_design, sobol_sequence
from active_emu.simulators import ToyLog1D, ToyLog2D, make_simulator

from conftest import (
    central_difference_gradient,
    fit_one,
    kernel_eval,
    kernel_gradient,
    mean_at,
    mp_gp_gradients,
    relative_gradient_error,
    separated_points,
    terms_at,
)

pytestmark = pytest.mark.acceptance


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:02d} PASS {name}{suffix}")


def pooled_stderr(a: float, b: float) -> float:
    return float(np.hypot(a, b))


def random_interpolation_suite(seed: int, count: int):
    """Well-separated random interpolation models across D in {1,2,3}."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dimension = int(rng.integers(1, 4))
        m = int(rng.integers(2, 31))
        separation = 0.8 / m if dimension == 1 else 0.55 / m ** (1.0 / dimension)
        X = separated_points(rng, dimension, m, separation)
        bandwidth = float(separation * (0.8 + 1.2 * rng.random()))
        bandwidth = min(max(bandwidth, 0.02), 0.5)
        y = rng.normal(scale=1.0 + 2.0 * rng.random(), size=m)
        yield rng, dimension, X, y, KernelParams(bandwidth)


class TestCriterion1ToyOneDimensional:
    def test_toy_1d_ordering(self):
        started = time.time()
        config = ExperimentConfig(
            simulator={"kind": "toy-log-1d"},
            strategies=("amogape:PDxPG", "random", "sobol", "seq-lhs", "grid", "lhs"),
            budget=24,
            runs=50,
            test_set=TestSetSpec(kind="grid", step=0.01),
            initial_points=np.array([[0.1, 3.4, 6.7, 10.0]]),
            tempering=TemperingSchedule.one_minus_inverse_t(),
            optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=400)
            ),
            hyper_strategy="marginal-likelihood",
            nugget_policy=0.02,
            hyper_optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=120)
            ),
            seed=20240817,
        )
        results = run_experiment(config)
        assert not results.failures
        final = {row[0]: row for row in results.rows if row[1] == 24}
        amogape = final["amogape:PDxPG"]
        for sequential in ("random", "sobol", "seq-lhs"):
            other = final[sequential]
            margin = other[2] - amogape[2]
            assert margin >= pooled_stderr(amogape[3], other[3]), (
                f"AMOGAPE did not beat {sequential} by one pooled stderr"
            )
        for nonsequential in ("grid", "lhs"):
            assert amogape[2] < final[nonsequential][2]
            assert final[nonsequential][4] == 300  # (24^2 + 24) / 2
        elapsed = time.time() - started
        assert elapsed < 300.0
        report(1, "toy-1D ordering at m=24",
               f"AMOGAPE rmse {amogape[2]:.4f}, {elapsed:.0f} s")


class TestCriterion2ToyTwoDimensional:
    def test_toy_2d_ordering(self):
        from active_emu.samplers import grid_design

        started = time.time()
        config = ExperimentConfig(
            simulator={"kind": "toy-log-2d"},
            strategies=("amogape:PDxPG", "sobol", "seq-lhs"),
            budget=55,
            runs=25,
            test_set=TestSetSpec(kind="grid", step=0.3),
            initial_points=grid_design(2, 25, bounds=[[0.1, 10.0], [0.1, 10.0]]),
            tempering=TemperingSchedule.one_minus_inverse_t(),
            optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=400)
            ),
            hyper_strategy="marginal-likelihood",
            nugget_policy=0.02,
            hyper_optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=120)
            ),
            seed=20240818,
        )
        results = run_experiment(config)
        assert not results.failures
        final = {row[0]: row for row in results.rows if row[1] == 55}
        amogape = final["amogape:PDxPG"]
        for sequential in ("sobol", "seq-lhs"):
            other = final[sequential]
            margin = other[2] - amogape[2]
            assert margin >= pooled_stderr(amogape[3], other[3]), (
                f"AMOGAPE did not beat {sequential} by one pooled stderr"
            )
        elapsed = time.time() - started
        assert elapsed < 900.0
        report(2, "toy-2D ordering at m=55",
               f"AMOGAPE rmse {amogape[2]:.4f}, {elapsed:.0f} s")


class TestCriterion3InterpolationExactness:
    def test_interpolation_exactness(self):
        for _, _, X, y, params in random_interpolation_suite(seed=31, count=100):
            model = fit_one(X, y, params, nugget=0.0)
            for i in range(X.shape[1]):
                node = X[:, i]
                mean = mean_at(model, node)
                assert abs(mean - y[i]) <= 1e-8 * (1.0 + abs(y[i]))
                assert terms_at(model, node).variances <= 1e-8
        report(3, "interpolation exactness", "100 models, D in {1,2,3}, m in [2,30]")


class TestCriterion4AcquisitionZeroAtNodes:
    def test_zero_at_nodes_all_variants(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            dimension = int(rng.integers(1, 4))
            m = int(rng.integers(2, 12))
            n_outputs = int(rng.integers(1, 4))
            separation = 0.6 / m ** (1.0 / dimension)
            X = separated_points(rng, dimension, m, separation)
            Y = rng.normal(size=(n_outputs, m))
            dataset = Dataset(X, Y, np.array([[0.0, 1.0]] * dimension))
            bandwidths = [float(min(0.4, separation * (0.8 + rng.random()))) for _ in range(n_outputs)]
            model = fit_all(dataset, bandwidths=bandwidths, nugget_policy=0.0)
            t = int(rng.integers(1, 9))
            for variant in VARIANT_NAMES:
                spec = AcquisitionSpec.from_variant(
                    variant, tempering=TemperingSchedule.one_minus_inverse_t()
                )
                for i in range(m):
                    assert acquisition_value(spec, model, X[:, i], t) == 0.0
        report(4, "acquisition zero at nodes", "6 variants x 100 configurations, exact zeros")


class TestCriterion5AnalyticGradients:
    TOLERANCE = 1e-4

    def test_kernel_gradient(self):
        rng = np.random.default_rng(51)
        for _ in range(120):
            dimension = int(rng.integers(1, 4))
            x, z = rng.random(dimension), rng.random(dimension)
            params = KernelParams(0.15 + 0.6 * rng.random())
            analytic = kernel_gradient(x, z, params)
            numeric = central_difference_gradient(lambda q: kernel_eval(q, z, params), x)
            assert relative_gradient_error(analytic, numeric) < self.TOLERANCE
        report(5, "kernel gradient vs finite differences", "120 probes")

    def test_mean_and_variance_gradients(self):
        rng = np.random.default_rng(52)
        checked = 0
        while checked < 120:
            dimension = int(rng.integers(1, 4))
            m = int(rng.integers(3, 10))
            X = separated_points(rng, dimension, m, 0.1)
            y = rng.normal(size=m)
            params = KernelParams(0.15 + 0.2 * rng.random())
            nugget = float(rng.choice([0.0, 0.02]))
            model = fit_one(X, y, params, nugget)
            x = 0.05 + 0.9 * rng.random(dimension)
            if min(np.linalg.norm(x - X[:, i]) for i in range(m)) < 0.04:
                continue
            # The oracle differentiates the GP in 50-digit arithmetic: a float64
            # central difference of a variance near 1 loses about 1e-10 to
            # round-off, which is 1e-3 relative where the gradient is ~1e-7.
            mean_oracle, var_oracle = mp_gp_gradients(model, x)
            terms = terms_at(model, x)
            mean_analytic = terms.mean_gradients
            assert relative_gradient_error(mean_analytic, mean_oracle) < self.TOLERANCE
            var_analytic = terms.variance_gradients
            assert relative_gradient_error(var_analytic, var_oracle, floor=1e-7) < self.TOLERANCE
            checked += 1
        report(5, "mean/variance gradients vs finite differences", "120 probes each")

    def test_acquisition_gradient(self):
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 120:
            dimension = int(rng.integers(1, 3))
            m = int(rng.integers(4, 9))
            X = separated_points(rng, dimension, m, 0.1)
            Y = rng.normal(size=(2, m))
            dataset = Dataset(X, Y, np.array([[0.0, 1.0]] * dimension))
            model = fit_all(
                dataset,
                bandwidths=[0.15 + 0.15 * rng.random(), 0.15 + 0.15 * rng.random()],
                nugget_policy=float(rng.choice([0.0, 0.02])),
            )
            variant = VARIANT_NAMES[int(rng.integers(len(VARIANT_NAMES)))]
            spec = AcquisitionSpec.from_variant(
                variant, tempering=TemperingSchedule.constant(float(rng.choice([0.0, 0.5, 1.0])))
            )
            x = 0.08 + 0.84 * rng.random(dimension)
            if min(np.linalg.norm(x - X[:, i]) for i in range(m)) < 0.06:
                continue
            if acquisition_value(spec, model, x, t=3) < 1e-9:
                continue
            _, analytic = acquisition_gradient(spec, model, x, t=3)
            numeric = central_difference_gradient(
                lambda q: acquisition_value(spec, model, q, 3), x, step=1e-6
            )
            assert relative_gradient_error(analytic, numeric, floor=1e-9) < self.TOLERANCE
            checked += 1
        report(5, "acquisition gradient vs finite differences", "120 probes, all variants")


class TestCriterion6AppendixOracle:
    def test_appendix_oracle(self):
        started = time.time()
        fn_log = MonotoneFunction1D.log(1.0, np.e**2)

        nodes = optimal_nodes(fn_log, 1)
        assert nodes[0] == pytest.approx(np.e, abs=1e-6)

        # brute-force grid minimizer with 1e5 candidates
        grid = np.linspace(1.0, np.e**2, 100_000)
        f_grid = np.log(grid)
        costs = np.maximum(f_grid - 0.0, 2.0 - f_grid)
        best = grid[int(np.argmin(costs))]
        resolution = grid[1] - grid[0]
        assert abs(nodes[0] - best) <= resolution

        for M in (1, 2, 5, 20):
            for fn in (fn_log, MonotoneFunction1D.exp(0.0, 1.0)):
                anchors = np.concatenate([[fn.a], optimal_nodes(fn, M), [fn.b]])
                increments = np.diff([fn.forward(float(v)) for v in anchors])
                assert np.max(increments) - np.min(increments) < 1e-9

        assert node_density_check(MonotoneFunction1D.exp(0.0, 1.0), 200, 20) < 0.1
        assert node_density_check(MonotoneFunction1D.log(1.0, np.e**2), 200, 20) < 0.1

        elapsed = time.time() - started
        assert elapsed < 10.0
        report(6, "appendix oracle", f"{elapsed:.2f} s")


class TestCriterion7SamplerProperties:
    def test_sampler_properties(self):
        for dimension, n in ((1, 4), (2, 20), (3, 50)):
            points = lhs_design(dimension, n, seed=71 + n)
            for d in range(dimension):
                strata = np.minimum(np.floor(points[d] * n).astype(int), n - 1)
                assert sorted(strata) == list(range(n))

        np.testing.assert_allclose(sobol_sequence(1, 3).ravel(), [0.5, 0.75, 0.25])

        sampler = SequentialLhsSampler(2, 20, seed=7)
        pool = sampler._pool.copy()
        emitted = np.column_stack([sampler.next_point() for _ in range(20)])
        np.testing.assert_array_equal(np.sort(emitted, axis=1), np.sort(pool, axis=1))
        with pytest.raises(Exception):
            sampler.next_point()
        report(7, "sampler properties", "LHS strata exact, Sobol prefix, seq-LHS pool")


class TestCriterion8LoopAccounting:
    def test_loop_accounting(self):
        base = dict(
            budget=12,
            acquisition=AcquisitionSpec.from_variant(
                "PDxPG", tempering=TemperingSchedule.one_minus_inverse_t()
            ),
            optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=200)
            ),
            nugget_policy=0.02,
            hyper_optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=60)
            ),
            initial_points=np.array([[0.1, 3.4, 6.7, 10.0]]),
            seed=81,
        )
        sim = ToyLog1D()
        result = run(LoopConfig(**base), sim)
        assert sim.eval_count == 12
        assert result.evaluations == 12

        sim = ToyLog1D()
        baseline_run("sobol", True, LoopConfig(**base), sim)
        assert sim.eval_count == 12

        sim = ToyLog1D()
        result = baseline_run("lhs", False, LoopConfig(**base), sim)
        assert sim.eval_count == 12 * 13 // 2
        assert result.evaluations == 78
        report(8, "loop accounting", "sequential M = 12, non-sequential (M^2+M)/2 = 78")


class TestCriterion9Determinism:
    def test_lut_bitwise_reproducible(self, tmp_path):
        config = LoopConfig(
            budget=10,
            acquisition=AcquisitionSpec.from_variant(
                "PDxPG", tempering=TemperingSchedule.one_minus_inverse_t()
            ),
            optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=250)
            ),
            nugget_policy=0.02,
            hyper_optimizer=OptimizerConfig(
                strategy="simulated-annealing", annealing=AnnealingConfig(iterations=80)
            ),
            initial_points=np.array([[0.1, 3.4, 6.7, 10.0]]),
            seed=91,
        )
        paths = []
        for name in ("first", "second"):
            result = run(config, ToyLog1D())
            path = tmp_path / f"{name}.csv"
            write_lut_csv(result.dataset, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        config2d = LoopConfig(
            budget=6,
            acquisition=AcquisitionSpec.from_variant("SD"),
            optimizer=OptimizerConfig(strategy="random-then-ascent", n_random=50),
            nugget_policy=0.02,
            hyper_strategy="max-stable-bandwidth",
            initial_sampler="lhs",
            initial_size=4,
            seed=92,
        )
        luts = []
        for name in ("a", "b"):
            result = run(config2d, ToyLog2D())
            path = tmp_path / f"2d_{name}.csv"
            write_lut_csv(result.dataset, path)
            luts.append(path.read_bytes())
        assert luts[0] == luts[1]
        report(9, "seeded runs reproduce the LUT CSV bitwise")


class TestCriterion10FixtureExperiment:
    def test_fixture_9band_beats_prior_random(self):
        started = time.time()
        prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
        config = ExperimentConfig(
            simulator={"kind": "fixture-9band", "dimension": 2},
            strategies=("amogape:SD", "amogape:SDxSG", "prior-random"),
            budget=130,
            runs=10,
            test_set=TestSetSpec(kind="prior", size=2000),
            initial_sampler="prior-random",
            initial_size=30,
            tempering=TemperingSchedule.constant(1.0),
            prior=prior,
            optimizer=OptimizerConfig(
                strategy="random-then-ascent", n_random=100,
                ascent=AscentConfig(max_iterations=60),
            ),
            hyper_strategy="marginal-likelihood",
            nugget_policy=1e-4,
            hyper_optimizer=OptimizerConfig(
                strategy="random-then-ascent", n_random=10,
                ascent=AscentConfig(max_iterations=40),
            ),
            seed=20240819,
        )
        results = run_experiment(config)
        assert not results.failures
        final = {row[0]: row for row in results.rows if row[1] == 130}
        random_row = final["prior-random"]
        margins = {}
        for strategy in ("amogape:SD", "amogape:SDxSG"):
            row = final[strategy]
            margin = random_row[2] - row[2]
            assert margin >= pooled_stderr(row[3], random_row[3]), (
                f"{strategy} did not beat prior-random by one pooled stderr"
            )
            margins[strategy] = margin / pooled_stderr(row[3], random_row[3])
        elapsed = time.time() - started
        assert elapsed < 900.0
        report(10, "fixture-9band beats truncated-Gaussian random sampling",
               f"margins {margins['amogape:SD']:.1f} / {margins['amogape:SDxSG']:.1f} stderr, "
               f"{elapsed:.0f} s")
