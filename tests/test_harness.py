"""Experiment harness: RMSE, aggregation, density reports, CSV output."""

import csv

import numpy as np
import pytest

from active_emu import harness
from active_emu.acquisition import TemperingSchedule
from active_emu.gp import Dataset
from active_emu.harness import (
    ExperimentConfig,
    TestSetSpec,
    build_test_set,
    density_report,
    grid_test_inputs,
    multi_output_rmse,
    run_experiment,
    write_results_csv,
)
from active_emu.loop import EmulationResult
from active_emu.multi_output import fit_all
from active_emu.optimize import AnnealingConfig, OptimizerConfig
from active_emu.simulators import ToyLog1D, make_simulator

from conftest import UNUSABLE_DESIGNS, random_multi_model


def tiny_experiment(strategies=("amogape:PDxPG", "random"), runs=2, budget=7, seed=3, **overrides):
    settings = dict(
        simulator={"kind": "toy-log-1d"},
        strategies=tuple(strategies),
        budget=budget,
        runs=runs,
        test_set=TestSetSpec(kind="grid", step=0.05),
        initial_points=np.array([[0.1, 3.4, 6.7, 10.0]]),
        tempering=TemperingSchedule.one_minus_inverse_t(),
        optimizer=OptimizerConfig(strategy="simulated-annealing",
                                  annealing=AnnealingConfig(iterations=150)),
        nugget_policy=0.02,
        hyper_optimizer=OptimizerConfig(strategy="simulated-annealing",
                                        annealing=AnnealingConfig(iterations=60)),
        seed=seed,
    )
    return ExperimentConfig(**{**settings, **overrides})


class TestMultiOutputRmse:
    def test_perfect_predictions_zero(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=5)
        inputs = model.dataset.X
        outputs = model.dataset.Y
        assert multi_output_rmse(model, inputs, outputs) == pytest.approx(0.0, abs=1e-7)

    def test_constant_offset_gives_offset(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=3, n_nodes=5)
        inputs = model.dataset.X
        shifted = model.dataset.Y + 0.75
        assert multi_output_rmse(model, inputs, shifted) == pytest.approx(0.75, abs=1e-6)

    def test_unit_residual_matrix(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=4)
        inputs = model.dataset.X[:, :2]
        from active_emu.multi_output import predict_mean_matrix

        predictions = predict_mean_matrix(model, inputs)
        outputs = predictions + np.ones((2, 2))
        assert multi_output_rmse(model, inputs, outputs) == pytest.approx(1.0, rel=1e-9)

    def test_permutation_invariance(self, rng):
        model = random_multi_model(rng, dimension=2, n_outputs=2, n_nodes=6)
        inputs = rng.random((2, 10))
        outputs = rng.normal(size=(2, 10))
        base = multi_output_rmse(model, inputs, outputs)
        perm = rng.permutation(10)
        assert multi_output_rmse(model, inputs[:, perm], outputs[:, perm]) == pytest.approx(base)
        flip = multi_output_rmse(model, inputs, outputs)  # output-row permutation below
        ds = model.dataset
        swapped = fit_all(Dataset(ds.X, ds.Y[::-1].copy(), ds.input_bounds),
                          bandwidths=list(model.bandwidths)[::-1], nugget_policy=0.0)
        assert multi_output_rmse(swapped, inputs, outputs[::-1].copy()) == pytest.approx(flip)

    def test_empty_test_set_rejected(self, rng):
        model = random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=4)
        with pytest.raises(ValueError):
            multi_output_rmse(model, np.empty((1, 0)), np.empty((2, 0)))


class TestTestSets:
    def test_grid_step(self):
        inputs = grid_test_inputs([[0.0, 1.0]], 0.25)
        np.testing.assert_allclose(inputs.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_grid_respects_bounds_2d(self):
        inputs = grid_test_inputs([[0.1, 10.0], [0.1, 10.0]], 0.3)
        assert inputs.shape[0] == 2
        assert np.all(inputs >= 0.1) and np.all(inputs <= 10.0)

    def test_build_prior_test_set(self):
        from active_emu.acquisition import InputPrior
        from active_emu.simulators import FixtureNineBand

        prior = InputPrior(mu=[45.0, 3.5], sigma=[30.0, 4.5], low=[20.0, 0.0], high=[90.0, 10.0])
        config = ExperimentConfig(
            simulator={"kind": "fixture-9band", "dimension": 2},
            strategies=("prior-random",),
            budget=5,
            runs=1,
            test_set=TestSetSpec(kind="prior", size=40),
            initial_sampler="prior-random",
            initial_size=3,
            prior=prior,
            seed=0,
        )
        inputs, outputs = build_test_set(config, FixtureNineBand(2))
        assert inputs.shape == (2, 40)
        assert outputs.shape == (9, 40)

    def test_test_set_spec_validation(self):
        with pytest.raises(ValueError):
            TestSetSpec(kind="grid")
        with pytest.raises(ValueError):
            TestSetSpec(kind="prior")
        with pytest.raises(ValueError):
            TestSetSpec(kind="holdout")


class TestRunExperiment:
    def test_rows_structure_and_determinism(self):
        config = tiny_experiment()
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.rows == second.rows
        strategies = {row[0] for row in first.rows}
        assert strategies == {"amogape:PDxPG", "random"}
        for strategy in strategies:
            ms = [row[1] for row in first.rows if row[0] == strategy]
            assert ms == [4, 5, 6, 7]

    def test_single_run_zero_stderr(self):
        config = tiny_experiment(strategies=("sobol",), runs=1)
        results = run_experiment(config)
        for _, _, _, stderr, _ in results.rows:
            assert stderr == 0.0

    def test_eval_accounting_columns(self):
        config = tiny_experiment(strategies=("random", "lhs"), runs=1, budget=6)
        results = run_experiment(config)
        for strategy, m, _, _, evals in results.rows:
            if strategy == "random":
                assert evals == m
            else:
                assert evals == m * (m + 1) // 2

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="halton"):
            tiny_experiment(strategies=("halton",), runs=1)
        with pytest.raises(ValueError):
            tiny_experiment(strategies=("amogape:XX",), runs=1)

    @pytest.mark.parametrize("strategies, overrides, message", [
        (("prior-random",), {}, "strategies: 'prior-random': "),
        (("grid",), dict(simulator={"kind": "toy-log-2d"}, initial_points=None, initial_sampler="lhs", initial_size=4),
         "strategies: 'grid': "),
        # designs every strategy shares are refused once, in no strategy's name
        *((("sobol", "amogape:SD"), dict(initial_points=points, prior=prior), "(initial_design|acquisition.prior): ")
          for points, prior in UNUSABLE_DESIGNS.values()),
    ], ids=["prior-random-without-prior", "grid-strategy-2d", *UNUSABLE_DESIGNS])
    def test_unrunnable_strategy_rejected_before_any_run(self, monkeypatch, strategies, overrides, message):
        built = []

        def make(spec):
            built.append(make_simulator(spec))
            return built[-1]

        monkeypatch.setattr(harness, "make_simulator", make)
        with pytest.raises(ValueError, match=f"^{message}"):
            tiny_experiment(strategies=strategies, **overrides)
        assert all(sim.eval_count == 0 for sim in built)

    def test_initial_sampler_without_size_rejected(self):
        with pytest.raises(ValueError, match="size"):
            ExperimentConfig(
                simulator={"kind": "toy-log-1d"},
                strategies=("sobol",),
                budget=6,
                runs=1,
                test_set=TestSetSpec(kind="grid", step=0.5),
                initial_sampler="sobol",
            )

    def test_csv_output(self, tmp_path):
        results = run_experiment(tiny_experiment(runs=1))
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["strategy", "m", "rmse_mean", "rmse_stderr", "evals_used"]
        assert len(rows) == len(results.rows) + 1


class TestSimulatorLifetime:
    def test_every_simulator_built_is_closed(self, monkeypatch):
        built = []

        class Recording(ToyLog1D):
            closed = False

            def close(self):
                self.closed = True

        def make(spec):
            sim = Recording()
            built.append(sim)
            return sim

        monkeypatch.setattr(harness, "make_simulator", make)
        run_experiment(tiny_experiment(runs=2))
        assert len(built) == 1 + 1 + 2 * 2  # the config's, the test set's, then one per (strategy, run)
        assert all(sim.closed for sim in built)

    def test_simulator_of_a_raising_run_is_closed(self, monkeypatch):
        built = []

        class Raising(ToyLog1D):
            closed = False

            def _eval(self, x):
                if self.eval_count >= 5:
                    raise RuntimeError("solver died")
                return super()._eval(x)

            def close(self):
                self.closed = True

        def make(spec):
            sim = Raising()
            built.append(sim)
            return sim

        monkeypatch.setattr(harness, "make_simulator", make)
        monkeypatch.setattr(harness, "build_test_set", lambda config, sim: (np.array([[1.0]]), np.zeros((2, 1))))
        results = run_experiment(tiny_experiment(strategies=("random",), runs=2))
        assert len(results.failures) == 2
        assert all("solver died" in f.message for f in results.failures)
        assert len(built) == 4 and all(sim.closed for sim in built)  # the config's, the test set's, two runs


class TestDensityReport:
    def _result_with_nodes(self, X, bounds):
        Y = np.zeros((1, X.shape[1]))
        Y[0] = np.arange(X.shape[1], dtype=float)
        dataset = Dataset(X, Y, bounds)
        return EmulationResult(dataset=dataset, model=None, trace=[], evaluations=X.shape[1])

    def test_requires_2d(self):
        result = self._result_with_nodes(np.array([[0.2, 0.8]]), [[0.0, 1.0]])
        with pytest.raises(ValueError):
            density_report(result, bandwidth=0.1)

    def test_mass_concentrates_at_cluster(self):
        X = np.array([[0.5, 0.5001, 0.4999], [0.5, 0.5, 0.5001]])
        result = self._result_with_nodes(X, [[0.0, 1.0], [0.0, 1.0]])
        x_axis, y_axis, density = density_report(result, bandwidth=0.05, grid_size=21)
        peak = np.unravel_index(np.argmax(density), density.shape)
        assert x_axis[peak[0]] == pytest.approx(0.5, abs=0.05)
        assert y_axis[peak[1]] == pytest.approx(0.5, abs=0.05)

    def test_uniform_lattice_near_uniform_density(self):
        from active_emu.samplers import grid_design

        X = grid_design(2, 36, bounds=[[0.0, 1.0], [0.0, 1.0]])
        result = self._result_with_nodes(X, [[0.0, 1.0], [0.0, 1.0]])
        spacing = 0.2
        x_axis, y_axis, density = density_report(result, bandwidth=spacing, grid_size=25)
        assert density.max() / density.min() < 2.0

    def test_integrates_to_roughly_one(self):
        X = np.array([[0.5, 0.3, 0.7], [0.5, 0.6, 0.4]])
        result = self._result_with_nodes(X, [[0.0, 1.0], [0.0, 1.0]])
        x_axis, y_axis, density = density_report(result, bandwidth=0.08, grid_size=60)
        cell = (x_axis[1] - x_axis[0]) * (y_axis[1] - y_axis[0])
        assert density.sum() * cell == pytest.approx(1.0, abs=0.05)

    def test_bad_bandwidth(self):
        result = self._result_with_nodes(np.array([[0.5], [0.5]]), [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            density_report(result, bandwidth=0.0)
