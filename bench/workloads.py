"""The benchmark's three workloads, their checks and their layer probes.

Each workload is built from the `run` and `experiment` configuration files
the CLI reads, parsed by the program's own config module, and driven
through the public entry points `loop.run`, `loop.baseline_run` and
`harness.run_experiment`.  One round is one timed call; every round of a
run repeats the same seeded work.
"""

from __future__ import annotations

import time

import numpy as np

from reference import FixtureReference, toy_log_1d
from tracing import percentile

FIXTURE_PRIOR = {"mu": [45.0, 3.5], "sigma": [30.0, 4.5], "min": [20.0, 0.0], "max": [90.0, 10.0]}

# Acceptance criterion 10, as a run configuration (m = 30 to 130).
FIXTURE_RUN = {
    "simulator": {"kind": "fixture-9band", "dimension": 2},
    "initial_design": {"sampler": "prior-random", "size": 30},
    "budget": 130,
    "acquisition": {
        "variant": "SDxSG",
        "tempering": {"kind": "constant", "beta": 1.0},
        "prior": FIXTURE_PRIOR,
    },
    "optimizer": {"strategy": "random-then-ascent", "n_random": 100, "ascent_iterations": 60},
    "hyperparameters": {
        "strategy": "marginal-likelihood",
        "nugget": {"policy": "fixed", "value": 1e-4},
        "optimizer": {"strategy": "random-then-ascent", "n_random": 10, "ascent_iterations": 40},
    },
}

# The same criterion as an experiment configuration; the benchmark uses it
# for its 2000-point prior test set.
FIXTURE_EXPERIMENT = {
    "simulator": FIXTURE_RUN["simulator"],
    "strategies": ["amogape:SDxSG", "prior-random"],
    "initial_design": FIXTURE_RUN["initial_design"],
    "n_add": 100,
    "runs": 1,
    "test_set": {"kind": "prior", "size": 2000},
    "acquisition": {"tempering": {"kind": "constant", "beta": 1.0}, "prior": FIXTURE_PRIOR},
    "optimizer": FIXTURE_RUN["optimizer"],
    "hyperparameters": FIXTURE_RUN["hyperparameters"],
}

# Acceptance criterion 1 with TOY_RUNS runs per strategy instead of 50.
TOY_RUNS = 4
TOY_EXPERIMENT = {
    "simulator": {"kind": "toy-log-1d"},
    "strategies": ["amogape:PDxPG", "random", "sobol", "seq-lhs", "grid", "lhs"],
    "initial_design": {"points": [[0.1], [3.4], [6.7], [10.0]]},
    "n_add": 20,
    "runs": 1,
    "test_set": {"kind": "grid", "step": 0.01},
    "acquisition": {"tempering": {"kind": "one-minus-inverse-t"}},
    "optimizer": {"strategy": "simulated-annealing", "iterations": 400},
    "hyperparameters": {
        "strategy": "marginal-likelihood",
        "nugget": {"policy": "fixed", "value": 0.02},
        "optimizer": {"strategy": "simulated-annealing", "iterations": 120},
    },
}
TOY_BOUNDS = np.array([[0.1, 10.0]])

# Round-off allowed between the program's outputs and the reference.
OUTPUT_TOLERANCE = 1e-12
# "Well below the spread of the test outputs".
RMSE_SHARE_OF_STD = 0.1
# Prior-random designs behind the SDxSG ordering check (sharing the run's
# initial nodes), and added to the prior-random run's own for its `rmse`.
ORDERING_DESIGNS = 4
ACCURACY_DESIGNS = 15
# Repetitions behind each layer probe.
PROBE_POINTS = 200
GRAM_REPEATS = 200


class Checks:
    """Named pass/fail results; a run is correct when every one passed."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, condition: bool, message: str) -> None:
        self.count += 1
        if not condition:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_design(checks: Checks, label: str, X, Y, bounds, reference) -> None:
    X = np.atleast_2d(X)
    inside = np.all((X >= bounds[:, :1]) & (X <= bounds[:, 1:]))
    checks.expect(bool(inside), f"{label}: a node lies outside the box")
    unit = (X - bounds[:, :1]) / (bounds[:, 1:] - bounds[:, :1])
    gaps = np.sqrt(((unit[:, :, None] - unit[:, None, :]) ** 2).sum(axis=0))
    np.fill_diagonal(gaps, np.inf)
    checks.expect(bool(np.min(gaps) > 1e-12), f"{label}: two nodes coincide")
    error = float(np.max(np.abs(Y - reference(X))))
    checks.expect(error <= OUTPUT_TOLERANCE, f"{label}: node outputs differ from the reference by {error:.3e}")


class Workload:
    """Set-up, one timed round, checks and layer probes of one workload."""

    name = ""
    operations_per_round = 1

    def __init__(self, root, seed: int):
        self.root = root
        self.seed = seed

    def setup(self) -> dict:
        """Imports, config, simulator and test set; returns set-up timings."""
        raise NotImplementedError

    def round(self, tracer=None) -> dict:
        """One timed call; returns wall time, iteration gaps and outcomes."""
        raise NotImplementedError

    def accuracy(self, outcome: dict) -> float:
        """The `rmse` metric of a round."""
        return outcome["rmse"]


class FixtureWorkload(Workload):
    """One fixture-9band run, m = 30 to 130, with an RMSE hook per iteration."""

    def setup(self) -> dict:
        from active_emu import config, harness, simulators

        self.harness, self.simulators = harness, simulators
        raw = dict(FIXTURE_RUN, seed=self.seed)
        self.sim_spec, self.loop_config = config.parse_run_config(raw)
        experiment = config.parse_experiment_config(dict(FIXTURE_EXPERIMENT, seed=self.seed))
        self.reference = FixtureReference(self.root)
        started = time.perf_counter()
        inputs, outputs = harness.build_test_set(experiment, simulators.make_simulator(self.sim_spec))
        test_set_s = time.perf_counter() - started
        self.test_inputs = inputs
        self.test_outputs = self.reference(inputs)
        self.test_set_error = float(np.max(np.abs(outputs - self.test_outputs)))
        return {"harness.test_set_s": test_set_s}

    def _call(self, sim, hook):
        raise NotImplementedError

    def round(self, tracer=None) -> dict:
        sim = self.simulators.make_simulator(self.sim_spec)
        marks: list[float] = []
        rmse: dict[int, float] = {}

        def hook(m, model):
            marks.append(time.perf_counter())
            rmse[m] = self.harness.multi_output_rmse(model, self.test_inputs, self.test_outputs)

        started = time.perf_counter()
        if tracer is None:
            result = self._call(sim, hook)
        else:
            with tracer.span("loop.run") as span:
                result = self._call(sim, hook)
            tracer.spans[span.index].info = len(result.trace)
        wall = time.perf_counter() - started
        return {
            "wall_s": wall,
            "gaps_ms": list(np.diff(marks) * 1e3),
            "result": result,
            "rmse": rmse.get(self.loop_config.budget, float("nan")),
            "failed": int(result.failure is not None),
        }

    def check(self, checks: Checks, outcome: dict) -> None:
        result = outcome["result"]
        budget = self.loop_config.budget
        checks.expect(self.test_set_error <= OUTPUT_TOLERANCE,
                      f"test-set outputs differ from the reference by {self.test_set_error:.3e}")
        if result.failure is not None:
            return
        dataset = result.dataset
        checks.expect(dataset.n_nodes == budget, f"run ended with {dataset.n_nodes} nodes, budget {budget}")
        checks.expect(result.evaluations == budget,
                      f"{result.evaluations} simulator evaluations for a budget of {budget}")
        _check_design(checks, self.name, dataset.X, dataset.Y, self.reference.bounds, self.reference)
        std = float(np.std(self.test_outputs))
        checks.expect(outcome["rmse"] < RMSE_SHARE_OF_STD * std,
                      f"rmse {outcome['rmse']:.4g} is not well below the test-output std {std:.4g}")

    def _prior_random_rmses(self, count: int, initial=None) -> list[float]:
        """RMSEs of the program's emulators for `count` prior-random designs
        of the budget's size, drawn here and fitted with the run's GP
        settings; `initial` nodes, when given, start every design."""
        from active_emu import gp, multi_output

        config = self.loop_config
        start = np.empty((2, 0)) if initial is None else initial
        rmses = []
        for j in range(count):
            X = np.hstack([start, _prior_draws(config.budget - start.shape[1], [self.seed, j])])
            dataset = gp.Dataset(X, self.reference(X), self.reference.bounds)
            model = multi_output.fit_all(
                dataset, hyper_strategy=config.hyper_strategy, nugget_policy=config.nugget_policy,
                seed=self.seed + j, hyper_optimizer=config.hyper_optimizer,
            )
            rmses.append(self.harness.multi_output_rmse(model, self.test_inputs, self.test_outputs))
        return rmses

    def probe(self, outcome: dict) -> dict:
        """Layer probes on the run's final model and design, untraced."""
        from active_emu import acquisition, gp, kernels

        result = outcome["result"]
        model = result.model
        metrics = _gram_chol(gp, kernels, model.dataset.normalize(result.dataset.X),
                             model.bandwidths[0], float(self.loop_config.nugget_policy))
        rng = np.random.default_rng(self.seed)
        lo, hi = self.reference.bounds[:, 0], self.reference.bounds[:, 1]
        probes = lo + rng.random((PROBE_POINTS, lo.size)) * (hi - lo)
        spec = self.loop_config.acquisition
        t = self.loop_config.budget - self.loop_config.initial_size  # the last iteration
        metrics.update(_acquisition_us(acquisition, spec, model, probes, t))
        return metrics


class FixtureAmogape(FixtureWorkload):
    name = "fixture9-amogape"

    def _call(self, sim, hook):
        from active_emu import loop

        return loop.run(self.loop_config, sim, iteration_hook=hook)

    def check(self, checks: Checks, outcome: dict) -> None:
        super().check(checks, outcome)
        result = outcome["result"]
        if result.failure is None:
            initial = result.dataset.X[:, : self.loop_config.initial_size]
            baseline = float(np.mean(self._prior_random_rmses(ORDERING_DESIGNS, initial)))
            checks.expect(outcome["rmse"] < baseline,
                          f"SDxSG rmse {outcome['rmse']:.4g} does not beat prior-random {baseline:.4g}")


class FixturePriorRandom(FixtureWorkload):
    name = "fixture9-prior-random"

    def _call(self, sim, hook):
        from active_emu import loop

        return loop.baseline_run("prior-random", True, self.loop_config, sim, iteration_hook=hook)

    def accuracy(self, outcome: dict) -> float:
        """One random design's RMSE varies by a third and more between seeds,
        so the run's final RMSE is averaged with that of independent designs."""
        return float(np.mean([outcome["rmse"], *self._prior_random_rmses(ACCURACY_DESIGNS)]))


def _prior_draws(n: int, seed) -> np.ndarray:
    """Truncated-Gaussian draws by rejection, independent of the program's sampler."""
    rng = np.random.default_rng(seed)
    mu, sigma = np.array(FIXTURE_PRIOR["mu"]), np.array(FIXTURE_PRIOR["sigma"])
    low, high = np.array(FIXTURE_PRIOR["min"]), np.array(FIXTURE_PRIOR["max"])
    kept: list[np.ndarray] = []
    while len(kept) < n:
        x = mu + sigma * rng.standard_normal(mu.size)
        if np.all((x >= low) & (x <= high)):
            kept.append(x)
    return np.column_stack(kept)


class ToyCompare(Workload):
    """Acceptance criterion 1 through the harness, as TOY_RUNS comparisons of
    one run per strategy.  The harness returns only each strategy's first
    run, so one run per comparison brings back every run's records."""

    name = "toy1d-compare"
    operations_per_round = len(TOY_EXPERIMENT["strategies"]) * TOY_RUNS

    def setup(self) -> dict:
        from active_emu import config, harness, simulators

        self.harness = harness
        self.configs = [
            config.parse_experiment_config(dict(TOY_EXPERIMENT, seed=_child_seed(self.seed, k)))
            for k in range(TOY_RUNS)
        ]
        self.config = self.configs[0]
        started = time.perf_counter()
        inputs, outputs = harness.build_test_set(self.config, simulators.make_simulator(self.config.simulator))
        test_set_s = time.perf_counter() - started
        self.test_outputs = toy_log_1d(inputs)
        self.test_set_error = float(np.max(np.abs(outputs - self.test_outputs)))
        return {"harness.test_set_s": test_set_s}

    def round(self, tracer=None) -> dict:
        started = time.perf_counter()
        experiments = [self.harness.run_experiment(c) for c in self.configs]
        wall = time.perf_counter() - started
        budget = self.config.budget
        at_budget: dict[str, list[float]] = {}
        for experiment in experiments:
            for strategy, m, mean, _, _ in experiment.rows:
                if m == budget:
                    at_budget.setdefault(strategy, []).append(mean)
        final = {strategy: float(np.mean(values)) for strategy, values in at_budget.items()}
        runs = [(s, r) for experiment in experiments for s, r in experiment.final_results.items()]
        # run_experiment takes no hook, so the gaps are the runs' own records.
        gaps = [1e3 * record.wall_time for _, result in runs for record in result.trace]
        return {
            "wall_s": wall,
            "gaps_ms": gaps,
            "experiments": experiments,
            "runs": runs,
            "rmse": final.get("amogape:PDxPG", float("nan")),
            "final": final,
            "failed": sum(len(e.failures) for e in experiments),
        }

    def _expected_evaluations(self, strategy: str) -> int:
        budget = self.config.budget
        return budget * (budget + 1) // 2 if strategy in self.harness.NONSEQUENTIAL_BASELINES else budget

    def check(self, checks: Checks, outcome: dict) -> None:
        budget = self.config.budget
        checks.expect(self.test_set_error <= OUTPUT_TOLERANCE,
                      f"test-set outputs differ from the reference by {self.test_set_error:.3e}")
        for strategy, result in outcome["runs"]:
            expected = self._expected_evaluations(strategy)
            checks.expect(result.evaluations == expected,
                          f"{strategy}: {result.evaluations} evaluations, expected {expected}")
            _check_design(checks, strategy, result.dataset.X, result.dataset.Y, TOY_BOUNDS, toy_log_1d)
        for experiment in outcome["experiments"]:
            for strategy, m, _, _, evals in experiment.rows:
                if m == budget:
                    checks.expect(evals == self._expected_evaluations(strategy),
                                  f"{strategy}: reports {evals} evaluations at m={budget}")
        final = outcome["final"]
        amogape = final.get("amogape:PDxPG", float("nan"))
        std = float(np.std(self.test_outputs))
        checks.expect(amogape < RMSE_SHARE_OF_STD * std,
                      f"rmse {amogape:.4g} is not well below the test-output std {std:.4g}")
        for strategy, mean in final.items():
            if strategy != "amogape:PDxPG":
                checks.expect(amogape < mean, f"amogape:PDxPG mean {amogape:.4g} does not beat {strategy} {mean:.4g}")

    def probe(self, outcome: dict) -> dict:
        from active_emu import acquisition, gp, kernels

        first = outcome["experiments"][0].final_results
        model = first["amogape:PDxPG"].model
        # No toy design reaches 130 nodes: concatenate the first comparison's
        # six final designs, in strategy order.
        X = np.hstack([first[s].dataset.X for s in self.config.strategies])
        metrics = _gram_chol(gp, kernels, model.dataset.normalize(X), model.bandwidths[0],
                             float(self.config.nugget_policy))
        probes = np.random.default_rng(self.seed).uniform(0.1, 10.0, (PROBE_POINTS, 1))
        spec = acquisition.AcquisitionSpec.from_variant(
            "PDxPG", tempering=self.config.tempering, prior=self.config.prior,
            strict_zero_at_nodes=self.config.strict_zero_at_nodes,
        )
        t = self.config.budget - self.config.initial_points.shape[1]  # the last iteration
        metrics.update(_acquisition_us(acquisition, spec, model, probes, t))
        return metrics


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _acquisition_us(acquisition, spec, model, probes, t: int) -> dict:
    """Acquisition value and gradient, one point per call, on the final model:
    the median over three passes of the mean time per call, in microseconds."""
    metrics = {}
    for name, fn in (("value", acquisition.acquisition_value), ("gradient", acquisition.acquisition_gradient)):
        passes = []
        for _ in range(3):
            started = time.perf_counter()
            for x in probes:
                fn(spec, model, x, t)
            passes.append((time.perf_counter() - started) / len(probes) * 1e6)
        metrics[f"acquisition.{name}.us"] = percentile(passes, 50)
    return metrics


def _gram_chol(gp, kernels, Xn, bandwidth: float, nugget: float) -> dict:
    """kernel_matrix plus the GP module's cho_factor on the first m nodes."""
    params = kernels.KernelParams(bandwidth)
    metrics = {}
    for m in (30, 60, 130):
        X = Xn[:, :m]
        times = []
        for _ in range(GRAM_REPEATS):
            started = time.perf_counter()
            gp.cho_factor(kernels.kernel_matrix(X, params, nugget), lower=True)
            times.append(time.perf_counter() - started)
        metrics[f"kernels.gram_chol_us.m{m}"] = percentile(times, 50) * 1e6
    return metrics


WORKLOADS = {w.name: w for w in (FixtureAmogape, FixturePriorRandom, ToyCompare)}

