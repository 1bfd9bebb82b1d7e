"""Experiment harness: multi-run comparisons of sampling strategies with
RMSE-versus-node-count curves, plus test-set generation and plot-ready CSV
output.

Strategy names: `amogape:<variant>` with variant one of SD, PD, SDxSG,
SDxPG, PDxSG, PDxPG; sequential baselines `random`, `sobol`, `seq-lhs`,
`prior-random`; non-sequential baselines `grid` and `lhs` (full redesign at
every size, quadratic cumulative cost).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .acquisition import AcquisitionSpec, InputPrior, TemperingSchedule
from .loop import NONSEQUENTIAL_BASELINES, EmulationResult, LoopConfig, RunSettings, baseline_run, run
from .loop import check_baseline_designs, check_designs
from .multi_output import MultiGpModel, predict_mean_matrix
from .optimize import check_box
from .samplers import sample_truncated_gaussian
from .seeding import derive_seed
from .simulators import make_simulator


@dataclass(frozen=True)
class TestSetSpec:
    """Either a regular grid with a step, or a prior/truncated-Gaussian sample."""

    __test__ = False  # keep pytest collection away from the Test* name

    kind: str  # grid | prior
    step: float | None = None
    size: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "grid":
            if self.step is None or self.step <= 0.0:
                raise ValueError("grid test set needs a positive step")
        elif self.kind == "prior":
            if self.size is None or self.size < 1:
                raise ValueError("prior test set needs a positive size")
        else:
            raise ValueError(f"unknown test set kind: {self.kind!r}")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(RunSettings):
    """Each strategy run `runs` times under the shared `RunSettings`; designs a run cannot build raise here."""

    simulator: dict
    strategies: tuple
    runs: int
    test_set: TestSetSpec
    tempering: TemperingSchedule = field(default_factory=TemperingSchedule.one_minus_inverse_t)
    prior: InputPrior | None = None
    strict_zero_at_nodes: bool = True

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("at least one strategy is required")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.test_set.kind == "prior" and self.prior is None:
            raise ValueError("a test_set of kind 'prior' requires an input prior")
        super().__post_init__()
        with make_simulator(self.simulator) as sim:  # an external simulator starts no child here
            box = sim.bounds
        check_designs(self.loop_config("amogape:SD", self.seed), box)  # the shared initial design and prior
        for strategy in self.strategies:
            try:
                config = self.loop_config(strategy, self.seed)
                if not strategy.startswith("amogape:"):
                    check_baseline_designs(config, box, strategy)
            except ValueError as exc:
                raise ValueError(f"strategies: {strategy!r}: {exc}") from exc

    def loop_config(self, strategy: str, run_seed: int) -> LoopConfig:
        """The loop settings of one run of `strategy`.

        A baseline gets the SD variant's spec, which it never reads.
        """
        variant = strategy.split(":", 1)[1] if strategy.startswith("amogape:") else "SD"
        spec = AcquisitionSpec.from_variant(
            variant,
            tempering=self.tempering,
            prior=self.prior,
            strict_zero_at_nodes=self.strict_zero_at_nodes,
        )
        shared = {setting.name: getattr(self, setting.name) for setting in fields(RunSettings)}
        return LoopConfig(**{**shared, "seed": run_seed}, acquisition=spec)


@dataclass
class RunFailure:
    strategy: str
    run_index: int
    message: str


@dataclass
class ExperimentResults:
    """Aggregated rows plus per-run details for downstream reporting."""

    rows: list  # (strategy, m, rmse_mean, rmse_stderr, evals_used)
    failures: list
    final_results: dict  # strategy -> EmulationResult of the first run


def multi_output_rmse(model: MultiGpModel, test_inputs, test_outputs) -> float:
    """Root mean squared error averaged over test points and outputs."""
    test_inputs = np.atleast_2d(np.asarray(test_inputs, dtype=float))
    test_outputs = np.atleast_2d(np.asarray(test_outputs, dtype=float))
    if test_inputs.shape[1] == 0:
        raise ValueError("test set must not be empty")
    if test_inputs.shape[1] != test_outputs.shape[1]:
        raise ValueError("test inputs and outputs disagree on the number of points")
    predictions = predict_mean_matrix(model, test_inputs)
    if predictions.shape != test_outputs.shape:
        raise ValueError(
            f"model predicts {predictions.shape[0]} outputs, test set has {test_outputs.shape[0]}"
        )
    return float(np.sqrt(np.mean((test_outputs - predictions) ** 2)))


def grid_test_inputs(bounds, step: float) -> np.ndarray:
    """Regular grid over the box with the given step per dimension, D x n."""
    axes = []
    for lo, hi in check_box(bounds):
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        axes.append(np.minimum(lo + step * np.arange(count), hi))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.vstack([g.ravel() for g in mesh])


def build_test_set(config: ExperimentConfig, sim) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the simulator over the configured test inputs (not counted
    against any strategy's budget: uses a dedicated simulator instance)."""
    if config.test_set.kind == "grid":
        inputs = grid_test_inputs(sim.bounds, config.test_set.step)
    else:
        inputs = sample_truncated_gaussian(
            config.prior, config.test_set.size, seed=derive_seed(config.seed, 90)
        )
    outputs = np.column_stack([sim.evaluate(inputs[:, i]) for i in range(inputs.shape[1])])
    return inputs, outputs


def _execute(strategy: str, loop_config: LoopConfig, sim, hook) -> EmulationResult:
    if strategy.startswith("amogape:"):
        return run(loop_config, sim, iteration_hook=hook)
    return baseline_run(strategy, strategy not in NONSEQUENTIAL_BASELINES, loop_config, sim, iteration_hook=hook)


def run_experiment(config: ExperimentConfig) -> ExperimentResults:
    """Run every strategy `runs` times and aggregate RMSE per node count.

    Individual run failures are recorded, flagged, and excluded from the
    averages.  Deterministic given the config seed, at any thread count:
    every run holds scipy's LAPACK at one thread.  Every simulator built
    here (the test set's and one per run) is closed when it is done with.
    """
    with make_simulator(config.simulator) as test_sim:
        test_inputs, test_outputs = build_test_set(config, test_sim)

    rows = []
    failures: list[RunFailure] = []
    final_results: dict[str, EmulationResult] = {}
    for strategy_index, strategy in enumerate(config.strategies):
        curves: dict[int, list[float]] = {}
        for run_index in range(config.runs):
            run_seed = derive_seed(config.seed, strategy_index, run_index)
            loop_config = config.loop_config(strategy, run_seed)
            trajectory: dict[int, float] = {}

            def hook(m, model, _trajectory=trajectory):
                _trajectory[m] = multi_output_rmse(model, test_inputs, test_outputs)

            try:
                with make_simulator(config.simulator) as sim:
                    result = _execute(strategy, loop_config, sim, hook)
            except Exception as exc:  # noqa: BLE001 - run isolation by design
                failures.append(RunFailure(strategy, run_index, f"{type(exc).__name__}: {exc}"))
                continue
            if result.failure is not None:
                failures.append(RunFailure(strategy, run_index, result.failure))
                continue
            if run_index == 0:
                final_results[strategy] = result
            for m, rmse in trajectory.items():
                curves.setdefault(m, []).append(rmse)
        nonsequential = strategy in NONSEQUENTIAL_BASELINES
        for m in sorted(curves):
            values = np.asarray(curves[m])
            mean = float(np.mean(values))
            stderr = float(np.std(values, ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
            evals = m * (m + 1) // 2 if nonsequential else m
            rows.append((strategy, m, mean, stderr, evals))
    return ExperimentResults(rows=rows, failures=failures, final_results=final_results)


def write_results_csv(results: ExperimentResults, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strategy", "m", "rmse_mean", "rmse_stderr", "evals_used"])
        for strategy, m, mean, stderr, evals in results.rows:
            writer.writerow([strategy, m, repr(mean), repr(stderr), evals])


def write_failures_csv(results: ExperimentResults, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["strategy", "run_index", "message"])
        for failure in results.failures:
            writer.writerow([failure.strategy, failure.run_index, failure.message])


def check_density_options(bandwidth: float, grid_size: int) -> None:
    """A density map's kernel bandwidth must be finite and positive, and its grid at least 1 point per axis."""
    if not 0.0 < bandwidth < np.inf:
        raise ValueError(f"bandwidth must be finite and positive, got {bandwidth}")
    if grid_size < 1:
        raise ValueError(f"grid must be >= 1, got {grid_size}")


def density_report(result: EmulationResult, bandwidth: float, grid_size: int = 40):
    """Gaussian-kernel density of the final node locations on a regular grid.

    The kernel mass falling outside the input box is renormalized away at
    each grid point, so a uniform lattice reads as near-uniform instead of
    fading toward the edges.  Only defined for two-dimensional inputs;
    returns (x_axis, y_axis, density) with density[i, j] at
    (x_axis[i], y_axis[j]).
    """
    from scipy.special import ndtr

    dataset = result.dataset
    if dataset is None or dataset.dimension != 2:
        raise ValueError("density_report needs a completed 2-dimensional run")
    check_density_options(bandwidth, grid_size)
    lo = dataset.input_bounds[:, 0]
    hi = dataset.input_bounds[:, 1]
    x_axis = np.linspace(lo[0], hi[0], grid_size)
    y_axis = np.linspace(lo[1], hi[1], grid_size)
    gx, gy = np.meshgrid(x_axis, y_axis, indexing="ij")
    points = dataset.X  # (2, m)
    dx = gx[..., np.newaxis] - points[0]
    dy = gy[..., np.newaxis] - points[1]
    sq = dx**2 + dy**2
    density = np.exp(-sq / (2.0 * bandwidth**2)).sum(axis=-1)
    density /= 2.0 * np.pi * bandwidth**2 * points.shape[1]
    in_box_x = ndtr((hi[0] - gx) / bandwidth) - ndtr((lo[0] - gx) / bandwidth)
    in_box_y = ndtr((hi[1] - gy) / bandwidth) - ndtr((lo[1] - gy) / bandwidth)
    density /= in_box_x * in_box_y
    return x_axis, y_axis, density


def write_density_csv(x_axis, y_axis, density, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x1", "x2", "density"])
        for i, xv in enumerate(x_axis):
            for j, yv in enumerate(y_axis):
                writer.writerow([repr(float(xv)), repr(float(yv)), repr(float(density[i, j]))])
