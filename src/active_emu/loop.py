"""The sequential active-emulation loop: fit, maximize the acquisition,
query the simulator, append the node, repeat until the node budget or the
successive-model convergence criterion is reached.

`baseline_run` drives the same machinery with a sampler instead of the
acquisition maximizer; non-sequential baselines regenerate the whole design
at every size, paying the full quadratic evaluation cost.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import (
    AcquisitionSpec,
    acquisition_gradient,
    acquisition_value,
    acquisition_values,
    beta_at,
)
from .gp import DUPLICATE_TOLERANCE, Dataset, IllConditionedError
from .kernels import squared_distances
from .multi_output import MultiGpModel, fit_all, fit_single_node, predict_mean_matrix
from .optimize import OptimizerConfig, maximize
from .samplers import grid_design, lhs_design, make_sampler, sobol_sequence
from .seeding import derive_seed
from .simulators import Simulator, SimulatorError

# Failures that end a run with a partial result instead of an exception: the
# simulator could not produce an output, or a fit or the acquisition met a
# matrix beyond round-off.
RUN_FAILURES = (SimulatorError, IllConditionedError)


@dataclass(frozen=True)
class LoopConfig:
    budget: int  # maximum number of nodes M
    acquisition: AcquisitionSpec = field(default_factory=AcquisitionSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper_strategy: str = "marginal-likelihood"
    nugget_policy: float | str = 0.0
    hyper_optimizer: OptimizerConfig | None = None
    initial_points: np.ndarray | None = None  # D x m0, raw coordinates
    initial_sampler: str | None = None  # lhs | sobol | random | prior-random
    initial_size: int | None = None
    convergence_epsilon: float | None = None
    convergence_probes: int = 1000
    seed: int = 0
    max_duplicate_retries: int = 5

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.initial_points is None and (self.initial_sampler is None or self.initial_size is None):
            raise ValueError("either initial_points or an initial sampler with a size is required")
        if self.convergence_epsilon is not None and not self.convergence_epsilon > 0.0:
            raise ValueError("convergence threshold must be positive")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    n_nodes: int
    x: tuple
    acquisition_value: float | None
    beta: float | None
    bandwidths: tuple
    wall_time: float


@dataclass
class EmulationResult:
    dataset: Dataset | None
    model: MultiGpModel | None
    trace: list[IterationRecord]
    evaluations: int
    converged: bool = False
    failure: str | None = None


def _partial(dataset, model, trace, sim: Simulator, evals_before: int, exc: Exception) -> EmulationResult:
    """The result of a run ended by one of RUN_FAILURES."""
    return EmulationResult(
        dataset=dataset, model=model, trace=trace,
        evaluations=sim.eval_count - evals_before, failure=str(exc),
    )


def _initial_dataset(config: LoopConfig, sim: Simulator) -> Dataset:
    if config.initial_points is not None:
        points = np.atleast_2d(np.asarray(config.initial_points, dtype=float))
    else:
        seed = derive_seed(config.seed, 0)
        size = int(config.initial_size)
        kind = config.initial_sampler
        if kind == "lhs":
            points = lhs_design(sim.dimension, size, seed=seed, bounds=sim.bounds)
        elif kind == "sobol":
            points = sobol_sequence(sim.dimension, size, bounds=sim.bounds)
        elif kind == "grid":
            points = grid_design(sim.dimension, size, bounds=sim.bounds)
        elif kind in ("random", "prior-random"):
            sampler = make_sampler(
                kind, sim.dimension, sim.bounds, seed=seed, prior=config.acquisition.prior
            )
            points = np.column_stack([sampler.next_point() for _ in range(size)])
        else:
            raise ValueError(f"unknown initial sampler: {kind!r}")
    outputs = np.column_stack([sim.evaluate(points[:, i]) for i in range(points.shape[1])])
    return Dataset(points, outputs, sim.bounds)


def _fit(dataset: Dataset, config: LoopConfig, iteration: int) -> MultiGpModel:
    if dataset.n_nodes < 2:
        nugget = 0.0 if config.nugget_policy == "learned" else float(config.nugget_policy)
        return fit_single_node(dataset, nugget=nugget)
    return fit_all(
        dataset,
        hyper_strategy=config.hyper_strategy,
        nugget_policy=config.nugget_policy,
        seed=derive_seed(config.seed, 1, iteration),
        hyper_optimizer=config.hyper_optimizer,
    )


def _is_duplicate(dataset: Dataset, x: np.ndarray) -> bool:
    xn = dataset.normalize(x)[:, np.newaxis]
    sq = squared_distances(dataset.normalize(dataset.X), xn)
    return bool(np.min(sq) < DUPLICATE_TOLERANCE**2)


def _choose_next_point(
    config: LoopConfig, model: MultiGpModel, dataset: Dataset, bounds, t: int
) -> tuple[np.ndarray, float]:
    """Maximize the acquisition at iteration t; returns the point and its value.

    The search ranks its random probes with one call of the batch form
    `acquisition_values` and re-scores the winner with `acquisition_value`,
    so the ascent starts from the winner's per-point value.  The batch
    values reproduce the per-point ones, so the chosen point and the
    recorded value are those of a search that scores every probe point by
    point, and a seeded run writes the same LUT either way.
    """
    spec = config.acquisition

    def objective(x):
        return acquisition_value(spec, model, x, t)

    def gradient(x):
        return acquisition_gradient(spec, model, x, t)

    def batch_objective(X):
        return acquisition_values(spec, model, X, t)

    for attempt in range(config.max_duplicate_retries):
        opt_config = config.optimizer.with_seed(derive_seed(config.seed, 2, t, attempt))
        x_star, value = maximize(
            objective, bounds, opt_config, gradient=gradient, batch_objective=batch_objective
        )
        if not _is_duplicate(dataset, x_star):
            return x_star, value
    # Every optimizer attempt landed on an existing node (possible in
    # regression mode); fall back to the best non-duplicate uniform probe.
    rng = np.random.default_rng(derive_seed(config.seed, 3, t))
    lo, hi = bounds[:, 0], bounds[:, 1]
    probes = lo + rng.random((max(config.optimizer.n_random or 0, 100), lo.size)) * (hi - lo)
    candidates = [(objective(p), p) for p in probes if not _is_duplicate(dataset, p)]
    if not candidates:
        raise RuntimeError("could not find a non-duplicate candidate point")
    value, x_star = max(candidates, key=lambda pair: pair[0])
    return x_star, value


def _probe_grid(bounds: np.ndarray, n: int) -> np.ndarray:
    return sobol_sequence(bounds.shape[0], n, bounds=bounds)


def _rms_difference(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - b) ** 2)))


def run(config: LoopConfig, sim: Simulator, iteration_hook=None) -> EmulationResult:
    """Run the active loop with acquisition maximization.

    `iteration_hook(n_nodes, model)` is called after every fit, letting
    callers track metrics without refitting.  A simulator failure, or an
    ill-conditioned fit or acquisition (RUN_FAILURES), aborts the run and
    returns the partial trace in the result, with every node evaluated so
    far and the last model that fitted (None if none did).
    """
    bounds = np.asarray(sim.bounds, dtype=float)
    evals_before = sim.eval_count
    trace: list[IterationRecord] = []
    dataset = model = None
    try:
        dataset = _initial_dataset(config, sim)
        model = _fit(dataset, config, 0)
    except RUN_FAILURES as exc:
        return _partial(dataset, model, trace, sim, evals_before, exc)
    if iteration_hook is not None:
        iteration_hook(dataset.n_nodes, model)

    probes = None
    previous_predictions = None
    if config.convergence_epsilon is not None:
        probes = _probe_grid(bounds, config.convergence_probes)
        previous_predictions = predict_mean_matrix(model, probes)

    converged = False
    t = 0
    while dataset.n_nodes < config.budget:
        t += 1
        started = time.perf_counter()
        try:
            x_star, value = _choose_next_point(config, model, dataset, bounds, t)
            dataset = dataset.with_node(x_star, sim.evaluate(x_star))
            model = _fit(dataset, config, t)
        except RUN_FAILURES as exc:
            return _partial(dataset, model, trace, sim, evals_before, exc)
        trace.append(
            IterationRecord(
                iteration=t,
                n_nodes=dataset.n_nodes,
                x=tuple(float(v) for v in x_star),
                acquisition_value=float(value),
                beta=beta_at(config.acquisition.tempering, t),
                bandwidths=model.bandwidths,
                wall_time=time.perf_counter() - started,
            )
        )
        if iteration_hook is not None:
            iteration_hook(dataset.n_nodes, model)
        if probes is not None:
            predictions = predict_mean_matrix(model, probes)
            if _rms_difference(predictions, previous_predictions) <= config.convergence_epsilon:
                converged = True
                break
            previous_predictions = predictions
    return EmulationResult(
        dataset=dataset,
        model=model,
        trace=trace,
        evaluations=sim.eval_count - evals_before,
        converged=converged,
    )


def baseline_run(
    sampler_kind: str,
    sequential: bool,
    config: LoopConfig,
    sim: Simulator,
    iteration_hook=None,
) -> EmulationResult:
    """Run the loop with a sampling strategy instead of the acquisition.

    Sequential samplers append one point per iteration.  Non-sequential
    strategies ('grid', 'lhs') rebuild the full design at every size
    m = 1..M, so their cumulative simulator cost is (M^2 + M) / 2.  The
    failures of RUN_FAILURES end the run with a partial result, as in `run`.
    """
    if sequential:
        return _sequential_baseline(sampler_kind, config, sim, iteration_hook)
    return _nonsequential_baseline(sampler_kind, config, sim, iteration_hook)


def _sequential_baseline(sampler_kind, config, sim, iteration_hook):
    bounds = np.asarray(sim.bounds, dtype=float)
    evals_before = sim.eval_count
    trace: list[IterationRecord] = []
    dataset = model = None
    try:
        dataset = _initial_dataset(config, sim)
        sampler = make_sampler(
            sampler_kind,
            sim.dimension,
            bounds,
            seed=derive_seed(config.seed, 4),
            pool_size=config.budget - dataset.n_nodes,
            prior=config.acquisition.prior,
        )
        model = _fit(dataset, config, 0)
    except RUN_FAILURES as exc:
        return _partial(dataset, model, trace, sim, evals_before, exc)
    if iteration_hook is not None:
        iteration_hook(dataset.n_nodes, model)
    t = 0
    while dataset.n_nodes < config.budget:
        t += 1
        started = time.perf_counter()
        x_next = sampler.next_point()
        while _is_duplicate(dataset, x_next):
            x_next = sampler.next_point()
        try:
            dataset = dataset.with_node(x_next, sim.evaluate(x_next))
            model = _fit(dataset, config, t)
        except RUN_FAILURES as exc:
            return _partial(dataset, model, trace, sim, evals_before, exc)
        trace.append(
            IterationRecord(
                iteration=t,
                n_nodes=dataset.n_nodes,
                x=tuple(float(v) for v in x_next),
                acquisition_value=None,
                beta=None,
                bandwidths=model.bandwidths,
                wall_time=time.perf_counter() - started,
            )
        )
        if iteration_hook is not None:
            iteration_hook(dataset.n_nodes, model)
    return EmulationResult(
        dataset=dataset, model=model, trace=trace, evaluations=sim.eval_count - evals_before
    )


def _nonsequential_baseline(sampler_kind, config, sim, iteration_hook):
    if sampler_kind not in ("grid", "lhs"):
        raise ValueError(f"non-sequential baseline must be 'grid' or 'lhs', got {sampler_kind!r}")
    bounds = np.asarray(sim.bounds, dtype=float)
    evals_before = sim.eval_count
    trace: list[IterationRecord] = []
    dataset = None
    model = None
    for t, m in enumerate(range(1, config.budget + 1), start=1):
        started = time.perf_counter()
        if sampler_kind == "grid":
            points = grid_design(sim.dimension, m, bounds=bounds)
        else:
            points = lhs_design(sim.dimension, m, seed=derive_seed(config.seed, 5, m), bounds=bounds)
        try:
            outputs = np.column_stack([sim.evaluate(points[:, i]) for i in range(m)])
            dataset = Dataset(points, outputs, bounds)
            model = _fit(dataset, config, t)
        except RUN_FAILURES as exc:
            return _partial(dataset, model, trace, sim, evals_before, exc)
        trace.append(
            IterationRecord(
                iteration=t,
                n_nodes=m,
                x=tuple(float(v) for v in points[:, -1]),
                acquisition_value=None,
                beta=None,
                bandwidths=model.bandwidths,
                wall_time=time.perf_counter() - started,
            )
        )
        if iteration_hook is not None:
            iteration_hook(m, model)
    return EmulationResult(
        dataset=dataset, model=model, trace=trace, evaluations=sim.eval_count - evals_before
    )


def write_lut_csv(dataset: Dataset, path) -> None:
    """Final node set as CSV with header x1..xD,y1..yP (full float precision)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [f"x{i + 1}" for i in range(dataset.dimension)]
            + [f"y{j + 1}" for j in range(dataset.n_outputs)]
        )
        for i in range(dataset.n_nodes):
            row = [repr(float(v)) for v in dataset.X[:, i]] + [
                repr(float(v)) for v in dataset.Y[:, i]
            ]
            writer.writerow(row)


def write_trace_ndjson(trace, path) -> None:
    """Per-iteration records, one JSON object per line."""
    with open(path, "w") as handle:
        for record in trace:
            handle.write(
                json.dumps(
                    {
                        "iteration": record.iteration,
                        "n_nodes": record.n_nodes,
                        "x": list(record.x),
                        "acquisition_value": record.acquisition_value,
                        "beta": record.beta,
                        "bandwidths": list(record.bandwidths),
                        "wall_time": record.wall_time,
                    }
                )
                + "\n"
            )
