"""The emulation loop: fit, pick the next design, simulate, repeat until
the node budget or the successive-model convergence criterion is reached.

AMOGAPE and every baseline run through one loop, `_drive`, and differ
only in their start and their step.  The start is the initial design
(nothing for a non-sequential baseline).  The step returns the next
evaluated dataset: AMOGAPE adds the acquisition maximizer, a sequential
baseline adds its sampler's next point, and a non-sequential baseline
('grid', 'lhs') evaluates a fresh design of size t at iteration t, paying
the full quadratic evaluation cost.  `_drive` owns the rest: evaluation
accounting, the fits and the hook, the trace, the convergence test, and
the partial result when a run fails.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import (
    AcquisitionSpec,
    InputPrior,
    acquisition_gradient,
    acquisition_value,
    acquisition_values,
    beta_at,
)
from .gp import DUPLICATE_TOLERANCE, Dataset, IllConditionedError, check_hyperparameters
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

# Designs `_design` builds by name.  The first two are also the baselines
# that rebuild their whole design at every size.
NONSEQUENTIAL_BASELINES = ("grid", "lhs")
DESIGNS = NONSEQUENTIAL_BASELINES + ("sobol", "random", "prior-random")

# Acquisition searches per iteration before falling back to the best
# non-duplicate uniform probe.
MAX_DUPLICATE_RETRIES = 5


def check_design(kind, prior: InputPrior | None) -> None:
    """Raise ValueError unless `_design` can build the named design."""
    if kind not in DESIGNS:
        raise ValueError(f"unknown initial design {kind!r}; expected one of {DESIGNS}")
    if kind == "prior-random" and prior is None:
        raise ValueError("the prior-random design needs an input prior")


@dataclass(frozen=True)
class LoopConfig:
    budget: int  # maximum number of nodes M
    acquisition: AcquisitionSpec = field(default_factory=AcquisitionSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper_strategy: str = "marginal-likelihood"
    nugget_policy: float | str = 0.0
    hyper_optimizer: OptimizerConfig | None = None  # the learned nugget's search only
    initial_points: np.ndarray | None = None  # D x m0, raw coordinates
    initial_sampler: str | None = None  # one of DESIGNS
    initial_size: int | None = None
    convergence_epsilon: float | None = None
    convergence_probes: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.initial_points is None:
            if self.initial_sampler is None or self.initial_size is None:
                raise ValueError("either initial_points or an initial sampler with a size is required")
            if self.initial_size < 1:
                raise ValueError(f"initial_design size must be >= 1, got {self.initial_size}")
            check_design(self.initial_sampler, self.acquisition.prior)
        m0 = self.initial_size if self.initial_points is None else np.shape(self.initial_points)[-1]
        if m0 > self.budget:
            raise ValueError(f"initial_design has {m0} points, more than the budget of {self.budget}")
        check_hyperparameters(self.hyper_strategy, self.nugget_policy)
        if self.convergence_epsilon is not None and not self.convergence_epsilon > 0.0:
            raise ValueError("convergence threshold must be positive")
        if self.convergence_probes < 1:
            raise ValueError(f"convergence probe_points must be >= 1, got {self.convergence_probes}")


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


def _design(kind: str, n: int, sim: Simulator, seed: int, prior: InputPrior | None) -> np.ndarray:
    """n design points (D x n) of the named kind over the simulator's box."""
    if kind == "grid":
        return grid_design(sim.dimension, n, bounds=sim.bounds)
    if kind == "lhs":
        return lhs_design(sim.dimension, n, seed=seed, bounds=sim.bounds)
    if kind == "sobol":
        return sobol_sequence(sim.dimension, n, bounds=sim.bounds)
    sampler = make_sampler(kind, sim.dimension, sim.bounds, seed=seed, prior=prior)
    return np.column_stack([sampler.next_point() for _ in range(n)])


def _evaluated(points: np.ndarray, sim: Simulator) -> Dataset:
    outputs = np.column_stack([sim.evaluate(points[:, i]) for i in range(points.shape[1])])
    return Dataset(points, outputs, sim.bounds)


def _initial_dataset(config: LoopConfig, sim: Simulator) -> Dataset:
    if config.initial_points is not None:
        points = np.atleast_2d(np.asarray(config.initial_points, dtype=float))
    else:
        points = _design(
            config.initial_sampler, int(config.initial_size), sim,
            derive_seed(config.seed, 0), config.acquisition.prior,
        )
    return _evaluated(points, sim)


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


def _duplicates(dataset: Dataset, points: np.ndarray) -> np.ndarray:
    """Whether each row of points (n x D, raw) lies within DUPLICATE_TOLERANCE of a node."""
    sq = squared_distances(dataset.normalize(dataset.X), dataset.normalize(points.T))
    return sq.min(axis=0) < DUPLICATE_TOLERANCE**2


def _is_duplicate(dataset: Dataset, x: np.ndarray) -> bool:
    return bool(_duplicates(dataset, np.asarray(x, dtype=float).reshape(1, -1))[0])


def _choose_next_point(
    config: LoopConfig, model: MultiGpModel, dataset: Dataset, bounds, t: int
) -> tuple[np.ndarray, float]:
    """Maximize the acquisition at iteration t; returns the point and its value.

    The search scores blocks of points (its random probes, or annealing's
    start and temperature probes) with the block form `acquisition_values`,
    whose rows equal the one-row `acquisition_value` bit for bit.  The
    gradient ascent takes each point's value and gradient from one call of
    `acquisition_gradient` (see `optimize.maximize`).  The callables are
    bound here, to the names this module holds, so that a wrapper put in
    their place sees every call.  When every search lands on a node, the
    fallback scores its uniform probes that are not nodes in one block and
    keeps the first best.
    """
    spec = config.acquisition
    objective = functools.partial(acquisition_value, spec, model, t=t)
    value_and_gradient = functools.partial(acquisition_gradient, spec, model, t=t)
    batch_objective = functools.partial(acquisition_values, spec, model, t=t)
    for attempt in range(MAX_DUPLICATE_RETRIES):
        opt_config = config.optimizer.with_seed(derive_seed(config.seed, 2, t, attempt))
        x_star, value = maximize(
            objective, bounds, opt_config, value_and_gradient=value_and_gradient, batch_objective=batch_objective
        )
        if not _is_duplicate(dataset, x_star):
            return x_star, value
    # Every optimizer attempt landed on an existing node (possible in
    # regression mode); fall back to the best non-duplicate uniform probe.
    rng = np.random.default_rng(derive_seed(config.seed, 3, t))
    lo, hi = bounds[:, 0], bounds[:, 1]
    probes = lo + rng.random((max(config.optimizer.n_random or 0, 100), lo.size)) * (hi - lo)
    probes = probes[~_duplicates(dataset, probes)]
    if not probes.size:
        raise RuntimeError("could not find a non-duplicate candidate point")
    values = batch_objective(probes)
    best = int(np.argmax(values))
    return probes[best], float(values[best])


def _drive(config: LoopConfig, sim: Simulator, start, step, iteration_hook) -> EmulationResult:
    """The loop every strategy shares.

    `start()` returns the evaluated initial dataset, or None when the first
    step builds the whole design.  `step(model, dataset, t)` returns the
    evaluated dataset of iteration t and the acquisition value of its new
    node (None when no acquisition chose it).  The loop fits after the
    start and after every step, calls `iteration_hook(n_nodes, model)`
    after every fit, and records one IterationRecord per step.  With
    `convergence_epsilon` set it stops once the mean predictions on a Sobol
    probe set move by at most that RMS between successive models.  A
    failure of RUN_FAILURES ends the run with a partial result: the trace
    so far, every node evaluated so far and the last model that fitted
    (None if none did).
    """
    evals_before = sim.eval_count
    trace: list[IterationRecord] = []
    dataset = model = previous = None
    converged = False
    if config.convergence_epsilon is not None:
        probes = sobol_sequence(sim.dimension, config.convergence_probes, bounds=sim.bounds)
    for t in itertools.count():
        started = time.perf_counter()
        try:
            dataset, value = (start(), None) if t == 0 else step(model, dataset, t)
            if dataset is None:
                continue
            model = _fit(dataset, config, t)
        except RUN_FAILURES as exc:
            return EmulationResult(dataset, model, trace, sim.eval_count - evals_before, failure=str(exc))
        if t > 0:
            trace.append(
                IterationRecord(
                    iteration=t,
                    n_nodes=dataset.n_nodes,
                    x=tuple(float(v) for v in dataset.X[:, -1]),
                    acquisition_value=None if value is None else float(value),
                    beta=None if value is None else beta_at(config.acquisition.tempering, t),
                    bandwidths=model.bandwidths,
                    wall_time=time.perf_counter() - started,
                )
            )
        if iteration_hook is not None:
            iteration_hook(dataset.n_nodes, model)
        if config.convergence_epsilon is not None:
            predictions = predict_mean_matrix(model, probes)
            if previous is not None:
                rms = float(np.sqrt(np.mean((predictions - previous) ** 2)))
                converged = rms <= config.convergence_epsilon
            previous = predictions
        if converged or dataset.n_nodes >= config.budget:
            break
    return EmulationResult(dataset, model, trace, sim.eval_count - evals_before, converged=converged)


def run(config: LoopConfig, sim: Simulator, iteration_hook=None) -> EmulationResult:
    """Run the active loop: each step adds the acquisition maximizer.

    `iteration_hook(n_nodes, model)` is called after every fit, letting
    callers track metrics without refitting.  See `_drive` for convergence
    and for the partial result of a failed run.
    """

    def acquire(model, dataset, t):
        x_star, value = _choose_next_point(config, model, dataset, sim.bounds, t)
        return dataset.with_node(x_star, sim.evaluate(x_star)), value

    return _drive(config, sim, lambda: _initial_dataset(config, sim), acquire, iteration_hook)


def baseline_run(
    sampler_kind: str,
    sequential: bool,
    config: LoopConfig,
    sim: Simulator,
    iteration_hook=None,
) -> EmulationResult:
    """Run the loop with a sampling strategy instead of the acquisition.

    A sequential baseline starts from the initial design and each step adds
    its sampler's next point that is not already a node.  A non-sequential
    baseline ('grid', 'lhs') has no start: step t evaluates a fresh design
    of size t, so its cumulative simulator cost over m = 1..M is
    (M^2 + M) / 2.  Hook, trace, convergence and failures are those of
    `run` (see `_drive`).
    """
    if not sequential:
        if sampler_kind not in NONSEQUENTIAL_BASELINES:
            raise ValueError(
                f"non-sequential baseline must be one of {NONSEQUENTIAL_BASELINES}, got {sampler_kind!r}"
            )

        def redesign(model, dataset, t):
            points = _design(sampler_kind, t, sim, derive_seed(config.seed, 5, t), None)
            return _evaluated(points, sim), None

        return _drive(config, sim, lambda: None, redesign, iteration_hook)

    sampler = None

    def next_sample(model, dataset, t):
        # Built at the first step, so that an initial design that already
        # fills the budget needs no sampler (seq-lhs cannot build an empty pool).
        nonlocal sampler
        if sampler is None:
            sampler = make_sampler(
                sampler_kind,
                sim.dimension,
                sim.bounds,
                seed=derive_seed(config.seed, 4),
                pool_size=config.budget - dataset.n_nodes,
                prior=config.acquisition.prior,
            )
        x_next = sampler.next_point()
        while _is_duplicate(dataset, x_next):
            x_next = sampler.next_point()
        return dataset.with_node(x_next, sim.evaluate(x_next)), None

    return _drive(config, sim, lambda: _initial_dataset(config, sim), next_sample, iteration_hook)


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
            handle.write(json.dumps(dataclasses.asdict(record)) + "\n")
