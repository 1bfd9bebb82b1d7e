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
the partial result when a run fails.  Each dataset owns its nodes'
geometry: the fit reads it, and a candidate point is checked against the
nodes by `Dataset.duplicates`.  A fit whose dataset is the previous
searched fit's plus one node (as after a step of AMOGAPE or a sequential
baseline) is warm-started: the previous model's bandwidths are its
search's hint (see `multi_output.fit_all`); other fits search the full
grid.  A run checks its designs (`check_designs`) before it evaluates.

The settings every run of a comparison shares (budget, initial design,
optimizers, GP hyperparameters and seed) are `RunSettings`.  `LoopConfig`
adds one run's acquisition and convergence test, `harness.ExperimentConfig`
the simulator, strategies and test set of a comparison.
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
from .gp import Dataset, IllConditionedError, check_hyperparameters, single_lapack_thread
from .multi_output import MultiGpModel, fit_all, fit_single_node, predict_mean_matrix
from .optimize import OptimizerConfig, OptimizerFailure, from_unit_cube, in_box, maximize
from .samplers import grid_design, lhs_design, make_sampler, sobol_sequence
from .seeding import derive_seed
from .simulators import Simulator, SimulatorError

# Failures that end a run with a partial result instead of an exception: the
# simulator could not produce an output, a fit or the acquisition met a
# matrix beyond round-off, or a search's objective was not finite.
RUN_FAILURES = (SimulatorError, IllConditionedError, OptimizerFailure)

# Initial designs by name, which `_design` builds.  The first two are also
# the baselines that rebuild their whole design at every size.
NONSEQUENTIAL_BASELINES = ("grid", "lhs")
DESIGNS = NONSEQUENTIAL_BASELINES + ("sobol", "random", "prior-random")

# Acquisition searches per iteration before falling back to the best
# non-duplicate uniform probe.  Retrying pays: in toy-1D regression runs
# (nugget 0.02, 50-probe `random-then-ascent`, budget 16 from 4 points,
# 6 variants x seeds 0-19) one search per iteration halved the searches
# (2,883 to 1,440) but raised the mean test RMSE from 0.115 to 0.130.
MAX_DUPLICATE_RETRIES = 5


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """The settings every run of a comparison shares, with their checks (see the module docstring)."""

    budget: int  # maximum number of nodes M
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    hyper_strategy: str = "marginal-likelihood"
    nugget_policy: float | str = 0.0
    hyper_optimizer: OptimizerConfig | None = None  # accepted and ignored: every GP search is grid-then-Brent
    initial_points: np.ndarray | None = None  # D x m0, raw coordinates
    initial_sampler: str | None = None  # one of DESIGNS
    initial_size: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.initial_points is None:
            if self.initial_sampler is None or self.initial_size is None:
                raise ValueError("either initial_points or an initial sampler with a size is required")
            if self.initial_size < 1:
                raise ValueError(f"initial_design size must be >= 1, got {self.initial_size}")
            if self.initial_sampler not in DESIGNS:
                raise ValueError(f"unknown initial design {self.initial_sampler!r}; expected one of {DESIGNS}")
        m0 = self.initial_size if self.initial_points is None else np.shape(self.initial_points)[-1]
        if m0 > self.budget:
            raise ValueError(f"initial_design has {m0} points, more than the budget of {self.budget}")
        check_hyperparameters(self.hyper_strategy, self.nugget_policy)


@dataclass(frozen=True, kw_only=True)
class LoopConfig(RunSettings):
    acquisition: AcquisitionSpec = field(default_factory=AcquisitionSpec)
    convergence_epsilon: float | None = None
    convergence_probes: int = 1000

    def __post_init__(self) -> None:
        super().__post_init__()
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


def _design(kind: str, n: int, box: np.ndarray, seed: int, prior: InputPrior | None) -> np.ndarray:
    """n design points (D x n) of the named kind over the box."""
    if kind == "grid":
        return grid_design(len(box), n, bounds=box)
    if kind == "lhs":
        return lhs_design(len(box), n, seed=seed, bounds=box)
    sampler = make_sampler(kind, len(box), box, seed=seed, pool_size=n, prior=prior)
    return np.column_stack([sampler.next_point() for _ in range(n)])


def _initial_nodes(config: LoopConfig, box: np.ndarray) -> np.ndarray:
    """The initial design's nodes (D x m0): the given points, or the named design over the box."""
    if config.initial_points is not None:
        return np.atleast_2d(np.asarray(config.initial_points, dtype=float))
    seed, prior = derive_seed(config.seed, 0), config.acquisition.prior
    return _design(config.initial_sampler, int(config.initial_size), box, seed, prior)


def check_designs(config: LoopConfig, box: np.ndarray, baseline: str | None = None) -> LoopConfig:
    """`config`, once the designs of its run (a `baseline_run` of `baseline`, if given) are checked.

    It raises ValueError naming the setting at fault unless the prior's box
    lies in the simulator's `box`, so that no draw leaves it; the initial
    design builds as the run builds it (`_design`) into finite, distinct
    points of `box`; and `baseline`'s designs build (`check_baseline_designs`).
    """
    prior = config.acquisition.prior
    if prior is not None:  # no draw leaves `box` if the prior's corners do not
        prior_box = np.column_stack([prior.low, prior.high])
        if prior.dimension != len(box) or not in_box(prior_box, box):
            message = f"the prior's box {prior_box.tolist()} leaves the simulator's box {box.tolist()}"
            raise ValueError(f"acquisition.prior: {message}")
    try:
        nodes = _initial_nodes(config, box)
        if len(nodes) != len(box):
            raise ValueError(f"points have dimension {len(nodes)}, the simulator expects {len(box)}")
        Dataset(nodes, np.empty((0, nodes.shape[1])), box)
    except ValueError as exc:
        raise ValueError(f"initial_design: {exc}") from exc
    if baseline is not None:
        check_baseline_designs(config, box, baseline)
    return config


def check_baseline_designs(config: LoopConfig, box: np.ndarray, baseline: str) -> None:
    """Build the designs of a `baseline_run` of `baseline` but the initial one: its sampler, or each size's redesign."""
    for t in range(1, config.budget + 1) if baseline in NONSEQUENTIAL_BASELINES else [1]:
        _design(baseline, t, box, 0, config.acquisition.prior)


def _evaluated(points: np.ndarray, sim: Simulator) -> Dataset:
    outputs = np.column_stack([sim.evaluate(points[:, i]) for i in range(points.shape[1])])
    return Dataset(points, outputs, sim.bounds)


def _fit(dataset: Dataset, config: LoopConfig, hint=None) -> MultiGpModel:
    """Fit every output; `hint`, bandwidths to search near first, is passed on to `fit_all`."""
    if dataset.n_nodes < 2:
        nugget = 0.0 if config.nugget_policy == "learned" else float(config.nugget_policy)
        return fit_single_node(dataset, nugget=nugget)
    return fit_all(dataset, hyper_strategy=config.hyper_strategy, nugget_policy=config.nugget_policy, hint=hint)


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
        if not dataset.duplicates(x_star)[0]:
            return x_star, value
    # Every optimizer attempt landed on an existing node (possible in
    # regression mode); fall back to the best non-duplicate uniform probe.
    rng = np.random.default_rng(derive_seed(config.seed, 3, t))
    probes = from_unit_cube(rng.random((max(config.optimizer.n_random or 0, 100), len(bounds))), *bounds.T)
    probes = probes[~dataset.duplicates(probes.T)]
    if not probes.size:
        raise RuntimeError("could not find a non-duplicate candidate point")
    values = batch_objective(probes)
    best = int(np.argmax(values))
    return probes[best], float(values[best])


@single_lapack_thread()
def _drive(config: LoopConfig, sim: Simulator, start, step, iteration_hook) -> EmulationResult:
    """The loop every strategy shares.

    `start()` returns the evaluated initial dataset, or None when the first
    step builds the whole design.  `step(model, dataset, t)` returns the
    evaluated dataset of iteration t and the acquisition value of its new
    node (None when no acquisition chose it).  The loop fits after the
    start and after every step.  A fit whose dataset is the previous
    searched model's plus one node is warm-started: it passes that model's
    bandwidths to `fit_all` as its hint.  It calls `iteration_hook(n_nodes,
    model)` after every fit, and records one IterationRecord per step.  With
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
            with np.errstate(over="ignore"):  # an overflow's inf ends a search as an OptimizerFailure
                dataset, value = (start(), None) if t == 0 else step(model, dataset, t)
                if dataset is None:
                    continue
                warm = model is not None and model.dataset.n_nodes > 1
                hint = model.bandwidths if warm and np.array_equal(dataset.X[:, :-1], model.dataset.X) else None
                model = _fit(dataset, config, hint=hint)
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
    and for the partial result of a failed run.  Every run holds scipy's
    LAPACK at one thread, so a seeded run is the same bit for bit at any
    thread count.
    """

    def acquire(model, dataset, t):
        x_star, value = _choose_next_point(config, model, dataset, sim.bounds, t)
        return dataset.with_node(x_star, sim.evaluate(x_star)), value

    check_designs(config, sim.bounds)
    return _drive(config, sim, lambda: _evaluated(_initial_nodes(config, sim.bounds), sim), acquire, iteration_hook)


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
    (M^2 + M) / 2.  `sequential` must agree with the kind, or ValueError
    is raised before any evaluation.  Hook, trace, convergence and
    failures are those of `run` (see `_drive`).
    """
    if sequential == (sampler_kind in NONSEQUENTIAL_BASELINES):
        kind = "sequential" if sequential else "non-sequential"
        raise ValueError(f"{sampler_kind!r} is not a {kind} baseline; the non-sequential ones are {NONSEQUENTIAL_BASELINES}")
    check_designs(config, sim.bounds, sampler_kind)
    if not sequential:

        def redesign(model, dataset, t):
            points = _design(sampler_kind, t, sim.bounds, derive_seed(config.seed, 5, t), None)
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
        while dataset.duplicates(x_next)[0]:
            x_next = sampler.next_point()
        return dataset.with_node(x_next, sim.evaluate(x_next)), None

    return _drive(config, sim, lambda: _evaluated(_initial_nodes(config, sim.bounds), sim), next_sample, iteration_hook)


def write_lut_csv(dataset: Dataset, path) -> None:
    """Final node set as CSV with header x1..xD,y1..yP (full float precision)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [f"x{i + 1}" for i in range(dataset.dimension)]
            + [f"y{j + 1}" for j in range(dataset.n_outputs)]
        )
        for x, y in zip(dataset.X.T, dataset.Y.T):
            writer.writerow([repr(float(v)) for v in (*x, *y)])


def write_trace_ndjson(trace, path) -> None:
    """Per-iteration records, one JSON object per line."""
    with open(path, "w") as handle:
        for record in trace:
            handle.write(json.dumps(dataclasses.asdict(record)) + "\n")
