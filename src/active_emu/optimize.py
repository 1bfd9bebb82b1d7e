"""Global maximization over a box: random search + gradient ascent with an
analytic gradient, and simulated annealing.

The loop maximizes the acquisition with it; the GP hyperparameters are
searched on grids without it.  Both strategies are deterministic given the
seed.

The package's box rule: a box passes `check_box`, a point is in it by
`in_box` (bounds included, no slack), and unit-cube points reach it only
through `from_unit_cube`, which never returns a value above the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


class OptimizerFailure(RuntimeError):
    """Objective returned a non-finite value; carries the offending point."""

    def __init__(self, message: str, point: np.ndarray | None = None):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class AscentConfig:
    """Projected gradient-ascent settings (backtracking line search)."""

    initial_step_fraction: float = 0.1  # of the box width
    max_iterations: int = 200  # 0: no ascent, the random search alone
    gradient_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_step_fraction < np.inf:
            raise ValueError(f"ascent step must be positive and finite, got {self.initial_step_fraction}")
        if self.max_iterations < 0:
            raise ValueError(f"ascent iterations must be >= 0, got {self.max_iterations}")
        if not self.gradient_tolerance >= 0.0:
            raise ValueError(f"gradient tolerance must be >= 0, got {self.gradient_tolerance}")


@dataclass(frozen=True)
class AnnealingConfig:
    """Metropolis random walk with geometric cooling and reflecting walls.

    The first half of the chain explores at the full proposal scale; the
    second half restarts from the best point visited and shrinks the
    proposal geometrically (down to 1e-3 of the initial scale) so the
    maximum is refined locally instead of hopped over.
    """

    iterations: int = 2000
    initial_temperature: float | None = None  # None: objective spread over 20 probes
    cooling: float = 0.995
    proposal_fraction: float = 0.1  # initial proposal sigma, fraction of box width

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling factor must lie in (0, 1)")
        if not 0.0 < self.proposal_fraction < np.inf:
            raise ValueError(f"proposal scale must be positive and finite, got {self.proposal_fraction}")
        if self.initial_temperature is not None and not 0.0 <= self.initial_temperature < np.inf:
            raise ValueError(f"initial temperature must be >= 0 and finite, got {self.initial_temperature}")


@dataclass(frozen=True)
class OptimizerConfig:
    strategy: str = "random-then-ascent"  # or "simulated-annealing"
    n_random: int | None = None  # None: 10**D
    ascent: AscentConfig = field(default_factory=AscentConfig)
    annealing: AnnealingConfig = field(default_factory=AnnealingConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("random-then-ascent", "simulated-annealing"):
            raise ValueError(f"unknown optimizer strategy: {self.strategy!r}")
        if self.n_random is not None and self.n_random < 1:
            raise ValueError("n_random must be >= 1")

    def with_seed(self, seed: int) -> "OptimizerConfig":
        return replace(self, seed=seed)


def check_box(bounds, dimension: int | None = None) -> np.ndarray:
    """`bounds` as a (D, 2) float array of [low, high] rows, D = `dimension` if given; finite, with low < high."""
    box = np.asarray(bounds, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or dimension not in (None, box.shape[0]):
        raise ValueError(f"bounds must have shape ({'D' if dimension is None else dimension}, 2), got {box.shape}")
    if not (np.isfinite(box).all() and (box[:, 0] < box[:, 1]).all()):
        raise ValueError(f"bounds must be finite with low < high in every row, got {box.tolist()}")
    return box


def in_box(points, box: np.ndarray) -> bool:
    """Whether every point lies in the checked box, bounds included: columns (D x n) or one point (D,)."""
    points = np.reshape(points, (len(box), -1))
    return bool(((box[:, :1] <= points) & (points <= box[:, 1:])).all())


def from_unit_cube(unit, lo, hi) -> np.ndarray:
    """lo + unit (hi - lo), clamped to hi against round-off; lo, hi are (D,) for rows, (D, 1) for columns."""
    return np.minimum(lo + unit * (hi - lo), hi)


def _checked(value, x: np.ndarray) -> float:
    """The objective's value at x as a float; OptimizerFailure if it is not finite."""
    value = float(value)
    if not np.isfinite(value):
        raise OptimizerFailure(f"objective returned non-finite value {value} at {x.tolist()}", point=x)
    return value


def _evaluate(objective, x: np.ndarray) -> float:
    return _checked(objective(x), x)


def _values(objective, batch_objective, points: np.ndarray) -> np.ndarray:
    """Values at the rows of points: one call of `batch_objective`, else one call of `objective` per row."""
    if batch_objective is None:
        return np.array([_evaluate(objective, p) for p in points])
    values = np.asarray(batch_objective(points), dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        x = points[bad[0]]
        raise OptimizerFailure(f"batch objective returned non-finite value {values[bad[0]]} at {x.tolist()}", point=x)
    return values


def _ascent(evaluate, x0, lo, hi, cfg: AscentConfig):
    """Projected gradient ascent from x0 with a backtracking line search; returns (x, value).

    `evaluate(x)` returns the value and the gradient at x.  It is called
    once at x0 and once per trial point, so an accepted point's gradient
    comes from the evaluation that accepted it.
    """
    width = hi - lo
    x = x0.copy()
    fx, g = evaluate(x)
    step = cfg.initial_step_fraction
    for _ in range(cfg.max_iterations):
        gnorm = float(np.linalg.norm(g))
        if gnorm < cfg.gradient_tolerance:
            break
        direction = g / gnorm
        trial = step
        while trial > 1e-12:
            cand = np.clip(x + trial * width * direction, lo, hi)
            fc, gc = evaluate(cand)
            if fc > fx:
                x, fx, g = cand, fc, gc
                step = trial  # keep the successful scale for the next iterate
                break
            trial *= 0.5
        else:
            break
    return x, fx


def _random_then_ascent(objective, evaluate, batch_objective, lo, hi, cfg: OptimizerConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_random if cfg.n_random is not None else 10 ** lo.size
    probes = from_unit_cube(rng.random((n, lo.size)), lo, hi)
    x0 = probes[int(np.argmax(_values(objective, batch_objective, probes)))]
    return _ascent(evaluate, x0, lo, hi, cfg.ascent)


def _simulated_annealing(objective, batch_objective, lo, hi, cfg: OptimizerConfig):
    rng = np.random.default_rng(cfg.seed)
    ann = cfg.annealing
    width = hi - lo

    # The start point, then (without a set temperature) 20 probes whose
    # spread sets it, drawn and scored together.
    temperature = ann.initial_temperature
    points = from_unit_cube(rng.random((1 if temperature is not None else 21, lo.size)), lo, hi)
    x = points[0]
    values = _values(objective, batch_objective, points)
    fx = float(values[0])
    best_x, best_f = x.copy(), fx
    if temperature is None:
        spread = np.ptp(values[1:])
        temperature = float(spread) if spread > 0.0 else 1.0

    sigma = ann.proposal_fraction * width
    explore = ann.iterations // 2
    refine = ann.iterations - explore
    shrink = (1e-3) ** (1.0 / max(refine, 1))
    for iteration in range(ann.iterations):
        if iteration == explore:
            x, fx = best_x.copy(), best_f  # refine around the best point seen
        if iteration < explore and rng.random() < 0.1:
            # occasional global jump so distant basins stay reachable
            cand = from_unit_cube(rng.random(lo.size), lo, hi)
        else:
            cand = x + rng.normal(size=lo.size) * sigma
            cand = _reflect(cand, lo, hi)
        fc = _evaluate(objective, cand)
        if fc > best_f:
            best_x, best_f = cand.copy(), fc
        if fc >= fx or (temperature > 0.0 and rng.random() < np.exp((fc - fx) / temperature)):
            x, fx = cand, fc
        temperature *= ann.cooling
        if iteration >= explore:
            sigma = sigma * shrink
    return np.clip(best_x, lo, hi), best_f  # a reflected step may round 1 ulp above hi


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fold a point back into the box by reflection at the walls; round-off may put it 1 ulp above hi."""
    width = hi - lo
    period = 2.0 * width
    y = np.mod(x - lo, period)
    y = np.where(y > width, period - y, y)
    return lo + y


def maximize(objective, bounds, config: OptimizerConfig, value_and_gradient=None, batch_objective=None):
    """Maximize `objective` over the box; returns (argmax, value).

    `value_and_gradient` is a callable returning the value and the analytic
    gradient at a point, from one evaluation; the ascent calls it once at
    its start and once per trial point.  `random-then-ascent` needs it and
    raises ValueError without it, before any evaluation; simulated
    annealing ignores it.

    `batch_objective` is an optional callable mapping an n x D block of
    points to their n values.  `random-then-ascent` then ranks its random
    probes with one batch call instead of n calls of `objective`, and
    simulated annealing scores its start point and its temperature probes
    with one.  A batch form may round differently from `objective` (the
    acquisition's n-column solve may round differently from a 1-column
    solve on other BLAS builds).  The ascent starts from the winning
    probe's value as `value_and_gradient` gives it, so its result is the
    same unless two probes tie within that rounding; annealing takes the
    block's values as they are, so its result is the same where the block
    form equals `objective` row for row, as the acquisition's does.
    """
    lo, hi = check_box(bounds).T
    if config.strategy == "simulated-annealing":
        return _simulated_annealing(objective, batch_objective, lo, hi, config)
    if value_and_gradient is None:
        raise ValueError("random-then-ascent needs value_and_gradient, an analytic gradient")

    def evaluate(x):
        value, gradient = value_and_gradient(x)
        return _checked(value, x), np.asarray(gradient, dtype=float)

    return _random_then_ascent(objective, evaluate, batch_objective, lo, hi, config)
