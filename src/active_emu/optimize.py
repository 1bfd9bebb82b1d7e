"""Global maximization over a box: random search + gradient ascent, and
simulated annealing.

The loop maximizes the acquisition with it.  The hyperparameter search
calls it only for the learned nugget's 2-D marginal-likelihood search; a
fixed nugget is searched on a grid without it.  Both strategies are
deterministic given the seed.
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
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8


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


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"bounds must have shape (D, 2), got {bounds.shape}")
    lo, hi = bounds[:, 0], bounds[:, 1]
    if not np.all(hi > lo):
        raise ValueError("each bound must satisfy low < high")
    return lo, hi


def _evaluate(objective, x: np.ndarray) -> float:
    value = float(objective(x))
    if not np.isfinite(value):
        raise OptimizerFailure(f"objective returned non-finite value {value} at {x.tolist()}", point=x)
    return value


def _finite_difference_gradient(objective, x, lo, hi, step_fraction=1e-7):
    grad = np.empty_like(x)
    h = step_fraction * (hi - lo)
    for d in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[d] = min(x[d] + h[d], hi[d])
        xm[d] = max(x[d] - h[d], lo[d])
        span = xp[d] - xm[d]
        grad[d] = 0.0 if span == 0.0 else (objective(xp) - objective(xm)) / span
    return grad


def _ascent(objective, gradient, x0, f0, lo, hi, cfg: AscentConfig):
    width = hi - lo
    x, fx = x0.copy(), f0
    step = cfg.initial_step_fraction
    for _ in range(cfg.max_iterations):
        g = gradient(x) if gradient is not None else _finite_difference_gradient(objective, x, lo, hi)
        g = np.asarray(g, dtype=float)
        gnorm = float(np.linalg.norm(g))
        if gnorm < cfg.gradient_tolerance:
            break
        direction = g / gnorm
        improved = False
        trial = step
        while trial > 1e-12:
            cand = np.clip(x + trial * width * direction, lo, hi)
            fc = _evaluate(objective, cand)
            if fc > fx:
                x, fx = cand, fc
                step = trial  # keep the successful scale for the next iterate
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
    return x, fx


def _random_then_ascent(objective, gradient, batch_objective, lo, hi, cfg: OptimizerConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_random if cfg.n_random is not None else 10 ** lo.size
    probes = lo + rng.random((n, lo.size)) * (hi - lo)
    if batch_objective is None:
        values = np.array([_evaluate(objective, p) for p in probes])
        best = int(np.argmax(values))
        x0, f0 = probes[best], float(values[best])
    else:
        values = np.asarray(batch_objective(probes), dtype=float)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            x = probes[bad[0]]
            raise OptimizerFailure(
                f"batch objective returned non-finite value {values[bad[0]]} at {x.tolist()}", point=x
            )
        x0 = probes[int(np.argmax(values))]
        f0 = _evaluate(objective, x0)  # the ascent starts from the per-point value
    x, fx = _ascent(objective, gradient, x0, f0, lo, hi, cfg.ascent)
    if fx > f0:
        return x, fx
    return x0, f0


def _simulated_annealing(objective, lo, hi, cfg: OptimizerConfig):
    rng = np.random.default_rng(cfg.seed)
    ann = cfg.annealing
    width = hi - lo

    x = lo + rng.random(lo.size) * width
    fx = _evaluate(objective, x)
    best_x, best_f = x.copy(), fx

    temperature = ann.initial_temperature
    if temperature is None:
        probes = lo + rng.random((20, lo.size)) * width
        spread = np.ptp([_evaluate(objective, p) for p in probes])
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
            cand = lo + rng.random(lo.size) * width
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
    return best_x, best_f


def _reflect(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Fold a point back into the box by reflection at the walls."""
    width = hi - lo
    period = 2.0 * width
    y = np.mod(x - lo, period)
    y = np.where(y > width, period - y, y)
    return lo + y


def maximize(objective, bounds, config: OptimizerConfig, gradient=None, batch_objective=None):
    """Maximize `objective` over the box; returns (argmax, value).

    `gradient` is an optional callable returning the analytic gradient; when
    absent, the ascent phase falls back to central finite differences.

    `batch_objective` is an optional callable mapping an n x D block of
    points to their n values.  `random-then-ascent` then ranks its random
    probes with one batch call instead of n calls of `objective`.  A batch
    form may round differently from `objective` (the acquisition's n-column
    solve may round differently from a 1-column solve on other BLAS builds),
    so the winning probe is re-scored with `objective` and the ascent starts
    from exactly the value it would start from without the batch form: the
    result is the same unless two probes tie within that rounding.
    Simulated annealing ignores it.
    """
    lo, hi = _check_bounds(bounds)
    if config.strategy == "random-then-ascent":
        return _random_then_ascent(objective, gradient, batch_objective, lo, hi, config)
    return _simulated_annealing(objective, lo, hi, config)
