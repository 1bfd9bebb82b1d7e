"""Point-selection baselines and design generators: uniform random, Sobol,
Latin hypercube (one-shot and sequential), regular grids, and truncated
Gaussian prior sampling.

Point collections are D x n matrices (points as columns), matching the
dataset layout; single points are 1-D arrays.  Every sampler and design
but the prior's maps the unit cube into its box by the `optimize` box rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .acquisition import InputPrior
from .optimize import check_box, from_unit_cube


class PoolExhaustedError(RuntimeError):
    """A sequential-LHS sampler ran out of pre-generated pool points."""


# Primitive polynomials and initial direction numbers for dimensions 2..8
# (dimension 1 is the van der Corput sequence in base 2).  Classic published
# table values: (degree s, polynomial coefficient bits a, m_1..m_s).
_SOBOL_TABLE = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
)

MAX_SOBOL_DIMENSION = len(_SOBOL_TABLE) + 1

_SOBOL_BITS = 32


def _direction_integers(dim_index: int) -> np.ndarray:
    """Direction integers (scaled by 2^32) for one Sobol dimension."""
    v = np.zeros(_SOBOL_BITS, dtype=np.uint64)
    if dim_index == 0:
        for k in range(_SOBOL_BITS):
            v[k] = np.uint64(1) << np.uint64(_SOBOL_BITS - 1 - k)
        return v
    s, a, m = _SOBOL_TABLE[dim_index - 1]
    for k in range(s):
        v[k] = np.uint64(m[k]) << np.uint64(_SOBOL_BITS - 1 - k)
    for k in range(s, _SOBOL_BITS):
        vk = v[k - s] ^ (v[k - s] >> np.uint64(s))
        for i in range(1, s):
            if (a >> (s - 1 - i)) & 1:
                vk ^= v[k - i]
        v[k] = vk
    return v


class SobolSampler:
    """Unscrambled Sobol sequence in Gray-code order, zero point skipped.

    Deterministic: the emitted stream does not depend on any seed.
    """

    def __init__(self, dimension: int, bounds):
        if not 1 <= dimension <= MAX_SOBOL_DIMENSION:
            raise ValueError(f"Sobol dimension must be in [1, {MAX_SOBOL_DIMENSION}], got {dimension}")
        self.dimension = dimension
        self.bounds = check_box(bounds, dimension)
        self._directions = np.vstack([_direction_integers(d) for d in range(dimension)])
        self._state = np.zeros(dimension, dtype=np.uint64)
        self._count = 0

    def next_point(self) -> np.ndarray:
        # Gray-code step: flip the direction of the lowest zero bit of the
        # previous index; index 0 (the all-zero point) is never emitted.
        c = 0
        n = self._count
        while n & 1:
            n >>= 1
            c += 1
        self._state = self._state ^ self._directions[:, c]
        self._count += 1
        point = self._state.astype(float) / float(1 << _SOBOL_BITS)
        return from_unit_cube(point, *self.bounds.T)


class UniformSampler:
    """I.i.d. uniform points in the box."""

    def __init__(self, dimension: int, bounds, seed: int = 0):
        self.dimension = dimension
        self.bounds = check_box(bounds, dimension)
        self._rng = np.random.default_rng(seed)

    def next_point(self) -> np.ndarray:
        return from_unit_cube(self._rng.random(self.dimension), *self.bounds.T)


class SequentialLhsSampler:
    """Pre-generates an LHS pool and emits its points one by one."""

    def __init__(self, dimension: int, pool_size: int, bounds, seed: int = 0):
        self.dimension = dimension
        self.pool_size = pool_size
        self._pool = lhs_design(dimension, pool_size, seed=seed, bounds=bounds)
        self._next = 0

    def next_point(self) -> np.ndarray:
        if self._next >= self.pool_size:
            raise PoolExhaustedError(f"sequential-LHS pool of {self.pool_size} points is exhausted")
        point = self._pool[:, self._next].copy()
        self._next += 1
        return point


class PriorSampler:
    """I.i.d. draws from a truncated-Gaussian input prior."""

    def __init__(self, prior: InputPrior, seed: int = 0):
        self.prior = prior
        self.dimension = prior.dimension
        self._rng = np.random.default_rng(seed)

    def next_point(self) -> np.ndarray:
        return _truncated_gaussian_draws(self.prior, 1, self._rng)[:, 0]


def sobol_sequence(dimension: int, n: int, bounds) -> np.ndarray:
    """First n Sobol points (zero point skipped) as columns, D x n."""
    sampler = SobolSampler(dimension, bounds)
    return np.column_stack([sampler.next_point() for _ in range(n)])


def lhs_design(dimension: int, n: int, seed: int = 0, *, bounds) -> np.ndarray:
    """Latin hypercube design: one point per stratum per dimension, D x n."""
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    rng = np.random.default_rng(seed)
    unit = np.empty((dimension, n))
    for d in range(dimension):
        strata = rng.permutation(n)
        unit[d] = (strata + rng.random(n)) / n
    box = check_box(bounds, dimension)
    return from_unit_cube(unit, box[:, :1], box[:, 1:])


def grid_design(dimension: int, m: int, bounds) -> np.ndarray:
    """Equally spaced lattice of m points including the box endpoints, D x m.

    For dimension > 1, m must be a perfect dimension-th power.
    """
    if m < 1:
        raise ValueError(f"need at least one point, got {m}")
    per_axis = round(m ** (1.0 / dimension))
    for candidate in (per_axis - 1, per_axis, per_axis + 1):
        if candidate >= 1 and candidate**dimension == m:
            per_axis = candidate
            break
    else:
        raise ValueError(f"{m} is not a perfect power for a {dimension}-dimensional lattice")
    if per_axis == 1:
        unit = np.full((dimension, 1), 0.5)
    else:
        axis = np.linspace(0.0, 1.0, per_axis)
        mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
        unit = np.vstack([g.ravel() for g in mesh])
    box = check_box(bounds, dimension)
    return from_unit_cube(unit, box[:, :1], box[:, 1:])


def _truncated_gaussian_draws(prior: InputPrior, n: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.random((prior.dimension, n))
    lo_cdf = prior._cdf_low[:, np.newaxis]
    hi_cdf = prior._cdf_high[:, np.newaxis]
    quantiles = lo_cdf + u * (hi_cdf - lo_cdf)
    samples = prior.mu[:, np.newaxis] + prior.sigma[:, np.newaxis] * ndtri(quantiles)
    # Inverse-CDF round-off can graze the truncation edges.
    return np.clip(samples, prior.low[:, np.newaxis], prior.high[:, np.newaxis])


def sample_truncated_gaussian(prior: InputPrior, n: int, seed: int = 0) -> np.ndarray:
    """n i.i.d. inverse-CDF samples from the prior, D x n; seed-deterministic."""
    rng = np.random.default_rng(seed)
    return _truncated_gaussian_draws(prior, n, rng)


def make_sampler(kind: str, dimension: int, bounds, seed: int = 0, pool_size: int | None = None, prior: InputPrior | None = None):
    """Sequential sampler factory keyed by strategy name."""
    if kind == "random":
        return UniformSampler(dimension, bounds, seed=seed)
    if kind == "sobol":
        return SobolSampler(dimension, bounds)
    if kind == "seq-lhs":
        if pool_size is None:
            raise ValueError("seq-lhs needs a pool size")
        return SequentialLhsSampler(dimension, pool_size, bounds=bounds, seed=seed)
    if kind == "prior-random":
        if prior is None:
            raise ValueError("prior-random needs an input prior")
        return PriorSampler(prior, seed=seed)
    raise ValueError(f"unknown sequential sampler kind: {kind!r}")
