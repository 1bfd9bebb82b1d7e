"""Acquisition functions: tempered product of a geometry term (per-output
gradient norms) and a diversity term (per-output predictive variances),
optionally weighted by a truncated-Gaussian input prior.

Six variants arise from combining the per-output terms by sum or product:
SD, PD, SDxSG, SDxPG, PDxSG, PDxPG.  The value is zero at every node in
interpolation mode; in regression mode the diversity term defaults to the
noise-free variance so that the same holds.

One function, `_acquisition`, computes every value and gradient from one
block evaluation of the GPs (`gp.evaluate`) and one combination rule
(`_combine_rows`); the three public forms are thin calls of it.  The
acquisition search scores its random probes with the block form, which
evaluates at most MAX_BLOCK_ENTRIES kernel entries at a time.  The
gradient ascent then takes the value and the gradient of each point it
visits from one evaluation of its one-row block (`acquisition_gradient`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import gp
from .multi_output import MultiGpModel
from .optimize import check_box

_VARIANT_OPS = {
    "SD": ("sum", "none"),
    "PD": ("product", "none"),
    "SDxSG": ("sum", "sum"),
    "SDxPG": ("sum", "product"),
    "PDxSG": ("product", "sum"),
    "PDxPG": ("product", "product"),
}

VARIANT_NAMES = tuple(_VARIANT_OPS)

# Largest P * n * m of one block evaluation, whose kernel block and solves
# take 16 bytes per entry: 2 MB, which a 100-point block of the nine-output
# fixture at m = 130 stays below.
MAX_BLOCK_ENTRIES = 2**17


@dataclass(frozen=True)
class TemperingSchedule:
    """Exponent schedule beta_t in [0, 1], non-decreasing in t."""

    kind: str  # constant | one-minus-inverse-t | one-minus-exp
    beta: float = 1.0  # for constant
    gamma: float = 1.0  # for one-minus-exp

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "one-minus-inverse-t", "one-minus-exp"):
            raise ValueError(f"unknown kind: {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"constant beta must lie in [0, 1], got {self.beta}")
        if self.kind == "one-minus-exp" and not self.gamma >= 0.0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    @classmethod
    def constant(cls, beta: float) -> "TemperingSchedule":
        return cls(kind="constant", beta=beta)

    @classmethod
    def one_minus_inverse_t(cls) -> "TemperingSchedule":
        return cls(kind="one-minus-inverse-t")

    @classmethod
    def one_minus_exp(cls, gamma: float) -> "TemperingSchedule":
        return cls(kind="one-minus-exp", gamma=gamma)


def beta_at(schedule: TemperingSchedule, t: int) -> float:
    """Tempering exponent at iteration t >= 1."""
    if t < 1:
        raise ValueError(f"iteration index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return schedule.beta
    if schedule.kind == "one-minus-inverse-t":
        return 1.0 - 1.0 / t
    return 1.0 - math.exp(-schedule.gamma * t)


@dataclass(frozen=True)
class InputPrior:
    """Independent truncated Gaussians per input dimension."""

    mu: np.ndarray
    sigma: np.ndarray
    low: np.ndarray
    high: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "low", "high"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).ravel())
        shapes = {self.mu.shape, self.sigma.shape, self.low.shape, self.high.shape}
        if len(shapes) != 1:
            raise ValueError("mu, sigma, low, high must all have the same length")
        for d, (mu, sigma) in enumerate(zip(self.mu, self.sigma)):
            if not np.isfinite(mu):
                raise ValueError(f"dimension {d}: mu must be finite, got {mu}")
            if not 0.0 < sigma < np.inf:
                raise ValueError(f"dimension {d}: sigma must be positive and finite, got {sigma}")
        check_box(np.column_stack([self.low, self.high]))  # min < max in every dimension
        zl = (self.low - self.mu) / self.sigma
        zh = (self.high - self.mu) / self.sigma
        # A box in the upper tail (zl > 0) is taken in the lower tail of -z,
        # where ndtr keeps its resolution: ndtr(zh) - ndtr(zl) cancels there.
        upper = zl > 0.0
        zl, zh = np.where(upper, -zh, zl), np.where(upper, -zl, zh)
        mass = ndtr(zh) - ndtr(zl)
        empty = np.flatnonzero(~(mass > 0.0))
        if empty.size:
            d = empty[0]
            raise ValueError(
                f"dimension {d}: the prior's mass on [{self.low[d]}, {self.high[d]}] "
                f"(mu {self.mu[d]}, sigma {self.sigma[d]}) rounds to zero"
            )
        object.__setattr__(self, "_log_norm", np.log(self.sigma) + 0.5 * np.log(2.0 * np.pi) + np.log(mass))
        object.__setattr__(self, "_cdf_low", ndtr(zl))
        object.__setattr__(self, "_cdf_high", ndtr(zh))
        object.__setattr__(self, "_draw_scale", np.where(upper, -self.sigma, self.sigma))

    @property
    def dimension(self) -> int:
        return self.mu.size

    def densities(self, X) -> np.ndarray:
        """Joint truncated-normal density at each row of X (n x D); zero outside the box."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        inside = np.all((X >= self.low) & (X <= self.high), axis=1)
        z = (X - self.mu) / self.sigma
        return np.where(inside, np.exp(np.sum(-0.5 * z * z - self._log_norm, axis=1)), 0.0)

    def grad_log_density(self, X) -> np.ndarray:
        """Gradient of the log density inside the box at each row of X (n x D): -(x - mu) / sigma^2."""
        return -(X - self.mu) / self.sigma**2

    def draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n i.i.d. inverse-CDF draws with `rng`, D x n."""
        u = rng.random((self.dimension, n))
        quantiles = self._cdf_low[:, np.newaxis] + u * (self._cdf_high - self._cdf_low)[:, np.newaxis]
        samples = self.mu[:, np.newaxis] + self._draw_scale[:, np.newaxis] * ndtri(quantiles)
        # Inverse-CDF round-off can graze the truncation edges.
        return np.clip(samples, self.low[:, np.newaxis], self.high[:, np.newaxis])


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which variant to use (one of VARIANT_NAMES), plus tempering and prior.

    strict_zero_at_nodes keeps the diversity term exactly zero at nodes in
    regression mode by using the noise-free variance; set it False to use
    the full predictive variance including the nugget.
    """

    variant: str = "SD"
    tempering: TemperingSchedule = TemperingSchedule.one_minus_inverse_t()
    prior: InputPrior | None = None
    strict_zero_at_nodes: bool = True

    def __post_init__(self) -> None:
        if self.variant not in _VARIANT_OPS:
            raise ValueError(f"unknown acquisition variant {self.variant!r}; expected one of {VARIANT_NAMES}")

    @classmethod
    def from_variant(cls, name: str, **kwargs) -> "AcquisitionSpec":
        return cls(variant=name, **kwargs)


def acquisition_value(spec: AcquisitionSpec, model: MultiGpModel, x, t: int) -> float:
    """[G_t(x)]^beta_t * D_t(x), times the prior density when configured: the one-row block."""
    return float(_acquisition(spec, model, np.asarray(x, dtype=float).ravel()[np.newaxis], t)[0][0])


def acquisition_values(spec: AcquisitionSpec, model: MultiGpModel, X, t: int) -> np.ndarray:
    """The acquisition at each row of X (n x D, raw coordinates).

    Evaluated in blocks of rows of at most MAX_BLOCK_ENTRIES kernel
    entries, so that the memory does not grow with n.  A row's value does
    not depend on the rest of its block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows = max(1, MAX_BLOCK_ENTRIES // model.alpha.size)
    if X.shape[0] <= rows:
        return _acquisition(spec, model, X, t)[0]
    return np.concatenate([_acquisition(spec, model, X[i : i + rows], t)[0] for i in range(0, X.shape[0], rows)])


def acquisition_gradient(spec: AcquisitionSpec, model: MultiGpModel, x, t: int) -> tuple[float, np.ndarray]:
    """acquisition_value and its analytic gradient with respect to the raw input, from one one-row block."""
    values, grads = _acquisition(spec, model, np.asarray(x, dtype=float).ravel()[np.newaxis], t, gradients=True)
    return float(values[0]), grads[0]


def _acquisition(spec: AcquisitionSpec, model: MultiGpModel, X, t: int, gradients: bool = False) -> tuple:
    """Values (n,) at the rows of X (n x D, raw coordinates), and their (n, D) gradients or None.

    One `gp.evaluate` gives every output's terms at the points inside the
    prior box; the rest score exactly zero, as do nodes when strict.  The
    per-output factors are combined row by row and the power is taken one
    value at a time, as for a single point.  beta_t = 0 (and the variants
    without geometry) reduce to pure diversity: 0^0 is taken as 1.  The
    gradients come from the same terms, mapped back through the affine
    normalization, and are zero wherever a multiplicative factor is (at
    nodes, in flat regions, outside the prior box): the optimizer treats
    the acquisition as a plateau there.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values = np.zeros(X.shape[0])
    grads = np.zeros(X.shape) if gradients else None
    weights = np.ones(X.shape[0]) if spec.prior is None else spec.prior.densities(X)
    live = weights != 0.0
    if not live.any():
        return values, grads
    diversity_op, geometry_op = _VARIANT_OPS[spec.variant]
    beta = beta_at(spec.tempering, t)
    geometric = geometry_op != "none" and beta != 0.0
    live = _rows(live)
    X, weights = X[live], weights[live]
    terms = gp.evaluate(model, model.dataset.normalize(X.T).T, spec.strict_zero_at_nodes, geometric, gradients)
    d, d_grad = _combine_rows(terms.variances, terms.variance_gradients, diversity_op)
    combined = d
    if geometric:
        g, g_grad = _combine_rows(terms.gradient_norms, terms.norm_gradients, geometry_op)
        combined = np.where(d == 0.0, 0.0, np.array([v**beta for v in g.tolist()]) * d)
    values[live] = combined = combined * weights
    if not gradients:
        return values, grads
    live_grads = np.zeros(X.shape)
    rows = _rows((d != 0.0) & (g != 0.0) if geometric else d != 0.0)
    X, d = X[rows], d[rows, np.newaxis]
    widths = model.dataset.input_bounds[:, 1] - model.dataset.input_bounds[:, 0]
    # Zeros, not 0 * X: that is -0.0 at a negative coordinate, and -0.0 + -0.0 stays negative.
    prior_grad_log = np.zeros(X.shape) if spec.prior is None else spec.prior.grad_log_density(X)
    if geometric:
        log_grad = beta * (g_grad[rows] / g[rows, np.newaxis]) / widths + (d_grad[rows] / d) / widths
        live_grads[rows] = combined[rows, np.newaxis] * (log_grad + prior_grad_log)
    else:
        live_grads[rows] = (d_grad[rows] / widths + d * prior_grad_log) * weights[rows, np.newaxis]
    grads[live] = live_grads
    return values, grads


def _combine_rows(values: np.ndarray, grads: np.ndarray | None, op: str) -> tuple:
    """Sum or product of each row of (n, P) per-output factors, and of their (n, P, D) gradients or None.

    The product is taken in log space (values can be very small for many
    outputs); where any factor is not positive it is exactly zero, and so
    is its gradient.
    """
    if op == "sum":
        return values.sum(axis=1), None if grads is None else grads.sum(axis=1)
    combined = np.zeros(values.shape[0])
    positive = _rows(~(values <= 0.0).any(axis=1))
    factors = values[positive]
    combined[positive] = np.exp(np.log(factors).sum(axis=1))
    if grads is None:
        return combined, None
    combined_grads = np.zeros((values.shape[0], grads.shape[2]))
    quotients = grads[positive] / factors[..., np.newaxis]
    combined_grads[positive] = combined[positive, np.newaxis] * quotients.sum(axis=1)
    return combined, combined_grads


def _rows(mask: np.ndarray):
    """A boolean row mask as an index: a slice where it selects every row, so indexing makes views."""
    return slice(None) if np.count_nonzero(mask) == mask.size else mask
