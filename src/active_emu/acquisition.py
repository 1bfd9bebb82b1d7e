"""Acquisition functions: tempered product of a geometry term (per-output
gradient norms) and a diversity term (per-output predictive variances),
optionally weighted by a truncated-Gaussian input prior.

Six variants arise from combining the per-output terms by sum or product:
SD, PD, SDxSG, SDxPG, PDxSG, PDxPG.  The value is zero at every node in
interpolation mode; in regression mode the diversity term defaults to the
noise-free variance so that the same holds.

The acquisition of one spec on one fitted model at one iteration is bound
once (`_Bound`), and the model keeps the last one; the three public forms
fetch it and call one of its two entry points, both of which score from
the model's one `gp.Evaluator`.  `block` scores a block of points: the
search's random probes (`acquisition_values`), at most MAX_BLOCK_ENTRIES
kernel entries at a time.  `point` scores one point, bit for bit the
block's row at a fraction of its fixed cost: once per annealing proposal
(`acquisition_value`), and once per point the gradient ascent visits, for
the value and the gradient (`acquisition_gradient`).
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

    def density(self, x: np.ndarray) -> float:
        """`densities` at one point x (D,), bit for bit: the same operations on one row."""
        if not ((x >= self.low) & (x <= self.high)).all():
            return 0.0
        z = (x - self.mu) / self.sigma
        return np.exp(np.sum(-0.5 * z * z - self._log_norm))

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
    """[G_t(x)]^beta_t * D_t(x), times the prior density when configured, at one raw point x."""
    return _bound(spec, model, t).point(x)


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
    """acquisition_value and its analytic gradient with respect to the raw input, from one evaluation."""
    return _bound(spec, model, t).point(x, gradient=True)


def _acquisition(spec: AcquisitionSpec, model: MultiGpModel, X, t: int, gradients: bool = False) -> tuple:
    """Values (n,) at the rows of X (n x D, raw coordinates), and their (n, D) gradients or None: the block form."""
    return _bound(spec, model, t).block(X, gradients)


def _bound(spec: AcquisitionSpec, model: MultiGpModel, t: int) -> "_Bound":
    """The model's `_Bound` of this spec (by identity) at iteration t; a new one replaces it when either differs."""
    cache = model.bound_acquisition
    if not (cache and cache[0].spec is spec and cache[0].t == t):
        cache[:] = [_Bound(spec, model, t)]
    return cache[0]


class _Bound:
    """The acquisition of one spec on one fitted model at iteration t, with what all its calls share.

    That is beta_t, the variant's ops, the prior, the box and the model's
    `gp.Evaluator` of the variances the spec asks for (noise-free when
    strict); no reference to the model, so a model and its cache form no
    cycle.  beta_t = 0 (and the variants without geometry) reduce to pure
    diversity: 0^0 is taken as 1.  The gradients are mapped back through
    the affine normalization, and are zero wherever a multiplicative factor
    is (at nodes, in flat regions, outside the prior box): the optimizer
    treats the acquisition as a plateau there.
    """

    def __init__(self, spec: AcquisitionSpec, model: MultiGpModel, t: int):
        self.spec, self.t = spec, t
        self.diversity_op, self.geometry_op = _VARIANT_OPS[spec.variant]
        self.beta = beta_at(spec.tempering, t)
        self.geometric = self.geometry_op != "none" and self.beta != 0.0
        self.prior = spec.prior
        box = model.dataset.input_bounds
        self.lo, self.widths = box[:, 0], box[:, 1] - box[:, 0]
        self.evaluate = gp.evaluator(model, spec.strict_zero_at_nodes)
        # Zeros, not 0 * x: that is -0.0 at a negative coordinate, and -0.0 + -0.0 stays negative.
        self.no_prior_gradient = np.zeros(box.shape[0])

    def block(self, X, gradients: bool = False) -> tuple:
        """Values (n,) at the rows of X (n x D, raw coordinates), and their (n, D) gradients or None.

        One evaluation gives every output's terms at the points inside the
        prior box; the rest score exactly zero, as do nodes when strict.
        The terms are copied per point, so that each row's P values are
        adjacent as in a one-row evaluation, combined row by row, and the
        power is taken one value at a time, as for a single point.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        values = np.zeros(X.shape[0])
        grads = np.zeros(X.shape) if gradients else None
        weights = np.ones(X.shape[0]) if self.prior is None else self.prior.densities(X)
        live = weights != 0.0
        if not live.any():
            return values, grads
        live = _rows(live)
        X, weights = X[live], weights[live]
        terms = self.evaluate((X - self.lo) / self.widths, self.geometric, gradients)
        d, d_grad = _combine_rows(_by_points(terms.variances), _by_points(terms.variance_gradients), self.diversity_op)
        combined = d
        if self.geometric:
            norms = _by_points(terms.gradient_norms)
            g, g_grad = _combine_rows(norms, _by_points(terms.norm_gradients), self.geometry_op)
            combined = np.where(d == 0.0, 0.0, np.array([v**self.beta for v in g.tolist()]) * d)
        values[live] = combined = combined * weights
        if not gradients:
            return values, grads
        live_grads = np.zeros(X.shape)
        rows = _rows((d != 0.0) & (g != 0.0) if self.geometric else d != 0.0)
        X, d = X[rows], d[rows, np.newaxis]
        prior_grad_log = np.zeros(X.shape) if self.prior is None else self.prior.grad_log_density(X)
        if self.geometric:
            log_grad = self.beta * (g_grad[rows] / g[rows, np.newaxis]) / self.widths + (d_grad[rows] / d) / self.widths
            live_grads[rows] = combined[rows, np.newaxis] * (log_grad + prior_grad_log)
        else:
            live_grads[rows] = (d_grad[rows] / self.widths + d * prior_grad_log) * weights[rows, np.newaxis]
        grads[live] = live_grads
        return values, grads

    def point(self, x, gradient: bool = False):
        """The value at one raw point x, or (value, gradient) with `gradient`: the row of a block holding x.

        The terms come from the evaluation of x as a block of one row, whose
        (P, 1) stacks need no copy; `block`'s rules follow on that row, with
        scalars in place of its masks and zero-filled outputs.
        """
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.lo.size:
            raise ValueError(f"query points have dimension {x.size}, the model expects {self.lo.size}")
        weight = 1.0 if self.prior is None else self.prior.density(x)
        if weight == 0.0:
            return (0.0, np.zeros(x.size)) if gradient else 0.0
        terms = self.evaluate(((x - self.lo) / self.widths)[np.newaxis], self.geometric, gradient)
        d = _combined(terms.variances[:, 0], self.diversity_op)
        value = d
        if self.geometric:
            geometry = _combined(terms.gradient_norms[:, 0], self.geometry_op)
            value = 0.0 if d == 0.0 else float(geometry) ** self.beta * d
        value = value * weight
        if not gradient:
            return float(value)
        if d == 0.0 or (self.geometric and geometry == 0.0):
            return float(value), np.zeros(x.size)
        prior_grad_log = self.no_prior_gradient if self.prior is None else self.prior.grad_log_density(x)
        d_grad = _combined_gradient(d, terms.variances.T, terms.variance_gradients, self.diversity_op)
        if not self.geometric:
            return float(value), (d_grad / self.widths + d * prior_grad_log) * weight
        g_grad = _combined_gradient(geometry, terms.gradient_norms.T, terms.norm_gradients, self.geometry_op)
        log_grad = self.beta * (g_grad / geometry) / self.widths + (d_grad / d) / self.widths
        return float(value), value * (log_grad + prior_grad_log)


def _combined(values: np.ndarray, op: str):
    """Sum or product of one point's P per-output factors (P,): `_combine_rows` for one row."""
    if op == "sum":
        return values.sum()
    return 0.0 if values.min() <= 0.0 else np.exp(np.log(values).sum())


def _combined_gradient(combined, values: np.ndarray, grads: np.ndarray, op: str) -> np.ndarray:
    """Gradient (D,) of one point's nonzero `_combined` from its (1, P) factors and (P, 1, D) gradients."""
    grads = grads.swapaxes(0, 1)  # (1, P, D), laid out as the block's rows
    if op == "sum":
        return grads.sum(axis=1)[0]
    return combined * (grads / values[..., np.newaxis]).sum(axis=1)[0]


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


def _by_points(A):
    """A (P, n, ...) per output as a C-contiguous (n, P, ...) array per point; None stays None."""
    return None if A is None else np.ascontiguousarray(A.swapaxes(0, 1))


def _rows(mask: np.ndarray):
    """A boolean row mask as an index: a slice where it selects every row, so indexing makes views."""
    return slice(None) if np.count_nonzero(mask) == mask.size else mask
