"""Acquisition functions: tempered product of a geometry term (per-output
gradient norms) and a diversity term (per-output predictive variances),
optionally weighted by a truncated-Gaussian input prior.

Six variants arise from combining the per-output terms by sum or product:
SD, PD, SDxSG, SDxPG, PDxSG, PDxPG.  The value is zero at every node in
interpolation mode; in regression mode the diversity term defaults to the
noise-free variance so that the same holds.

Every value and gradient comes from one block evaluation of the GPs,
`gp.evaluate`: `acquisition_values` scores a block of points,
`acquisition_value` is its one-row block, and `acquisition_gradient`
differentiates the one-row block.  The acquisition search ranks its random
probes with the block form and re-scores the winner alone, from which the
gradient ascent starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import gp
from .multi_output import MultiGpModel

_VARIANT_OPS = {
    "SD": ("sum", "none"),
    "PD": ("product", "none"),
    "SDxSG": ("sum", "sum"),
    "SDxPG": ("sum", "product"),
    "PDxSG": ("product", "sum"),
    "PDxPG": ("product", "product"),
}

VARIANT_NAMES = tuple(_VARIANT_OPS)


@dataclass(frozen=True)
class TemperingSchedule:
    """Exponent schedule beta_t in [0, 1], non-decreasing in t."""

    kind: str  # constant | one-minus-inverse-t | one-minus-exp
    beta: float = 1.0  # for constant
    gamma: float = 1.0  # for one-minus-exp

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "one-minus-inverse-t", "one-minus-exp"):
            raise ValueError(f"unknown tempering kind: {self.kind!r}")
        if self.kind == "constant" and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"constant beta must lie in [0, 1], got {self.beta}")
        if self.kind == "one-minus-exp" and self.gamma < 0.0:
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
        if not np.all(self.sigma > 0.0):
            raise ValueError("sigma must be positive")
        if not np.all(self.high > self.low):
            raise ValueError("each dimension must satisfy min < max")
        zl = (self.low - self.mu) / self.sigma
        zh = (self.high - self.mu) / self.sigma
        mass = ndtr(zh) - ndtr(zl)
        object.__setattr__(self, "_log_norm", np.log(self.sigma) + 0.5 * np.log(2.0 * np.pi) + np.log(mass))
        object.__setattr__(self, "_cdf_low", ndtr(zl))
        object.__setattr__(self, "_cdf_high", ndtr(zh))

    @property
    def dimension(self) -> int:
        return self.mu.size

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float).ravel()
        return bool(np.all(x >= self.low) and np.all(x <= self.high))

    def density(self, x) -> float:
        """Joint truncated-normal density; zero outside the box."""
        return float(self.densities(np.asarray(x, dtype=float).ravel()[np.newaxis, :])[0])

    def densities(self, X) -> np.ndarray:
        """`density` at each row of X (n x D)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        inside = np.all((X >= self.low) & (X <= self.high), axis=1)
        z = (X - self.mu) / self.sigma
        return np.where(inside, np.exp(np.sum(-0.5 * z * z - self._log_norm, axis=1)), 0.0)

    def grad_log_density(self, x) -> np.ndarray:
        """Gradient of log density inside the box: -(x - mu) / sigma^2."""
        x = np.asarray(x, dtype=float).ravel()
        return -(x - self.mu) / self.sigma**2


@dataclass(frozen=True)
class AcquisitionSpec:
    """Which diversity/geometry combination to use, plus tempering and prior.

    geometry_op 'none' drops the gradient factor entirely (pure diversity).
    strict_zero_at_nodes keeps the diversity term exactly zero at nodes in
    regression mode by using the noise-free variance; set it False to use
    the full predictive variance including the nugget.
    """

    diversity_op: str = "sum"  # sum | product
    geometry_op: str = "none"  # sum | product | none
    tempering: TemperingSchedule = TemperingSchedule.one_minus_inverse_t()
    prior: InputPrior | None = None
    strict_zero_at_nodes: bool = True

    def __post_init__(self) -> None:
        if self.diversity_op not in ("sum", "product"):
            raise ValueError(f"diversity_op must be sum or product, got {self.diversity_op!r}")
        if self.geometry_op not in ("sum", "product", "none"):
            raise ValueError(f"geometry_op must be sum, product or none, got {self.geometry_op!r}")

    @property
    def variant(self) -> str:
        for name, ops in _VARIANT_OPS.items():
            if ops == (self.diversity_op, self.geometry_op):
                return name
        raise AssertionError("unreachable")

    @classmethod
    def from_variant(cls, name: str, **kwargs) -> "AcquisitionSpec":
        if name not in _VARIANT_OPS:
            raise ValueError(f"unknown acquisition variant {name!r}; expected one of {VARIANT_NAMES}")
        d_op, g_op = _VARIANT_OPS[name]
        return cls(diversity_op=d_op, geometry_op=g_op, **kwargs)


def acquisition_value(spec: AcquisitionSpec, model: MultiGpModel, x, t: int) -> float:
    """[G_t(x)]^beta_t * D_t(x), times the prior density when configured: the one-row block."""
    return float(acquisition_values(spec, model, np.asarray(x, dtype=float).ravel()[np.newaxis, :], t)[0])


def acquisition_values(spec: AcquisitionSpec, model: MultiGpModel, X, t: int) -> np.ndarray:
    """The acquisition at each row of X (n x D, raw coordinates).

    One `gp.evaluate` gives every output's terms at the points inside the
    prior box; the rest score exactly zero.  Nodes score exactly zero when
    strict.  The per-output factors are combined row by row and the power
    is taken one value at a time, as for a single point.  beta_t = 0 (and
    geometry_op 'none') reduce to pure diversity; 0^0 is taken as 1 so that
    reduction is exact.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    values = np.zeros(X.shape[0])
    weights = np.ones(X.shape[0]) if spec.prior is None else spec.prior.densities(X)
    live = weights != 0.0
    if not live.any():
        return values
    beta = beta_at(spec.tempering, t)
    geometric = spec.geometry_op != "none" and beta != 0.0
    terms = gp.evaluate(model, model.normalize(X[live].T).T, spec.strict_zero_at_nodes, geometric)
    combined = _combine_rows(terms.variances, spec.diversity_op)
    if geometric:
        powered = np.array([g**beta for g in _combine_rows(terms.gradient_norms, spec.geometry_op).tolist()])
        combined = np.where(combined == 0.0, 0.0, powered * combined)
    values[live] = combined * weights[live]
    return values


def _combine_rows(values: np.ndarray, op: str) -> np.ndarray:
    """Sum or product of each row of an (n, P) array of per-output factors.

    The product is taken in log space (values can be very small for many
    outputs) and is exactly zero where any factor is not positive.
    """
    if op == "sum":
        return values.sum(axis=1)
    combined = np.zeros(values.shape[0])
    positive = ~(values <= 0.0).any(axis=1)
    combined[positive] = np.exp(np.log(values[positive]).sum(axis=1))
    return combined


def acquisition_gradient(spec: AcquisitionSpec, model: MultiGpModel, x, t: int) -> np.ndarray:
    """Analytic gradient of acquisition_value with respect to the raw input.

    The one-row `gp.evaluate` with derivatives gives the per-output factors
    and their gradients in normalized coordinates, mapped back through the
    affine normalization.  Wherever a multiplicative factor is exactly zero
    (at nodes, in flat regions, outside the prior box) the zero vector is
    returned: the acquisition is flat or nonsmooth there and the optimizer
    treats it as a plateau.
    """
    x = np.asarray(x, dtype=float).ravel()
    zeros = np.zeros(model.dataset.dimension)
    prior_weight, prior_grad_log = 1.0, zeros
    if spec.prior is not None:
        prior_weight = spec.prior.density(x)
        if prior_weight == 0.0:
            return zeros
        prior_grad_log = spec.prior.grad_log_density(x)

    widths = model.dataset.input_bounds[:, 1] - model.dataset.input_bounds[:, 0]
    beta = beta_at(spec.tempering, t)
    geometric = spec.geometry_op != "none" and beta != 0.0
    terms = gp.evaluate(
        model, model.normalize(x)[np.newaxis, :], spec.strict_zero_at_nodes, geometric, derivatives=True
    )
    d_term, d_grad = _combine_with_gradient(terms.variances[0], terms.variance_gradients[0], spec.diversity_op)
    if d_term == 0.0:
        return zeros
    if not geometric:
        return (d_grad / widths + d_term * prior_grad_log) * prior_weight

    g_term, g_grad = _combine_with_gradient(terms.gradient_norms[0], terms.norm_gradients[0], spec.geometry_op)
    if g_term == 0.0:
        return zeros

    value = g_term**beta * d_term * prior_weight
    log_grad = beta * (g_grad / g_term) / widths + (d_grad / d_term) / widths + prior_grad_log
    return value * log_grad


def _combine_with_gradient(values: np.ndarray, grads: np.ndarray, op: str) -> tuple[float, np.ndarray]:
    """Value and gradient of the sum or product of per-output factors."""
    if op == "sum":
        return float(np.sum(values)), np.sum(grads, axis=0)
    if np.any(values <= 0.0):
        return 0.0, np.zeros(grads.shape[1])
    value = float(np.exp(np.sum(np.log(values))))
    return value, value * np.sum(grads / values[:, np.newaxis], axis=0)
