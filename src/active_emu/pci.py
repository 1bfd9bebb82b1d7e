"""Optimal node placement for piecewise-constant interpolation of monotone
1-D functions under the sup-norm cost, and the node-density law it implies.

For a strictly increasing f on [a, b] the optimal M nodes equalize the M+1
increments of f, i.e. x_m = f^{-1}(f(a) + m (f(b) - f(a)) / (M+1)); the
resulting nodes follow a density proportional to |df/dx|.  This serves as
an independent justification of the gradient term in the acquisition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_VALIDATION_GRID = 512
_INVERSE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MonotoneFunction1D:
    """Strictly increasing scalar function with an explicit inverse."""

    forward: Callable[[float], float]
    inverse: Callable[[float], float]
    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ValueError(f"interval must satisfy a < b, got [{self.a}, {self.b}]")
        grid = np.linspace(self.a, self.b, _VALIDATION_GRID)
        values = np.array([self.forward(x) for x in grid])
        if not np.all(np.diff(values) > 0.0):
            raise ValueError("function must be strictly increasing on [a, b]")
        scale = max(abs(self.b - self.a), 1.0)
        for x in grid[:: _VALIDATION_GRID // 16]:
            if abs(self.inverse(self.forward(x)) - x) > _INVERSE_TOLERANCE * scale:
                raise ValueError(f"inverse(forward(x)) deviates from x at x={x}")

    def __call__(self, x: float) -> float:
        return self.forward(x)

    @classmethod
    def log(cls, a: float, b: float) -> "MonotoneFunction1D":
        if a <= 0.0:
            raise ValueError("log needs a positive interval")
        return cls(forward=math.log, inverse=math.exp, a=a, b=b)

    @classmethod
    def exp(cls, a: float, b: float) -> "MonotoneFunction1D":
        return cls(forward=math.exp, inverse=math.log, a=a, b=b)

    @classmethod
    def linear(cls, a: float, b: float) -> "MonotoneFunction1D":
        return cls(forward=lambda x: x, inverse=lambda y: y, a=a, b=b)


def _check_nodes(nodes, fn: MonotoneFunction1D) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=float).ravel()
    if nodes.size < 1:
        raise ValueError("need at least one node")
    if np.any(np.diff(nodes) < 0.0):
        raise ValueError("nodes must be sorted in increasing order")
    if nodes[0] < fn.a - 1e-12 or nodes[-1] > fn.b + 1e-12:
        raise ValueError("nodes must lie within [a, b]")
    return nodes


def cinf_cost(nodes, fn: MonotoneFunction1D) -> float:
    """Sup-norm discrepancy between f and its left-anchored interpolant.

    For increasing f this is the largest increment of f across the segments
    defined by the nodes and the interval endpoints.
    """
    nodes = _check_nodes(nodes, fn)
    anchors = np.concatenate([[fn.a], nodes, [fn.b]])
    values = np.array([fn.forward(float(x)) for x in anchors])
    return float(np.max(np.diff(values)))


def optimal_nodes(fn: MonotoneFunction1D, M: int) -> np.ndarray:
    """The M nodes equalizing all M+1 increments of f over [a, b]."""
    if M < 1:
        raise ValueError("M must be >= 1")
    fa = fn.forward(fn.a)
    fb = fn.forward(fn.b)
    targets = fa + np.arange(1, M + 1) * (fb - fa) / (M + 1)
    return np.array([fn.inverse(float(y)) for y in targets])


def node_density_check(fn: MonotoneFunction1D, M: int, bins: int) -> float:
    """Total-variation distance between the optimal-node histogram and the
    normalized |f'| density over the same bins (f' by central differences)."""
    if M < 2 or bins < 1:
        raise ValueError("need M >= 2 and bins >= 1")
    nodes = optimal_nodes(fn, M)
    edges = np.linspace(fn.a, fn.b, bins + 1)
    histogram, _ = np.histogram(nodes, bins=edges)
    node_mass = histogram / M

    centers = 0.5 * (edges[:-1] + edges[1:])
    h = (fn.b - fn.a) / (4.0 * bins)
    derivative = np.array(
        [abs(fn.forward(c + h) - fn.forward(c - h)) / (2.0 * h) for c in centers]
    )
    density_mass = derivative / np.sum(derivative)
    return float(0.5 * np.sum(np.abs(node_mass - density_mass)))
