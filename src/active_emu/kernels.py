"""Exponentiated quadratic kernel: distances, kernel values and Gram matrices.

The one place that knows the kernel: `exp_quadratic` and `gram` build every
kernel block and every K + nugget I of the package.  All functions are pure
math on the coordinates they are given.  The rest of the package normalizes
inputs to the unit hypercube before calling in here, so bandwidths are
always in normalized units there; nothing in this module depends on that
convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelParams:
    """Bandwidth (length scale) of the exponentiated quadratic kernel."""

    bandwidth: float

    def __post_init__(self) -> None:
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def _as_columns(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise ValueError(f"expected a D x m matrix of column points, got shape {X.shape}")
    return X


def squared_distances(X, Z, out=None) -> np.ndarray:
    """Pairwise squared Euclidean distances between columns of X and Z; into `out` if given."""
    X = _as_columns(X)
    Z = _as_columns(Z)
    if X.shape[0] != Z.shape[0]:
        raise ValueError(f"dimension mismatch: {X.shape[0]} vs {Z.shape[0]}")
    xx = np.sum(X * X, axis=0)
    zz = np.sum(Z * Z, axis=0)
    sq = np.add(xx[:, np.newaxis], zz[np.newaxis, :], out=out)
    sq -= 2.0 * (X.T @ Z)
    np.maximum(sq, 0.0, out=sq)
    return sq


def exp_quadratic(sq, b2, out=None) -> np.ndarray:
    """exp(-sq / 2 b2) of squared distances sq, b2 = b^2 broadcast against sq; into `out` if given."""
    K = np.divide(sq, -2.0 * b2, out=out)  # bitwise (-sq) / (2 b2)
    return np.exp(K, out=K)


def gram(sq, bandwidth: float, nugget: float) -> np.ndarray:
    """K + nugget I from the nodes' squared distances sq (m x m), its diagonal exactly 1 + nugget.

    sq must be exactly symmetric, as `squared_distances(X, X)` is (numpy
    forms X.T @ X by a symmetric rank-k update); the set diagonal keeps
    round-off in sq out of K's.
    """
    K = exp_quadratic(sq, bandwidth**2)
    K.ravel()[:: K.shape[0] + 1] = 1.0 + nugget
    return K


def kernel_matrix(X, params: KernelParams, nugget: float = 0.0) -> np.ndarray:
    """Regularized Gram matrix K + nugget * I over the columns of X (see `gram`)."""
    X = _as_columns(X)
    if X.shape[1] < 1:
        raise ValueError("kernel_matrix needs at least one point")
    if nugget < 0.0:
        raise ValueError(f"nugget must be nonnegative, got {nugget}")
    return gram(squared_distances(X, X), params.bandwidth, nugget)
