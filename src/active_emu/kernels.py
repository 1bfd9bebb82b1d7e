"""Exponentiated quadratic kernel: distances and kernel matrices.

All functions are pure math on the coordinates they are given.  The rest of
the package normalizes inputs to the unit hypercube before calling in here,
so bandwidths are always in normalized units there; nothing in this module
depends on that convention.
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


def squared_distances(X, Z) -> np.ndarray:
    """Pairwise squared Euclidean distances between columns of X and Z."""
    X = _as_columns(X)
    Z = _as_columns(Z)
    if X.shape[0] != Z.shape[0]:
        raise ValueError(f"dimension mismatch: {X.shape[0]} vs {Z.shape[0]}")
    xx = np.sum(X * X, axis=0)
    zz = np.sum(Z * Z, axis=0)
    sq = xx[:, np.newaxis] + zz[np.newaxis, :] - 2.0 * (X.T @ Z)
    np.maximum(sq, 0.0, out=sq)
    return sq


def cross_kernel(X, Z, params: KernelParams) -> np.ndarray:
    """Kernel matrix between columns of X (D x m) and Z (D x n); shape (m, n)."""
    return np.exp(-squared_distances(X, Z) / (2.0 * params.bandwidth**2))


def kernel_matrix(X, params: KernelParams, nugget: float = 0.0) -> np.ndarray:
    """Regularized Gram matrix K + nugget * I over the columns of X.

    The diagonal is set to exactly 1 + nugget so that round-off in the
    distance computation never leaks into the diagonal.
    """
    X = _as_columns(X)
    if X.shape[1] < 1:
        raise ValueError("kernel_matrix needs at least one point")
    if nugget < 0.0:
        raise ValueError(f"nugget must be nonnegative, got {nugget}")
    K = cross_kernel(X, X, params)
    K = 0.5 * (K + K.T)
    np.fill_diagonal(K, 1.0 + nugget)
    return K
