"""Shared fixtures and numerical helpers for the test suite."""

from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from active_emu import gp
from active_emu.gp import Dataset
from active_emu.kernels import KernelParams, kernel_matrix
from active_emu.multi_output import fit_all, predict_mean_matrix
from active_emu.pci import MonotoneFunction1D, _check_nodes

# Width of the bracket at which `CallableMonotone`'s bisection inverse stops.
BISECTION_TOLERANCE = 1e-12


def log_marginal_likelihood(inputs, outputs, params, nugget=0.0):
    """Zero-mean GP log marginal likelihood (GPML eq. 5.8) on scipy's own Cholesky.

    An oracle for the bandwidth search, independent of the factorisation
    and solve in `gp`.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(outputs, dtype=float).ravel()
    factor = cho_factor(kernel_matrix(X, params, nugget), lower=True)
    alpha = cho_solve(factor, y)
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return -0.5 * float(y @ alpha) - 0.5 * log_det - 0.5 * y.size * np.log(2.0 * np.pi)


def _paired(x, z) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {z.shape[0]}")
    return x, z


def kernel_eval(x, z, params: KernelParams) -> float:
    """Oracle k(x, z) = exp(-||x - z||^2 / (2 delta^2)) of one pair of points; symmetric, in (0, 1]."""
    x, z = _paired(x, z)
    d = x - z
    return float(np.exp(-(d @ d) / (2.0 * params.bandwidth**2)))


def kernel_gradient(x, z, params: KernelParams) -> np.ndarray:
    """Oracle gradient of k(x, z) with respect to x: -(k(x,z) / delta^2) (x - z)."""
    x, z = _paired(x, z)
    d = x - z
    k = np.exp(-(d @ d) / (2.0 * params.bandwidth**2))
    return -(k / params.bandwidth**2) * d


def kernel_hessian(x, z, params: KernelParams) -> np.ndarray:
    """Oracle Hessian of k(x, z) with respect to x: (k/delta^4) (x-z)(x-z)^T - (k/delta^2) I."""
    x, z = _paired(x, z)
    d = x - z
    b2 = params.bandwidth**2
    k = np.exp(-(d @ d) / (2.0 * b2))
    return (k / b2**2) * np.outer(d, d) - (k / b2) * np.eye(x.size)


def central_difference_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for d in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[d] += step
        xm[d] -= step
        grad[d] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def mp_gp_gradients(model, x, dps=50, step="1e-15"):
    """Oracle gradients of a fitted GP's predictive mean and variance at x.

    Both functions are evaluated in mpmath at `dps` significant digits from
    the one-output model's nodes, outputs, bandwidth and nugget, and
    differentiated by central differences.  The truncation error is
    O(step^2) and the round-off about 10^-dps / step, so the oracle is
    accurate to far more digits than the float64 analytic gradients it
    checks.  Returns (mean gradient, variance gradient) as float arrays.
    """
    with mpmath.workdps(dps):
        nodes = [[mpmath.mpf(v) for v in column] for column in model.nodes.T]
        two_b2 = 2 * mpmath.mpf(model.bandwidths[0]) ** 2
        nugget = mpmath.mpf(model.nuggets[0])

        def kernel_vector(q):
            return mpmath.matrix(
                [mpmath.exp(-mpmath.fsum((a - b) ** 2 for a, b in zip(q, node)) / two_b2) for node in nodes]
            )

        m = len(nodes)
        K = mpmath.matrix(m, m)
        for i in range(m):
            K[:, i] = kernel_vector(nodes[i])
            K[i, i] += nugget
        K_inv = mpmath.inverse(K)
        alpha = K_inv * mpmath.matrix([mpmath.mpf(v) for v in model.dataset.Y[0]])

        def mean(q):
            return (kernel_vector(q).T * alpha)[0]

        def variance(q):
            k = kernel_vector(q)
            return nugget + 1 - (k.T * K_inv * k)[0]

        h = mpmath.mpf(step)
        point = [mpmath.mpf(v) for v in np.asarray(x, dtype=float)]
        grads = []
        for f in (mean, variance):
            grad = []
            for d in range(len(point)):
                plus, minus = list(point), list(point)
                plus[d] += h
                minus[d] -= h
                grad.append(float((f(plus) - f(minus)) / (2 * h)))
            grads.append(np.array(grad))
    return grads[0], grads[1]


def relative_gradient_error(analytic, numeric, floor=1e-8):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(float(np.linalg.norm(numeric)), floor)
    return float(np.linalg.norm(analytic - numeric)) / scale


def fit_one(X, y, params, nugget=0.0):
    """One GP fitted to the outputs y at the nodes X (D x m) in the unit cube, as a one-output model.

    Over the unit cube the normalization is the identity.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    dataset = Dataset(X, np.reshape(y, (1, -1)), np.array([[0.0, 1.0]] * X.shape[0]))
    return fit_all(dataset, nugget_policy=nugget, bandwidths=[params])


def mean_at(model, x):
    """`predict_mean_matrix` of a one-output model (nodes in the unit cube) at one point."""
    return float(predict_mean_matrix(model, np.reshape(x, (-1, 1)))[0, 0])


def terms_at(model, x, strict=False):
    """`gp.evaluate` of a one-output model at one point with every derivative; each field's one entry."""
    terms = gp.evaluate(model, np.reshape(np.asarray(x, dtype=float), (1, -1)), strict, derivatives=True)
    return gp.Evaluation(*(field[0, 0] for field in terms))


def random_gp_model(rng, dimension=1, n_nodes=6, bandwidth=0.3, nugget=0.0, min_separation=0.05):
    """A small fitted one-output model on well-separated random nodes in the unit cube."""
    X = separated_points(rng, dimension, n_nodes, min_separation)
    y = rng.normal(size=n_nodes)
    return fit_one(X, y, KernelParams(bandwidth), nugget)


def separated_points(rng, dimension, n, min_separation):
    """Rejection-sample n points in [0,1]^D with a minimum pairwise distance.

    Restarts the whole set when a partial placement walls off the remaining
    space (possible in 1-D).
    """
    for _ in range(1000):
        points = []
        for _ in range(200 * n):
            candidate = rng.random(dimension)
            if all(np.linalg.norm(candidate - p) >= min_separation for p in points):
                points.append(candidate)
                if len(points) == n:
                    return np.column_stack(points)
    raise RuntimeError("could not place separated points")


def random_multi_model(rng, dimension=1, n_outputs=2, n_nodes=6, bandwidths=None, nugget=0.0, bounds=None):
    """A MultiGpModel with fixed bandwidths on random separated nodes."""
    if bounds is None:
        bounds = np.array([[0.0, 1.0]] * dimension)
    bounds = np.asarray(bounds, dtype=float)
    Xn = separated_points(rng, dimension, n_nodes, 0.08)
    X = bounds[:, 0:1] + Xn * (bounds[:, 1:2] - bounds[:, 0:1])
    Y = rng.normal(size=(n_outputs, n_nodes))
    dataset = Dataset(X, Y, bounds)
    if bandwidths is None:
        bandwidths = [0.25 + 0.1 * p for p in range(n_outputs)]
    return fit_all(dataset, nugget_policy=nugget, bandwidths=bandwidths)


def denormalize(dataset, x) -> np.ndarray:
    """The inverse of `dataset.normalize`: unit-cube coordinates back to raw ones."""
    x = np.asarray(x, dtype=float)
    lo = dataset.input_bounds[:, 0]
    width = dataset.input_bounds[:, 1] - lo
    if x.ndim == 2:
        return lo[:, np.newaxis] + x * width[:, np.newaxis]
    return lo + x * width


def predict_all(model, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-output (means, variances, gradient norms) at one raw input point.

    The one-point slice of `gp.evaluate` (predictive variances), with the
    means of `predict_mean_matrix`.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    terms = gp.evaluate(model, model.normalize(x).T, strict=False)
    return predict_mean_matrix(model, x)[:, 0], terms.variances[0], terms.gradient_norms[0]


@dataclass(frozen=True)
class CallableMonotone(MonotoneFunction1D):
    """A `MonotoneFunction1D` built from any strictly monotone callable."""

    negated: bool = False  # set when built from a decreasing callable

    @classmethod
    def from_callable(cls, f, a: float, b: float, inverse=None) -> "CallableMonotone":
        """Wrap an arbitrary strictly monotone callable.

        Decreasing functions are negated internally (node placement only
        depends on |df/dx|).  Missing inverses fall back to bisection.
        """
        negated = f(b) < f(a)
        forward = (lambda x: -f(x)) if negated else f
        if inverse is not None and negated:
            raise ValueError("an explicit inverse is only supported for increasing functions")
        if inverse is None:
            inverse = _bisection_inverse(forward, a, b)
        return cls(forward=forward, inverse=inverse, a=a, b=b, negated=negated)


def _bisection_inverse(forward, a: float, b: float):
    def inverse(y: float) -> float:
        lo, hi = a, b
        if y <= forward(lo):
            return lo
        if y >= forward(hi):
            return hi
        while hi - lo > BISECTION_TOLERANCE:
            mid = 0.5 * (lo + hi)
            if forward(mid) < y:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return inverse


def pci_evaluate(nodes, fn: MonotoneFunction1D, x: float) -> float:
    """Left-anchored piecewise-constant interpolant.

    phi(x) = f(a) for x <= x_1, otherwise f(x_j) for the largest node
    x_j < x; a negated `CallableMonotone` gives the value of its callable.
    """
    nodes = _check_nodes(nodes, fn)
    index = int(np.searchsorted(nodes, x, side="left"))
    value = fn.forward(fn.a) if index == 0 else fn.forward(float(nodes[index - 1]))
    return -value if getattr(fn, "negated", False) else value


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
