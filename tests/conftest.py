"""Shared fixtures and numerical helpers for the test suite."""

import mpmath
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from active_emu import gp
from active_emu.gp import Dataset, fit
from active_emu.kernels import KernelParams, kernel_matrix
from active_emu.multi_output import MultiGpModel, predict_mean_matrix


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
    the model's nodes, outputs, bandwidth and nugget, and differentiated by
    central differences.  The truncation error is O(step^2) and the
    round-off about 10^-dps / step, so the oracle is accurate to far more
    digits than the float64 analytic gradients it checks.  Returns
    (mean gradient, variance gradient) as float arrays.
    """
    with mpmath.workdps(dps):
        nodes = [[mpmath.mpf(v) for v in column] for column in model.train_inputs.T]
        two_b2 = 2 * mpmath.mpf(model.params.bandwidth) ** 2
        nugget = mpmath.mpf(model.nugget)

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
        alpha = K_inv * mpmath.matrix([mpmath.mpf(v) for v in model.train_outputs])

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


def as_multi(model):
    """One fitted GP with nodes in the unit cube as a one-output MultiGpModel.

    Over the unit cube the normalization is the identity.
    """
    dimension = model.train_inputs.shape[0]
    dataset = Dataset(model.train_inputs, model.train_outputs[np.newaxis, :], np.array([[0.0, 1.0]] * dimension))
    return MultiGpModel(dataset, (model,))


def mean_at(model, x):
    """`predict_mean_matrix` of one fitted GP (nodes in the unit cube) at one point."""
    return float(predict_mean_matrix(as_multi(model), np.reshape(x, (-1, 1)))[0, 0])


def terms_at(model, x, strict=False):
    """`gp.evaluate` of one fitted GP at one point with every derivative; each field's one entry."""
    terms = gp.evaluate([model], np.reshape(np.asarray(x, dtype=float), (1, -1)), strict, derivatives=True)
    return gp.Evaluation(*(field[0, 0] for field in terms))


def random_gp_model(rng, dimension=1, n_nodes=6, bandwidth=0.3, nugget=0.0, min_separation=0.05):
    """A small fitted GP on well-separated random nodes in the unit cube."""
    X = separated_points(rng, dimension, n_nodes, min_separation)
    y = rng.normal(size=n_nodes)
    return fit(X, y, KernelParams(bandwidth), nugget)


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
    from active_emu.multi_output import fit_all

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


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
