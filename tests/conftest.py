"""Shared fixtures and numerical helpers for the test suite."""

import ctypes
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import cho_factor, cho_solve

from active_emu import gp
from active_emu.acquisition import InputPrior
from active_emu.gp import Dataset
from active_emu.kernels import KernelParams, exp_quadratic, kernel_matrix, squared_distances
from active_emu.multi_output import fit_all, predict_mean_matrix
from active_emu.pci import MonotoneFunction1D, _check_nodes
from active_emu.simulators import Simulator, ToyLog1D

# Property tests draw the same examples on every run, as every seeded test
# does, and write no example database into the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Width of the bracket at which `CallableMonotone`'s bisection inverse stops.
BISECTION_TOLERANCE = 1e-12

# Acceptance criterion 10's fixture-9band AMOGAPE settings, as a run config.
FIXTURE_RUN = {
    "simulator": {"kind": "fixture-9band", "dimension": 2},
    "initial_design": {"sampler": "prior-random", "size": 30},
    "acquisition": {
        "variant": "SDxSG",
        "tempering": {"kind": "constant", "beta": 1.0},
        "prior": {"mu": [45.0, 3.5], "sigma": [30.0, 4.5], "min": [20.0, 0.0], "max": [90.0, 10.0]},
    },
    "optimizer": {"strategy": "random-then-ascent", "n_random": 100, "ascent_iterations": 60},
    "hyperparameters": {
        "strategy": "marginal-likelihood",
        "nugget": {"policy": "fixed", "value": 1e-4},
        "optimizer": {"strategy": "random-then-ascent", "n_random": 10, "ascent_iterations": 40},
    },
}


# Designs no run on the toy-1D box [0.1, 10] can use, as (initial points,
# prior): each must be refused before the simulator runs.
UNUSABLE_DESIGNS = {
    "duplicate-points": (np.array([[1.0, 5.0, 1.0]]), None),
    "point-outside-box": (np.array([[0.0, 5.0]]), None),
    "wrong-dimension": (np.array([[1.0, 5.0], [2.0, 6.0]]), None),
    "prior-outside-box": (np.array([[1.0, 5.0]]), InputPrior(mu=[11.0], sigma=[1.0], low=[0.1], high=[12.0])),
}


def failing_after(fn, calls, exc):
    """fn, except that every call after the first `calls` raises exc."""
    count = [0]

    def wrapped(*args, **kwargs):
        count[0] += 1
        if count[0] > calls:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


class NanSimulator(Simulator):
    """The toy-1D simulator, except that its k-th call (1-based) returns a NaN output."""

    kind = "nan"

    def __init__(self, nan_at):
        super().__init__(dimension=1, n_outputs=2, bounds=[[0.1, 10.0]])
        self.nan_at = nan_at
        self.calls = 0
        self._inner = ToyLog1D()

    def _eval(self, x):
        self.calls += 1
        if self.calls == self.nan_at:
            return np.array([np.nan, 0.0])
        return self._inner._eval(x)


def numpy_blas_thread_control():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None where there is none.

    numpy's matrix products run on their own ILP64 build, whose symbols end
    in 64_, beside the LP64 build behind scipy's LAPACK
    (`gp._lapack_thread_control`).
    """
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*"):
        library = ctypes.CDLL(str(path))  # the handle of the library numpy already loaded
        if hasattr(library, "scipy_openblas_set_num_threads64_"):
            return library.scipy_openblas_get_num_threads64_, library.scipy_openblas_set_num_threads64_
    return None


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


_INVERSE_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(f, lo: float, hi: float, evaluations: int) -> tuple:
    """Best (value, point, payload) of `evaluations` golden-section probes of f on [lo, hi].

    The refinement the shared marginal-likelihood search used before
    Brent's method, kept as an oracle.  f returns (value, payload).  Probes
    rank by (value, point); only the two live probes and the best keep
    their payloads.
    """

    def probe(t):
        value, payload = f(t)
        return value, t, payload

    def rank(entry):
        return entry[:2]

    C = probe(hi - _INVERSE_GOLDEN * (hi - lo))
    D = probe(lo + _INVERSE_GOLDEN * (hi - lo))
    best = max(C, D, key=rank)
    for _ in range(evaluations - 2):
        if C[0] >= D[0]:
            hi, D = D[1], C
            C = probe(hi - _INVERSE_GOLDEN * (hi - lo))
            best = max(best, C, key=rank)
        else:
            lo, C = C[1], D
            D = probe(lo + _INVERSE_GOLDEN * (hi - lo))
            best = max(best, D, key=rank)
    return best


def golden_ml_bandwidths(X, Y, nugget: float, steps: int = 12) -> list[float]:
    """Every row's marginal-likelihood bandwidth by the grid and `golden_section_max`, scored by `gp._log_ml_rows`.

    The fixed-nugget search as it was before Brent's method: each row's grid
    maximum refined by `steps` golden-section probes over log-bandwidth in
    the grid cells either side, kept only if the refinement beats it.
    """
    sq = squared_distances(X, X)

    def scores(bandwidth, rows):
        values, _ = gp._log_ml_rows(sq, rows, bandwidth, nugget)
        return np.full(rows.shape[0], -np.inf) if values is None else values

    grid = np.array([scores(b, Y) for b in gp.BANDWIDTH_GRID])
    log_grid = np.log(gp.BANDWIDTH_GRID)
    bandwidths = []
    for p, row in enumerate(Y):
        k = int(np.argmax(grid[:, p]))
        bandwidth = float(gp.BANDWIDTH_GRID[k])
        if np.isfinite(grid[k, p]):
            lo, hi = log_grid[max(k - 1, 0)], log_grid[min(k + 1, log_grid.size - 1)]
            value, log_b, _ = golden_section_max(
                lambda t: (scores(np.exp(t), row[np.newaxis, :])[0], None), lo, hi, steps
            )
            if value > grid[k, p]:
                bandwidth = float(np.exp(log_b))
        bandwidths.append(bandwidth)
    return bandwidths


def separate_random_then_ascent(objective, gradient, batch_objective, bounds, config):
    """`optimize.maximize`'s random-then-ascent as it was with separate value and gradient callables.

    An oracle: the probes are ranked as the program ranks them, the winner
    is re-scored with `objective`, and the ascent calls `objective` at every
    trial point and `gradient` again at every accepted one.
    """
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]
    rng = np.random.default_rng(config.seed)
    n = config.n_random if config.n_random is not None else 10**lo.size
    probes = lo + rng.random((n, lo.size)) * (hi - lo)
    if batch_objective is None:
        values = np.array([float(objective(p)) for p in probes])
        best = int(np.argmax(values))
        x0, f0 = probes[best], float(values[best])
    else:
        x0 = probes[int(np.argmax(batch_objective(probes)))]
        f0 = float(objective(x0))
    cfg = config.ascent
    width = hi - lo
    x, fx = x0.copy(), f0
    step = cfg.initial_step_fraction
    for _ in range(cfg.max_iterations):
        g = np.asarray(gradient(x), dtype=float)
        gnorm = float(np.linalg.norm(g))
        if gnorm < cfg.gradient_tolerance:
            break
        direction = g / gnorm
        improved = False
        trial = step
        while trial > 1e-12:
            cand = np.clip(x + trial * width * direction, lo, hi)
            fc = float(objective(cand))
            if fc > fx:
                x, fx = cand, fc
                step = trial
                improved = True
                break
            trial *= 0.5
        if not improved:
            break
    return (x, fx) if fx > f0 else (x0, f0)


def single_block_means(model, X) -> np.ndarray:
    """`predict_mean_matrix` as one block of all the points: an oracle of its blocked form."""
    Xn = model.dataset.normalize(np.atleast_2d(np.asarray(X, dtype=float)))
    sq = squared_distances(model.dataset.unit_nodes, Xn)
    K = np.empty_like(sq)
    means = np.empty((model.n_outputs, sq.shape[1]))
    for p, b2 in enumerate(model.squared_bandwidths):
        means[p] = exp_quadratic(sq, b2, out=K).T @ model.alpha[p]
    return means


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
        nodes = [[mpmath.mpf(v) for v in column] for column in model.dataset.unit_nodes.T]
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


def unit_box(dimension) -> np.ndarray:
    """The unit hypercube as (dimension, 2) rows of [0, 1], the box a sampler scales unit points by unchanged."""
    return np.tile([0.0, 1.0], (dimension, 1))


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
    terms = gp.evaluate(model, model.dataset.normalize(x).T, strict=False)
    return predict_mean_matrix(model, x)[:, 0], terms.variances[0], terms.gradient_norms[0]


def prior_density(prior, x) -> float:
    """An `InputPrior`'s joint density at one raw point; zero outside its box."""
    return float(prior.densities(np.asarray(x, dtype=float).ravel()[np.newaxis, :])[0])


def prior_contains(prior, x) -> bool:
    """Whether one raw point lies inside an `InputPrior`'s box."""
    x = np.asarray(x, dtype=float).ravel()
    return bool(np.all(x >= prior.low) and np.all(x <= prior.high))


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
