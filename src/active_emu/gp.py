"""Gaussian-process interpolation and regression of every output row over shared nodes.

Zero-mean GPs with the exponentiated quadratic kernel, one per output row,
each with its own bandwidth and nugget.  `select_hyperparameters` chooses
them for all rows at once, either by marginal likelihood (with a fixed
nugget, one factorisation per grid bandwidth serves all rows, and Brent's
method refines each row's grid maximum) or by the largest bandwidth that
keeps the kernel matrix numerically invertible.  A refit whose nodes grew
by one may hint the fixed-nugget search with the previous fit's
bandwidths (see `_shared_ml_bandwidths`).
`fit` solves every row's weights, reusing the factors the search built.
`evaluate` is the one evaluation of a fitted `multi_output.MultiGpModel`
away from its nodes: every output's variances (predictive or noise-free),
mean gradients and, on request, their derivatives at a block of points.
It stacks the outputs: one (P, n, m) kernel block, P solves with the
outputs' factors, and every other term one array operation over the stack,
returned per point as C-contiguous (n, P[, D]) arrays.  The predictive
means are `multi_output.predict_mean_matrix`.  A `Dataset` builds its
nodes' geometry once: their unit-cube coordinates, which every evaluation
reads, and their one matrix of squared distances, which the search and
the fit take in place of the nodes.  Kernel blocks and every
K + nugget I come from `kernels`.  Every Cholesky factorisation is
`cho_factor`, through `_factor` (None where K is not positive definite),
and every solve with its factor is `_solve`, both thin LAPACK calls.
Every run holds scipy's LAPACK at one thread (`single_lapack_thread`, in
`loop._drive`), so a seeded run is bit for bit at any thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .kernels import exp_quadratic, gram, squared_distances
from .optimize import AnnealingConfig, OptimizerConfig, OptimizerFailure, check_box, in_box, maximize
from .seeding import derive_seed

# Pairwise node distance below which two nodes count as duplicates
# (normalized input units).
DUPLICATE_TOLERANCE = 1e-12

# Bandwidth search range in normalized input units, shared by both
# hyperparameter strategies.
BANDWIDTH_GRID = np.geomspace(1e-2, 1e1, 50)

# Condition-number cap for the max-stable-bandwidth strategy.
CONDITION_BOUND = 1e6

LEARNED_NUGGET_BOUNDS = (1e-8, 1e-1)

HYPER_STRATEGIES = ("marginal-likelihood", "max-stable-bandwidth")

# Most evaluations per output when the fixed-nugget marginal-likelihood
# search refines its grid maximum (Brent's method, whose fallback steps are
# golden sections), and the width in log-bandwidth at which it stops.
BRENT_EVALUATIONS = 12
BRENT_TOLERANCE = 1e-5
# Grid cells either side of each hinted bandwidth's nearest cell that a
# warm-started search scores first.
HINT_WINDOW = 2
_GOLDEN_STEP = (3.0 - np.sqrt(5.0)) / 2.0
_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

# Round-off window for clamping tiny negative predictive variances.
_VARIANCE_CLAMP = 1e-12
# Wider window for the deliberately unregularized solve behind the
# acquisition's zero-at-nodes diversity term.
_NOISE_FREE_CLAMP = 1e-6


class IllConditionedError(ValueError):
    """Kernel matrix factorization failed; carries a condition estimate."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True, eq=False)
class Dataset:
    """Evaluated nodes: inputs X (D x m), outputs Y (P x m), and the input box; compared by identity.

    It owns the nodes' geometry, built once and read-only: `unit_nodes`, X
    in the unit hypercube, and `node_distances`, their squared distances.
    Duplicates, here and in `duplicates`, are judged by `_coincident` on
    exact coordinate differences, not on `node_distances`: its expanded
    form rounds far above DUPLICATE_TOLERANCE^2.  Every node lies in the
    box by the `optimize` box rule, with no slack.
    """

    X: np.ndarray
    Y: np.ndarray
    input_bounds: np.ndarray  # (D, 2) rows of [low, high]
    unit_nodes: np.ndarray = field(init=False, repr=False)  # D x m
    node_distances: np.ndarray = field(init=False, repr=False)  # m x m

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        bounds = check_box(self.input_bounds, X.shape[0])
        if X.shape[1] != Y.shape[1]:
            raise ValueError(f"X has {X.shape[1]} nodes but Y has {Y.shape[1]} output columns")
        if not in_box(X, bounds):
            raise ValueError("nodes must be finite and lie within input_bounds")
        if not np.isfinite(Y).all():
            raise ValueError("outputs must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "input_bounds", bounds)
        unit = self.normalize(X)
        coincident = _coincident(_exact_squared_distances(unit, unit))
        np.fill_diagonal(coincident, False)
        if coincident.any():
            raise ValueError("duplicate nodes (normalized distance < 1e-12)")
        sq = squared_distances(unit, unit)
        for name, value in (("unit_nodes", unit), ("node_distances", sq)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.X.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.X.shape[1]

    def normalize(self, x) -> np.ndarray:
        """Map raw coordinates, columns (D x n) or one point (D,), into the unit hypercube."""
        x = np.asarray(x, dtype=float)
        lo, hi = (self.input_bounds[:, :1], self.input_bounds[:, 1:]) if x.ndim == 2 else self.input_bounds.T
        return (x - lo) / (hi - lo)

    def duplicates(self, points) -> np.ndarray:
        """Whether each of the points (D x n columns, or one point, raw) lies within DUPLICATE_TOLERANCE of a node."""
        points = np.reshape(np.asarray(points, dtype=float), (self.dimension, -1))
        return _coincident(_exact_squared_distances(self.unit_nodes, self.normalize(points)).min(axis=0))

    def with_node(self, x, y) -> "Dataset":
        """Append one node; rejects duplicates via the Dataset invariant."""
        x = np.asarray(x, dtype=float).reshape(self.dimension, 1)
        y = np.asarray(y, dtype=float).reshape(self.n_outputs, 1)
        return Dataset(np.hstack([self.X, x]), np.hstack([self.Y, y]), self.input_bounds)


def _exact_squared_distances(A, B) -> np.ndarray:
    """Squared distances between the columns of A (D x m) and of B (D x n), summed from coordinate differences."""
    diffs = A[:, :, np.newaxis] - B[:, np.newaxis, :]
    return np.einsum("dmn,dmn->mn", diffs, diffs)


def _coincident(sq) -> np.ndarray:
    """Whether exact squared distances sq put two points within DUPLICATE_TOLERANCE: the one duplicate rule."""
    return sq < DUPLICATE_TOLERANCE**2


def fit(sq, Y, bandwidths, nuggets, factors) -> tuple[np.ndarray, list]:
    """Weights alpha (P x m) of every output row of Y, and the P factors, from the nodes' `Dataset.node_distances` sq.

    Row p solves (K + nuggets[p] I) alpha[p] = Y[p] at bandwidths[p] with
    factors[p], the `cho_factor` the search handed out, or a new one where
    that is None.  Without a nugget, (near-)coincident nodes make K
    singular and raise IllConditionedError, tagged with the row.
    """
    alpha = np.empty(Y.shape)
    factors = list(factors)
    for p, y in enumerate(Y):
        if factors[p] is None:
            K = gram(sq, bandwidths[p], nuggets[p])
            factors[p] = _factor(K)
            if factors[p] is None:
                cond = float(np.linalg.cond(K))
                raise IllConditionedError(
                    f"output {p}: kernel matrix is not positive definite (condition estimate {cond:.3e}); "
                    "distinct nodes or a nugget are required",
                    condition_estimate=cond,
                )
        alpha[p] = _solve(factors[p], y)
    return alpha, factors


def _noise_free_factor(sq, bandwidth: float):
    """Cholesky of the nugget-free K over the nodes' squared distances sq, escalating jitter if needed.

    The jitter enters K as a nugget would.  A factor is kept only when
    LAPACK's condition estimate of the jittered matrix stays below 1/eps: a
    Cholesky can succeed on a numerically singular K and then give
    variances far more negative than round-off.
    """
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        K = gram(sq, bandwidth, jitter)
        factor = _factor(K)
        if factor is not None and _condition_estimate(K, factor) * np.finfo(float).eps < 1.0:
            return factor
    return None


def _strict_factors(model) -> list:
    """Cholesky factors behind the noise-free variances of a fitted model, one per output.

    Built on the model's first strict evaluation from its dataset's
    `node_distances`, and kept in its `noise_free_factors`.  Without a
    nugget an output's factor of K alone is its fit's own; where even the
    largest jitter gives none, K + nugget I stands in.
    """
    cache = model.noise_free_factors
    if not cache:
        cache.extend(
            factor if nugget == 0.0 else _noise_free_factor(model.dataset.node_distances, bandwidth) or factor
            for bandwidth, nugget, factor in zip(model.bandwidths, model.nuggets, model.factors)
        )
    return cache


def _clamped(values: np.ndarray, strict: bool) -> np.ndarray:
    """Round-off clamp of (n, P) variances: tiny negatives become 0, larger ones raise.

    The error names the output that holds the most negative value.
    """
    clamp = _NOISE_FREE_CLAMP if strict else _VARIANCE_CLAMP
    if (values >= -clamp).all():
        return np.maximum(values, 0.0)
    what = "noise-free variance" if strict else "predictive variance"
    j, p = np.unravel_index(np.argmin(values), values.shape)
    raise IllConditionedError(f"output {p}: {what} {float(values[j, p])} is more negative than round-off allows")


def rowwise_dot(A, B) -> np.ndarray:
    """Dot product of each last-axis row of A (..., k) with the same row of B, broadcast.

    Stacked 1 x k by k x 1 products, so each row is reduced as `a @ b`
    reduces a single pair, provided both rows are contiguous.
    """
    return np.matmul(A[..., np.newaxis, :], B[..., np.newaxis])[..., 0, 0]


def _by_rows(A, V) -> np.ndarray:
    """A[j] @ V[p, j] for every output p and point j: (n, r, k) matrices times the rows of V (P, n, k)."""
    return np.matmul(A, V[..., np.newaxis])[..., 0]


def _by_points(A) -> np.ndarray:
    """A (P, n, ...) per output as a C-contiguous (n, P, ...) array per point."""
    return np.ascontiguousarray(A.swapaxes(0, 1))


class Evaluation(NamedTuple):
    """Per-output terms at n points: (n, P) values, (n, P, D) gradients; None where not asked for.

    Every array is C-contiguous, so a row's P values are adjacent, as in a
    one-row evaluation (see `evaluate`).
    """

    variances: np.ndarray
    mean_gradients: np.ndarray | None
    gradient_norms: np.ndarray | None  # Euclidean norms of mean_gradients
    variance_gradients: np.ndarray | None
    norm_gradients: np.ndarray | None  # gradients of gradient_norms


def evaluate(model, Xq, strict: bool, mean_gradients: bool = True, derivatives: bool = False) -> Evaluation:
    """Variances and mean gradients of a fitted `MultiGpModel`, at the rows of Xq (n x D, unit cube).

    All P outputs are one stacked computation, in the batched layout of
    GPyTorch (Gardner et al., arXiv:1809.11165).  The (n, m, D)
    differences to the dataset's `unit_nodes` and their squared distances
    are built once; one `exp_quadratic` of them over the outputs' b^2 gives
    the kernel block K of shape (P, n, m).  The only per-output step is the solve: P
    `_solve` calls, each with n right-hand sides, turn a copy of K into W,
    whose row W[p, j] is (K_p + nugget_p I)^-1 k_x of point j (the
    triangular-solve form of GPML Alg. 2.1).  Every other term is one
    broadcast `matmul`, elementwise operation or clamp over the whole
    (P, n, .) stack.  strict selects the noise-free variance, exactly zero
    at a node; both variances pass the round-off clamps.  `derivatives`
    adds the variance gradients and, with `mean_gradients`, the gradients
    of the mean-gradient norms (a Hessian-vector product, zero where the
    norm is below 1e-12).

    Every reduction is one dot product or matrix-vector product per
    (output, point) pair over contiguous rows, as for a single point, so a
    row depends on the rest of the block only through the solve: a one-row
    block is the evaluation of that point, bit for bit.  The returned
    arrays are C-contiguous (n, P[, D]) copies.  That matters to callers
    that reduce a row's P values (`acquisition._combine_rows` sums the
    values and their gradients): numpy adds a contiguous row in another
    order than a strided one, so a transposed view of the (P, n) stack
    would round some block values 1 ULP away from the one-row values.  K
    and W share one allocation, and later stacks overwrite them: a fresh
    multi-megabyte temporary per call costs hundreds of page faults.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    nodes = model.dataset.unit_nodes
    if Xq.shape[1] != nodes.shape[0]:
        raise ValueError(f"query points have dimension {Xq.shape[1]}, the model expects {nodes.shape[0]}")
    diffs = Xq[:, np.newaxis, :] - nodes.T[np.newaxis, :, :]  # (n, m, D), diffs[j, i] = x_j - x_i
    diffs_t = diffs.transpose(0, 2, 1)
    sq = np.einsum("nmd,nmd->nm", diffs, diffs)
    b2 = model.squared_bandwidths[:, np.newaxis, np.newaxis]  # (P, 1, 1), broadcast over (P, n, .)
    alpha = model.alpha[:, np.newaxis, :]
    K, W = np.empty((2, model.n_outputs) + sq.shape)
    exp_quadratic(sq, b2, out=K)  # K[p, j] is k_x of point j under output p
    np.copyto(W, K)
    for p, factor in enumerate(_strict_factors(model) if strict else model.factors):
        _solve(factor, W[p].T, overwrite=True)  # W[p] = K[p] (K + nugget I)^-1, in place
    quad = _by_points(rowwise_dot(K, W))
    if strict:
        values = 1.0 - quad
        values[_coincident(sq.min(axis=1))] = 0.0  # at a node
    else:
        values = np.add(model.nuggets, 1.0) - quad
    variances = _clamped(values, strict)
    variance_gradients = gradients = norms = norm_gradients = None
    if derivatives:
        variance_gradients = _by_points((2.0 / b2) * _by_rows(diffs_t, np.multiply(K, W, out=W)))
    if not mean_gradients:
        return Evaluation(variances, gradients, norms, variance_gradients, norm_gradients)
    k_alpha = rowwise_dot(K, alpha) if derivatives else None
    weighted = np.multiply(K, alpha, out=K)
    g = -_by_rows(diffs_t, weighted) / b2
    norm = np.sqrt(rowwise_dot(g, g))
    gradients, norms = _by_points(g), _by_points(norm)
    if derivatives:
        # Hessian-vector product of the mean without forming the D x D Hessian:
        # H g = (1/b2^2) sum_i alpha_i k_i d_i (d_i . g) - (1/b2) (alpha . k) g.
        t = np.matmul(diffs, g[..., np.newaxis], out=W[..., np.newaxis])[..., 0]  # (P, n, m)
        Hg = _by_rows(diffs_t, np.multiply(weighted, t, out=t)) / model.fourth_powers[:, np.newaxis, np.newaxis]
        Hg -= (k_alpha / b2[..., 0])[..., np.newaxis] * g
        flat = norm < 1e-12
        Hg /= np.where(flat, 1.0, norm)[..., np.newaxis]
        Hg[flat] = 0.0
        norm_gradients = _by_points(Hg)
    return Evaluation(variances, gradients, norms, variance_gradients, norm_gradients)


@functools.cache
def _lapack_thread_control():
    """The (get, set) thread-count functions of scipy's bundled OpenBLAS, or None where there is none."""
    for path in (Path(scipy.__file__).parents[1] / "scipy.libs").glob("libscipy_openblas*"):
        library = ctypes.CDLL(str(path))  # the handle of the library scipy already loaded
        if hasattr(library, "scipy_openblas_set_num_threads"):  # LP64 symbols only
            return library.scipy_openblas_get_num_threads, library.scipy_openblas_set_num_threads
    return None


@contextlib.contextmanager
def single_lapack_thread():
    """Hold scipy's LAPACK at one thread inside the block and restore its count after; a no-op without one.

    From m = 128 on, a threaded `dpotrf` rounds differently.  numpy's BLAS changes no result and is left alone.
    """
    control = _lapack_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def cho_factor(K, lower: bool = True) -> tuple:
    """Lower Cholesky factor of K, as `(L, True)`; LinAlgError if K is not positive definite.

    LAPACK dpotrf on the lower triangle of K, bitwise
    `scipy.linalg.cho_factor(K, lower=True)` without its finiteness check
    (`Dataset` rejects non-finite data).  As there, the strict upper
    triangle of L is left as it was in K.
    """
    if not lower:
        raise ValueError("only the lower Cholesky factor is supported")
    L, info = dpotrf(K, lower=1, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    return L, True


def _factor(K):
    """`cho_factor(K, lower=True)`, or None where K is not positive definite."""
    try:
        return cho_factor(K, lower=True)
    except LinAlgError:
        return None


def _solve(factor, B, overwrite: bool = False) -> np.ndarray:
    """Solve (L L^T) X = B from a `cho_factor` factor.

    LAPACK dpotrs, bitwise `scipy.linalg.cho_solve` without its finiteness
    checks.  With `overwrite`, a Fortran-contiguous float B is overwritten
    by X in place.
    """
    X, info = dpotrs(factor[0], B, lower=factor[1], overwrite_b=overwrite)
    if info != 0:
        raise ValueError(f"dpotrs: illegal value in argument {-info}")
    return X


def _condition_estimate(K, factor) -> float:
    """LAPACK's 1-norm condition estimate of K from its Cholesky factor."""
    rcond, _ = dpocon(factor[0], np.linalg.norm(K, 1), uplo="L")
    return 1.0 / rcond if rcond > 0.0 else np.inf


def _log_ml_rows(sq, Y, bandwidth: float, nugget: float):
    """Log marginal likelihood of every row of Y (P x m) at one bandwidth, and its factor.

    K + nugget I is the same for every row, so one Cholesky gives the
    log-determinant of all of them and one solve with the rows as
    right-hand sides gives every quadratic term (GPML eq. 5.8).  K is the
    `gram` of the nodes' squared distances sq, as in `kernel_matrix`.
    Returns (None, None) when the matrix is not positive definite.
    """
    factor = _factor(gram(sq, bandwidth, nugget))
    if factor is None:
        return None, None
    alpha = _solve(factor, Y.T)  # (m, P)
    log_det = 2.0 * float(np.log(factor[0].diagonal()).sum())
    return -0.5 * rowwise_dot(Y, alpha.T) - 0.5 * log_det - 0.5 * Y.shape[1] * np.log(2.0 * np.pi), factor


def _brent_max(f, lo: float, hi: float, seeds, evaluations: int, tolerance: float):
    """Best (value, point, payload) of at most `evaluations` probes of f on [lo, hi], by Brent's method.

    Parabolic interpolation with a golden-section fallback (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5, as in
    scipy's `fminbound`), maximizing.  `seeds` are up to three (value,
    point) pairs in [lo, hi] whose values are already known, the best
    first: the first parabola goes through them, so they cost no
    evaluation.  The search stops once the best point's bracket is within
    `tolerance` (plus a relative sqrt(eps)), or after `evaluations` probes.
    f returns (value, payload).  Probes rank by (value, point); only the
    best keeps its payload.  None if no probe was made.
    """
    (fx, x), *rest = seeds
    (fw, w), (fv, v) = (list(rest) + [(fx, x)] * 2)[:2]
    a, b = lo, hi
    d = e = b - a  # the seeds' spacing stands in for the steps before them
    best = None
    for _ in range(evaluations):
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tolerance / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        parabolic = False
        if abs(e) > tol1:  # the vertex of the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                d = p / q
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if xm >= x else -tol1
                parabolic = True
        if not parabolic:
            e = a - x if x >= xm else b - x
            d = _GOLDEN_STEP * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0.0 else -tol1))
        fu, payload = f(u)
        if best is None or (fu, u) > best[:2]:
            best = (fu, u, payload)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return best


def _shared_ml_bandwidths(sq, Y, nugget: float, hint=None) -> tuple[list[float], list]:
    """Marginal-likelihood bandwidth of every row of Y under one fixed nugget, and its factor.

    BANDWIDTH_GRID values are scored for all rows at once, in ascending
    order, with one factorisation each of the `gram` of the nodes' squared
    distances sq.  Without a `hint` that is every grid value.  A hint is a
    sequence of bandwidths, such as the previous fit's when the nodes only
    grew by one: the search then scores first the union of the cells
    within HINT_WINDOW of each hinted bandwidth's nearest cell, and scores
    the rest of the grid only if some row's best scored cell has no finite
    score or lacks a scored neighbour (grid ends apart).  A hinted search
    therefore differs from the full one only if some row's full grid holds
    a score outside the window at least as high as the window's best,
    while that best cell is interior to the window.
    Each row is then refined by `_brent_max` over log-bandwidth inside the
    grid cells either side of its grid maximum (clipped at the grid ends),
    seeded with the grid maximum and its neighbours with finite scores, so
    that its first step is the parabola through their known scores.  A row
    keeps its grid point unless the refinement beats it.  A row
    whose grid has no finite score raises IllConditionedError naming it:
    no grid bandwidth factorises, or the outputs are so large that the
    log-ML overflows.

    Each row's factor is the one the search built at its chosen bandwidth
    (None where that factorisation failed).  Only the factors of the rows'
    running maxima are kept, at most one per row.
    """

    def scores(bandwidth, rows):
        values, factor = _log_ml_rows(sq, rows, bandwidth, nugget)
        return np.full(rows.shape[0], -np.inf) if values is None else values, factor

    grid_scores = np.full((BANDWIDTH_GRID.size, Y.shape[0]), -np.inf)  # -inf until scored
    scored = np.zeros(BANDWIDTH_GRID.size, dtype=bool)
    factors = [None] * Y.shape[0]

    def score_cells(cells):
        for k in cells:
            grid_scores[k], factor = scores(BANDWIDTH_GRID[k], Y)
            scored[k] = True
            for p in (grid_scores.argmax(axis=0) == k).nonzero()[0]:
                factors[p] = factor  # the row's first grid maximum so far

    log_grid = np.log(BANDWIDTH_GRID)
    cells = np.arange(log_grid.size)
    window_holds = False
    if hint is not None:
        centres = np.abs(log_grid[:, np.newaxis] - np.log(hint)).argmin(axis=0)
        score_cells(cells[np.abs(cells[:, np.newaxis] - centres).min(axis=1) <= HINT_WINDOW])
        peaks = grid_scores.argmax(axis=0)
        beside = np.clip([peaks - 1, peaks + 1], 0, cells[-1])
        window_holds = np.isfinite(grid_scores.max(axis=0)).all() and scored[beside].all()
    if not window_holds:
        score_cells(cells[~scored])  # the full search, or the rest of the grid
    bandwidths = []
    for p, row in enumerate(Y):
        k = int(np.argmax(grid_scores[:, p]))
        if not np.isfinite(grid_scores[k, p]):
            raise IllConditionedError(f"output {p}: the log marginal likelihood is not finite at any grid bandwidth")
        bandwidth = float(BANDWIDTH_GRID[k])
        neighbours = [j for j in (k - 1, k + 1) if 0 <= j < log_grid.size and np.isfinite(grid_scores[j, p])]
        seeds = [(float(grid_scores[j, p]), float(log_grid[j])) for j in neighbours]
        seeds = [(float(grid_scores[k, p]), float(log_grid[k]))] + sorted(seeds, reverse=True)

        def refined(t):
            values, factor = scores(np.exp(t), row[np.newaxis, :])
            return float(values[0]), factor

        lo, hi = log_grid[max(k - 1, 0)], log_grid[min(k + 1, log_grid.size - 1)]
        best = _brent_max(refined, float(lo), float(hi), seeds, BRENT_EVALUATIONS, BRENT_TOLERANCE)
        if best is not None and best[0] > grid_scores[k, p]:
            bandwidth = float(np.exp(best[1]))
            factors[p] = best[2]
        bandwidths.append(bandwidth)
    return bandwidths, factors


def _max_stable_bandwidth(sq, nugget: float) -> tuple[float, tuple | None]:
    """Largest grid bandwidth whose K + nugget I factorises within CONDITION_BOUND, and its factor.

    `sq` holds the nodes' squared distances.  Where no grid bandwidth
    qualifies, the smallest, with its factor if it has one.
    """
    for bandwidth in BANDWIDTH_GRID[::-1]:
        K = gram(sq, bandwidth, nugget)
        factor = _factor(K)
        if factor is not None and _condition_estimate(K, factor) <= CONDITION_BOUND:
            return float(bandwidth), factor
    return float(BANDWIDTH_GRID[0]), factor


def _learned_nugget_search(sq, y, seed: int, optimizer: OptimizerConfig) -> tuple[float, float]:
    """Bandwidth and nugget of one row by `optimizer` over log-space bounds; `sq` as for `_log_ml_rows`."""
    Y = y[np.newaxis, :]

    def objective(theta):
        values, _ = _log_ml_rows(sq, Y, np.exp(theta[0]), np.exp(theta[1]))
        return -1e300 if values is None else float(values[0])  # finite so the optimizer can walk away

    bounds = [
        [np.log(BANDWIDTH_GRID[0]), np.log(BANDWIDTH_GRID[-1])],
        [np.log(LEARNED_NUGGET_BOUNDS[0]), np.log(LEARNED_NUGGET_BOUNDS[1])],
    ]
    theta, _ = maximize(objective, bounds, optimizer.with_seed(seed))
    return float(np.exp(theta[0])), float(np.exp(theta[1]))


def check_hyperparameters(strategy: str, nugget_policy: float | str) -> None:
    """Raise ValueError unless `select_hyperparameters` accepts this strategy and nugget policy."""
    if strategy not in HYPER_STRATEGIES:
        raise ValueError(f"unknown hyperparameter strategy: {strategy!r}")
    if nugget_policy == "learned":
        if strategy == "max-stable-bandwidth":
            raise ValueError("max-stable-bandwidth requires a fixed nugget")
    elif not float(nugget_policy) >= 0.0:
        raise ValueError(f"nugget must be nonnegative, got {nugget_policy}")


def select_hyperparameters(
    sq,
    outputs,
    strategy: str = "marginal-likelihood",
    nugget_policy: float | str = 0.0,
    seed: int = 0,
    optimizer: OptimizerConfig | None = None,
    hint=None,
) -> tuple[list[float], list[float], list]:
    """Choose the kernel bandwidth (and optionally the nugget) of every output row.

    The search sees the nodes only through sq, their `Dataset.node_distances`.
    `outputs` is P rows (P x m), or one row (m,).  Returns the per-row lists
    (bandwidths, nuggets, factors), where a row's factor is its
    `cho_factor` of K + nugget I at its choice if the search built one (both
    fixed-nugget strategies), else None.  nugget_policy is either a fixed
    variance (float) or the string 'learned'; `check_hyperparameters` says
    which pairings are accepted.

    strategy 'marginal-likelihood' with a fixed nugget maximizes each row's
    log marginal likelihood by one deterministic search shared by all rows
    (`_shared_ml_bandwidths`), the only one that reads `hint`: bandwidths
    near which to score the grid first, the previous fit's when the nodes
    grew by one.  With the learned nugget each row gets its own 2-D search
    by `optimizer` (short simulated annealing by default), seeded with
    `derive_seed(seed, p)` for row p; `optimizer` and `seed` apply to the
    learned nugget only.
    'max-stable-bandwidth' walks the bandwidth grid once from the top and
    gives every row the largest value whose regularized kernel matrix stays
    below the condition bound.
    """
    Y = np.atleast_2d(np.asarray(outputs, dtype=float))
    if sq.shape != (Y.shape[1],) * 2:
        raise ValueError(f"node distances of shape {sq.shape} for {Y.shape[1]} outputs per row")
    if Y.shape[1] < 2:
        raise ValueError("hyperparameter selection needs at least two nodes")
    check_hyperparameters(strategy, nugget_policy)
    P = Y.shape[0]
    if nugget_policy == "learned":
        if optimizer is None:
            # The log-space search is 2-dimensional and smooth; a short
            # annealing chain is enough.
            optimizer = OptimizerConfig(
                strategy="simulated-annealing",
                annealing=AnnealingConfig(iterations=200),
            )
        chosen = []
        for p, y in enumerate(Y):
            try:
                chosen.append(_learned_nugget_search(sq, y, derive_seed(seed, p), optimizer))
            except OptimizerFailure as exc:  # its point is (log bandwidth, log nugget), not an input
                raise IllConditionedError(f"output {p}: the learned-nugget hyperparameter search: {exc}") from exc
        return [b for b, _ in chosen], [nugget for _, nugget in chosen], [None] * P
    nugget = float(nugget_policy)
    if strategy == "max-stable-bandwidth":
        bandwidth, factor = _max_stable_bandwidth(sq, nugget)
        return [bandwidth] * P, [nugget] * P, [factor] * P
    bandwidths, factors = _shared_ml_bandwidths(sq, Y, nugget, hint)
    return bandwidths, [nugget] * P, factors
