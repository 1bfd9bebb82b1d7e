"""Gaussian-process interpolation and regression of every output row over shared nodes.

Zero-mean GPs with the exponentiated quadratic kernel, one per output row,
each with its own bandwidth and nugget.  `select_hyperparameters` chooses
them for all rows at once, either by marginal likelihood (with a fixed
nugget, one factorisation per grid bandwidth serves all rows) or by the
largest bandwidth that keeps the kernel matrix numerically invertible.
`fit` solves every row's weights, reusing the factors the search built.
`evaluate` is the one evaluation of a fitted `multi_output.MultiGpModel`
away from its nodes: every output's variances (predictive or noise-free),
mean gradients and, on request, their derivatives at a block of points.
It stacks the outputs: one (P, n, m) kernel block, P solves with the
outputs' factors, and every other term one array operation over the stack,
returned per point as C-contiguous (n, P[, D]) arrays.  The predictive
means are `multi_output.predict_mean_matrix`.  Every Cholesky
factorisation is `cho_factor` and every solve with its factor is `_solve`,
both thin LAPACK calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .kernels import KernelParams, kernel_matrix, squared_distances
from .optimize import AnnealingConfig, OptimizerConfig, maximize
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

# Golden-section evaluations per output when the fixed-nugget
# marginal-likelihood search refines its grid maximum.
GOLDEN_SECTION_STEPS = 12
_INVERSE_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

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


@dataclass(frozen=True)
class Dataset:
    """Evaluated nodes: inputs X (D x m), outputs Y (P x m), and the input box."""

    X: np.ndarray
    Y: np.ndarray
    input_bounds: np.ndarray  # (D, 2) rows of [low, high]

    def __post_init__(self) -> None:
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        bounds = np.asarray(self.input_bounds, dtype=float)
        if bounds.shape != (X.shape[0], 2):
            raise ValueError(f"input_bounds must have shape ({X.shape[0]}, 2), got {bounds.shape}")
        if not np.all(bounds[:, 1] > bounds[:, 0]):
            raise ValueError("each input bound must satisfy low < high")
        if X.shape[1] != Y.shape[1]:
            raise ValueError(f"X has {X.shape[1]} nodes but Y has {Y.shape[1]} output columns")
        if not np.isfinite(X).all():
            raise ValueError("nodes must be finite")
        if not np.isfinite(Y).all():
            raise ValueError("outputs must be finite")
        lo, hi = bounds[:, 0:1], bounds[:, 1:2]
        if np.any(X < lo - 1e-9) or np.any(X > hi + 1e-9):
            raise ValueError("nodes must lie within input_bounds")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "input_bounds", bounds)
        Xn = self.normalize(X)
        if X.shape[1] > 1:
            sq = squared_distances(Xn, Xn)
            np.fill_diagonal(sq, np.inf)
            if np.min(sq) < DUPLICATE_TOLERANCE**2:
                raise ValueError("duplicate nodes (normalized distance < 1e-12)")

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
        """Map raw coordinates into the unit hypercube."""
        x = np.asarray(x, dtype=float)
        lo = self.input_bounds[:, 0]
        width = self.input_bounds[:, 1] - lo
        if x.ndim == 2:  # column points
            return (x - lo[:, np.newaxis]) / width[:, np.newaxis]
        return (x - lo) / width

    def with_node(self, x, y) -> "Dataset":
        """Append one node; rejects duplicates via the Dataset invariant."""
        x = np.asarray(x, dtype=float).reshape(self.dimension, 1)
        y = np.asarray(y, dtype=float).reshape(self.n_outputs, 1)
        return Dataset(np.hstack([self.X, x]), np.hstack([self.Y, y]), self.input_bounds)


def fit(nodes, Y, bandwidths, nuggets, factors) -> tuple[np.ndarray, list]:
    """Weights alpha (P x m) of every output row of Y at the nodes (D x m), and the P factors.

    Row p solves (K + nuggets[p] I) alpha[p] = Y[p] at bandwidths[p] with
    factors[p], the `cho_factor` the search handed out, or a new one where
    that is None.  Without a nugget, (near-)coincident nodes make K
    singular and raise IllConditionedError, tagged with the row.
    """
    alpha = np.empty(Y.shape)
    factors = list(factors)
    for p, y in enumerate(Y):
        if factors[p] is None:
            K = kernel_matrix(nodes, KernelParams(bandwidths[p]), nuggets[p])
            try:
                factors[p] = cho_factor(K, lower=True)
            except LinAlgError as exc:
                cond = float(np.linalg.cond(K))
                raise IllConditionedError(
                    f"output {p}: kernel matrix is not positive definite (condition estimate {cond:.3e}); "
                    "distinct nodes or a nugget are required",
                    condition_estimate=cond,
                ) from exc
        alpha[p] = _solve(factors[p], y)
    return alpha, factors


def _noise_free_factor(X, params: KernelParams):
    """Cholesky of the nugget-free K, escalating jitter if needed.

    A factor is kept only when LAPACK's condition estimate of the jittered
    matrix stays below 1/eps: a Cholesky can succeed on a numerically
    singular K and then give variances far more negative than round-off.
    """
    K = kernel_matrix(X, params, 0.0)
    for jitter in (0.0, 1e-12, 1e-10, 1e-8):
        Kj = K.copy()
        Kj.ravel()[:: K.shape[0] + 1] += jitter
        try:
            factor = cho_factor(Kj, lower=True)
        except LinAlgError:
            continue
        if _condition_estimate(Kj, factor) * np.finfo(float).eps < 1.0:
            return factor
    return None


def _strict_factors(model) -> list:
    """Cholesky factors behind the noise-free variances of a fitted model, one per output.

    Built on the model's first strict evaluation and kept in its
    `noise_free_factors`.  Without a nugget an output's factor of K alone is
    its fit's own; where even the largest jitter gives none, K + nugget I
    stands in.
    """
    cache = model.noise_free_factors
    if not cache:
        built = [
            None if nugget == 0.0 else _noise_free_factor(model.nodes, KernelParams(bandwidth))
            for bandwidth, nugget in zip(model.bandwidths, model.nuggets)
        ]
        cache.extend(factor if own is None else own for factor, own in zip(model.factors, built))
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
    differences to the model's nodes and their squared distances are built
    once; one `exp` of them over the outputs' b^2 gives the kernel block K
    of shape (P, n, m).  The only per-output step is the solve: P `_solve`
    calls, each with n right-hand sides, turn a copy of K into W, whose
    row W[p, j] is (K_p + nugget_p I)^-1 k_x of point j (the
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
    that reduce a row's P values (`acquisition._combine_rows` sums them):
    numpy adds a contiguous row in another order than a strided one, so a
    transposed view of the (P, n) stack would round some block values 1
    ULP away from the one-row values.  K and W share one allocation, and
    later stacks overwrite them: a fresh multi-megabyte temporary per call
    costs hundreds of page faults.
    """
    Xq = np.atleast_2d(np.asarray(Xq, dtype=float))
    nodes = model.nodes
    if Xq.shape[1] != nodes.shape[0]:
        raise ValueError(f"query points have dimension {Xq.shape[1]}, the model expects {nodes.shape[0]}")
    diffs = Xq[:, np.newaxis, :] - nodes.T[np.newaxis, :, :]  # (n, m, D), diffs[j, i] = x_j - x_i
    diffs_t = diffs.transpose(0, 2, 1)
    sq = np.einsum("nmd,nmd->nm", diffs, diffs)
    b2 = model.squared_bandwidths[:, np.newaxis, np.newaxis]  # (P, 1, 1), broadcast over (P, n, .)
    alpha = model.alpha[:, np.newaxis, :]
    K, W = np.empty((2, model.n_outputs) + sq.shape)
    np.divide(sq, -2.0 * b2, out=K)  # bitwise (-sq) / (2 b2)
    np.exp(K, out=K)  # K[p, j] is k_x of point j under output p
    np.copyto(W, K)
    for p, factor in enumerate(_strict_factors(model) if strict else model.factors):
        _solve(factor, W[p].T, overwrite=True)  # W[p] = K[p] (K + nugget I)^-1, in place
    quad = _by_points(rowwise_dot(K, W))
    if strict:
        values = 1.0 - quad
        values[sq.min(axis=1) <= DUPLICATE_TOLERANCE**2] = 0.0  # at a node
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
    right-hand sides gives every quadratic term (GPML eq. 5.8).  `sq` holds
    the nodes' squared distances with a zero diagonal.  The factor equals
    that of `kernel_matrix` bit for bit while `sq` is exactly symmetric, as
    `squared_distances(X, X)` is (numpy forms X.T @ X by a symmetric
    rank-k update): K's lower triangle, all that `cho_factor` reads, then
    equals `kernel_matrix`'s symmetrised one.  Returns (None, None) when the
    matrix is not positive definite.
    """
    K = np.divide(sq, -(2.0 * bandwidth**2))
    np.exp(K, out=K)
    K.ravel()[:: K.shape[0] + 1] = 1.0 + nugget
    try:
        factor = cho_factor(K, lower=True)
    except LinAlgError:
        return None, None
    alpha = _solve(factor, Y.T)  # (m, P)
    log_det = 2.0 * float(np.log(factor[0].diagonal()).sum())
    return -0.5 * rowwise_dot(Y, alpha.T) - 0.5 * log_det - 0.5 * Y.shape[1] * np.log(2.0 * np.pi), factor


def _golden_section_max(f, lo: float, hi: float, evaluations: int) -> tuple:
    """Best (value, point, payload) of `evaluations` golden-section probes of f on [lo, hi].

    f returns (value, payload).  Probes rank by (value, point); only the
    two live probes and the best keep their payloads.
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


def _shared_ml_bandwidths(X, Y, nugget: float) -> tuple[list[float], list]:
    """Marginal-likelihood bandwidth of every row of Y under one fixed nugget, and its factor.

    Every BANDWIDTH_GRID value is scored for all rows at once, with one
    factorisation each.  Each row is then refined by golden section over
    log-bandwidth inside the grid cells either side of its grid maximum
    (clipped at the grid ends), and keeps its grid point unless the
    refinement beats it.  A row whose grid has no finite score (no grid
    bandwidth factorises) gets the smallest grid bandwidth, which `fit` then
    rejects with IllConditionedError.

    Each row's factor is the one the search built at its chosen bandwidth
    (None where that factorisation failed).  Only the factors of the rows'
    running maxima are kept, at most one per row.
    """
    sq = squared_distances(X, X)
    np.fill_diagonal(sq, 0.0)

    def scores(bandwidth, rows):
        values, factor = _log_ml_rows(sq, rows, bandwidth, nugget)
        return np.full(rows.shape[0], -np.inf) if values is None else values, factor

    grid_scores = np.empty((BANDWIDTH_GRID.size, Y.shape[0]))
    factors = [None] * Y.shape[0]
    for k, bandwidth in enumerate(BANDWIDTH_GRID):
        grid_scores[k], factor = scores(bandwidth, Y)
        for p in (grid_scores[: k + 1].argmax(axis=0) == k).nonzero()[0]:
            factors[p] = factor  # the row's grid maximum so far
    log_grid = np.log(BANDWIDTH_GRID)
    bandwidths = []
    for p, row in enumerate(Y):
        k = int(np.argmax(grid_scores[:, p]))
        bandwidth = float(BANDWIDTH_GRID[k])
        if np.isfinite(grid_scores[k, p]):
            lo, hi = log_grid[max(k - 1, 0)], log_grid[min(k + 1, log_grid.size - 1)]

            def refined(t):
                values, factor = scores(np.exp(t), row[np.newaxis, :])
                return values[0], factor

            value, log_b, factor = _golden_section_max(refined, lo, hi, GOLDEN_SECTION_STEPS)
            if value > grid_scores[k, p]:
                bandwidth = float(np.exp(log_b))
                factors[p] = factor
        bandwidths.append(bandwidth)
    return bandwidths, factors


def _max_stable_bandwidth(X, nugget: float) -> tuple[float, tuple | None]:
    """Largest grid bandwidth whose K + nugget I factorises within CONDITION_BOUND, and its factor.

    Where none does, the smallest grid bandwidth, with its factor if it has one.
    """
    for bandwidth in BANDWIDTH_GRID[::-1]:
        K = kernel_matrix(X, KernelParams(bandwidth), nugget)
        try:
            factor = cho_factor(K, lower=True)
        except LinAlgError:
            factor = None
            continue
        if _condition_estimate(K, factor) <= CONDITION_BOUND:
            return float(bandwidth), factor
    return float(BANDWIDTH_GRID[0]), factor


def _learned_nugget_search(X, y, seed: int, optimizer: OptimizerConfig) -> tuple[float, float]:
    """Bandwidth and nugget of one row by `optimizer` over log-space bounds."""
    sq = squared_distances(X, X)
    np.fill_diagonal(sq, 0.0)
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
    inputs,
    outputs,
    strategy: str = "marginal-likelihood",
    nugget_policy: float | str = 0.0,
    seed: int = 0,
    optimizer: OptimizerConfig | None = None,
) -> tuple[list[float], list[float], list]:
    """Choose the kernel bandwidth (and optionally the nugget) of every output row.

    `outputs` is P rows (P x m), or one row (m,).  Returns the per-row lists
    (bandwidths, nuggets, factors), where a row's factor is its
    `cho_factor` of K + nugget I at its choice if the search built one (both
    fixed-nugget strategies), else None.  nugget_policy is either a fixed
    variance (float) or the string 'learned'; `check_hyperparameters` says
    which pairings are accepted.

    strategy 'marginal-likelihood' with a fixed nugget maximizes each row's
    log marginal likelihood by one deterministic search shared by all rows
    (`_shared_ml_bandwidths`).  With the learned nugget each row gets its
    own 2-D search by `optimizer` (short simulated annealing by default),
    seeded with `derive_seed(seed, p)` for row p; `optimizer` and `seed`
    apply to the learned nugget only.
    'max-stable-bandwidth' walks the bandwidth grid once from the top and
    gives every row the largest value whose regularized kernel matrix stays
    below the condition bound.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    Y = np.atleast_2d(np.asarray(outputs, dtype=float))
    if Y.shape[1] != X.shape[1]:
        raise ValueError(f"{X.shape[1]} input nodes but {Y.shape[1]} outputs per row")
    if X.shape[1] < 2:
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
        chosen = [_learned_nugget_search(X, y, derive_seed(seed, p), optimizer) for p, y in enumerate(Y)]
        return [b for b, _ in chosen], [nugget for _, nugget in chosen], [None] * P
    nugget = float(nugget_policy)
    if strategy == "max-stable-bandwidth":
        bandwidth, factor = _max_stable_bandwidth(X, nugget)
        return [bandwidth] * P, [nugget] * P, [factor] * P
    bandwidths, factors = _shared_ml_bandwidths(X, Y, nugget)
    return bandwidths, [nugget] * P, factors
