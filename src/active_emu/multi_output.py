"""Independent per-output GPs over a shared set of input nodes, held as arrays.

A fitted `MultiGpModel` is one dataset with one bandwidth, nugget, weight
row and Cholesky factor per output.  The nodes' geometry is the dataset's:
`fit_all` hands its `node_distances` to the search and the fit, and every
evaluation reads its `unit_nodes`.  All GP operations are applied in these
normalized coordinates, so gradient norms reported here are with respect
to unit-cube units.  Variances and gradients at a block of points come
from the model's `gp.evaluator`; the predictive means are
`predict_mean_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gp
from .gp import Dataset
from .kernels import KernelParams, exp_quadratic, squared_distances
from .optimize import OptimizerConfig

# Bandwidth used when a model must be built from a single node, where no
# selection strategy applies.
_SINGLE_NODE_BANDWIDTH = 1.0

# Largest m * n_block of one block of `predict_mean_matrix`: 256 KB per
# buffer, one block for the toy's 991 test points at m = 24.  Blocks hold a
# multiple of PREDICT_BLOCK_ALIGN points: BLAS treats the last few rows of
# a product in their own code path, which can round differently, so every
# point keeps its position modulo the unroll of a single-block product.
PREDICT_BLOCK_ENTRIES = 2**15
PREDICT_BLOCK_ALIGN = 64


@dataclass(frozen=True, eq=False)
class MultiGpModel:
    """P independently fitted GPs over one dataset; immutable but for three caches, compared by identity.

    Output p has bandwidth bandwidths[p], nugget nuggets[p], weights
    alpha[p] and factors[p], the `cho_factor` of its K + nugget I.  The
    caches are filled on first use.  `evaluators` holds the model's
    `gp.Evaluator`s, one per variance kind; with a nugget, the strict one
    builds the factor of K alone and keeps it in `noise_free_factors[p]`:
    models that never serve a strict acquisition (baselines, RMSE fits, a
    run's final model) skip that Cholesky and do not hold a second m x m
    array.  `bound_acquisition` holds at most one acquisition bound to this
    model (`acquisition._Bound`), so that the calls of one search share its
    set-up; a call for another spec or iteration replaces it.

    `squared_bandwidths` (b^2) and `fourth_powers` (b^4), one entry per
    output, are the scalars a `gp.Evaluator` broadcasts over its stacked
    blocks.  Each is Python's float power of the one before, as a scalar
    per-output evaluation takes it: numpy's square rounds about 1 in 1,000
    of them differently.
    """

    dataset: Dataset
    bandwidths: tuple[float, ...]
    nuggets: tuple[float, ...]
    alpha: np.ndarray  # P x m
    factors: tuple
    noise_free_factors: list = field(default_factory=list)
    evaluators: dict = field(default_factory=dict, init=False, repr=False)
    bound_acquisition: list = field(default_factory=list, init=False, repr=False)
    squared_bandwidths: np.ndarray = field(init=False, repr=False)
    fourth_powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        squares = [b**2 for b in self.bandwidths]
        object.__setattr__(self, "squared_bandwidths", np.array(squares))
        object.__setattr__(self, "fourth_powers", np.array([s**2 for s in squares]))

    @property
    def n_outputs(self) -> int:
        return len(self.bandwidths)


def fit_all(
    dataset: Dataset,
    hyper_strategy: str = "marginal-likelihood",
    nugget_policy: float | str = 0.0,
    seed: int = 0,
    hyper_optimizer: OptimizerConfig | None = None,
    bandwidths=None,
    hint=None,
) -> MultiGpModel:
    """Fit one GP per output row of the dataset.

    Hyperparameters are selected for all outputs by one call of
    `gp.select_hyperparameters`; each output still gets its own.  The
    search and the fit see the nodes only through the dataset's
    `node_distances`.  Every search is one deterministic grid-then-Brent
    search shared by all outputs, with a fixed or a learned nugget, so
    `seed` and `hyper_optimizer` are accepted and ignored.  With a fixed
    nugget `gp.fit` reuses the factor the search built at each output's
    bandwidth; with the learned nugget it factorises at each output's
    choice.  `hint`, the bandwidths of a model whose dataset this one
    extends by a node, applies to the fixed-nugget search only: it scores
    the grid near them first (`gp._shared_ml_bandwidths` says when that
    differs from the full search).  Pass `bandwidths`, one per output, to
    skip selection and fit with fixed kernel parameters.
    """
    if bandwidths is None:
        bandwidths, nuggets, factors = gp.select_hyperparameters(
            dataset.node_distances,
            dataset.Y,
            strategy=hyper_strategy,
            nugget_policy=nugget_policy,
            hint=hint,
        )
    else:
        if len(bandwidths) != dataset.n_outputs:
            raise ValueError(f"{len(bandwidths)} bandwidths given for {dataset.n_outputs} outputs")
        gp.check_hyperparameters(hyper_strategy, nugget_policy)
        bandwidths = [(b if isinstance(b, KernelParams) else KernelParams(float(b))).bandwidth for b in bandwidths]
        nuggets = [0.0 if nugget_policy == "learned" else float(nugget_policy)] * dataset.n_outputs
        factors = [None] * dataset.n_outputs
    alpha, factors = gp.fit(dataset.node_distances, dataset.Y, bandwidths, nuggets, factors)
    return MultiGpModel(dataset, tuple(bandwidths), tuple(nuggets), alpha, tuple(factors))


def fit_single_node(dataset: Dataset, nugget: float = 0.0) -> MultiGpModel:
    """Degenerate fit for a one-node dataset (fixed default bandwidth)."""
    return fit_all(dataset, nugget_policy=nugget, bandwidths=[_SINGLE_NODE_BANDWIDTH] * dataset.n_outputs)


def predict_mean_matrix(model: MultiGpModel, X) -> np.ndarray:
    """Predictive means k_x^T alpha for all outputs at the columns of X (raw); (P, n).

    The points are taken in blocks of at most PREDICT_BLOCK_ENTRIES kernel
    entries (but at least PREDICT_BLOCK_ALIGN points).  Each block's
    (m, n_block) squared distances to the dataset's `unit_nodes` are built
    once, and each output's kernel block `exp_quadratic` of them; both
    reuse one pair of buffers for the whole call.  A point's means do not
    depend on its block: they equal those of one block of all the points,
    bit for bit.
    """
    nodes = model.dataset.unit_nodes
    Xn = model.dataset.normalize(np.atleast_2d(np.asarray(X, dtype=float)))
    m, n = model.alpha.shape[1], Xn.shape[1]
    rows = PREDICT_BLOCK_ENTRIES // m // PREDICT_BLOCK_ALIGN * PREDICT_BLOCK_ALIGN
    block = min(n, max(PREDICT_BLOCK_ALIGN, rows))
    # Two allocations, not one of twice the size: glibc then keeps reusing
    # the same heap memory call after call instead of mapping it afresh.
    sq_buffer, K_buffer = np.empty(m * block), np.empty(m * block)
    means = np.empty((model.n_outputs, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        sq = squared_distances(nodes, Xn[:, start:stop], out=sq_buffer[: m * (stop - start)].reshape(m, -1))
        K = K_buffer[: sq.size].reshape(sq.shape)
        for p, b2 in enumerate(model.squared_bandwidths):
            means[p, start:stop] = exp_quadratic(sq, b2, out=K).T @ model.alpha[p]
    return means
