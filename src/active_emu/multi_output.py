"""Independent per-output GPs over a shared set of input nodes.

Each output row gets its own bandwidth; the P models share the training
inputs, which are normalized to the unit hypercube once per fit.  All
single-output operations are applied in normalized coordinates, so gradient
norms reported here are with respect to unit-cube units.  Variances and
gradients at a block of points come from one `gp.evaluate` over all P
models; the predictive means are `predict_mean_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gp
from .gp import Dataset, GpModel, IllConditionedError
from .kernels import KernelParams, squared_distances
from .optimize import OptimizerConfig

# Bandwidth used when a model must be built from a single node, where no
# selection strategy applies.
_SINGLE_NODE_BANDWIDTH = 1.0


@dataclass(frozen=True)
class MultiGpModel:
    """P independently fitted GPs over one dataset; immutable."""

    dataset: Dataset
    models: tuple[GpModel, ...]

    @property
    def n_outputs(self) -> int:
        return len(self.models)

    @property
    def bandwidths(self) -> tuple[float, ...]:
        return tuple(m.params.bandwidth for m in self.models)

    def normalize(self, x) -> np.ndarray:
        return self.dataset.normalize(x)


def fit_all(
    dataset: Dataset,
    hyper_strategy: str = "marginal-likelihood",
    nugget_policy: float | str = 0.0,
    seed: int = 0,
    hyper_optimizer: OptimizerConfig | None = None,
    bandwidths=None,
) -> MultiGpModel:
    """Fit one GP per output row of the dataset.

    Hyperparameters are selected for all outputs by one call of
    `gp.select_hyperparameters`; each output still gets its own.  With a
    fixed nugget that search is deterministic and shares its
    factorisations between outputs, and each model reuses the factor the
    search built at its bandwidth; `seed` and `hyper_optimizer` apply to
    the learned nugget only.  Pass `bandwidths` to skip selection and fit
    with fixed kernel parameters.
    """
    if bandwidths is None and dataset.n_nodes < 2:
        raise ValueError("hyperparameter selection needs at least two nodes")
    Xn = dataset.normalize(dataset.X)
    if bandwidths is None:
        selected, factors = gp.select_hyperparameters(
            Xn,
            dataset.Y,
            strategy=hyper_strategy,
            nugget_policy=nugget_policy,
            seed=seed,
            optimizer=hyper_optimizer,
        )
    else:
        nugget = 0.0 if nugget_policy == "learned" else float(nugget_policy)
        selected = [
            (b if isinstance(b, KernelParams) else KernelParams(float(b)), nugget) for b in bandwidths
        ]
        factors = [None] * len(selected)
    models = []
    for p in range(dataset.n_outputs):
        params, nugget = selected[p]
        try:
            models.append(gp.fit(Xn, dataset.Y[p], params, nugget, factor=factors[p]))
        except IllConditionedError as exc:
            raise IllConditionedError(
                f"output {p}: {exc}", condition_estimate=exc.condition_estimate
            ) from exc
    return MultiGpModel(dataset=dataset, models=tuple(models))


def fit_single_node(dataset: Dataset, nugget: float = 0.0) -> MultiGpModel:
    """Degenerate fit for a one-node dataset (fixed default bandwidth)."""
    params = [KernelParams(_SINGLE_NODE_BANDWIDTH)] * dataset.n_outputs
    return fit_all(dataset, nugget_policy=nugget, bandwidths=params)


def predict_all(model: MultiGpModel, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-output (means, variances, gradient norms) at one raw input point.

    The one-point slice of `gp.evaluate` (predictive variances), with the
    means of `predict_mean_matrix`.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 1)
    terms = gp.evaluate(model.models, model.normalize(x).T, strict=False)
    return predict_mean_matrix(model, x)[:, 0], terms.variances[0], terms.gradient_norms[0]


def predict_mean_matrix(model: MultiGpModel, X) -> np.ndarray:
    """Predictive means k_x^T alpha for all outputs at the columns of X (raw); (P, n).

    The (m, n) squared distances to the shared nodes are built once; each
    output's kernel block then reuses one buffer, with the bits of
    `cross_kernel`.
    """
    Xn = model.dataset.normalize(np.atleast_2d(np.asarray(X, dtype=float)))
    sq = squared_distances(model.models[0].train_inputs, Xn)
    K = np.empty_like(sq)
    means = np.empty((model.n_outputs, sq.shape[1]))
    for p, m in enumerate(model.models):
        np.divide(sq, -(2.0 * m.params.bandwidth**2), out=K)
        np.exp(K, out=K)
        means[p] = K.T @ m.alpha
    return means
