"""sPlot statistical unfolding.

From a fitted extended model, the sWeights covariance matrix is the
inverse of the accumulated

    (V^-1)_nj = sum_e pdf_n(x_e) pdf_j(x_e) / (sum_k N_k pdf_k(x_e))^2

and the per-event weight for species n is

    sw_n(e) = sum_j V_nj pdf_j(x_e) / sum_k N_k pdf_k(x_e).

V^-1 is the S^T S of the fit's own likelihood pass over the yields,
whose score rows are r_k = pdf_k / density; the same pass gives the yield
gradient 1 - sum_e r, the stationarity residual.  The weights take the
pdf values and the density from ``ExtendedModel.evaluate``, the pass's
left fold.  At the extended-ML optimum the weights of each event sum to
one and the per-species weight sums reproduce the fitted yields.  Matrix
and table are bitwise identical for any worker count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fitting import ExtendedModel, _likelihood_pass, check_density
from .parallel import run_batches
from .store import ColumnSchema, ColumnStore

# the model must sit at its extended-ML optimum for the sPlot identities
# to hold; yields farther than this from stationarity are rejected
_STATIONARITY_TOL = 1e-6

_CONDITION_LIMIT = 1e12


def splot_matrix(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    workers: int | None = 1,
) -> np.ndarray:
    """The sWeights covariance matrix V for the fitted model on the data.

    Raises when the accumulated matrix is numerically singular (degenerate
    species) or when the yields are not at their extended-ML optimum.
    """
    _, grad, vinv = _likelihood_pass(
        model, store, observable_columns, workers, model.yields(), outer=True
    )
    residual = np.max(np.abs(grad))
    if residual > _STATIONARITY_TOL:
        raise ValueError(
            f"yields are not at the extended-ML optimum "
            f"(stationarity residual {residual:.3g}); fit before computing sWeights"
        )
    if np.linalg.cond(vinv) > _CONDITION_LIMIT:
        raise ValueError(
            "accumulated sWeights matrix is numerically singular; "
            "the model species are degenerate on this data"
        )
    return np.linalg.inv(vinv)


def splot_weights(
    model: ExtendedModel,
    store: ColumnStore,
    observable_columns: Sequence[str],
    V: np.ndarray,
    workers: int | None = 1,
) -> ColumnStore:
    """Per-event, per-species sWeights table aligned with the data store.

    Columns are named ``sw_<species>`` after the yield parameters.
    """
    k = len(model.components)
    V = np.asarray(V, dtype=float)
    if V.shape != (k, k):
        raise ValueError(f"V must be {k}x{k}, got {V.shape}")
    cols = store.columns(observable_columns)
    n = len(store)
    out = np.empty((n, k))
    for _, pdf in model.components:
        pdf.norm()

    def batch(a: int, b: int) -> None:
        pdfs, dens = model.evaluate(tuple(c[a:b] for c in cols))
        check_density(dens, a)
        np.matmul(np.stack(pdfs, axis=1), V.T, out=out[a:b])
        out[a:b] /= dens[:, None]

    run_batches(batch, n, workers)
    schema = ColumnSchema.real64(*(f"sw_{name}" for name in model.species()))
    return ColumnStore.from_columns(schema, [out[:, i] for i in range(k)])
