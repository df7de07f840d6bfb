"""Training losses: score regression, projector alignment, and the graph
regularizer that matches pairwise feature geometry to pairwise score gaps.

The graph term compares two n x n matrices row by row:

* A: angular distances between row-normalized feature vectors,
* S: signed differences between normalized scores.

Each row of A and S is pushed through a softmax and compared with a KL
divergence, averaged over rows. The full regularizer sums this row loss
over the joint matrix and its four blocks (old/old, old/new, new/old,
new/new), so cross-session structure is constrained both globally and
within each block. S is data; from the stacked features to the summed
terms, the regularizer is the one tape node ``autodiff.graph_loss``.

Every feature or prediction argument is a ``Tensor``; scores and targets
are arrays. Each loss is one tape node: the two squared-error losses are
``autodiff.scaled_sq_error`` nodes, and ``total_loss`` is one
``autodiff.weighted_sum`` node over the active terms. The training step
computes the same terms without a tape, through those nodes' array-level
halves, and takes its score gaps from ``score_distance_matrix``.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def regression_loss(predicted: Tensor, target) -> Tensor:
    """Mean squared error between a predicted n x 1 score column and its
    targets, a flat array or an n x 1 column."""
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    return ad.scaled_sq_error(predicted, ad.const(t), 1.0 / predicted.rows)


def projector_loss(actual: Tensor, projected: Tensor) -> Tensor:
    """Mean over rows of the squared L2 distance between matching rows."""
    return ad.scaled_sq_error(actual, projected, 1.0 / actual.rows)


def score_distance_matrix(scores, signed: bool = True) -> np.ndarray:
    """Pairwise score gaps: entry (i, j) is y_i - y_j, or |y_i - y_j|."""
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.size < 1:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(y).all():
        raise ad.NonFiniteError("non-finite score")
    s = y[:, None] - y[None, :]
    return np.abs(s) if not signed else s


def graph_reg_loss(old: Tensor, new: Tensor, scores, *, joint: bool = True,
                   intra_inter: bool = True, use_mse: bool = False,
                   reverse_kl: bool = False, signed: bool = True) -> Tensor:
    """Graph regularizer over replayed features ``old`` stacked on current
    features ``new``, with one score per row, old first.

    ``joint`` keeps the whole-matrix term, ``intra_inter`` keeps the four
    block terms (old/old, old/new, new/old, new/new); at least one must be
    on. ``use_mse`` swaps the row KL for a plain mean squared error between
    raw distance entries.
    """
    n = old.rows + new.rows
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.size != n:
        raise ValueError(f"{y.size} scores for {n} rows")
    if not joint and not intra_inter:
        raise ValueError("graph regularizer with no joint and no block terms")
    return ad.graph_loss(old, new, score_distance_matrix(y, signed=signed),
                         joint=joint, intra_inter=intra_inter, use_mse=use_mse,
                         reverse_kl=reverse_kl)


def total_loss(l_d: Tensor, l_m: Tensor | None = None, l_p: Tensor | None = None,
               l_r: Tensor | None = None, lambda_p: float = 1.0,
               lambda_r: float = 1.0) -> Tensor:
    """Weighted sum of the active loss terms; inactive terms contribute 0."""
    named = {"regression": l_d, "memory": l_m, "projector": l_p, "graph": l_r}
    for what, term in named.items():
        if term is None:
            continue
        if term.shape != (1, 1):
            raise ad.ShapeError(f"{what} loss must be 1x1, got {term.shape}")
        if not np.isfinite(term.value[0, 0]):
            raise ad.NonFiniteError(f"non-finite {what} loss")
    terms = [(t, c) for t, c in ((l_d, None), (l_m, None), (l_p, lambda_p),
                                 (l_r, lambda_r)) if t is not None]
    return l_d if len(terms) == 1 else ad.weighted_sum(terms)
