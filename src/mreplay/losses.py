"""Training losses: score regression, projector alignment, and the graph
regularizer that matches pairwise feature geometry to pairwise score gaps.

The graph term compares two n x n matrices row by row:

* A: angular distances between row-normalized feature vectors,
* S: signed differences between normalized scores.

Each row of A and S is pushed through a softmax and compared with a KL
divergence, averaged over rows. The full regularizer sums this row loss
over the joint matrix and its four blocks (old/old, old/new, new/old,
new/new), so cross-session structure is constrained both globally and
within each block. The blocks of A are slices on the tape; S is data, so
its blocks are plain numpy slices entering the tape as constants.

Every feature or prediction argument is a ``Tensor``; scores and targets
are arrays.
"""
from __future__ import annotations

from itertools import product

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def regression_loss(predicted: Tensor, target) -> Tensor:
    """Mean squared error between a predicted n x 1 score column and its
    targets, a flat array or an n x 1 column."""
    t = np.asarray(target, dtype=np.float64)
    if t.ndim == 1:
        t = t.reshape(-1, 1)
    return ad.scale(ad.sq_error(predicted, ad.const(t)), 1.0 / predicted.rows)


def projector_loss(actual: Tensor, projected: Tensor) -> Tensor:
    """Mean over rows of the squared L2 distance between matching rows."""
    return ad.scale(ad.sq_error(actual, projected), 1.0 / actual.rows)


def angular_distance_matrix(h: Tensor) -> Tensor:
    """Pairwise arccos of cosine similarities between rows of ``h``.

    Entries lie in [0, pi]; the diagonal is pinned near 0 by the arccos
    clamp rather than exactly 0.
    """
    hn = ad.row_normalize(h)
    return ad.arccos(ad.matmul(hn, ad.transpose(hn)))


def score_distance_matrix(scores, signed: bool = True) -> np.ndarray:
    """Pairwise score gaps: entry (i, j) is y_i - y_j, or |y_i - y_j|."""
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.size < 1:
        raise ValueError("scores must be non-empty")
    if not np.isfinite(y).all():
        raise ad.NonFiniteError("non-finite score")
    s = y[:, None] - y[None, :]
    return np.abs(s) if not signed else s


def kl_row_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(p_row) || softmax(q_row)).

    Both log-probabilities come out of a shifted log-softmax, so no
    probability floor is needed.
    """
    probs = ad.row_softmax(p)
    diff = ad.sub(ad.row_log_softmax(p), ad.row_log_softmax(q))
    return ad.scale(ad.sum_all(ad.mul(probs, diff)), 1.0 / p.rows)


def _row_loss(p: Tensor, q: Tensor, use_mse: bool, reverse: bool) -> Tensor:
    if use_mse:
        return ad.scale(ad.sq_error(p, q), 1.0 / p.value.size)
    if reverse:
        return kl_row_divergence(q, p)
    return kl_row_divergence(p, q)


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
    b1, n = old.rows, old.rows + new.rows
    y = np.asarray(scores, dtype=np.float64).reshape(-1)
    if y.size != n:
        raise ValueError(f"{y.size} scores for {n} rows")
    if not joint and not intra_inter:
        raise ValueError("graph regularizer with no joint and no block terms")
    a = angular_distance_matrix(ad.concat_rows(old, new))
    s = score_distance_matrix(y, signed=signed)
    terms = [_row_loss(a, ad.const(s), use_mse, reverse_kl)] if joint else []
    if intra_inter:
        for (r0, r1), (c0, c1) in product(((0, b1), (b1, n)), repeat=2):
            terms.append(_row_loss(ad.slice_block(a, r0, r1, c0, c1),
                                   ad.const(s[r0:r1, c0:c1]), use_mse, reverse_kl))
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return total


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
    total = l_d
    if l_m is not None:
        total = ad.add(total, l_m)
    if l_p is not None:
        total = ad.add(total, ad.scale(l_p, lambda_p))
    if l_r is not None:
        total = ad.add(total, ad.scale(l_r, lambda_r))
    return total
