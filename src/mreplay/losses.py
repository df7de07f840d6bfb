"""Training losses: score regression, projector alignment, and the graph
regularizer that matches pairwise feature geometry to pairwise score gaps.

The graph term compares two n x n matrices row by row:

* A: angular distances between row-normalized feature vectors,
* S: signed differences between normalized scores.

Each row of A and S is pushed through a softmax and compared with a KL
divergence, averaged over rows. The full regularizer sums this row loss
over the joint matrix and its four blocks (old/old, old/new, new/old,
new/new), so cross-session structure is constrained both globally and
within each block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _as_column(y, rows: int, what: str) -> Tensor:
    if isinstance(y, Tensor):
        t = y
    else:
        arr = np.asarray(y, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        t = ad.leaf(arr)
    if t.shape != (rows, 1):
        raise ad.ShapeError(f"{what} must be {rows}x1, got {t.shape}")
    return t


def regression_loss(predicted, target) -> Tensor:
    """Mean squared error between two score columns."""
    p = predicted if isinstance(predicted, Tensor) else ad.leaf(
        np.asarray(predicted, dtype=np.float64).reshape(-1, 1))
    t = _as_column(target, p.rows, "target")
    return ad.scale(ad.sq_error(p, t), 1.0 / p.rows)


def projector_loss(actual, projected) -> Tensor:
    """Mean over rows of the squared L2 distance between matching rows."""
    a = actual if isinstance(actual, Tensor) else ad.leaf(actual)
    p = projected if isinstance(projected, Tensor) else ad.leaf(projected)
    if a.shape != p.shape:
        raise ad.ShapeError(f"feature shapes differ: {a.shape} vs {p.shape}")
    return ad.scale(ad.sq_error(a, p), 1.0 / a.rows)


def angular_distance_matrix(h) -> Tensor:
    """Pairwise arccos of cosine similarities between rows of ``h``.

    Entries lie in [0, pi]; the diagonal is pinned near 0 by the arccos
    clamp rather than exactly 0.
    """
    t = h if isinstance(h, Tensor) else ad.leaf(h)
    hn = ad.row_normalize(t)
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


@dataclass
class BlockedMatrix:
    """A square matrix split at row/column ``b1`` into four blocks."""

    full: Tensor
    a11: Tensor
    a12: Tensor
    a21: Tensor
    a22: Tensor


def partition(full: Tensor, b1: int) -> BlockedMatrix:
    n = full.rows
    if full.cols != n:
        raise ad.ShapeError(f"partition needs a square matrix, got {full.shape}")
    if not 0 < b1 < n:
        raise ValueError(f"split index {b1} must lie strictly inside 0..{n}")
    return BlockedMatrix(
        full=full,
        a11=ad.slice_block(full, 0, b1, 0, b1),
        a12=ad.slice_block(full, 0, b1, b1, n),
        a21=ad.slice_block(full, b1, n, 0, b1),
        a22=ad.slice_block(full, b1, n, b1, n),
    )


def kl_row_divergence(p, q) -> Tensor:
    """Mean over rows of KL(softmax(p_row) || softmax(q_row)).

    Both log-probabilities come out of a shifted log-softmax, so no
    probability floor is needed.
    """
    pt = p if isinstance(p, Tensor) else ad.leaf(p)
    qt = q if isinstance(q, Tensor) else ad.leaf(q)
    if pt.shape != qt.shape:
        raise ad.ShapeError(f"kl shapes differ: {pt.shape} vs {qt.shape}")
    probs = ad.row_softmax(pt)
    diff = ad.sub(ad.row_log_softmax(pt), ad.row_log_softmax(qt))
    return ad.scale(ad.sum_all(ad.mul(probs, diff)), 1.0 / pt.rows)


def _row_loss(p: Tensor, q: Tensor, use_mse: bool, reverse: bool) -> Tensor:
    if use_mse:
        return ad.scale(ad.sq_error(p, q), 1.0 / p.value.size)
    if reverse:
        return kl_row_divergence(q, p)
    return kl_row_divergence(p, q)


@dataclass
class JointBatch:
    """Replayed features stacked over current features, scores old-first."""

    old: Tensor
    new: Tensor
    scores: np.ndarray

    def __post_init__(self):
        if self.old.cols != self.new.cols:
            raise ad.ShapeError(f"feature widths differ: {self.old.shape} "
                                f"vs {self.new.shape}")
        self.scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if self.scores.size != self.old.rows + self.new.rows:
            raise ValueError(f"{self.scores.size} scores for "
                             f"{self.old.rows + self.new.rows} rows")


def graph_reg_loss(batch: JointBatch, *, joint: bool = True,
                   intra_inter: bool = True, use_mse: bool = False,
                   reverse_kl: bool = False, signed: bool = True) -> Tensor:
    """Graph regularizer over a joint old/new batch.

    ``joint`` keeps the whole-matrix term, ``intra_inter`` keeps the four
    block terms; at least one must be on. ``use_mse`` swaps the row KL for
    a plain mean squared error between raw distance entries.
    """
    b1, b2 = batch.old.rows, batch.new.rows
    if b1 == 0 or b2 == 0:
        raise ValueError(f"joint batch needs both halves, got b1={b1} b2={b2}")
    if not joint and not intra_inter:
        raise ValueError("graph regularizer with no joint and no block terms")
    h = ad.concat_rows(batch.old, batch.new)
    a = angular_distance_matrix(h)
    s = ad.leaf(score_distance_matrix(batch.scores, signed=signed))
    terms = []
    if joint:
        terms.append(_row_loss(a, s, use_mse, reverse_kl))
    if intra_inter:
        ab = partition(a, b1)
        sb = partition(s, b1)
        for blk in ("a11", "a12", "a21", "a22"):
            terms.append(_row_loss(getattr(ab, blk), getattr(sb, blk),
                                   use_mse, reverse_kl))
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
