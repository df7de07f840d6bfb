"""The graph regularizer composed from tape primitives, as the reference
for ``autodiff.graph_fwd`` and ``autodiff.graph_bwd``.

The primitives here (row normalization, clamped arccos, row softmax and
log-softmax, transpose, row concatenation, block slicing, difference and
full sum) extend ``tape_reference``'s, and the losses built from them are
the regularizer as the training step computed it on the tape. The halves
repeat their arithmetic in the tape's order, so the two agree bit for bit;
the tests also use them to scalarise expressions and to check the tape on
compositions.
"""
from __future__ import annotations

from itertools import product

import numpy as np

import mreplay.autodiff as ad
import tape_reference as tp
from mreplay import losses
from tape_reference import Tensor


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ad.ShapeError(f"sub mismatch: {a.shape} - {b.shape}")

    def bwd(g, grads):
        if a.needs_grad:
            tp._acc(grads, a, g)
        if b.needs_grad:
            tp._acc(grads, b, -g)

    return tp._node(a.value - b.value, (a, b), bwd)


def row_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm. Norms are floored at 1e-12."""
    norms = np.sqrt((a.value * a.value).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, ad.NORM_FLOOR)
    out = a.value / denom
    active = norms > ad.NORM_FLOOR

    def bwd(g, grads):
        dot = (out * g).sum(axis=1, keepdims=True)
        ga = (g - np.where(active, out * dot, 0.0)) / denom
        tp._acc(grads, a, ga)

    return tp._node(out, (a,), bwd)


def arccos(a: Tensor) -> Tensor:
    """arccos with inputs clamped to [-1 + 1e-7, 1 - 1e-7].

    Outside the clamp window the composite is constant, so its gradient
    there is exactly zero.
    """
    lo, hi = -1.0 + ad.ARCCOS_CLAMP, 1.0 - ad.ARCCOS_CLAMP
    x = np.clip(a.value, lo, hi)
    inside = (a.value >= lo) & (a.value <= hi)

    def bwd(g, grads):
        d = np.where(inside, -1.0 / np.sqrt(1.0 - x * x), 0.0)
        tp._acc(grads, a, g * d)

    return tp._node(np.arccos(x), (a,), bwd)


def row_softmax(a: Tensor) -> Tensor:
    shift = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shift)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g, grads):
        dot = (g * out).sum(axis=1, keepdims=True)
        tp._acc(grads, a, out * (g - dot))

    return tp._node(out, (a,), bwd)


def row_log_softmax(a: Tensor) -> Tensor:
    shift = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1, keepdims=True))
    out = shift - lse
    soft = np.exp(out)

    def bwd(g, grads):
        tp._acc(grads, a, g - soft * g.sum(axis=1, keepdims=True))

    return tp._node(out, (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g, grads):
        tp._acc(grads, a, g.T)

    return tp._node(a.value.T.copy(), (a,), bwd)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.cols:
        raise ad.ShapeError(f"concat_rows mismatch: {a.shape} over {b.shape}")
    na = a.rows

    def bwd(g, grads):
        if a.needs_grad:
            tp._acc(grads, a, g[:na])
        if b.needs_grad:
            tp._acc(grads, b, g[na:])

    return tp._node(np.concatenate([a.value, b.value], axis=0), (a, b), bwd)


def slice_block(a: Tensor, r0: int, r1: int, c0: int, c1: int) -> Tensor:
    if not (0 <= r0 < r1 <= a.rows and 0 <= c0 < c1 <= a.cols):
        raise ad.ShapeError(f"slice [{r0}:{r1}, {c0}:{c1}] out of bounds for {a.shape}")

    def bwd(g, grads):
        ga = np.zeros_like(a.value)
        ga[r0:r1, c0:c1] = g
        tp._acc(grads, a, ga)

    return tp._node(a.value[r0:r1, c0:c1].copy(), (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g, grads):
        tp._acc(grads, a, np.full_like(a.value, g[0, 0]))

    return tp._node([[a.value.sum()]], (a,), bwd)


def angular_distance_matrix(h: Tensor) -> Tensor:
    """Pairwise arccos of cosine similarities between rows of ``h``.

    Entries lie in [0, pi]; the diagonal is pinned near 0 by the arccos
    clamp rather than exactly 0.
    """
    hn = row_normalize(h)
    return arccos(tp.matmul(hn, transpose(hn)))


def kl_row_divergence(p: Tensor, q: Tensor) -> Tensor:
    """Mean over rows of KL(softmax(p_row) || softmax(q_row)).

    Both log-probabilities come out of a shifted log-softmax, so no
    probability floor is needed.
    """
    probs = row_softmax(p)
    diff = sub(row_log_softmax(p), row_log_softmax(q))
    return tp.scale(sum_all(tp.mul(probs, diff)), 1.0 / p.rows)


def _row_loss(p: Tensor, q: Tensor, use_mse: bool) -> Tensor:
    if use_mse:
        return tp.scale(tp.sq_error(p, q), 1.0 / p.value.size)
    return kl_row_divergence(p, q)


def graph_loss(old: Tensor, new: Tensor, s: np.ndarray, *, joint: bool,
               intra_inter: bool, use_mse: bool) -> Tensor:
    """The graph regularizer composed: the terms over the n x n gap matrix
    ``s``, summed in order."""
    b1, n = old.rows, old.rows + new.rows
    a = angular_distance_matrix(concat_rows(old, new))
    terms = [_row_loss(a, tp.const(s), use_mse)] if joint else []
    if intra_inter:
        for (r0, r1), (c0, c1) in product(((0, b1), (b1, n)), repeat=2):
            terms.append(_row_loss(slice_block(a, r0, r1, c0, c1),
                                   tp.const(s[r0:r1, c0:c1]), use_mse))
    total = terms[0]
    for term in terms[1:]:
        total = tp.add(total, term)
    return total


def graph_reg_loss(old: Tensor, new: Tensor, scores, *, joint: bool = True,
                   intra_inter: bool = True, use_mse: bool = False) -> Tensor:
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
    return graph_loss(old, new, losses.score_distance_matrix(y),
                      joint=joint, intra_inter=intra_inter, use_mse=use_mse)
