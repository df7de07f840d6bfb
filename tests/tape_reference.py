"""The training step's tape composed from primitives, as the reference for
the fused nodes ``autodiff.mlp``, ``autodiff.sampled_score``,
``autodiff.scaled_sq_error`` and ``autodiff.weighted_sum``.

Before they became nodes, ``models`` ran each MLP as a chain of ``linear``
and ``relu`` nodes and built a sampled score from two ``linear`` heads,
``softplus``, ``mul`` and ``add``; each loss was ``scale(sq_error(...))``,
and ``total_loss`` a chain of ``add`` and ``scale``. ``relu`` here is the
primitive as it was then, a branch per entry through ``np.where``. Each
fused node repeats this arithmetic in order, so the two agree bit for bit.
"""
from __future__ import annotations

import numpy as np

import mreplay.autodiff as ad
from mreplay.autodiff import Tensor


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    mask = a.value > 0.0

    def bwd(g, grads):
        ad._acc(grads, a, g * mask)

    return ad._node(np.where(mask, a.value, 0.0), (a,), bwd)


def mlp(x: Tensor, layers, output_relu: bool = False) -> Tensor:
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.linear(h, w, b)
        if i < len(layers) - 1 or output_relu:
            h = relu(h)
    return h


def sampled_score(x: Tensor, layers, mean_head, std_head, eps=None):
    """(sample, mean, std) as tensors; with ``eps`` None the sample is the
    mean."""
    trunk = mlp(x, layers, output_relu=True)
    mean = ad.linear(trunk, *mean_head)
    std = ad.softplus(ad.linear(trunk, *std_head))
    if eps is None:
        return mean, mean, std
    return ad.add(mean, ad.mul(ad.const(eps), std)), mean, std


def scaled_sq_error(a: Tensor, b: Tensor, c: float) -> Tensor:
    return ad.scale(ad.sq_error(a, b), c)


def weighted_sum(terms) -> Tensor:
    (total, c), = terms[:1]
    total = total if c is None else ad.scale(total, c)
    for t, c in terms[1:]:
        total = ad.add(total, t if c is None else ad.scale(t, c))
    return total
