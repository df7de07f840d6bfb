"""The training step's tape composed from primitives, as the reference for
the fused nodes ``autodiff.mlp``, ``autodiff.sampled_score``,
``autodiff.scaled_sq_error`` and ``autodiff.weighted_sum``; and the
training step on the tape, as the reference for ``trainer._train_step``.

Before they became nodes, ``models`` ran each MLP as a chain of ``linear``
and ``relu`` nodes and built a sampled score from two ``linear`` heads,
``softplus``, ``mul`` and ``add``; each loss was ``scale(sq_error(...))``,
and ``total_loss`` a chain of ``add`` and ``scale``. ``relu`` here is the
primitive as it was then, a branch per entry through ``np.where``. Each
fused node repeats this arithmetic in order, so the two agree bit for bit.

``train_step`` is the step as it ran on the tape before the fused step
replaced it: the forward pass through ``models`` and ``losses``, one
``backward`` and one ``adam_step`` per component that got a gradient.
"""
from __future__ import annotations

import numpy as np

import mreplay.autodiff as ad
from mreplay import losses as ls
from mreplay import memory as mem
from mreplay.autodiff import Tensor
from mreplay.models import components, encode, project, regress
from mreplay.trainer import MEMORYLESS


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


def train_step(state, xb: np.ndarray, yb: np.ndarray, config) -> tuple[dict, dict]:
    """One step on the tape: the loss terms, as ``trainer._train_step``
    returns them, and each component's gradients by parameter name, for the
    components that got any."""
    bundle = state.bundle
    xt = ad.const(xb)
    h_new = encode(bundle, xt)
    eps_new = state.rngs["eps"].standard_normal((xb.shape[0], 1))
    _, _, y_hat = regress(bundle, h_new, eps_new)
    l_d = ls.regression_loss(y_hat, yb.reshape(-1, 1))
    l_m = l_p = l_r = None
    if config.method not in MEMORYLESS and state.bank.size > 0:
        residual = not config.no_residual
        if not config.no_mp:
            h_frozen = encode(bundle, xt, frozen=True)
            h_projected = project(bundle, h_frozen, residual=residual)
            l_p = ls.projector_loss(h_new, h_projected)
        feats, y_old, _ = mem.sample_replay(state.bank, config.b1,
                                            state.rngs["replay"],
                                            stratified=config.stratified_replay)
        stored = ad.const(feats)
        if config.method == "replay-raw":
            h_old = encode(bundle, stored)
        elif not config.no_mp:
            h_old = project(bundle, stored, residual=residual)
        else:
            h_old = stored
        eps_old = state.rngs["eps"].standard_normal((feats.shape[0], 1))
        h_for_scoring = ad.stop_gradient(h_old) if config.lm_stop_grad else h_old
        _, _, y_hat_old = regress(bundle, h_for_scoring, eps_old)
        l_m = ls.regression_loss(y_hat_old, y_old.reshape(-1, 1))
        if not (config.no_j_gr and config.no_ii_gr):
            l_r = ls.graph_reg_loss(h_old, h_new, np.concatenate([y_old, yb]),
                                    joint=not config.no_j_gr,
                                    intra_inter=not config.no_ii_gr,
                                    use_mse=config.mse_gr,
                                    reverse_kl=config.reverse_kl,
                                    signed=not config.abs_score_distance)
    total = ls.total_loss(l_d, l_m, l_p, l_r,
                          lambda_p=config.lambda_p, lambda_r=config.lambda_r)
    grads = ad.backward(total, [[1.0]])
    named = {}
    for name, params in components(bundle).items():
        comp = {key: grads[t] for key, t in params.items() if t in grads}
        if comp:
            ad.adam_step(params, comp, state.adam[name])
            named[name] = comp
    val = lambda t: None if t is None else float(t.value[0, 0])
    terms = {"l_d": val(l_d), "l_m": val(l_m), "l_p": val(l_p), "l_r": val(l_r),
             "total": float(total.value[0, 0])}
    return terms, named
