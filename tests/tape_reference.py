"""The reverse-mode tape that ``autodiff``'s array-level halves replaced,
kept as the tests' reference: the tape, its primitives, the chains of them
that each pair of halves repeats, and the training step on the tape.

Evaluation is eager: building an expression computes its value immediately
and records its parents, so ``backward`` can replay the chain rule in
reverse topological order. All values are strictly 2-D and nothing
broadcasts. Two kinds of tensor start a tape:

* ``leaf``: a value that receives a gradient, such as a parameter;
* ``const``: data that needs none (inputs, targets, noise draws, a frozen
  snapshot). An operation whose inputs are all constants returns a
  constant with no parents and no backward closure, and ``backward``
  returns gradients only for leaves.

The primitives are ``matmul``, ``linear`` (``x @ w`` plus a bias row on
every row), ``add``, ``scale``, ``mul``, ``relu`` (a branch per entry
through ``np.where``), ``softplus`` and ``sq_error``; ``graph_reference``
holds the graph regularizer's. The chains ``mlp``, ``sampled_score``,
``scaled_sq_error`` and ``weighted_sum`` are what ``autodiff``'s
``mlp``, ``score``, ``sq_error`` and ``weighted_sum`` halves repeat in
order, so the two agree bit for bit.

``train_step`` is the training step on the tape: the forward pass over
these chains and ``graph_reference``, one ``backward`` and one
``adam_step`` per component that got a gradient. ``trainer._train_step``
must equal it as bytes.

``grad_check`` compares ``backward`` with central finite differences;
``fd_error`` makes that comparison for gradients from anywhere, and the
``*_halves_error`` functions make it for each pair of halves.
"""
from __future__ import annotations

import numpy as np

import mreplay.autodiff as ad
from mreplay import memory as mem
from mreplay.autodiff import NonFiniteError, ShapeError, checked
from mreplay.models import components
from mreplay.trainer import MEMORYLESS


class Tensor:
    """A node of the tape: a 2-D float64 value plus backward plumbing."""

    __slots__ = ("value", "name", "needs_grad", "_parents", "_bwd")

    def __init__(self, value, name=None, _parents=(), _bwd=None, needs_grad=True):
        self.value = checked(value, name)
        self.name = name
        self.needs_grad = needs_grad
        self._parents = _parents
        self._bwd = _bwd

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def is_leaf(self) -> bool:
        """A leaf starts the tape and receives a gradient."""
        return self.needs_grad and not self._parents


def leaf(value, name=None) -> Tensor:
    """Wrap an array as a tape leaf, which ``backward`` gives a gradient."""
    return Tensor(value, name=name)


def const(value, name=None) -> Tensor:
    """Wrap an array as data that needs no gradient."""
    return Tensor(value, name=name, needs_grad=False)


def _node(value, parents, bwd) -> Tensor:
    """An operation's result. Only parents that need a gradient are kept,
    and with none the result is a constant without a backward closure."""
    live = tuple([p for p in parents if p.needs_grad])
    if not live:
        return Tensor(value, needs_grad=False)
    return Tensor(value, _parents=live, _bwd=bwd)


def _acc(grads: dict, t: Tensor, g: np.ndarray) -> None:
    if t in grads:
        grads[t] = grads[t] + g
    else:
        grads[t] = g


# ---------------------------------------------------------------- primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")

    def bwd(g, grads):
        if a.needs_grad:
            _acc(grads, a, g @ b.value.T)
        if b.needs_grad:
            _acc(grads, b, a.value.T @ g)

    return _node(a.value @ b.value, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w`` plus the 1 x m bias row ``b`` on every row, as one node."""
    ad._check_linear(x.shape, w.value, b.value)

    def bwd(g, grads):
        if b.needs_grad:
            _acc(grads, b, g.sum(axis=0, keepdims=True))
        if x.needs_grad:
            _acc(grads, x, g @ w.value.T)
        if w.needs_grad:
            _acc(grads, w, x.value.T @ g)

    return _node(x.value @ w.value + b.value, (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add mismatch: {a.shape} + {b.shape}")

    def bwd(g, grads):
        if a.needs_grad:
            _acc(grads, a, g)
        if b.needs_grad:
            _acc(grads, b, g)

    return _node(a.value + b.value, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = ad._factor(c)

    def bwd(g, grads):
        _acc(grads, a, c * g)

    return _node(c * a.value, (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul mismatch: {a.shape} * {b.shape}")

    def bwd(g, grads):
        if a.needs_grad:
            _acc(grads, a, g * b.value)
        if b.needs_grad:
            _acc(grads, b, g * a.value)

    return _node(a.value * b.value, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    mask = a.value > 0.0

    def bwd(g, grads):
        _acc(grads, a, g * mask)

    return _node(np.where(mask, a.value, 0.0), (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; gradient is the logistic sigmoid."""
    def bwd(g, grads):
        _acc(grads, a, g * ad._sigmoid(a.value))

    return _node(ad._softplus(a.value), (a,), bwd)


def sq_error(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared elementwise differences, as a 1 x 1 tensor."""
    if a.shape != b.shape:
        raise ShapeError(f"sq_error mismatch: {a.shape} vs {b.shape}")
    diff = a.value - b.value

    def bwd(g, grads):
        d = 2.0 * g[0, 0] * diff
        if a.needs_grad:
            _acc(grads, a, d)
        if b.needs_grad:
            _acc(grads, b, -d)

    return _node([[(diff * diff).sum()]], (a, b), bwd)


def stop_gradient(a: Tensor) -> Tensor:
    """Detach a value from the tape: a constant sharing ``a``'s value."""
    return const(a.value)


# -------------------------------------------------------------------- chains


def mlp(x: Tensor, layers, output_relu: bool = False) -> Tensor:
    h = x
    for i, (w, b) in enumerate(layers):
        h = linear(h, w, b)
        if i < len(layers) - 1 or output_relu:
            h = relu(h)
    return h


def sampled_score(x: Tensor, layers, mean_head, std_head, eps=None):
    """(sample, mean, std) as tensors; with ``eps`` None the sample is the
    mean."""
    trunk = mlp(x, layers, output_relu=True)
    mean = linear(trunk, *mean_head)
    std = softplus(linear(trunk, *std_head))
    if eps is None:
        return mean, mean, std
    return add(mean, mul(const(eps), std)), mean, std


def scaled_sq_error(a: Tensor, b: Tensor, c: float) -> Tensor:
    return scale(sq_error(a, b), c)


def weighted_sum(terms) -> Tensor:
    (total, c), = terms[:1]
    total = total if c is None else scale(total, c)
    for t, c in terms[1:]:
        total = add(total, t if c is None else scale(t, c))
    return total


# ------------------------------------------------------------------ backward


def _topo(root: Tensor) -> list[Tensor]:
    # depth-first post-order over the parents that need a gradient; the
    # order decides how fan-out gradients are summed, so it fixes the bits
    order, seen, stack = [], set(), [(root, False)]
    push, pop = stack.append, stack.pop
    while stack:
        node, done = pop()
        if done:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            push((node, True))
            for p in node._parents:
                push((p, False))
    return order


def backward(root: Tensor, seed_grad) -> dict[Tensor, np.ndarray]:
    """Propagate ``seed_grad`` from ``root`` back to every leaf.

    Returns a map from each leaf on the tape to its gradient; constants get
    none. Gradients accumulate across fan-out.
    """
    seed = np.asarray(seed_grad, dtype=np.float64)
    if seed.shape != root.value.shape:
        raise ShapeError(f"seed shape {seed.shape} does not match root {root.shape}")
    if not np.isfinite(seed).all():
        raise NonFiniteError("non-finite seed gradient")
    grads: dict[Tensor, np.ndarray] = {root: seed}
    for node in reversed(_topo(root)):
        if node._bwd is None:
            continue
        g = grads.get(node)
        if g is None:  # node not on any path from root
            continue
        node._bwd(g, grads)
    return {n: g for n, g in grads.items() if n.is_leaf()}


def fd_error(f, arrays, analytic, fd_step: float = 1e-5) -> float:
    """Worst relative error between ``analytic``, the gradients of the
    scalar ``f()`` with respect to ``arrays``, and central finite
    differences. The arrays are perturbed in place for the probes. The
    relative error denominator is max(|analytic|, |numeric|, 1e-8)."""
    if fd_step <= 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    worst = 0.0
    for arr, grad in zip(arrays, analytic):
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + fd_step
            hi = f()
            arr[idx] = orig - fd_step
            lo = f()
            arr[idx] = orig
            numeric = (hi - lo) / (2.0 * fd_step)
            a = grad[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def grad_check(f, leaves: list[Tensor], fd_step: float = 1e-5) -> float:
    """``fd_error`` of ``backward`` through the 1 x 1 expression that the
    zero-argument callable ``f`` rebuilds from ``leaves``."""
    out = f()
    if out.shape != (1, 1):
        raise ShapeError(f"grad_check target must be 1x1, got {out.shape}")
    grads = backward(out, [[1.0]])
    return fd_error(lambda: f().value[0, 0], [t.value for t in leaves],
                    [grads.get(t, np.zeros_like(t.value)) for t in leaves], fd_step)


# ------------------------------------------------------ the halves' gradients
#
# Each function grad-checks one pair of ``autodiff`` halves: the forward
# half gives the scalar (a non-scalar output is weighted by ``weights`` and
# summed), and the backward half, from fresh -0.0 sinks, its gradients.


def _sinks(arrays) -> list:
    return [np.full(a.shape, -0.0) for a in arrays]


def mlp_halves_error(x, params, output_relu, weights, fd_step=1e-5) -> float:
    acts = ad.mlp_fwd(x, params, output_relu)
    x_sink, *sinks = _sinks([x, *params])
    ad.mlp_bwd(weights, params, acts, output_relu, sinks, x_sink)
    return fd_error(lambda: (ad.mlp_fwd(x, params, output_relu)[-1] * weights).sum(),
                    [x, *params], [x_sink, *sinks], fd_step)


def score_halves_error(x, params, eps, weights, fd_step=1e-5) -> float:
    ctx = ad.score_fwd(x, params, eps)[3]
    x_sink, *sinks = _sinks([x, *params])
    ad.score_bwd(weights, params, eps, ctx, sinks, x_sink)
    return fd_error(lambda: (ad.score_fwd(x, params, eps)[0] * weights).sum(),
                    [x, *params], [x_sink, *sinks], fd_step)


def sq_error_halves_error(a, b, c, fd_step=1e-5) -> float:
    ga = ad.sq_error_bwd(1.0, c, ad.sq_error_fwd(a, b, c)[1])
    return fd_error(lambda: ad.sq_error_fwd(a, b, c)[0], [a, b], [ga, -ga], fd_step)


def weighted_sum_halves_error(values, weights, seed, fd_step=1e-5) -> float:
    factors = ad.weighted_sum_fwd(values, weights)[1]
    return fd_error(lambda: (ad.weighted_sum_fwd(values, weights)[0] * seed).sum(),
                    values, ad.weighted_sum_bwd(seed, factors), fd_step)


def graph_halves_error(old, new, gaps, fd_step=1e-5, **flags) -> float:
    ga = ad.graph_bwd(1.0, ad.graph_fwd(old, new, gaps, **flags)[1])
    return fd_error(lambda: ad.graph_fwd(old, new, gaps, **flags)[0], [old, new],
                    [ga[:old.shape[0]], ga[old.shape[0]:]], fd_step)


# ---------------------------------------------------------------------- adam


def adam_step(params: dict, grads: dict[str, np.ndarray], state: ad.AdamState) -> None:
    """One Adam update of the parameters that have a gradient in ``grads``,
    in place; a non-finite gradient aborts it untouched. The gradients are
    gathered into ``state.grad``, and with every parameter present this is
    ``autodiff.adam_update``."""
    have = []
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.value.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} {p.value.shape}")
        ad._check_view(name, p, state)
        lo, hi = state.spans[name]
        state.grad[lo:hi] = g.reshape(-1)
        have.append((lo, hi))
    if len(have) == len(state.spans):
        return ad.adam_update([state])
    sel = np.zeros(state.buffer.size, dtype=bool)
    for lo, hi in have:
        sel[lo:hi] = True
    g = state.grad[sel]
    if not np.isfinite(g).all():
        bad = next(name for name in params
                   if name in grads and not np.isfinite(grads[name]).all())
        raise NonFiniteError(f"non-finite gradient for parameter {bad!r}")
    buf, m, v = state.buffer[sel], state.m[sel], state.v[sel]
    ad._adam(state, g, buf, m, v)
    state.buffer[sel], state.m[sel], state.v[sel] = buf, m, v


# ---------------------------------------------------------------------- step


def _pairs(tensors) -> list[tuple]:
    tensors = list(tensors)
    return list(zip(tensors[::2], tensors[1::2]))


def train_step(state, xb: np.ndarray, yb: np.ndarray, config) -> tuple[dict, dict]:
    """One step on the tape: the loss terms, as ``trainer._train_step``
    returns them, and each component's gradients by parameter name, for the
    components that got any."""
    import graph_reference as gr  # it builds on this module's tape

    bundle = state.bundle
    # every parameter a leaf over its value, every frozen weight a constant
    leaves = {name: {key: leaf(p.value) for key, p in params.items()}
              for name, params in components(bundle).items()}
    encoder = _pairs(leaves["encoder"].values()) if "encoder" in leaves else None
    frozen = None if bundle.frozen_encoder is None else \
        _pairs(const(p.value) for p in bundle.frozen_encoder.values())
    regressor = list(leaves["regressor"].values())
    trunk, (mean_head, std_head) = _pairs(regressor[:-4]), _pairs(regressor[-4:])

    def encode(x, layers):
        return x if layers is None else mlp(x, layers)

    def project(h):
        p = mlp(h, _pairs(leaves["projector"].values()))
        return p if config.no_residual else add(h, p)

    def mse(predicted, target):
        return scaled_sq_error(predicted, const(target.reshape(-1, 1)), 1.0 / predicted.rows)

    xt = const(xb)
    h_new = encode(xt, encoder)
    eps_new = state.rngs["eps"].standard_normal((xb.shape[0], 1))
    l_d = mse(sampled_score(h_new, trunk, mean_head, std_head, eps_new)[0], yb)
    l_m = l_p = l_r = None
    if config.method not in MEMORYLESS and state.bank.size > 0:
        if not config.no_mp:
            h_projected = project(encode(xt, frozen))
            l_p = scaled_sq_error(h_new, h_projected, 1.0 / h_new.rows)
        feats, y_old, _ = mem.sample_replay(state.bank, config.b1, state.rngs["replay"])
        stored = const(feats)
        if config.method == "replay-raw":
            h_old = encode(stored, encoder)
        elif not config.no_mp:
            h_old = project(stored)
        else:
            h_old = stored
        eps_old = state.rngs["eps"].standard_normal((feats.shape[0], 1))
        h_for_scoring = stop_gradient(h_old) if config.lm_stop_grad else h_old
        l_m = mse(sampled_score(h_for_scoring, trunk, mean_head, std_head, eps_old)[0], y_old)
        if not (config.no_j_gr and config.no_ii_gr):
            l_r = gr.graph_reg_loss(h_old, h_new, np.concatenate([y_old, yb]),
                                    joint=not config.no_j_gr,
                                    intra_inter=not config.no_ii_gr,
                                    use_mse=config.mse_gr)
    total = weighted_sum([(t, c) for t, c in ((l_d, None), (l_m, None), (l_p, config.lambda_p),
                                              (l_r, config.lambda_r)) if t is not None])
    grads = backward(total, [[1.0]])
    named = {}
    for name, params in components(bundle).items():
        comp = {key: grads[t] for key, t in leaves[name].items() if t in grads}
        if comp:
            adam_step(params, comp, state.adam[name])
            named[name] = comp
    val = lambda t: None if t is None else float(t.value[0, 0])
    terms = {"l_d": val(l_d), "l_m": val(l_m), "l_p": val(l_p), "l_r": val(l_r),
             "total": float(total.value[0, 0])}
    return terms, named
