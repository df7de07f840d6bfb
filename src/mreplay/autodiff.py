"""Dense 2-D float64 tensors with a reverse-mode tape and an Adam optimizer.

Evaluation is eager: building an expression computes its value immediately
and records its parents, so ``backward`` can replay the chain rule in
reverse topological order. All values are strictly 2-D; the only broadcast
form is adding a 1 x m row vector to an n x m matrix. Every public
operation validates shapes and rejects non-finite values.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ARCCOS_CLAMP = 1e-7
NORM_FLOOR = 1e-12


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


class Tensor:
    """A node of the tape: a 2-D float64 value plus backward plumbing."""

    __slots__ = ("value", "name", "_parents", "_bwd")

    def __init__(self, value, name=None, _parents=(), _bwd=None):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensor must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"tensor must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite entries in tensor{_at(name)}")
        self.value = arr
        self.name = name
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
        return not self._parents

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor({self.rows}x{self.cols}{tag})"


def _at(name):
    return f" {name!r}" if name else ""


def leaf(value, name=None) -> Tensor:
    """Wrap an array as a tape leaf: a parameter, or data that only needs a
    place on the tape."""
    return Tensor(value, name=name)


def _node(value, parents, bwd, name=None) -> Tensor:
    return Tensor(value, name=name, _parents=parents, _bwd=bwd)


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
        _acc(grads, a, g @ b.value.T)
        _acc(grads, b, a.value.T @ g)

    return _node(a.value @ b.value, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may be a 1 x m row broadcast over the rows of ``a``."""
    broadcast = b.rows == 1 and a.rows != 1 and b.cols == a.cols
    if not broadcast and a.shape != b.shape:
        raise ShapeError(f"add mismatch: {a.shape} + {b.shape}")

    def bwd(g, grads):
        _acc(grads, a, g)
        _acc(grads, b, g.sum(axis=0, keepdims=True) if broadcast else g)

    return _node(a.value + b.value, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub mismatch: {a.shape} - {b.shape}")

    def bwd(g, grads):
        _acc(grads, a, g)
        _acc(grads, b, -g)

    return _node(a.value - b.value, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not np.isfinite(c):
        raise NonFiniteError(f"scale factor must be finite, got {c}")

    def bwd(g, grads):
        _acc(grads, a, c * g)

    return _node(c * a.value, (a,), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul mismatch: {a.shape} * {b.shape}")

    def bwd(g, grads):
        _acc(grads, a, g * b.value)
        _acc(grads, b, g * a.value)

    return _node(a.value * b.value, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    mask = a.value > 0.0

    def bwd(g, grads):
        _acc(grads, a, g * mask)

    return _node(np.where(mask, a.value, 0.0), (a,), bwd)


def row_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm. Norms are floored at 1e-12."""
    norms = np.sqrt((a.value * a.value).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, NORM_FLOOR)
    out = a.value / denom
    active = norms > NORM_FLOOR

    def bwd(g, grads):
        dot = (out * g).sum(axis=1, keepdims=True)
        ga = (g - np.where(active, out * dot, 0.0)) / denom
        _acc(grads, a, ga)

    return _node(out, (a,), bwd)


def arccos(a: Tensor) -> Tensor:
    """arccos with inputs clamped to [-1 + 1e-7, 1 - 1e-7].

    Outside the clamp window the composite is constant, so its gradient
    there is exactly zero.
    """
    lo, hi = -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP
    x = np.clip(a.value, lo, hi)
    inside = (a.value >= lo) & (a.value <= hi)

    def bwd(g, grads):
        d = np.where(inside, -1.0 / np.sqrt(1.0 - x * x), 0.0)
        _acc(grads, a, g * d)

    return _node(np.arccos(x), (a,), bwd)


def row_softmax(a: Tensor) -> Tensor:
    shift = a.value - a.value.max(axis=1, keepdims=True)
    e = np.exp(shift)
    out = e / e.sum(axis=1, keepdims=True)

    def bwd(g, grads):
        dot = (g * out).sum(axis=1, keepdims=True)
        _acc(grads, a, out * (g - dot))

    return _node(out, (a,), bwd)


def row_log_softmax(a: Tensor) -> Tensor:
    shift = a.value - a.value.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1, keepdims=True))
    out = shift - lse
    soft = np.exp(out)

    def bwd(g, grads):
        _acc(grads, a, g - soft * g.sum(axis=1, keepdims=True))

    return _node(out, (a,), bwd)


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed stably; gradient is the logistic sigmoid."""
    x = a.value
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bwd(g, grads):
        with np.errstate(over="ignore"):  # exp(-x) = inf gives sig = 0, the limit
            sig = 1.0 / (1.0 + np.exp(-x))
        _acc(grads, a, g * sig)

    return _node(out, (a,), bwd)


def transpose(a: Tensor) -> Tensor:
    def bwd(g, grads):
        _acc(grads, a, g.T)

    return _node(a.value.T.copy(), (a,), bwd)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.cols:
        raise ShapeError(f"concat_rows mismatch: {a.shape} over {b.shape}")
    na = a.rows

    def bwd(g, grads):
        _acc(grads, a, g[:na])
        _acc(grads, b, g[na:])

    return _node(np.concatenate([a.value, b.value], axis=0), (a, b), bwd)


def slice_block(a: Tensor, r0: int, r1: int, c0: int, c1: int) -> Tensor:
    if not (0 <= r0 < r1 <= a.rows and 0 <= c0 < c1 <= a.cols):
        raise ShapeError(f"slice [{r0}:{r1}, {c0}:{c1}] out of bounds for {a.shape}")

    def bwd(g, grads):
        ga = np.zeros_like(a.value)
        ga[r0:r1, c0:c1] = g
        _acc(grads, a, ga)

    return _node(a.value[r0:r1, c0:c1].copy(), (a,), bwd)


def sum_all(a: Tensor) -> Tensor:
    def bwd(g, grads):
        _acc(grads, a, np.full_like(a.value, g[0, 0]))

    return _node([[a.value.sum()]], (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size

    def bwd(g, grads):
        _acc(grads, a, np.full_like(a.value, g[0, 0] / n))

    return _node([[a.value.mean()]], (a,), bwd)


def sq_error(a: Tensor, b: Tensor) -> Tensor:
    """Sum of squared elementwise differences, as a 1 x 1 tensor."""
    if a.shape != b.shape:
        raise ShapeError(f"sq_error mismatch: {a.shape} vs {b.shape}")
    diff = a.value - b.value

    def bwd(g, grads):
        d = 2.0 * g[0, 0] * diff
        _acc(grads, a, d)
        _acc(grads, b, -d)

    return _node([[(diff * diff).sum()]], (a, b), bwd)


def stop_gradient(a: Tensor) -> Tensor:
    """Detach a value from the tape."""
    return Tensor(a.value.copy())


# ------------------------------------------------------------------ backward


def _topo(root: Tensor) -> list[Tensor]:
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(root: Tensor, seed_grad) -> dict[Tensor, np.ndarray]:
    """Propagate ``seed_grad`` from ``root`` back to every leaf.

    Returns a map from each leaf tensor on the tape to its gradient.
    Gradients accumulate across fan-out.
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


def grad_check(f, leaves: list[Tensor], fd_step: float = 1e-5) -> float:
    """Worst relative error between backward and central finite differences.

    ``f`` is a zero-argument callable that rebuilds a scalar (1 x 1)
    expression from ``leaves``; their values are perturbed in place for
    the finite-difference probes. The relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    if fd_step <= 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    out = f()
    if out.shape != (1, 1):
        raise ShapeError(f"grad_check target must be 1x1, got {out.shape}")
    grads = backward(out, [[1.0]])
    worst = 0.0
    for t in leaves:
        analytic = grads.get(t)
        if analytic is None:
            analytic = np.zeros_like(t.value)
        for idx in np.ndindex(t.value.shape):
            orig = t.value[idx]
            t.value[idx] = orig + fd_step
            hi = f().value[0, 0]
            t.value[idx] = orig - fd_step
            lo = f().value[0, 0]
            t.value[idx] = orig
            numeric = (hi - lo) / (2.0 * fd_step)
            a = analytic[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------- adam


@dataclass
class AdamState:
    """Per-parameter Adam moments with coupled L2 weight decay."""

    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, Tensor], lr: float = 1e-4,
              weight_decay: float = 1e-4) -> AdamState:
    state = AdamState(lr=lr, weight_decay=weight_decay)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.value)
        state.v[name] = np.zeros_like(p.value)
    return state


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One Adam update, in place. Decay is added to the gradient before the
    moment updates. A non-finite gradient aborts the step untouched."""
    for name in params:
        g = grads.get(name)
        if g is not None and not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    t = state.step_count + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.value.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} {p.value.shape}")
        g = g + state.weight_decay * p.value
        m = state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        v = state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        p.value = p.value - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    state.step_count = t
