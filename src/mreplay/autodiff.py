"""Dense 2-D float64 tensors with a reverse-mode tape and an Adam optimizer.

Evaluation is eager: building an expression computes its value immediately
and records its parents, so ``backward`` can replay the chain rule in
reverse topological order. All values are strictly 2-D and nothing
broadcasts: elementwise operations take equal shapes. Every public
operation validates shapes and rejects non-finite values.

Two kinds of tensor start a tape:

* ``leaf``: a value that receives a gradient, such as a parameter;
* ``const``: data that needs none (inputs, targets, noise draws, a frozen
  snapshot). An operation whose inputs are all constants returns a
  constant with no parents and no backward closure, so a pass over
  constants only computes values. A backward closure computes nothing for
  a constant parent, and ``backward`` returns gradients only for leaves.

The primitives are ``matmul``, ``linear`` (``x @ w`` plus a bias row on
every row), ``add``, ``scale``, ``mul``, ``relu``, ``softplus`` and
``sq_error``. ``graph_loss`` is the whole graph regularizer as one node; it
repeats the arithmetic of the composition it replaced, which the tests keep
as its reference, so its value and gradients equal that one's bit for bit.

Adam keeps a component's parameters in one flat float64 buffer:
``adam_init`` copies them into it in dict order, binds each value as a view
into it (``adam_bind``), and adds flat first and second moment buffers of
the same length. ``adam_step`` updates the whole buffer with a few
vectorised numpy operations, in place and elementwise as a per-parameter
loop would, so parameters must be changed (or loaded) by writing into their
values, never by rebinding them; a step refuses one that is no longer a view.
A deep copy or a pickle round trip of the arrays does not keep the views;
``adam_bind`` restores them over a buffer of the copy's own, as
``trainer.TrainState`` does when it is copied or unpickled.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARCCOS_CLAMP = 1e-7
NORM_FLOOR = 1e-12


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


class Tensor:
    """A node of the tape: a 2-D float64 value plus backward plumbing."""

    __slots__ = ("value", "name", "needs_grad", "_parents", "_bwd")

    def __init__(self, value, name=None, _parents=(), _bwd=None, needs_grad=True):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"tensor must be 2-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"tensor must be non-empty, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite entries in tensor{_at(name)}")
        self.value = arr
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

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor({self.rows}x{self.cols}{tag})"


def _at(name):
    return f" {name!r}" if name else ""


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
    if x.cols != w.rows:
        raise ShapeError(f"linear mismatch: {x.shape} @ {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"linear bias {b.shape} is not a 1 x {w.cols} row")

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
    x = a.value
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def bwd(g, grads):
        with np.errstate(over="ignore"):  # exp(-x) = inf gives sig = 0, the limit
            sig = 1.0 / (1.0 + np.exp(-x))
        _acc(grads, a, g * sig)

    return _node(out, (a,), bwd)


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


def _softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax and row log-softmax of ``a``, both from one shift."""
    shift = a - a.max(axis=1, keepdims=True)
    e = np.exp(shift)
    z = e.sum(axis=1, keepdims=True)
    return e / z, shift - np.log(z)


def _row_term(p: np.ndarray, q: np.ndarray, use_mse: bool, reverse_kl: bool):
    """One row loss between the angle block ``p`` and the gap block ``q``:
    its value, and a map from the loss's 1 x 1 gradient to ``p``'s."""
    if use_mse:
        diff = p - q
        c = 1.0 / p.size
        return c * (diff * diff).sum(), lambda g: 2.0 * (c * g[0, 0]) * diff
    c = 1.0 / p.shape[0]
    probs, lp = _softmax(q if reverse_kl else p)  # KL(probs || the other side)
    _, lq = _softmax(p if reverse_kl else q)
    diff = lp - lq

    def back(g):
        k = c * g[0, 0]
        if reverse_kl:  # only the second log-softmax depends on p
            gq = -(k * probs)
            return gq - np.exp(lq) * gq.sum(axis=1, keepdims=True)
        gs = k * diff
        gs = probs * (gs - (gs * probs).sum(axis=1, keepdims=True))
        gl = k * probs
        return gs + (gl - np.exp(lp) * gl.sum(axis=1, keepdims=True))

    return c * (probs * diff).sum(), back


def graph_loss(old: Tensor, new: Tensor, gaps: np.ndarray, *, joint: bool,
               intra_inter: bool, use_mse: bool, reverse_kl: bool) -> Tensor:
    """The graph regularizer as one node over ``old`` stacked on ``new``.

    The angles are the clamped arccos of the cosines between the stacked
    rows. Each term is the mean over rows of KL(softmax(angles) ||
    softmax(gaps)) on one block, reversed by ``reverse_kl``, or with
    ``use_mse`` the mean squared difference: the whole n x n matrix if
    ``joint``, then the old/old, old/new, new/old and new/new blocks if
    ``intra_inter``. Every sum runs in the composed tape's order, so the
    value and gradients equal the composition's bit for bit.
    """
    if old.cols != new.cols:
        raise ShapeError(f"graph_loss mismatch: {old.shape} over {new.shape}")
    b1, n = old.rows, old.rows + new.rows
    if gaps.shape != (n, n):
        raise ShapeError(f"graph_loss gaps {gaps.shape} for {n} rows")
    h = np.concatenate([old.value, new.value], axis=0)
    norms = np.sqrt((h * h).sum(axis=1, keepdims=True))
    denom = np.maximum(norms, NORM_FLOOR)
    hn = h / denom
    active = norms > NORM_FLOOR
    hnt = hn.T.copy()  # hn @ hn.T, without the copy, rounds differently
    cos = hn @ hnt
    lo, hi = -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP
    x = np.clip(cos, lo, hi)
    inside = (cos >= lo) & (cos <= hi)
    angles = np.arccos(x)
    halves = (slice(0, b1), slice(b1, n))
    blocks = [(slice(0, n), slice(0, n))] if joint else []
    if intra_inter:
        blocks += [(r, c) for r in halves for c in halves]
    values, backs = zip(*[_row_term(angles[r, c].copy(), gaps[r, c], use_mse, reverse_kl)
                          for r, c in blocks])

    def bwd(g, grads):
        pads = []
        for (r, c), back in zip(blocks, backs):
            pads.append(np.zeros_like(angles))
            pads[-1][r, c] = back(g)
        ga = sum(pads[1:], pads[0]) * np.where(inside, -1.0 / np.sqrt(1.0 - x * x), 0.0)
        ga = ga @ hnt.T + (hn.T @ ga).T
        ga = (ga - np.where(active, hn * (hn * ga).sum(axis=1, keepdims=True), 0.0)) / denom
        if old.needs_grad:
            _acc(grads, old, ga[:b1])
        if new.needs_grad:
            _acc(grads, new, ga[b1:])

    return _node([[sum(values[1:], values[0])]], (old, new), bwd)


def stop_gradient(a: Tensor) -> Tensor:
    """Detach a value from the tape: a constant sharing ``a``'s value."""
    return const(a.value)


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
    """Adam moments over one flat parameter buffer, with coupled L2 weight
    decay. ``spans`` gives each parameter's [start, end) in the buffer."""

    buffer: np.ndarray
    spans: dict[str, tuple[int, int]]
    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0


def adam_init(params: dict[str, Tensor], lr: float = 1e-4,
              weight_decay: float = 1e-4) -> AdamState:
    """Optimizer state for ``params``. Their values are copied into one flat
    buffer, in dict order, and each is rebound as a view into it, so later
    writes must go into them in place."""
    buffer = np.empty(sum(p.value.size for p in params.values()))
    spans, lo = {}, 0
    for name, p in params.items():
        hi = lo + p.value.size
        buffer[lo:hi] = p.value.reshape(-1)
        spans[name] = (lo, hi)
        lo = hi
    state = AdamState(buffer=buffer, spans=spans, m=np.zeros_like(buffer),
                      v=np.zeros_like(buffer), lr=lr, weight_decay=weight_decay)
    adam_bind(params, state)
    return state


def adam_bind(params: dict[str, Tensor], state: AdamState) -> None:
    """Rebind each parameter's value as a view into ``state.buffer``, at its
    span, as ``adam_step`` requires."""
    for name, p in params.items():
        lo, hi = state.spans[name]
        p.value = state.buffer[lo:hi].reshape(p.value.shape)


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One Adam update of the parameters that have a gradient, in place.
    Decay is added to the gradient before the moment updates. A non-finite
    gradient aborts the step untouched."""
    flat = np.empty_like(state.buffer)
    have = []
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.value.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} {p.value.shape}")
        if p.value.base is not state.buffer:
            raise ValueError(f"parameter {name!r} is not a view into the "
                             f"optimizer's buffer; write values in place")
        lo, hi = state.spans[name]
        flat[lo:hi] = g.reshape(-1)
        have.append((lo, hi))
    if len(have) == len(state.spans):
        sel = slice(None)
    else:
        sel = np.zeros(flat.size, dtype=bool)
        for lo, hi in have:
            sel[lo:hi] = True
    g = flat[sel]
    if not np.isfinite(g).all():
        bad = next(name for name in params
                   if name in grads and not np.isfinite(grads[name]).all())
        raise NonFiniteError(f"non-finite gradient for parameter {bad!r}")
    t = state.step_count + 1
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    g = g + state.weight_decay * state.buffer[sel]
    m = state.m[sel] = state.beta1 * state.m[sel] + (1 - state.beta1) * g
    v = state.v[sel] = state.beta2 * state.v[sel] + (1 - state.beta2) * g * g
    state.buffer[sel] -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    state.step_count = t
