"""Array-level forward and backward halves of the training step's
operations, their checks, and an Adam optimizer over flat buffers.

Every value is a 2-D float64 array, or a stack of them along a leading
lane axis: one lane per run of a group that trains in lockstep
(``trainer``). A stacked half does each lane's arithmetic of its 2-D call,
bit for bit: products and sums run along the last two axes, a loss is one
value per lane (a lane x 1 x 1 array), and a scale factor is a float or
one per lane. Nothing else broadcasts: elementwise operations take equal
shapes. ``checked`` admits an array from outside (an input batch, stored
features, a parameter value): it must be 2-D, or a stack of 2-D arrays,
non-empty and finite. Every half checks its shapes and rejects a
non-finite value it computes, in any lane.

Each operation is two halves, ``<op>_fwd`` and ``<op>_bwd``: ``mlp`` (a
chain of ``x @ w + b`` layers with ReLUs between), ``score`` (a ReLU
trunk, a mean head and a ``softplus`` std head, and ``mean + eps * std``),
``sq_error`` (a scaled squared-error loss), ``weighted_sum`` (the total
loss) and ``graph`` (the whole graph regularizer); ``add_fwd`` is a
residual sum, whose backward hands its gradient to both sides. The
training step calls them directly; ``models`` runs the forward halves, on
2-D arrays, to evaluate, refresh and store. Each pair repeats, in order, the arithmetic of
a chain of reverse-mode tape primitives, so its value and gradients equal
that chain's bit for bit; the tests keep the tape and each chain as the
reference.

Adam keeps a component's parameters in one flat float64 buffer:
``adam_init`` copies them into it in dict order, binds each value as a view
into it (``adam_bind``), and adds flat first and second moment buffers and
a flat gradient of the same length, which each parameter's ``grad`` views.
The training step takes the views from ``adam_views``, adds its gradients
into them and calls ``adam_update``, which checks every component's
gradient, then updates each buffer and both moments in place, one numpy
operation at a time and elementwise as a per-parameter loop would.
``adam_stack`` makes one state of several lanes' states, a row each, with
the lanes' states and parameters as views of their rows, and
``adam_unstack`` gives each lane its own buffers again; an update of the
stack is each lane's update, with its own step count. Parameters must be
changed (or loaded) by writing into their values, never
by rebinding them; an update refuses one that is no longer a view.
A deep copy or a pickle round trip of the arrays does not keep the views;
``adam_bind`` restores them over a buffer of the copy's own, as
``trainer.TrainState`` does when it is copied or unpickled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

ARCCOS_CLAMP = 1e-7
NORM_FLOOR = 1e-12


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
    pass


def _at(name):
    return f" {name!r}" if name else ""


def checked(value, name=None, lanes: bool = False) -> np.ndarray:
    """``value`` as a non-empty, finite, 2-D float64 array, or with
    ``lanes`` a stack of them."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2 + lanes:
        raise ShapeError(f"tensor must be {'a stack of ' * lanes}2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"tensor must be non-empty, got shape {arr.shape}")
    if not _all_finite(arr):
        raise NonFiniteError(f"non-finite entries in tensor{_at(name)}")
    return arr


def _all_finite(arr) -> bool:
    # a float (numpy's float64 is one) takes math.isfinite, 40 times faster
    # than numpy; an array whose sum is finite holds no NaN or infinity,
    # which would make the sum one, so only an overflowing sum needs the
    # entrywise test
    if isinstance(arr, float):
        return math.isfinite(arr)
    return math.isfinite(np.add.reduce(arr, None)) or bool(np.isfinite(arr).all())


def _finite(arr):
    if not _all_finite(arr):
        raise NonFiniteError("non-finite entries in tensor")
    return arr


def _factor(c):
    """A scale factor as a float, or one per lane as an array, checked."""
    if isinstance(c, np.ndarray):
        if not np.isfinite(c).all():
            raise NonFiniteError(f"scale factor must be finite, got {c.ravel()}")
        return c
    c = float(c)
    if not math.isfinite(c):
        raise NonFiniteError(f"scale factor must be finite, got {c}")
    return c


def _block_sum(a: np.ndarray):
    """The sum of a 2-D array's entries, or of each lane's in a stack."""
    return a.sum() if a.ndim == 2 else a.sum(axis=(-2, -1), keepdims=True)


class Param:
    """A parameter, or a frozen copy of one: its ``checked`` value and, once
    ``adam_bind`` has viewed it into an optimizer, its gradient."""

    __slots__ = ("value", "grad")

    def __init__(self, value, name=None):
        self.value = checked(value, name)
        self.grad = None


def _check_linear(shape: tuple, w: np.ndarray, b: np.ndarray) -> None:
    if shape[-1] != w.shape[-2]:
        raise ShapeError(f"linear mismatch: {shape} @ {w.shape}")
    if b.shape[-2:] != (1, w.shape[-1]):
        raise ShapeError(f"linear bias {b.shape} is not a 1 x {w.shape[-1]} row")


def add_fwd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b``, checked; its backward hands its gradient to both."""
    if a.shape != b.shape:
        raise ShapeError(f"add mismatch: {a.shape} + {b.shape}")
    return _finite(a + b)


def _relu(h: np.ndarray) -> np.ndarray:
    # max(h, 0) in place, without a branch per entry (np.where(h > 0, h,
    # 0.0) mispredicts on mixed signs); maximum may return either of two
    # equal zeros, and adding 0.0 makes a -0.0 the 0.0 that np.where gives
    np.maximum(h, 0.0, out=h)
    h += 0.0
    return h


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf gives sig = 0, the limit
        return 1.0 / (1.0 + np.exp(-x))


# ------------------------------------------------------------------ halves
#
# Each pair below repeats a chain of tape primitives without the tape. The
# tape's order of work along a chain without fan-out inside is the chain's
# own, so each half repeats the chain's numpy operations in order, and its
# value and gradients equal the chain's bit for bit. Each keeps the shape
# checks of the primitives it replaces and the finiteness check of every
# value the tape wrapped, except a ReLU output, which is finite when its
# input is.
#
# ``<op>_fwd`` makes the checks and returns the value and what the backward
# half needs. ``<op>_bwd`` adds each input's gradient into that input's
# sink, or skips an input whose sink is None. A sink starts at -0.0, the
# exact additive identity, so adding every contribution with ``+=`` gives
# the bits of the tape, which keeps the first gradient and adds later ones
# to it.


def mlp_fwd(x: np.ndarray, params, output_relu: bool = False) -> list[np.ndarray]:
    """An MLP chain's values: its input, then each layer's output, after its
    ReLU, which runs between layers and, with ``output_relu``, after the
    last one. ``params`` holds each layer's weight, then its bias."""
    acts = [x]
    last = len(params) // 2 - 1
    for i in range(last + 1):
        w, b = params[2 * i], params[2 * i + 1]
        _check_linear(acts[-1].shape, w, b)
        h = _finite(acts[-1] @ w + b)
        acts.append(_relu(h) if i < last or output_relu else h)
    return acts


def mlp_bwd(g, params, acts, output_relu: bool, sinks, x_sink=None) -> None:
    """``mlp_fwd``'s backward from its output's gradient ``g``, with one sink
    per parameter and ``x_sink`` for the input, in the order the composed
    tape would run."""
    n = len(params) // 2
    live = [x_sink is not None]  # whether each layer's input needs a gradient
    for i in range(n):
        live.append(live[-1] or sinks[2 * i] is not None or sinks[2 * i + 1] is not None)
    for i in range(n - 1, -1, -1):
        gw, gb = sinks[2 * i], sinks[2 * i + 1]
        if i < n - 1 or output_relu:
            g = g * (acts[i + 1] > 0.0)
        if gb is not None:
            gb += g.sum(axis=-2, keepdims=True)
        gx = g @ params[2 * i].mT if live[i] else None
        if i == 0 and live[0]:
            x_sink += gx
        if gw is not None:
            gw += acts[i].mT @ g
        if gx is None:
            return
        g = gx


def score_fwd(x: np.ndarray, params, eps=None):
    """A score column sampled over a ReLU trunk. ``params`` holds the trunk's
    layers as ``mlp_fwd`` takes them, then the mean head's weight and bias,
    then the std head's. The mean is the mean head on the trunk, the std
    softplus of the std head, and the sample ``mean + eps * std``, or the
    mean with ``eps`` None. Returns the sample, mean, std, and the context
    of ``score_bwd``."""
    wm, bm, ws, bs = params[-4:]
    acts = mlp_fwd(x, params[:-4], True)
    trunk = acts[-1]
    _check_linear(trunk.shape, wm, bm)
    _check_linear(trunk.shape, ws, bs)
    mean = trunk @ wm + bm
    pre = _finite(trunk @ ws + bs)
    std = _finite(_softplus(pre))
    if eps is None:
        return _finite(mean), mean, std, (acts, pre)
    if eps.shape != std.shape:
        raise ShapeError(f"mul mismatch: {eps.shape} * {std.shape}")
    noise = _finite(_finite(eps) * std)
    if mean.shape != noise.shape:
        raise ShapeError(f"add mismatch: {mean.shape} + {noise.shape}")
    return _finite(_finite(mean) + noise), mean, std, (acts, pre)


def score_bwd(g, params, eps, ctx, sinks, x_sink=None) -> None:
    """``score_fwd``'s backward from the sample's gradient ``g``, with one
    sink per parameter and ``x_sink`` for the input. Without ``eps`` the std
    head gets nothing."""
    acts, pre = ctx
    trunk = acts[-1]
    wm, _, ws, _ = params[-4:]
    gwm, gbm, gws, gbs = sinks[-4:]
    trunk_live = x_sink is not None or any(s is not None for s in sinks[:-4])
    gt = None
    if gbm is not None:
        gbm += g.sum(axis=-2, keepdims=True)
    if trunk_live:
        gt = g @ wm.mT
    if gwm is not None:
        gwm += trunk.mT @ g
    if eps is not None:
        gs = (g * eps) * _sigmoid(pre)
        if gbs is not None:
            gbs += gs.sum(axis=-2, keepdims=True)
        if trunk_live:
            gt = gt + gs @ ws.mT
        if gws is not None:
            gws += trunk.mT @ gs
    if trunk_live:
        mlp_bwd(gt, params[:-4], acts, True, sinks[:-4], x_sink)


def sq_error_fwd(a: np.ndarray, b: np.ndarray, c) -> tuple:
    """``c`` times the sum of squared differences of ``a`` and ``b``, and
    the differences, which ``sq_error_bwd`` takes."""
    if a.shape != b.shape:
        raise ShapeError(f"sq_error mismatch: {a.shape} vs {b.shape}")
    c = _factor(c)
    diff = a - b
    return _finite(c * _finite(_block_sum(diff * diff))), diff


def sq_error_bwd(g, c: float, diff: np.ndarray) -> np.ndarray:
    """``a``'s gradient from the value's gradient ``g``; ``b``'s is its
    negation."""
    return 2.0 * (c * g) * diff


def weighted_sum_fwd(values, weights) -> tuple:
    """The sum of ``values``, left to right, each first scaled by its weight
    unless that is None; and the weights as floats, or per lane as arrays."""
    weights = [None if c is None else _factor(c) for c in weights]
    first, c = values[0], weights[0]
    total = first if c is None else _finite(c * first)
    for v, c in zip(values[1:], weights[1:]):
        if v.shape != first.shape:
            raise ShapeError(f"add mismatch: {first.shape} + {v.shape}")
        total = _finite(total + (v if c is None else _finite(c * v)))
    return total, weights


def weighted_sum_bwd(g, weights) -> list:
    """Each value's gradient from the sum's gradient ``g``."""
    return [g if c is None else c * g for c in weights]


def _softmax(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax and row log-softmax of ``a``, both from one shift."""
    shift = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    z = e.sum(axis=-1, keepdims=True)
    return e / z, shift - np.log(z)


def _log_softmax(a: np.ndarray) -> np.ndarray:
    """``_softmax``'s row log-softmax alone, computed the same way."""
    shift = a - a.max(axis=-1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=-1, keepdims=True))


def _row_terms(p: np.ndarray, q: np.ndarray, cuts: tuple, use_mse: bool,
               reverse_kl: bool):
    """Row losses between the angle columns ``p`` and the gap columns ``q``,
    one per block of rows ``cuts[i]:cuts[i + 1]``: each block's value, and
    the context of ``_row_bwd``, which maps the loss's gradient to ``p``'s.
    Each block's value sums a contiguous row slice and every reduction runs
    along rows, so each equals the loss of its block on its own, bit for
    bit."""
    blocks = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    probs = lp = lq = None
    if use_mse:
        diff = p - q
        terms = diff * diff
        scales = [1.0 / ((r.stop - r.start) * p.shape[-1]) for r in blocks]
    else:
        probs, lp = _softmax(q if reverse_kl else p)  # KL(probs || the other side)
        lq = _log_softmax(p if reverse_kl else q)
        diff = lp - lq
        terms = probs * diff
        scales = [1.0 / (r.stop - r.start) for r in blocks]
    values = [c * _block_sum(terms[..., r, :]) for c, r in zip(scales, blocks)]
    return values, (blocks, scales, reverse_kl, diff, probs, lp, lq)


def _row_bwd(g, ctx) -> np.ndarray:
    blocks, scales, reverse_kl, diff, probs, lp, lq = ctx
    k = np.empty((*diff.shape[:-1], 1))  # each row's block scale times g
    for c, r in zip(scales, blocks):
        k[..., r, :] = c * g
    if probs is None:
        return 2.0 * k * diff
    if reverse_kl:  # only the second log-softmax depends on p
        gq = -(k * probs)
        return gq - np.exp(lq) * gq.sum(axis=-1, keepdims=True)
    gs = k * diff
    gs = probs * (gs - (gs * probs).sum(axis=-1, keepdims=True))
    gl = k * probs
    return gs + (gl - np.exp(lp) * gl.sum(axis=-1, keepdims=True))


def graph_fwd(old: np.ndarray, new: np.ndarray, gaps: np.ndarray, *, joint,
              intra_inter, use_mse, reverse_kl) -> tuple:
    """The graph regularizer over ``old`` stacked on ``new``, and the context
    of ``graph_bwd``.

    The angles are the clamped arccos of the cosines between the stacked
    rows. Each term is the mean over rows of KL(softmax(angles) ||
    softmax(gaps)) on one block, reversed by ``reverse_kl``, or with
    ``use_mse`` the mean squared difference: the whole n x n matrix if
    ``joint``, then the old/old, old/new, new/old and new/new blocks if
    ``intra_inter``; at least one must be on. The four blocks are computed
    as two column groups, old columns and new columns, each split into old
    rows and new rows. Every sum runs in the composed tape's order.

    For a stack of lanes each flag is one bool for all of them or a
    sequence of one per lane: the angles are computed once for the stack,
    and the row terms once per set of lanes with equal flags.
    """
    stacked = old.ndim > 2
    flags = (joint, intra_inter, use_mse, reverse_kl)
    sets: dict[tuple, list | None] = {flags: None}
    if stacked:
        per_lane = zip(*(f if isinstance(f, (tuple, list)) else [f] * old.shape[0]
                         for f in flags))
        sets = {}
        for i, f in enumerate(per_lane):
            sets.setdefault(f, []).append(i)
        if len(sets) == 1:
            sets = dict.fromkeys(sets)
    if any(not j and not ii for j, ii, _, _ in sets):
        raise ValueError("graph regularizer with no joint and no block terms")
    if old.shape[-1] != new.shape[-1]:
        raise ShapeError(f"graph mismatch: {old.shape} over {new.shape}")
    b1, n = old.shape[-2], old.shape[-2] + new.shape[-2]
    if gaps.shape[-2:] != (n, n):
        raise ShapeError(f"graph gaps {gaps.shape} for {n} rows")
    h = np.concatenate([old, new], axis=-2)
    norms = np.sqrt((h * h).sum(axis=-1, keepdims=True))
    denom = np.maximum(norms, NORM_FLOOR)
    hn = h / denom
    active = norms > NORM_FLOOR
    hnt = hn.mT.copy()  # hn @ hn.T, without the copy, rounds differently
    cos = hn @ hnt
    lo, hi = -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP
    x = np.clip(cos, lo, hi)
    inside = (cos >= lo) & (cos <= hi)
    angles = np.arccos(x)
    value, parts = None, []
    for (j, ii, mse, rkl), sub in sets.items():
        a, q = (angles, gaps) if sub is None else (angles[sub], gaps[sub])
        values, whole, halves = [], None, None
        if j:
            values, whole = _row_terms(a, q, (0, n), mse, rkl)
        if ii:
            (oo, no), old_cols = _row_terms(a[..., :b1].copy(), q[..., :b1],
                                            (0, b1, n), mse, rkl)
            (on, nn), new_cols = _row_terms(a[..., b1:].copy(), q[..., b1:],
                                            (0, b1, n), mse, rkl)
            values += [oo, on, no, nn]
            halves = old_cols, new_cols
        total = sum(values[1:], values[0])
        if sub is None:
            value = total
        else:
            value = np.empty((old.shape[0], 1, 1)) if value is None else value
            value[sub] = total
        parts.append((sub, whole, halves))
    return _finite(value), (b1, parts, hn, hnt, denom, active, x, inside)


def graph_bwd(g, ctx) -> np.ndarray:
    """The gradient of the stacked rows, old first, from the value's
    gradient ``g``, a float or one per lane."""
    b1, parts, hn, hnt, denom, active, x, inside = ctx
    ga = None
    for sub, whole, halves in parts:
        gs = g if sub is None else g[sub]
        # the composed tape summed one zero-padded n x n gradient per term;
        # adding 0.0 after the quadrants repeats its signed zeros
        part = None if whole is None else _row_bwd(gs, whole)
        if halves is not None:
            quad = np.empty(x.shape if sub is None else (len(sub), *x.shape[1:]))
            quad[..., :b1] = _row_bwd(gs, halves[0])
            quad[..., b1:] = _row_bwd(gs, halves[1])
            part = (quad if part is None else part + quad) + 0.0
        if sub is None:
            ga = part
        else:
            ga = np.empty(x.shape) if ga is None else ga
            ga[sub] = part
    ga = ga * np.where(inside, -1.0 / np.sqrt(1.0 - x * x), 0.0)
    ga = ga @ hnt.mT + (hn.mT @ ga).mT
    return (ga - np.where(active, hn * (hn * ga).sum(axis=-1, keepdims=True), 0.0)) / denom


# ---------------------------------------------------------------------- adam


@dataclass
class AdamState:
    """Adam moments over one flat parameter buffer, with coupled L2 weight
    decay. ``spans`` gives each parameter's [start, end) in the buffer and
    in ``grad``, the flat gradient an update reads. A stack of lanes'
    states (``adam_stack``) holds one row per lane in each buffer and its
    step counts as a lanes x 1 integer array."""

    buffer: np.ndarray
    spans: dict[str, tuple[int, int]]
    m: np.ndarray
    v: np.ndarray
    grad: np.ndarray
    lr: float = 1e-4
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int | np.ndarray = 0


def adam_init(params: dict[str, Param], lr: float = 1e-4,
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
                      v=np.zeros_like(buffer), grad=np.zeros_like(buffer), lr=lr,
                      weight_decay=weight_decay)
    adam_bind(params, state)
    return state


def adam_bind(params: dict[str, Param], state: AdamState) -> None:
    """Rebind each parameter's value and gradient as views into
    ``state.buffer`` and ``state.grad``, at its span, as an update requires."""
    for name, p in params.items():
        lo, hi = state.spans[name]
        p.value = state.buffer[lo:hi].reshape(p.value.shape)
        p.grad = state.grad[lo:hi].reshape(p.value.shape)


def _check_view(name: str, p: Param, state: AdamState) -> None:
    if p.value.base is not state.buffer:
        raise ValueError(f"parameter {name!r} is not a view into the "
                         f"optimizer's buffer; write values in place")


def adam_views(params: dict[str, Param], state: AdamState) -> tuple[list, list]:
    """The parameters' values and gradients, in dict order, for a step that
    writes the gradients itself; ``adam_update`` then reads them. Every
    gradient is set to -0.0, the exact additive identity, so the step can add
    each contribution with ``+=``."""
    for name, p in params.items():
        _check_view(name, p, state)
    state.grad.fill(-0.0)
    return [p.value for p in params.values()], [p.grad for p in params.values()]


def adam_stack(states: list[AdamState], params: list[dict[str, Param]]) -> AdamState:
    """One state of several lanes' states of one component, each lane's
    buffers a row of its buffers. Each lane's state, and its ``params``,
    then view its row, so the lane reads what an update of the stack
    writes; a stack's step counts are its own."""
    first = states[0]
    rows = {name: np.stack([getattr(a, name) for a in states])
            for name in ("buffer", "m", "v", "grad")}
    stack = replace(first, **rows, step_count=np.array([[a.step_count] for a in states]))
    for i, (a, p) in enumerate(zip(states, params)):
        a.buffer, a.m, a.v, a.grad = (rows[name][i] for name in ("buffer", "m", "v", "grad"))
        adam_bind(p, a)
    return stack


def adam_unstack(stack: AdamState, states: list[AdamState],
                 params: list[dict[str, Param]]) -> None:
    """Give each lane of ``adam_stack``'s ``stack`` buffers of its own again,
    copies of its rows, with its step count, and rebind its parameters."""
    for i, (a, p) in enumerate(zip(states, params)):
        a.buffer, a.m, a.v, a.grad = (getattr(stack, name)[i].copy()
                                      for name in ("buffer", "m", "v", "grad"))
        a.step_count = int(stack.step_count[i, 0])
        adam_bind(p, a)


def stacked_views(stack: AdamState, shapes: list[tuple]) -> tuple[list, list]:
    """A stack's parameter values and gradients, one lanes x rows x cols view
    per parameter of ``shapes``, in span order."""
    lanes = stack.buffer.shape[0]
    views = [], []
    for (lo, hi), shape in zip(stack.spans.values(), shapes):
        views[0].append(stack.buffer[:, lo:hi].reshape(lanes, *shape))
        views[1].append(stack.grad[:, lo:hi].reshape(lanes, *shape))
    return views


def adam_update(states) -> None:
    """One Adam update of every parameter of each state from its ``grad``,
    in place. All gradients are checked first: a non-finite one, which is
    named, aborts the update with every state untouched."""
    for state in states:
        if not _all_finite(state.grad):
            bad = next(name for name, (lo, hi) in state.spans.items()
                       if not np.isfinite(state.grad[..., lo:hi]).all())
            raise NonFiniteError(f"non-finite gradient for parameter {bad!r}")
    for state in states:
        _adam(state, state.grad, state.buffer, state.m, state.v)


def _adam(state: AdamState, g: np.ndarray, buf: np.ndarray, m: np.ndarray,
          v: np.ndarray) -> None:
    """Update ``buf``, ``m`` and ``v`` in place from ``g``, which it leaves
    as it is, one numpy operation at a time, elementwise as a per-parameter
    loop would, with the decayed gradient and every intermediate in one
    scratch array of two rows. A stack's bias corrections are per lane, each
    the float power a single state takes (numpy's power of an array rounds
    some differently)."""
    d, tmp = np.empty((2, *g.shape))
    t = state.step_count + 1
    if isinstance(t, np.ndarray):
        c1, c2 = (np.array([[1.0 - beta ** int(s)] for s in t[:, 0]])
                  for beta in (state.beta1, state.beta2))
    else:
        c1, c2 = 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t
    # each line repeats one operation of, in order:
    # d = g + wd * buf; m = b1 * m + (1 - b1) * d; v = b2 * v + (1 - b2) * d * d
    # buf -= lr * (m / c1) / (sqrt(v / c2) + eps)
    np.multiply(buf, state.weight_decay, out=d)
    d += g
    m *= state.beta1
    m += np.multiply(d, 1 - state.beta1, out=tmp)
    v *= state.beta2
    np.multiply(d, 1 - state.beta2, out=tmp)
    v += np.multiply(tmp, d, out=tmp)
    np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
    tmp += state.eps
    np.divide(m, c1, out=d)
    d *= state.lr
    buf -= np.divide(d, tmp, out=d)
    state.step_count = t

