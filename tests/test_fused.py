"""``autodiff``'s array-level halves against the tape chains they repeat,
bit for bit.

Each pair of halves that stands for a chain of tape primitives (``mlp``,
``score``, ``sq_error``, ``weighted_sum`` and ``graph``) runs beside its
composition in ``tape_reference`` or ``graph_reference`` over random
shapes. Each input of the chain is a leaf or a constant; the backward half
gets a fresh sink for each leaf and None for each constant, and both run
back from one seed gradient. Values come from a small set that includes
0.0 and -0.0 half of the time, so ReLU kinks and signed zeros occur. The
halves' gradients are then checked against finite differences."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
import tape_reference as tp

SETTINGS = settings(database=None, derandomize=True, max_examples=150, deadline=None)
ATOMS = np.array([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


def _values(rng, shape, atoms):
    if atoms:
        return rng.choice(ATOMS, size=shape)
    return rng.normal(size=shape)


@st.composite
def _cases(draw, n_layers=(1, 3)):
    """(rng, rows, widths, atoms, which inputs are leaves)."""
    k = draw(st.integers(*n_layers))
    widths = draw(st.lists(st.integers(1, 6), min_size=k + 1, max_size=k + 1))
    rows = draw(st.integers(1, 6))
    atoms = draw(st.booleans())
    # None: every input a constant; otherwise one leaf flag per input
    leafy = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=16, max_size=16)))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed), rows, widths, atoms, leafy


def _wrap(values, leafy):
    flags = [False] * len(values) if leafy is None else leafy
    return [tp.leaf(v) if f else tp.const(v) for v, f in zip(values, flags)]


def _layers(rng, widths, atoms) -> list:
    """Each layer's weight, then its bias."""
    values = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        values += [_values(rng, (fan_in, fan_out), atoms), _values(rng, (1, fan_out), atoms)]
    return values


def _sinks(inputs) -> list:
    """A fresh -0.0 sink for each leaf and None for each constant."""
    return [np.full(t.shape, -0.0) if t.needs_grad else None for t in inputs]


def _assert_same(value, sinks, composed, inputs, seed):
    """The halves' value equals the chain's as bytes, and each sink holds
    the tape's gradient of its input from ``seed`` as bytes, or is still
    -0.0 where the tape gives that input none."""
    assert np.asarray(value).tobytes() == composed.value.tobytes()
    grads = tp.backward(composed, seed) if composed.needs_grad else {}
    for t, s in zip(inputs, sinks):
        if s is None:
            assert t not in grads
        else:
            want = grads.get(t, np.full(s.shape, -0.0))
            assert s.tobytes() == want.tobytes()


@SETTINGS
@given(_cases(), st.booleans())
def test_mlp_equals_its_linear_relu_chain(case, output_relu):
    rng, rows, widths, atoms, leafy = case
    x, *params = _wrap([_values(rng, (rows, widths[0]), atoms), *_layers(rng, widths, atoms)],
                       leafy)
    values = [t.value for t in params]
    acts = ad.mlp_fwd(x.value, values, output_relu)
    seed = _values(rng, acts[-1].shape, atoms)
    sinks = _sinks([x, *params])
    ad.mlp_bwd(seed, values, acts, output_relu, sinks[1:], sinks[0])
    _assert_same(acts[-1], sinks, tp.mlp(x, tp._pairs(params), output_relu), [x, *params],
                 seed)


@SETTINGS
@given(_cases(n_layers=(1, 2)), st.booleans())
def test_sampled_score_equals_its_heads_softplus_mul_add(case, with_eps):
    rng, rows, widths, atoms, leafy = case
    heads = [_layers(rng, [widths[-1], 1], atoms) for _ in range(2)]
    x, *params = _wrap([_values(rng, (rows, widths[0]), atoms), *_layers(rng, widths, atoms),
                        *heads[0], *heads[1]], leafy)
    eps = _values(rng, (rows, 1), atoms) if with_eps else None
    values = [t.value for t in params]
    sample, mean, std, ctx = ad.score_fwd(x.value, values, eps)
    want, want_mean, want_std = tp.sampled_score(x, tp._pairs(params[:-4]), params[-4:-2],
                                                 params[-2:], eps)
    assert mean.tobytes() == want_mean.value.tobytes()
    assert std.tobytes() == want_std.value.tobytes()
    seed = _values(rng, sample.shape, atoms)
    sinks = _sinks([x, *params])
    ad.score_bwd(seed, values, eps, ctx, sinks[1:], sinks[0])
    _assert_same(sample, sinks, want, [x, *params], seed)


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.sampled_from([1.0, 0.25, 1.0 / 3.0, 7.0]))
def test_scaled_sq_error_equals_scale_of_sq_error(case, c):
    rng, rows, widths, atoms, leafy = case
    a, b = _wrap([_values(rng, (rows, widths[0]), atoms) for _ in range(2)], leafy)
    value, diff = ad.sq_error_fwd(a.value, b.value, c)
    seed = _values(rng, (1, 1), atoms)
    ga = ad.sq_error_bwd(seed[0, 0], c, diff)
    sinks = [g if t.needs_grad else None for t, g in ((a, ga), (b, -ga))]
    _assert_same([[value]], sinks, tp.scaled_sq_error(a, b, c), [a, b], seed)


def _weighted_sum_sinks(terms, weights, seed) -> tuple:
    """The halves' total, and a sink per distinct leaf into which each of its
    gradients is added in term order, as the training step adds them."""
    total, factors = ad.weighted_sum_fwd([t.value for t in terms], weights)
    sinks = dict(zip(terms, _sinks(terms)))
    for t, g in zip(terms, ad.weighted_sum_bwd(seed, factors)):
        if t.needs_grad:
            sinks[t] += g
    return total, list(sinks), list(sinks.values())


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.lists(st.sampled_from([None, 0.0, 0.3, 1.0, 2.5]),
                                         min_size=2, max_size=4))
def test_weighted_sum_equals_its_add_scale_chain(case, weights):
    rng, _, _, atoms, leafy = case
    terms = _wrap([_values(rng, (1, 1), atoms) for _ in weights], leafy)
    seed = _values(rng, (1, 1), atoms)
    total, inputs, sinks = _weighted_sum_sinks(terms, weights, seed)
    _assert_same(total, sinks, tp.weighted_sum(list(zip(terms, weights))), inputs, seed)


def test_weighted_sum_of_one_tensor_twice_accumulates_in_order():
    t = tp.leaf([[0.1]])
    weights = [None, None, 0.3]
    seed = np.random.default_rng(0).normal(size=(1, 1))
    total, inputs, sinks = _weighted_sum_sinks([t] * 3, weights, seed)
    _assert_same(total, sinks, tp.weighted_sum([(t, c) for c in weights]), inputs, seed)


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.sampled_from([-1.0, -0.0, 0.0, 2.0]), st.integers(0, 2**32 - 1))
def test_graph_loss_keeps_signed_zeros_of_the_padded_sum(b1, b2, d, seed, draw):
    # gaps equal to the angles on whole rows and on single entries make
    # exact zero differences, and a seed of either sign, zero included,
    # gives their gradients both signs: the two column groups must still
    # reproduce the composed sum of zero-padded blocks
    rng = np.random.default_rng(draw)
    h = rng.choice(ATOMS, size=(b1 + b2, d))
    angles = gr.angular_distance_matrix(tp.const(h)).value
    gaps = rng.normal(size=angles.shape)
    same = rng.random(angles.shape) < 0.5
    same[rng.random(b1 + b2) < 0.5] = True
    gaps = np.where(same, angles, gaps)
    for flags in [dict(joint=j, intra_inter=i, use_mse=m)
                  for j in (True, False) for i in (True, False)
                  for m in (True, False) if j or i]:
        value, ctx = ad.graph_fwd(h[:b1], h[b1:], gaps, **flags)
        ga = ad.graph_bwd(seed, ctx)
        old, new = tp.leaf(h[:b1]), tp.leaf(h[b1:])
        out = gr.graph_loss(old, new, gaps, **flags)
        grads = tp.backward(out, [[seed]])
        assert (np.float64(value).tobytes(), ga[:b1].tobytes(), ga[b1:].tobytes()) == \
            (out.value.tobytes(), grads[old].tobytes(), grads[new].tobytes()), flags


# ---------------------------------------------------- gradient fidelity


GRAD_SETTINGS = settings(database=None, derandomize=True, max_examples=40, deadline=None)


@st.composite
def _graded(draw):
    """(rng, rows, widths) for inputs of normal values."""
    k = draw(st.integers(1, 2))
    widths = draw(st.lists(st.integers(1, 4), min_size=k + 1, max_size=k + 1))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 4)), widths


@GRAD_SETTINGS
@given(_graded(), st.booleans())
def test_grad_check_mlp(case, output_relu):
    rng, rows, widths = case
    x = rng.normal(size=(rows, widths[0]))
    params = _layers(rng, widths, False)
    weights = rng.normal(size=(rows, widths[-1]))
    assert tp.mlp_halves_error(x, params, output_relu, weights) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.booleans())
def test_grad_check_sampled_score(case, with_eps):
    rng, rows, widths = case
    x = rng.normal(size=(rows, widths[0]))
    params = _layers(rng, widths, False) + [
        a for _ in range(2) for a in _layers(rng, [widths[-1], 1], False)]  # both heads
    eps = rng.normal(size=(rows, 1)) if with_eps else None
    assert tp.score_halves_error(x, params, eps, rng.normal(size=(rows, 1))) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.sampled_from([1.0, 0.25, 7.0]))
def test_grad_check_scaled_sq_error(case, c):
    rng, rows, widths = case
    a, b = (rng.normal(size=(rows, widths[0])) for _ in range(2))
    assert tp.sq_error_halves_error(a, b, c) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.lists(st.sampled_from([None, 0.3, 2.5]), min_size=1, max_size=4))
def test_grad_check_weighted_sum(case, weights):
    rng, _, _ = case
    values = [rng.normal(size=(1, 1)) for _ in weights]
    assert tp.weighted_sum_halves_error(values, weights, rng.normal(size=(1, 1))) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.integers(1, 3), st.booleans(), st.booleans(), st.booleans())
def test_grad_check_graph_loss(case, b2, joint, intra_inter, use_mse):
    rng, b1, widths = case
    joint = joint or not intra_inter
    old = rng.normal(size=(b1, widths[0] + 1))
    new = rng.normal(size=(b2, widths[0] + 1))
    y = rng.normal(size=b1 + b2)
    gaps = y[:, None] - y[None, :]
    assert tp.graph_halves_error(old, new, gaps, joint=joint, intra_inter=intra_inter,
                                 use_mse=use_mse) < 1e-4
