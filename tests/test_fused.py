"""Fused tape nodes against the primitives they replace, bit for bit.

Each node of ``autodiff`` that stands for a chain of primitives (``mlp``,
``sampled_score``, ``scaled_sq_error``, ``weighted_sum``) is built beside
its composition in ``tape_reference`` over random shapes, with every input
a leaf or a constant, and both are run back from one seed gradient. Values
come from a small set that includes 0.0 and -0.0 half of the time, so ReLU
kinks and signed zeros occur."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
import tape_reference as ref

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
    return [ad.leaf(v) if f else ad.const(v) for v, f in zip(values, flags)]


def _layers(rng, widths, atoms, leafy, offset=1):
    values = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        values += [_values(rng, (fan_in, fan_out), atoms), _values(rng, (1, fan_out), atoms)]
    ts = _wrap(values, None if leafy is None else leafy[offset:])
    return list(zip(ts[::2], ts[1::2]))


def _assert_same(fused, composed, rng, atoms):
    """Equal values as bytes, equal liveness; then, if live, equal leaf
    gradients as bytes from one seed, else no backward recorded."""
    assert fused.value.tobytes() == composed.value.tobytes()
    assert fused.needs_grad == composed.needs_grad
    if not fused.needs_grad:
        assert fused._bwd is None and not fused._parents
        return
    seed = _values(rng, fused.shape, atoms)
    got, want = ad.backward(fused, seed), ad.backward(composed, seed)
    assert set(got) == set(want)
    for t, g in want.items():
        assert got[t].tobytes() == g.tobytes()


@SETTINGS
@given(_cases(), st.booleans())
def test_mlp_equals_its_linear_relu_chain(case, output_relu):
    rng, rows, widths, atoms, leafy = case
    x, = _wrap([_values(rng, (rows, widths[0]), atoms)], leafy)
    layers = _layers(rng, widths, atoms, leafy)
    _assert_same(ad.mlp(x, layers, output_relu), ref.mlp(x, layers, output_relu),
                 rng, atoms)


@SETTINGS
@given(_cases(n_layers=(1, 2)), st.booleans())
def test_sampled_score_equals_its_heads_softplus_mul_add(case, with_eps):
    rng, rows, widths, atoms, leafy = case
    x, = _wrap([_values(rng, (rows, widths[0]), atoms)], leafy)
    layers = _layers(rng, widths, atoms, leafy)
    mean_head, std_head = (_layers(rng, [widths[-1], 1], atoms, leafy, offset)[0]
                           for offset in (12, 14))
    eps = _values(rng, (rows, 1), atoms) if with_eps else None
    sample, mean, std = ad.sampled_score(x, layers, mean_head, std_head, eps)
    want, want_mean, want_std = ref.sampled_score(x, layers, mean_head, std_head, eps)
    assert mean.tobytes() == want_mean.value.tobytes()
    assert std.tobytes() == want_std.value.tobytes()
    _assert_same(sample, want, rng, atoms)


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.sampled_from([1.0, 0.25, 1.0 / 3.0, 7.0]))
def test_scaled_sq_error_equals_scale_of_sq_error(case, c):
    rng, rows, widths, atoms, leafy = case
    a, b = _wrap([_values(rng, (rows, widths[0]), atoms) for _ in range(2)], leafy)
    _assert_same(ad.scaled_sq_error(a, b, c), ref.scaled_sq_error(a, b, c), rng, atoms)


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.lists(st.sampled_from([None, 0.0, 0.3, 1.0, 2.5]),
                                         min_size=2, max_size=4))
def test_weighted_sum_equals_its_add_scale_chain(case, weights):
    rng, _, _, atoms, leafy = case
    terms = list(zip(_wrap([_values(rng, (1, 1), atoms) for _ in weights], leafy), weights))
    _assert_same(ad.weighted_sum(terms), ref.weighted_sum(terms), rng, atoms)


def test_weighted_sum_of_one_tensor_twice_accumulates_in_order():
    t = ad.leaf([[0.1]])
    terms = [(t, None), (t, None), (t, 0.3)]
    _assert_same(ad.weighted_sum(terms), ref.weighted_sum(terms),
                 np.random.default_rng(0), False)


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
    angles = gr.angular_distance_matrix(ad.const(h)).value
    gaps = rng.normal(size=angles.shape)
    same = rng.random(angles.shape) < 0.5
    same[rng.random(b1 + b2) < 0.5] = True
    gaps = np.where(same, angles, gaps)
    for flags in [dict(joint=j, intra_inter=i, use_mse=m, reverse_kl=r)
                  for j in (True, False) for i in (True, False)
                  for m in (True, False) for r in (True, False) if j or i]:
        runs = []
        for fn in (ad.graph_loss, gr.graph_loss):
            old, new = ad.leaf(h[:b1]), ad.leaf(h[b1:])
            out = fn(old, new, gaps, **flags)
            grads = ad.backward(out, [[seed]])
            runs.append((out.value.tobytes(), grads[old].tobytes(), grads[new].tobytes()))
        assert runs[0] == runs[1], flags


# ---------------------------------------------------- gradient fidelity


GRAD_SETTINGS = settings(database=None, derandomize=True, max_examples=40, deadline=None)


@st.composite
def _graded(draw):
    """(rng, rows, widths) with every input a leaf of normal values."""
    k = draw(st.integers(1, 2))
    widths = draw(st.lists(st.integers(1, 4), min_size=k + 1, max_size=k + 1))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 4)), widths


def _scalar(out, weights):
    """A 1 x 1 tensor that depends on every entry of ``out``."""
    return gr.sum_all(ad.mul(out, ad.const(weights)))


def _leaf_layers(rng, widths):
    leaves = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        leaves += [ad.leaf(rng.normal(size=(fan_in, fan_out))), ad.leaf(rng.normal(size=(1, fan_out)))]
    return leaves, list(zip(leaves[::2], leaves[1::2]))


@GRAD_SETTINGS
@given(_graded(), st.booleans())
def test_grad_check_mlp(case, output_relu):
    rng, rows, widths = case
    x = ad.leaf(rng.normal(size=(rows, widths[0])))
    leaves, layers = _leaf_layers(rng, widths)
    weights = rng.normal(size=(rows, widths[-1]))
    assert ad.grad_check(lambda: _scalar(ad.mlp(x, layers, output_relu), weights),
                         [x, *leaves]) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.booleans())
def test_grad_check_sampled_score(case, with_eps):
    rng, rows, widths = case
    x = ad.leaf(rng.normal(size=(rows, widths[0])))
    leaves, layers = _leaf_layers(rng, widths)
    heads = [ad.leaf(rng.normal(size=shape)) for shape in [(widths[-1], 1), (1, 1)] * 2]
    mean_head, std_head = heads[:2], heads[2:]
    eps = rng.normal(size=(rows, 1)) if with_eps else None
    weights = rng.normal(size=(rows, 1))
    assert ad.grad_check(lambda: _scalar(ad.sampled_score(x, layers, mean_head, std_head,
                                                          eps)[0], weights),
                         [x, *leaves, *heads]) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.sampled_from([1.0, 0.25, 7.0]))
def test_grad_check_scaled_sq_error(case, c):
    rng, rows, widths = case
    a, b = (ad.leaf(rng.normal(size=(rows, widths[0]))) for _ in range(2))
    assert ad.grad_check(lambda: ad.scaled_sq_error(a, b, c), [a, b]) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.lists(st.sampled_from([None, 0.3, 2.5]), min_size=1, max_size=4))
def test_grad_check_weighted_sum(case, weights):
    rng, _, _ = case
    terms = [ad.leaf(rng.normal(size=(1, 1))) for _ in weights]
    assert ad.grad_check(lambda: ad.weighted_sum(list(zip(terms, weights))), terms) < 1e-4


@GRAD_SETTINGS
@given(_graded(), st.integers(1, 3), st.booleans(), st.booleans(), st.booleans(),
       st.booleans())
def test_grad_check_graph_loss(case, b2, joint, intra_inter, use_mse, reverse_kl):
    rng, b1, widths = case
    joint = joint or not intra_inter
    old = ad.leaf(rng.normal(size=(b1, widths[0] + 1)))
    new = ad.leaf(rng.normal(size=(b2, widths[0] + 1)))
    y = rng.normal(size=b1 + b2)
    gaps = y[:, None] - y[None, :]
    assert ad.grad_check(lambda: ad.graph_loss(old, new, gaps, joint=joint,
                                               intra_inter=intra_inter, use_mse=use_mse,
                                               reverse_kl=reverse_kl), [old, new]) < 1e-4
