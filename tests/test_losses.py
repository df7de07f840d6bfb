"""Loss terms: closed-form hand values, block algebra, gradient fidelity."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
from mreplay import losses


def _batch(rng, b1=2, b2=3, d=4):
    """(old, new, scores): the positional arguments of graph_reg_loss."""
    return (ad.leaf(rng.normal(size=(b1, d))), ad.leaf(rng.normal(size=(b2, d))),
            rng.uniform(size=b1 + b2))


# ------------------------------------------------------------ hand values


def test_regression_loss_hand_value():
    pred = ad.leaf([[1.0], [2.0]])
    out = losses.regression_loss(pred, [0.0, 0.0])
    assert out.value[0, 0] == 2.5
    zero = losses.regression_loss(pred, [[1.0], [2.0]])
    assert zero.value[0, 0] == 0.0
    # a target that is neither flat nor a matching column
    for bad in ([[1.0, 2.0]], [0.0, 0.0, 0.0], np.zeros((2, 1, 1)), 1.0):
        with pytest.raises(ad.ShapeError):
            losses.regression_loss(pred, bad)


def test_projector_loss_hand_values():
    def proj(a, b):
        return losses.projector_loss(ad.leaf(a), ad.leaf(b)).value[0, 0]

    assert proj([[3.0, 4.0]], [[0.0, 0.0]]) == 25.0
    assert proj([[1.0]], [[0.0]]) == 1.0
    assert proj([[0.5]], [[0.0]]) == 0.25
    assert proj([[0.0, 0.0], [0.0, 0.0]], [[3.0, 4.0], [0.0, 0.0]]) == 12.5
    with pytest.raises(ad.ShapeError):
        proj(np.ones((2, 3)), np.ones((3, 2)))


def _angular(h):
    return gr.angular_distance_matrix(ad.leaf(h))


def _kl(p, q):
    return gr.kl_row_divergence(ad.leaf(p), ad.leaf(q)).value[0, 0]


def test_angular_distance_hand_values():
    a = _angular([[1.0, 0.0], [1.0, 1.0]])
    assert abs(a.value[0, 1] - np.pi / 4) < 1e-12
    assert abs(a.value[1, 0] - np.pi / 4) < 1e-12
    orth = _angular([[1.0, 0.0], [0.0, 1.0]])
    assert abs(orth.value[0, 1] - np.pi / 2) < 1e-12
    anti = _angular([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(anti.value[0, 1] - np.pi) < 1e-3
    assert a.value[0, 0] < 1e-3 and a.value[1, 1] < 1e-3


def test_angular_distance_range_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = rng.normal(size=(6, 5))
        a = _angular(h).value
        assert (a >= 0.0).all() and (a <= np.pi).all()
        assert np.abs(a - a.T).max() < 1e-9


def test_angular_distance_scale_invariant_bit_exact():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(5, 4))
    base = _angular(h).value
    for factor in (0.25, 0.5, 2.0, 4.0, 1024.0):
        scaled = _angular(h * factor).value
        assert np.array_equal(scaled, base)


def test_score_distance_hand_values():
    s = losses.score_distance_matrix([1.0, 3.0])
    assert np.array_equal(s, [[0.0, -2.0], [2.0, 0.0]])
    u = losses.score_distance_matrix([1.0, 3.0], signed=False)
    assert np.array_equal(u, [[0.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        losses.score_distance_matrix([])
    with pytest.raises(ad.NonFiniteError):
        losses.score_distance_matrix([1.0, np.inf])


def test_kl_closed_form():
    # rows [0, 0] vs [0, ln 2]: KL(uniform || (1/3, 2/3)) = ln(9/8) / 2
    p = [[0.0, 0.0]]
    q = [[0.0, math.log(2.0)]]
    expected = 0.5 * math.log(9.0 / 8.0)
    assert abs(_kl(p, q) - expected) < 1e-12


def test_kl_self_is_exact_zero_and_nonnegative():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 6))
    assert _kl(x, x) == 0.0
    for _ in range(50):
        p = rng.normal(size=(3, 5))
        q = rng.normal(size=(3, 5))
        assert _kl(p, q) >= 0.0


def test_kl_direction_matters():
    rng = np.random.default_rng(15)
    p = rng.normal(size=(3, 5))
    q = rng.normal(size=(3, 5))
    fwd = _kl(p, q)
    rev = _kl(q, p)
    assert fwd != rev


# ---------------------------------------------------------------- blocking


def test_graph_reg_blocks_match_sliced_oracle():
    # the block terms equal four row losses over hand-sliced numpy blocks
    # of the two distance matrices, summed in old/old, old/new, new/old,
    # new/new order
    rng = np.random.default_rng(4)
    for b1, b2 in ((3, 4), (1, 6), (5, 3)):
        old = rng.normal(size=(b1, 5))
        new = rng.normal(size=(b2, 5))
        scores = rng.uniform(size=b1 + b2)
        a = _angular(np.vstack([old, new])).value
        s = losses.score_distance_matrix(scores)
        halves = (slice(0, b1), slice(b1, b1 + b2))
        expected = 0.0
        for rows in halves:
            for cols in halves:
                expected += _kl(a[rows, cols], s[rows, cols])
        got = losses.graph_reg_loss(ad.leaf(old), ad.leaf(new), scores,
                                    joint=False).value[0, 0]
        assert got == expected
        joint = losses.graph_reg_loss(ad.leaf(old), ad.leaf(new), scores,
                                      intra_inter=False).value[0, 0]
        assert joint == _kl(a, s)


# ---------------------------------------------------------- graph regularizer


def test_graph_reg_decomposes_into_joint_plus_blocks():
    rng = np.random.default_rng(30)
    batch = _batch(rng)
    full = losses.graph_reg_loss(*batch).value[0, 0]
    joint = losses.graph_reg_loss(*batch, intra_inter=False).value[0, 0]
    blocks = losses.graph_reg_loss(*batch, joint=False).value[0, 0]
    assert abs(full - (joint + blocks)) < 1e-12
    assert full > 0.0


def test_graph_reg_rejects_no_terms():
    batch = _batch(np.random.default_rng(31))
    with pytest.raises(ValueError):
        losses.graph_reg_loss(*batch, joint=False, intra_inter=False)


def test_graph_reg_zero_when_geometry_is_uninformative():
    # identical feature rows and identical scores: every row of both
    # distance matrices is constant, so every softmax is uniform and each
    # of the five terms vanishes exactly
    row = np.array([[0.3, -0.7, 0.2]])
    old = ad.leaf(np.repeat(row, 2, axis=0))
    new = ad.leaf(np.repeat(row, 3, axis=0))
    batch = (old, new, np.full(5, 0.42))
    assert losses.graph_reg_loss(*batch).value[0, 0] == 0.0
    assert losses.graph_reg_loss(*batch, joint=False).value[0, 0] == 0.0
    assert losses.graph_reg_loss(*batch, intra_inter=False).value[0, 0] == 0.0


def test_graph_reg_row_permutation_invariance():
    rng = np.random.default_rng(33)
    old = rng.normal(size=(3, 4))
    new = rng.normal(size=(4, 4))
    scores = rng.uniform(size=7)
    base = losses.graph_reg_loss(ad.leaf(old), ad.leaf(new), scores)
    po = np.random.default_rng(1).permutation(3)
    pn = np.random.default_rng(2).permutation(4)
    perm = losses.graph_reg_loss(
        ad.leaf(old[po]), ad.leaf(new[pn]),
        np.concatenate([scores[:3][po], scores[3:][pn]]))
    assert abs(base.value[0, 0] - perm.value[0, 0]) < 1e-12


def test_graph_reg_variants_differ():
    rng = np.random.default_rng(34)
    batch = _batch(rng)
    base = losses.graph_reg_loss(*batch).value[0, 0]
    assert losses.graph_reg_loss(*batch, use_mse=True).value[0, 0] != base
    assert losses.graph_reg_loss(*batch, reverse_kl=True).value[0, 0] != base
    assert losses.graph_reg_loss(*batch, signed=False).value[0, 0] != base


def test_graph_reg_mse_self_consistency():
    # with use_mse the term compares raw entries, so feeding scores whose
    # gap matrix equals the angular matrix would zero it; check the simpler
    # invariant that mse >= 0 and equals 0 against itself
    rng = np.random.default_rng(35)
    h = ad.leaf(rng.normal(size=(4, 3)))
    a = gr.angular_distance_matrix(h)
    assert gr._row_loss(a, a, use_mse=True, reverse=False).value[0, 0] == 0.0


def test_joint_batch_validation():
    # the joint batch is graph_reg_loss's (old, new, scores)
    rng = np.random.default_rng(36)
    with pytest.raises(ad.ShapeError):
        losses.graph_reg_loss(ad.leaf(rng.normal(size=(2, 3))),
                              ad.leaf(rng.normal(size=(2, 4))), np.zeros(4))
    for n_scores in (3, 5):
        with pytest.raises(ValueError, match="scores for 4 rows"):
            losses.graph_reg_loss(ad.leaf(rng.normal(size=(2, 3))),
                                  ad.leaf(rng.normal(size=(2, 3))),
                                  np.zeros(n_scores))
    # the node itself takes only an n x n gap matrix
    with pytest.raises(ad.ShapeError):
        ad.graph_loss(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))), np.zeros((4, 3)),
                      joint=True, intra_inter=True, use_mse=False, reverse_kl=False)


# ---------------------------------------------------------- one fused node

# every valid (joint, intra_inter, use_mse, reverse_kl, signed)
GRAPH_FLAGS = [dict(zip(("joint", "intra_inter", "use_mse", "reverse_kl", "signed"), f))
               for f in product((True, False), repeat=5) if f[0] or f[1]]


@st.composite
def _graph_batches(draw):
    b1, b2, d = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(b1 + b2, d)) * 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):  # two parallel rows: a cosine at the arccos clamp
        i, j = draw(st.integers(0, b1 + b2 - 1)), draw(st.integers(0, b1 + b2 - 1))
        h[i] = draw(st.sampled_from([0.5, 3.0, -2.0])) * h[j]
    if draw(st.booleans()):  # a zero row: a norm under NORM_FLOOR
        h[draw(st.integers(0, b1 + b2 - 1))] = 0.0
    scores = rng.uniform(size=b1 + b2)
    seed = rng.normal(size=(1, 1))
    return h[:b1], h[b1:], scores, seed


@settings(database=None, derandomize=True, max_examples=150, deadline=None)
@given(_graph_batches())
def test_fused_graph_loss_equals_composed_reference(batch):
    # the value and both gradients, as bytes, under every flag combination
    old_v, new_v, scores, seed = batch
    for flags in GRAPH_FLAGS:
        runs = []
        for fn in (losses.graph_reg_loss, gr.graph_reg_loss):
            old, new = ad.leaf(old_v), ad.leaf(new_v)
            out = fn(old, new, scores, **flags)
            grads = ad.backward(out, seed)
            runs.append((out.value.tobytes(), grads[old].tobytes(), grads[new].tobytes()))
        assert runs[0] == runs[1], flags


def test_graph_reg_loss_is_one_node(monkeypatch):
    calls = []
    real_node = ad._node

    def spy(value, parents, bwd):
        calls.append(parents)
        return real_node(value, parents, bwd)

    monkeypatch.setattr(ad, "_node", spy)
    old, new, scores = _batch(np.random.default_rng(37))
    for flags in GRAPH_FLAGS:
        calls.clear()
        losses.graph_reg_loss(old, new, scores, **flags)
        assert calls == [(old, new)]


# ------------------------------------------------------------------ gradients


def test_grad_check_all_graph_variants():
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        old = ad.leaf(rng.normal(size=(2, 4)))
        new = ad.leaf(rng.normal(size=(3, 4)))
        scores = rng.uniform(size=5)
        for kwargs in ({}, {"intra_inter": False}, {"joint": False},
                       {"use_mse": True}, {"reverse_kl": True},
                       {"signed": False}):
            def f():
                return losses.graph_reg_loss(old, new, scores, **kwargs)

            assert ad.grad_check(f, [old, new]) < 1e-5


def test_grad_check_regression_and_projector():
    rng = np.random.default_rng(600)
    pred = ad.leaf(rng.normal(size=(6, 1)))
    target = rng.normal(size=6)
    assert ad.grad_check(lambda: losses.regression_loss(pred, target),
                         [pred]) < 1e-7
    a = ad.leaf(rng.normal(size=(4, 5)))
    b = ad.leaf(rng.normal(size=(4, 5)))
    assert ad.grad_check(lambda: losses.projector_loss(a, b), [a, b]) < 1e-7


def test_grad_check_total_loss_composition():
    rng = np.random.default_rng(700)
    pred = ad.leaf(rng.normal(size=(4, 1)))
    old = ad.leaf(rng.normal(size=(2, 3)))
    new = ad.leaf(rng.normal(size=(2, 3)))
    target = rng.normal(size=4)
    scores = rng.uniform(size=4)

    def f():
        l_d = losses.regression_loss(pred, target)
        l_r = losses.graph_reg_loss(old, new, scores)
        return losses.total_loss(l_d, l_r=l_r, lambda_r=0.7)

    assert ad.grad_check(f, [pred, old, new]) < 1e-5


# ----------------------------------------------------------------- total


def test_total_loss_weighted_sum():
    one = lambda: ad.leaf([[1.0]])
    out = losses.total_loss(one(), one(), one(), one())
    assert out.value[0, 0] == 4.0
    weighted = losses.total_loss(one(), one(), one(), one(),
                                 lambda_p=2.0, lambda_r=0.5)
    assert weighted.value[0, 0] == 4.5
    assert losses.total_loss(one()).value[0, 0] == 1.0


def test_total_loss_shape_checked():
    with pytest.raises(ad.ShapeError):
        losses.total_loss(ad.leaf([[1.0, 2.0]]))
