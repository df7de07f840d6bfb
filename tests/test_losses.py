"""The training step's loss terms, as its halves compute them: closed-form
hand values, block algebra, gradient fidelity. The angular-distance and
row-KL hand values are checked on the tape reference the halves equal."""
from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
import tape_reference as tp
from mreplay import losses


def _graph(old, new, scores, *, joint=True, intra_inter=True, use_mse=False) -> tuple:
    """The graph term's value and backward context as the training step
    makes them, from the score gaps of ``losses.score_distance_matrix``."""
    return ad.graph_fwd(old, new, losses.score_distance_matrix(scores),
                        joint=joint, intra_inter=intra_inter, use_mse=use_mse)


def _batch(rng, b1=2, b2=3, d=4):
    """(old, new, scores): the positional arguments of ``_graph``."""
    return rng.normal(size=(b1, d)), rng.normal(size=(b2, d)), rng.uniform(size=b1 + b2)


# ------------------------------------------------------------ hand values


def test_regression_loss_hand_value():
    # the mean squared error of a score column: the sum scaled by 1 / rows
    pred = np.array([[1.0], [2.0]])
    assert ad.sq_error_fwd(pred, np.zeros((2, 1)), 0.5)[0] == 2.5
    assert ad.sq_error_fwd(pred, np.array([[1.0], [2.0]]), 0.5)[0] == 0.0
    # a target that is not a matching column
    for bad in ([[1.0, 2.0]], [0.0, 0.0, 0.0], np.zeros((2, 1, 1)), 1.0):
        with pytest.raises(ad.ShapeError):
            ad.sq_error_fwd(pred, np.asarray(bad), 0.5)
    with pytest.raises(ad.NonFiniteError):
        ad.sq_error_fwd(pred, pred, np.nan)


def test_projector_loss_hand_values():
    def proj(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        return ad.sq_error_fwd(a, b, 1.0 / a.shape[0])[0]

    assert proj([[3.0, 4.0]], [[0.0, 0.0]]) == 25.0
    assert proj([[1.0]], [[0.0]]) == 1.0
    assert proj([[0.5]], [[0.0]]) == 0.25
    assert proj([[0.0, 0.0], [0.0, 0.0]], [[3.0, 4.0], [0.0, 0.0]]) == 12.5
    with pytest.raises(ad.ShapeError):
        proj(np.ones((2, 3)), np.ones((3, 2)))


def _angular(h):
    return gr.angular_distance_matrix(tp.leaf(h))


def _kl(p, q):
    return gr.kl_row_divergence(tp.leaf(p), tp.leaf(q)).value[0, 0]


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
        assert _graph(old, new, scores, joint=False)[0] == expected
        assert _graph(old, new, scores, intra_inter=False)[0] == _kl(a, s)


# ---------------------------------------------------------- graph regularizer


def test_graph_reg_decomposes_into_joint_plus_blocks():
    rng = np.random.default_rng(30)
    batch = _batch(rng)
    full = _graph(*batch)[0]
    joint = _graph(*batch, intra_inter=False)[0]
    blocks = _graph(*batch, joint=False)[0]
    assert abs(full - (joint + blocks)) < 1e-12
    assert full > 0.0


def test_graph_reg_rejects_no_terms():
    batch = _batch(np.random.default_rng(31))
    with pytest.raises(ValueError):
        _graph(*batch, joint=False, intra_inter=False)


def test_graph_reg_zero_when_geometry_is_uninformative():
    # identical feature rows and identical scores: every row of both
    # distance matrices is constant, so every softmax is uniform and each
    # of the five terms vanishes exactly
    row = np.array([[0.3, -0.7, 0.2]])
    batch = (np.repeat(row, 2, axis=0), np.repeat(row, 3, axis=0), np.full(5, 0.42))
    assert _graph(*batch)[0] == 0.0
    assert _graph(*batch, joint=False)[0] == 0.0
    assert _graph(*batch, intra_inter=False)[0] == 0.0


def test_graph_reg_row_permutation_invariance():
    rng = np.random.default_rng(33)
    old = rng.normal(size=(3, 4))
    new = rng.normal(size=(4, 4))
    scores = rng.uniform(size=7)
    base = _graph(old, new, scores)[0]
    po = np.random.default_rng(1).permutation(3)
    pn = np.random.default_rng(2).permutation(4)
    perm = _graph(old[po], new[pn], np.concatenate([scores[:3][po], scores[3:][pn]]))[0]
    assert abs(base - perm) < 1e-12


def test_graph_reg_variants_differ():
    rng = np.random.default_rng(34)
    batch = _batch(rng)
    base = _graph(*batch)[0]
    assert _graph(*batch, use_mse=True)[0] != base


def test_graph_reg_mse_self_consistency():
    # with use_mse the term compares raw entries, so feeding scores whose
    # gap matrix equals the angular matrix would zero it; check the simpler
    # invariant that mse >= 0 and equals 0 against itself
    rng = np.random.default_rng(35)
    h = tp.leaf(rng.normal(size=(4, 3)))
    a = gr.angular_distance_matrix(h)
    assert gr._row_loss(a, a, use_mse=True).value[0, 0] == 0.0


def test_joint_batch_validation():
    # the joint batch is (old, new, scores), and takes one score per row
    rng = np.random.default_rng(36)
    with pytest.raises(ad.ShapeError):
        _graph(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)), np.zeros(4))
    for n_scores in (3, 5):
        with pytest.raises(ad.ShapeError, match="for 4 rows"):
            _graph(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), np.zeros(n_scores))
    # the forward half takes only an n x n gap matrix
    with pytest.raises(ad.ShapeError):
        ad.graph_fwd(np.ones((2, 3)), np.ones((2, 3)), np.zeros((4, 3)),
                     joint=True, intra_inter=True, use_mse=False)


# ------------------------------------------------ the halves and the tape

# every valid (joint, intra_inter, use_mse)
GRAPH_FLAGS = [dict(zip(("joint", "intra_inter", "use_mse"), f))
               for f in product((True, False), repeat=3) if f[0] or f[1]]


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
        value, ctx = _graph(old_v, new_v, scores, **flags)
        ga = ad.graph_bwd(seed[0, 0], ctx)
        old, new = tp.leaf(old_v), tp.leaf(new_v)
        out = gr.graph_reg_loss(old, new, scores, **flags)
        grads = tp.backward(out, seed)
        assert (np.float64(value).tobytes(), ga[:len(old_v)].tobytes(),
                ga[len(old_v):].tobytes()) == \
            (out.value.tobytes(), grads[old].tobytes(), grads[new].tobytes()), flags


# ------------------------------------------------------------------ gradients


def test_grad_check_all_graph_variants():
    for seed in range(3):
        rng = np.random.default_rng(500 + seed)
        old, new, scores = _batch(rng, 2, 3, 4)
        gaps = losses.score_distance_matrix(scores)
        for kwargs in ({}, {"intra_inter": False}, {"joint": False}, {"use_mse": True}):
            flags = {"joint": True, "intra_inter": True, "use_mse": False, **kwargs}
            assert tp.graph_halves_error(old, new, gaps, **flags) < 1e-5


def test_grad_check_regression_and_projector():
    rng = np.random.default_rng(600)
    pred, target = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    assert tp.sq_error_halves_error(pred, target, 1.0 / 6) < 1e-7
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
    assert tp.sq_error_halves_error(a, b, 1.0 / 4) < 1e-7


def test_grad_check_total_loss_composition():
    # the regression and graph terms under one weighted sum, each gradient
    # taken back through the halves as the training step takes it
    rng = np.random.default_rng(700)
    pred, target = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
    old, new, scores = _batch(rng, 2, 2, 3)

    def forward():
        (l_d, diff), (l_r, ctx) = ad.sq_error_fwd(pred, target, 0.25), _graph(old, new, scores)
        total, factors = ad.weighted_sum_fwd([l_d, l_r], [None, 0.7])
        return total, factors, diff, ctx

    _, factors, diff, ctx = forward()
    g_d, g_r = ad.weighted_sum_bwd(1.0, factors)
    ga = ad.graph_bwd(g_r, ctx)
    analytic = [ad.sq_error_bwd(g_d, 0.25, diff), ga[:2], ga[2:]]
    assert tp.fd_error(lambda: forward()[0], [pred, old, new], analytic) < 1e-5


# ----------------------------------------------------------------- total


def test_total_loss_weighted_sum():
    ones = [np.ones((1, 1)) for _ in range(4)]
    assert ad.weighted_sum_fwd(ones, [None, None, 1.0, 1.0])[0][0, 0] == 4.0
    assert ad.weighted_sum_fwd(ones, [None, None, 2.0, 0.5])[0][0, 0] == 4.5
    assert ad.weighted_sum_fwd(ones[:1], [None])[0][0, 0] == 1.0


def test_total_loss_shape_checked():
    with pytest.raises(ad.ShapeError):
        ad.weighted_sum_fwd([np.ones((1, 1)), np.ones((1, 2))], [None, None])
    with pytest.raises(ad.NonFiniteError):
        ad.weighted_sum_fwd([np.ones((1, 1)), np.ones((1, 1))], [None, np.inf])
