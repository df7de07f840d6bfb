"""Loss terms: closed-form hand values, block algebra, gradient fidelity."""
from __future__ import annotations

import math

import numpy as np
import pytest

import mreplay.autodiff as ad
from mreplay import losses


def _batch(rng, b1=2, b2=3, d=4, scores=None):
    old = ad.leaf(rng.normal(size=(b1, d)))
    new = ad.leaf(rng.normal(size=(b2, d)))
    if scores is None:
        scores = rng.uniform(size=b1 + b2)
    return losses.JointBatch(old=old, new=new, scores=scores)


# ------------------------------------------------------------ hand values


def test_regression_loss_hand_value():
    out = losses.regression_loss([1.0, 2.0], [0.0, 0.0])
    assert out.value[0, 0] == 2.5
    zero = losses.regression_loss([1.0, 2.0], [1.0, 2.0])
    assert zero.value[0, 0] == 0.0


def test_projector_loss_hand_values():
    assert losses.projector_loss([[3.0, 4.0]], [[0.0, 0.0]]).value[0, 0] == 25.0
    assert losses.projector_loss([[1.0]], [[0.0]]).value[0, 0] == 1.0
    assert losses.projector_loss([[0.5]], [[0.0]]).value[0, 0] == 0.25
    two_rows = losses.projector_loss([[0.0, 0.0], [0.0, 0.0]],
                                     [[3.0, 4.0], [0.0, 0.0]])
    assert two_rows.value[0, 0] == 12.5
    with pytest.raises(ad.ShapeError):
        losses.projector_loss(np.ones((2, 3)), np.ones((3, 2)))


def test_angular_distance_hand_values():
    a = losses.angular_distance_matrix([[1.0, 0.0], [1.0, 1.0]])
    assert abs(a.value[0, 1] - np.pi / 4) < 1e-12
    assert abs(a.value[1, 0] - np.pi / 4) < 1e-12
    orth = losses.angular_distance_matrix([[1.0, 0.0], [0.0, 1.0]])
    assert abs(orth.value[0, 1] - np.pi / 2) < 1e-12
    anti = losses.angular_distance_matrix([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(anti.value[0, 1] - np.pi) < 1e-3
    assert a.value[0, 0] < 1e-3 and a.value[1, 1] < 1e-3


def test_angular_distance_range_and_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = rng.normal(size=(6, 5))
        a = losses.angular_distance_matrix(h).value
        assert (a >= 0.0).all() and (a <= np.pi).all()
        assert np.abs(a - a.T).max() < 1e-9


def test_angular_distance_scale_invariant_bit_exact():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(5, 4))
    base = losses.angular_distance_matrix(h).value
    for factor in (0.25, 0.5, 2.0, 4.0, 1024.0):
        scaled = losses.angular_distance_matrix(h * factor).value
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
    assert abs(losses.kl_row_divergence(p, q).value[0, 0] - expected) < 1e-12


def test_kl_self_is_exact_zero_and_nonnegative():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(4, 6))
    assert losses.kl_row_divergence(x, x).value[0, 0] == 0.0
    for _ in range(50):
        p = rng.normal(size=(3, 5))
        q = rng.normal(size=(3, 5))
        assert losses.kl_row_divergence(p, q).value[0, 0] >= 0.0


def test_kl_direction_matters():
    rng = np.random.default_rng(15)
    p = rng.normal(size=(3, 5))
    q = rng.normal(size=(3, 5))
    fwd = losses.kl_row_divergence(p, q).value[0, 0]
    rev = losses.kl_row_divergence(q, p).value[0, 0]
    assert fwd != rev


# ---------------------------------------------------------------- blocking


def test_partition_blocks_tile_exactly():
    rng = np.random.default_rng(4)
    full = ad.leaf(rng.normal(size=(7, 7)))
    b = losses.partition(full, 3)
    rebuilt = np.block([[b.a11.value, b.a12.value],
                        [b.a21.value, b.a22.value]])
    assert np.array_equal(rebuilt, full.value)
    assert b.a11.shape == (3, 3) and b.a22.shape == (4, 4)
    assert b.a12.shape == (3, 4) and b.a21.shape == (4, 3)


def test_partition_rejects_bad_split():
    full = ad.leaf(np.eye(4))
    for bad in (0, 4, -1, 7):
        with pytest.raises(ValueError):
            losses.partition(full, bad)
    with pytest.raises(ad.ShapeError):
        losses.partition(ad.leaf(np.ones((3, 4))), 1)


# ---------------------------------------------------------- graph regularizer


def test_graph_reg_decomposes_into_joint_plus_blocks():
    rng = np.random.default_rng(30)
    batch = _batch(rng)
    full = losses.graph_reg_loss(batch).value[0, 0]
    joint = losses.graph_reg_loss(batch, intra_inter=False).value[0, 0]
    blocks = losses.graph_reg_loss(batch, joint=False).value[0, 0]
    assert abs(full - (joint + blocks)) < 1e-12
    assert full > 0.0


def test_graph_reg_rejects_no_terms():
    batch = _batch(np.random.default_rng(31))
    with pytest.raises(ValueError):
        losses.graph_reg_loss(batch, joint=False, intra_inter=False)


def test_graph_reg_zero_when_geometry_is_uninformative():
    # identical feature rows and identical scores: every row of both
    # distance matrices is constant, so every softmax is uniform and each
    # of the five terms vanishes exactly
    row = np.array([[0.3, -0.7, 0.2]])
    old = ad.leaf(np.repeat(row, 2, axis=0))
    new = ad.leaf(np.repeat(row, 3, axis=0))
    batch = losses.JointBatch(old=old, new=new, scores=np.full(5, 0.42))
    assert losses.graph_reg_loss(batch).value[0, 0] == 0.0
    assert losses.graph_reg_loss(batch, joint=False).value[0, 0] == 0.0
    assert losses.graph_reg_loss(batch, intra_inter=False).value[0, 0] == 0.0


def test_graph_reg_row_permutation_invariance():
    rng = np.random.default_rng(33)
    old = rng.normal(size=(3, 4))
    new = rng.normal(size=(4, 4))
    scores = rng.uniform(size=7)
    base = losses.graph_reg_loss(
        losses.JointBatch(old=ad.leaf(old), new=ad.leaf(new), scores=scores))
    po = np.random.default_rng(1).permutation(3)
    pn = np.random.default_rng(2).permutation(4)
    perm = losses.graph_reg_loss(
        losses.JointBatch(old=ad.leaf(old[po]), new=ad.leaf(new[pn]),
                          scores=np.concatenate([scores[:3][po], scores[3:][pn]])))
    assert abs(base.value[0, 0] - perm.value[0, 0]) < 1e-12


def test_graph_reg_variants_differ():
    rng = np.random.default_rng(34)
    batch = _batch(rng)
    base = losses.graph_reg_loss(batch).value[0, 0]
    assert losses.graph_reg_loss(batch, use_mse=True).value[0, 0] != base
    assert losses.graph_reg_loss(batch, reverse_kl=True).value[0, 0] != base
    assert losses.graph_reg_loss(batch, signed=False).value[0, 0] != base


def test_graph_reg_mse_self_consistency():
    # with use_mse the term compares raw entries, so feeding scores whose
    # gap matrix equals the angular matrix would zero it; check the simpler
    # invariant that mse >= 0 and equals 0 against itself
    rng = np.random.default_rng(35)
    h = ad.leaf(rng.normal(size=(4, 3)))
    a = losses.angular_distance_matrix(h)
    assert losses._row_loss(a, a, use_mse=True, reverse=False).value[0, 0] == 0.0


def test_joint_batch_validation():
    rng = np.random.default_rng(36)
    with pytest.raises(ad.ShapeError):
        losses.JointBatch(old=ad.leaf(rng.normal(size=(2, 3))),
                          new=ad.leaf(rng.normal(size=(2, 4))),
                          scores=np.zeros(4))
    with pytest.raises(ValueError):
        losses.JointBatch(old=ad.leaf(rng.normal(size=(2, 3))),
                          new=ad.leaf(rng.normal(size=(2, 3))),
                          scores=np.zeros(5))


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
                batch = losses.JointBatch(old=old, new=new, scores=scores)
                return losses.graph_reg_loss(batch, **kwargs)

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
        l_r = losses.graph_reg_loss(
            losses.JointBatch(old=old, new=new, scores=scores))
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
