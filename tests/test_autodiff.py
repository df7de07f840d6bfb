"""Tape primitives: frozen hand values, gradient fidelity, Adam behavior."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

import mreplay.autodiff as ad


def _rng(seed):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ forward values


def test_row_normalize_hand_value():
    t = ad.row_normalize(ad.leaf([[3.0, 4.0]]))
    assert np.array_equal(t.value, [[0.6, 0.8]])


def test_relu_matmul_hand_values():
    x = ad.leaf([[1.0, -2.0], [0.0, 3.0]])
    r = ad.relu(x)
    assert np.array_equal(r.value, [[1.0, 0.0], [0.0, 3.0]])
    eye = ad.leaf(np.eye(2))
    assert np.array_equal(ad.matmul(x, eye).value, x.value)


def test_arccos_geometry_values():
    h = ad.row_normalize(ad.leaf([[1.0, 0.0], [1.0, 1.0]]))
    a = ad.arccos(ad.matmul(h, ad.transpose(h)))
    assert abs(a.value[0, 1] - np.pi / 4) < 1e-12
    orth = ad.arccos(ad.leaf([[0.0]]))
    assert abs(orth.value[0, 0] - np.pi / 2) < 1e-12
    anti = ad.arccos(ad.leaf([[-1.0]]))
    assert abs(anti.value[0, 0] - np.pi) < 1e-3  # clamp keeps it off the pole


def test_arccos_clamp_bounds_output():
    a = ad.arccos(ad.leaf([[1.0, -1.0, 5.0, -5.0]]))
    assert np.isfinite(a.value).all()
    assert a.value[0, 0] <= np.arccos(1.0 - 1e-7) + 1e-15
    assert a.value[0, 1] >= np.arccos(-1.0 + 1e-7) - 1e-15


def test_row_softmax_rows_sum_to_one():
    for seed in range(10):
        x = ad.leaf(_rng(seed).normal(size=(5, 7)) * 10)
        s = ad.row_softmax(x)
        assert np.abs(s.value.sum(axis=1) - 1.0).max() < 1e-12
        assert np.allclose(np.exp(ad.row_log_softmax(x).value), s.value,
                           rtol=1e-12, atol=0)


def test_row_broadcast_add_is_the_only_broadcast():
    x = ad.leaf(np.ones((3, 4)))
    row = ad.leaf(np.arange(4.0).reshape(1, 4))
    out = ad.add(x, row)
    assert np.array_equal(out.value, np.ones((3, 4)) + np.arange(4.0))
    with pytest.raises(ad.ShapeError):
        ad.add(x, ad.leaf(np.ones((3, 1))))
    with pytest.raises(ad.ShapeError):
        ad.sub(x, row)
    with pytest.raises(ad.ShapeError):
        ad.mul(x, row)


def test_non_finite_and_shape_errors():
    with pytest.raises(ad.NonFiniteError):
        ad.leaf([[np.inf]])
    with pytest.raises(ad.NonFiniteError):
        ad.leaf([[np.nan, 1.0]])
    with pytest.raises(ad.ShapeError):
        ad.leaf([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.leaf(np.ones((2, 3))), ad.leaf(np.ones((2, 3))))
    with pytest.raises(ad.NonFiniteError):
        ad.scale(ad.leaf([[1.0]]), np.nan)


# ----------------------------------------------------------------- backward


def test_backward_simple_square():
    x = ad.leaf([[3.0]])
    y = ad.mul(x, x)
    grads = ad.backward(y, [[1.0]])
    assert np.array_equal(grads[x], [[6.0]])


def test_relu_subgradient_at_kink_is_zero():
    x = ad.leaf([[-1.0, 0.0, 2.0]])
    grads = ad.backward(ad.sum_all(ad.relu(x)), [[1.0]])
    assert np.array_equal(grads[x], [[0.0, 0.0, 1.0]])


def test_softplus_backward_saturates_without_overflow():
    # exp(-x) overflows at x = -1000; the sigmoid's limit there is exactly 0
    x = ad.leaf([[-1000.0, 0.0, 1000.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = ad.backward(ad.sum_all(ad.softplus(x)), [[1.0]])
    assert np.array_equal(grads[x], [[0.0, 0.5, 1.0]])


def test_fanout_accumulates():
    x = ad.leaf([[2.0]])
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x
    grads = ad.backward(y, [[1.0]])
    assert np.array_equal(grads[x], [[7.0]])


def test_backward_seed_shape_checked():
    x = ad.leaf([[1.0, 2.0]])
    y = ad.sum_all(x)
    with pytest.raises(ad.ShapeError):
        ad.backward(y, [[1.0, 1.0]])


def test_backward_unused_leaf_gets_no_entry():
    x = ad.leaf([[1.0]])
    z = ad.leaf([[5.0]])
    grads = ad.backward(ad.mul(x, x), [[1.0]])
    assert z not in grads


# --------------------------------------------------------------- grad_check


def test_grad_check_every_primitive():
    # fixed seeds; shapes at most 8x8
    tol = 1e-5
    for seed in range(10):
        rng = _rng(1000 + seed)
        a = ad.leaf(rng.normal(size=(4, 6)))
        b = ad.leaf(rng.normal(size=(4, 6)))
        w = ad.leaf(rng.normal(size=(6, 3)))
        row = ad.leaf(rng.normal(size=(1, 6)))
        cw = ad.leaf(rng.normal(size=(4, 6)))  # fixed weights; f() must be deterministic
        cases = [
            ([a, w], lambda: ad.sum_all(ad.matmul(a, w))),
            ([a, b], lambda: ad.sum_all(ad.add(a, b))),
            ([a, row], lambda: ad.sum_all(ad.add(a, row))),
            ([a, b], lambda: ad.sum_all(ad.sub(a, b))),
            ([a, b], lambda: ad.sum_all(ad.mul(a, b))),
            ([a], lambda: ad.sum_all(ad.scale(a, -2.5))),
            ([a], lambda: ad.sum_all(ad.relu(a))),
            ([a], lambda: ad.sum_all(ad.row_normalize(a))),
            ([a], lambda: ad.sum_all(ad.mul(ad.row_softmax(a), cw))),
            ([a], lambda: ad.sum_all(ad.mul(ad.row_log_softmax(a), cw))),
            ([a], lambda: ad.sum_all(ad.softplus(a))),
            ([a], lambda: ad.sum_all(ad.transpose(a))),
            ([a, b], lambda: ad.sum_all(ad.concat_rows(a, b))),
            ([a], lambda: ad.sum_all(ad.slice_block(a, 1, 3, 2, 5))),
            ([a, b], lambda: ad.sq_error(a, b)),
        ]
        for leaves, f in cases:
            assert ad.grad_check(f, leaves) < tol
        # arccos probed away from the clamp edges
        c = ad.leaf(rng.uniform(-0.9, 0.9, size=(3, 3)))
        assert ad.grad_check(lambda: ad.sum_all(ad.arccos(c)), [c]) < tol


def test_grad_check_quadratic_form_tight():
    for seed in range(10):
        rng = _rng(2000 + seed)
        x = ad.leaf(rng.normal(size=(3, 1)))
        q = ad.leaf(rng.normal(size=(3, 3)))
        f = lambda: ad.matmul(ad.matmul(ad.transpose(x), q), x)
        assert ad.grad_check(f, [x]) < 1e-7


def test_grad_check_softmax_kl_composite():
    for seed in range(10):
        rng = _rng(3000 + seed)
        p = ad.leaf(rng.normal(size=(4, 5)))
        q = ad.leaf(rng.normal(size=(4, 5)))

        def f():
            probs = ad.row_softmax(p)
            diff = ad.sub(ad.row_log_softmax(p), ad.row_log_softmax(q))
            return ad.sum_all(ad.mul(probs, diff))

        assert ad.grad_check(f, [p, q]) < 1e-5


def test_grad_check_constant_expression_is_exact_zero():
    x = ad.leaf([[1.0, 2.0]])
    f = lambda: ad.sum_all(ad.leaf([[4.0]]))
    assert ad.grad_check(f, [x]) == 0.0


def test_grad_check_through_angular_distance():
    # gradient through normalize -> cosine -> clamped arccos; the diagonal
    # hits the clamp and must contribute exactly zero
    for seed in range(5):
        rng = _rng(4000 + seed)
        h = ad.leaf(rng.normal(size=(4, 5)))

        def f():
            hn = ad.row_normalize(h)
            return ad.sum_all(ad.arccos(ad.matmul(hn, ad.transpose(hn))))

        assert ad.grad_check(f, [h]) < 1e-4


def test_grad_check_rejects_bad_step():
    x = ad.leaf([[1.0]])
    with pytest.raises(ValueError):
        ad.grad_check(lambda: ad.sum_all(x), [x], fd_step=0.0)


# --------------------------------------------------------------------- adam


def test_adam_zero_grad_zero_decay_leaves_params():
    p = {"w": ad.leaf([[1.0, -2.0]])}
    st = ad.adam_init(p, lr=1e-4, weight_decay=0.0)
    before = p["w"].value.copy()
    ad.adam_step(p, {"w": np.zeros((1, 2))}, st)
    assert np.array_equal(p["w"].value, before)
    assert st.step_count == 1


def test_adam_first_step_magnitude_close_to_lr():
    p = {"w": ad.leaf([[1.0]])}
    st = ad.adam_init(p, lr=1e-4, weight_decay=0.0)
    ad.adam_step(p, {"w": np.array([[0.5]])}, st)
    delta = p["w"].value[0, 0] - 1.0
    assert delta < 0
    assert abs(abs(delta) - 1e-4) < 1e-9


def test_adam_decay_pulls_toward_zero():
    p = {"w": ad.leaf([[10.0]])}
    st = ad.adam_init(p, lr=1e-2, weight_decay=1e-1)
    for _ in range(200):
        ad.adam_step(p, {"w": np.array([[0.0]])}, st)
    assert abs(p["w"].value[0, 0]) < 10.0


def test_adam_deterministic():
    def run():
        p = {"w": ad.leaf([[1.0, 2.0]]), "b": ad.leaf([[0.5, 0.5]])}
        st = ad.adam_init(p)
        rng = _rng(7)
        for _ in range(50):
            g = {k: rng.normal(size=(1, 2)) for k in p}
            ad.adam_step(p, g, st)
        return {k: v.value.copy() for k, v in p.items()}

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_adam_aborts_on_non_finite_grad():
    p = {"w": ad.leaf([[1.0]]), "v": ad.leaf([[2.0]])}
    st = ad.adam_init(p)
    before_w = p["w"].value.copy()
    with pytest.raises(ad.NonFiniteError, match="v"):
        ad.adam_step(p, {"w": np.array([[1.0]]), "v": np.array([[np.nan]])}, st)
    assert np.array_equal(p["w"].value, before_w)
    assert st.step_count == 0


def test_adam_skips_params_without_grads():
    p = {"w": ad.leaf([[1.0]]), "idle": ad.leaf([[3.0]])}
    st = ad.adam_init(p)
    ad.adam_step(p, {"w": np.array([[0.5]])}, st)
    assert p["idle"].value[0, 0] == 3.0


def test_ops_deterministic_bit_identical():
    def build():
        rng = _rng(11)
        x = ad.leaf(rng.normal(size=(6, 6)))
        y = ad.row_softmax(ad.matmul(ad.relu(x), ad.transpose(x)))
        return y.value.copy(), ad.backward(ad.sum_all(y), [[1.0]])[x].copy()

    (v1, g1), (v2, g2) = build(), build()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)
