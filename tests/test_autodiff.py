"""The reference tape's primitives: frozen hand values, gradient fidelity;
and Adam's behavior on the package's parameters.

The tape (``tape_reference``) is the oracle of the array-level halves, so
it is checked here on its own. The primitives of the composed graph
regularizer live in ``graph_reference``; they are checked with the rest."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
import tape_reference as tp


def _rng(seed):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ forward values


def test_row_normalize_hand_value():
    t = gr.row_normalize(tp.leaf([[3.0, 4.0]]))
    assert np.array_equal(t.value, [[0.6, 0.8]])


def test_relu_matmul_hand_values():
    x = tp.leaf([[1.0, -2.0], [0.0, 3.0]])
    r = tp.relu(x)
    assert np.array_equal(r.value, [[1.0, 0.0], [0.0, 3.0]])
    eye = tp.leaf(np.eye(2))
    assert np.array_equal(tp.matmul(x, eye).value, x.value)


def test_arccos_geometry_values():
    h = gr.row_normalize(tp.leaf([[1.0, 0.0], [1.0, 1.0]]))
    a = gr.arccos(tp.matmul(h, gr.transpose(h)))
    assert abs(a.value[0, 1] - np.pi / 4) < 1e-12
    orth = gr.arccos(tp.leaf([[0.0]]))
    assert abs(orth.value[0, 0] - np.pi / 2) < 1e-12
    anti = gr.arccos(tp.leaf([[-1.0]]))
    assert abs(anti.value[0, 0] - np.pi) < 1e-3  # clamp keeps it off the pole


def test_arccos_clamp_bounds_output():
    a = gr.arccos(tp.leaf([[1.0, -1.0, 5.0, -5.0]]))
    assert np.isfinite(a.value).all()
    assert a.value[0, 0] <= np.arccos(1.0 - 1e-7) + 1e-15
    assert a.value[0, 1] >= np.arccos(-1.0 + 1e-7) - 1e-15


def test_row_softmax_rows_sum_to_one():
    for seed in range(10):
        x = tp.leaf(_rng(seed).normal(size=(5, 7)) * 10)
        s = gr.row_softmax(x)
        assert np.abs(s.value.sum(axis=1) - 1.0).max() < 1e-12
        assert np.allclose(np.exp(gr.row_log_softmax(x).value), s.value,
                           rtol=1e-12, atol=0)


def test_elementwise_ops_do_not_broadcast():
    # a bias row is added by ``linear``; no elementwise op broadcasts one
    x = tp.leaf(np.ones((3, 4)))
    row = tp.leaf(np.arange(4.0).reshape(1, 4))
    for op in (tp.add, gr.sub, tp.mul):
        with pytest.raises(ad.ShapeError):
            op(x, row)
    with pytest.raises(ad.ShapeError):
        tp.add(x, tp.leaf(np.ones((3, 1))))


def test_non_finite_and_shape_errors():
    with pytest.raises(ad.NonFiniteError):
        tp.leaf([[np.inf]])
    with pytest.raises(ad.NonFiniteError):
        tp.leaf([[np.nan, 1.0]])
    with pytest.raises(ad.ShapeError):
        tp.leaf([1.0, 2.0])
    with pytest.raises(ad.ShapeError):
        tp.matmul(tp.leaf(np.ones((2, 3))), tp.leaf(np.ones((2, 3))))
    with pytest.raises(ad.NonFiniteError):
        tp.scale(tp.leaf([[1.0]]), np.nan)


# ----------------------------------------------------------------- backward


def test_backward_simple_square():
    x = tp.leaf([[3.0]])
    y = tp.mul(x, x)
    grads = tp.backward(y, [[1.0]])
    assert np.array_equal(grads[x], [[6.0]])


def test_relu_subgradient_at_kink_is_zero():
    x = tp.leaf([[-1.0, 0.0, 2.0]])
    grads = tp.backward(gr.sum_all(tp.relu(x)), [[1.0]])
    assert np.array_equal(grads[x], [[0.0, 0.0, 1.0]])


def test_softplus_backward_saturates_without_overflow():
    # exp(-x) overflows at x = -1000; the sigmoid's limit there is exactly 0
    x = tp.leaf([[-1000.0, 0.0, 1000.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grads = tp.backward(gr.sum_all(tp.softplus(x)), [[1.0]])
    assert np.array_equal(grads[x], [[0.0, 0.5, 1.0]])


def test_fanout_accumulates():
    x = tp.leaf([[2.0]])
    y = tp.add(tp.mul(x, x), tp.scale(x, 3.0))  # x^2 + 3x
    grads = tp.backward(y, [[1.0]])
    assert np.array_equal(grads[x], [[7.0]])


def test_backward_seed_shape_checked():
    x = tp.leaf([[1.0, 2.0]])
    y = gr.sum_all(x)
    with pytest.raises(ad.ShapeError):
        tp.backward(y, [[1.0, 1.0]])


def test_backward_unused_leaf_gets_no_entry():
    x = tp.leaf([[1.0]])
    z = tp.leaf([[5.0]])
    grads = tp.backward(tp.mul(x, x), [[1.0]])
    assert z not in grads
    # a constant on the tape gets no entry either, and the leaf's gradient
    # is what it would be with the constant as a leaf
    c = tp.const([[3.0]])
    grads = tp.backward(tp.mul(tp.mul(x, c), x), [[1.0]])
    assert set(grads) == {x}
    assert np.array_equal(grads[x], [[6.0]])
    assert tp.backward(gr.sum_all(tp.mul(c, c)), [[1.0]]) == {}


def test_ops_on_constants_record_nothing():
    rng = _rng(5)
    a, b = tp.const(rng.normal(size=(3, 4))), tp.const(rng.normal(size=(3, 4)))
    w, row = tp.const(rng.normal(size=(4, 2))), tp.const(rng.normal(size=(1, 2)))
    outs = [tp.matmul(a, w), tp.add(a, b), gr.sub(a, b), tp.mul(a, b),
            tp.scale(a, 2.0), tp.relu(a), gr.row_normalize(a), gr.arccos(tp.scale(a, 0.1)),
            gr.row_softmax(a), gr.row_log_softmax(a), tp.softplus(a), gr.transpose(a),
            gr.concat_rows(a, b), gr.slice_block(a, 0, 2, 1, 3), gr.sum_all(a),
            tp.sq_error(a, b), tp.linear(a, w, row),
            gr.graph_loss(a, b, np.zeros((6, 6)), joint=True, intra_inter=True,
                          use_mse=False)]
    for out in outs:
        assert not out.needs_grad and not out._parents and out._bwd is None
    # values match the same expression over leaves
    la, lw, lrow = tp.leaf(a.value), tp.leaf(w.value), tp.leaf(row.value)
    assert np.array_equal(tp.linear(a, w, row).value, tp.linear(la, lw, lrow).value)
    # one leaf input is enough to record the node, with only that parent
    mixed = tp.matmul(a, lw)
    assert mixed.needs_grad and mixed._parents == (lw,)


def test_stop_gradient_is_a_constant_view():
    x = tp.leaf([[1.0, 2.0]])
    y = tp.scale(x, 2.0)
    s = tp.stop_gradient(y)
    assert not s.needs_grad and s.value is y.value
    grads = tp.backward(gr.sum_all(tp.add(tp.mul(s, y), x)), [[1.0]])
    assert set(grads) == {x}
    assert np.array_equal(grads[x], [[1.0 + 2.0 * 2.0, 1.0 + 2.0 * 4.0]])


# --------------------------------------------------------------- grad_check


def test_grad_check_every_primitive():
    # fixed seeds; shapes at most 8x8
    tol = 1e-5
    for seed in range(10):
        rng = _rng(1000 + seed)
        a = tp.leaf(rng.normal(size=(4, 6)))
        b = tp.leaf(rng.normal(size=(4, 6)))
        w = tp.leaf(rng.normal(size=(6, 3)))
        rng.normal(size=(1, 6))  # a dropped case's draw; later draws stay as they were
        cw = tp.leaf(rng.normal(size=(4, 6)))  # fixed weights; f() must be deterministic
        cases = [
            ([a, w], lambda: gr.sum_all(tp.matmul(a, w))),
            ([a, b], lambda: gr.sum_all(tp.add(a, b))),
            ([a, b], lambda: gr.sum_all(gr.sub(a, b))),
            ([a, b], lambda: gr.sum_all(tp.mul(a, b))),
            ([a], lambda: gr.sum_all(tp.scale(a, -2.5))),
            ([a], lambda: gr.sum_all(tp.relu(a))),
            ([a], lambda: gr.sum_all(gr.row_normalize(a))),
            ([a], lambda: gr.sum_all(tp.mul(gr.row_softmax(a), cw))),
            ([a], lambda: gr.sum_all(tp.mul(gr.row_log_softmax(a), cw))),
            ([a], lambda: gr.sum_all(tp.softplus(a))),
            ([a], lambda: gr.sum_all(gr.transpose(a))),
            ([a, b], lambda: gr.sum_all(gr.concat_rows(a, b))),
            ([a], lambda: gr.sum_all(gr.slice_block(a, 1, 3, 2, 5))),
            ([a, b], lambda: tp.sq_error(a, b)),
        ]
        for leaves, f in cases:
            assert tp.grad_check(f, leaves) < tol
        # arccos probed away from the clamp edges
        c = tp.leaf(rng.uniform(-0.9, 0.9, size=(3, 3)))
        assert tp.grad_check(lambda: gr.sum_all(gr.arccos(c)), [c]) < tol


def test_grad_check_linear():
    # same tolerance as the other primitives; with x a constant only w and
    # b are probed
    tol = 1e-5
    for seed in range(10):
        rng = _rng(1500 + seed)
        x = tp.leaf(rng.normal(size=(4, 6)))
        w = tp.leaf(rng.normal(size=(6, 3)))
        b = tp.leaf(rng.normal(size=(1, 3)))
        cw = tp.const(rng.normal(size=(4, 3)))
        f = lambda: gr.sum_all(tp.mul(tp.linear(x, w, b), cw))
        assert tp.grad_check(f, [x, w, b]) < tol
        xc = tp.const(x.value)
        g = lambda: gr.sum_all(tp.mul(tp.linear(xc, w, b), cw))
        assert tp.grad_check(g, [w, b]) < tol
        assert xc not in tp.backward(g(), [[1.0]])


def test_linear_equals_matmul_add_bit_for_bit():
    for rows in (1, 2, 5):
        rng = _rng(1600 + rows)
        xv, wv, bv = (rng.normal(size=(rows, 7)), rng.normal(size=(7, 4)),
                      rng.normal(size=(1, 4)))
        seed = rng.normal(size=(rows, 4))

        x, w, b = tp.leaf(xv), tp.leaf(wv), tp.leaf(bv)
        out = tp.linear(x, w, b)
        grads = tp.backward(out, seed)
        fused = out.value, grads[x], grads[w], grads[b]
        # the bias row added to every row by hand: its gradient is the
        # column sum of the seed
        x, w = tp.leaf(xv), tp.leaf(wv)
        prod = tp.matmul(x, w)
        grads = tp.backward(prod, seed)
        plain = prod.value + bv, grads[x], grads[w], seed.sum(axis=0, keepdims=True)
        for f, p in zip(fused, plain):
            assert f.tobytes() == p.tobytes()


def test_linear_shape_checks():
    x, w = tp.leaf(np.ones((2, 3))), tp.leaf(np.ones((3, 4)))
    with pytest.raises(ad.ShapeError):
        tp.linear(x, tp.leaf(np.ones((2, 4))), tp.leaf(np.ones((1, 4))))
    with pytest.raises(ad.ShapeError):
        tp.linear(x, w, tp.leaf(np.ones((2, 4))))
    with pytest.raises(ad.ShapeError):
        tp.linear(x, w, tp.leaf(np.ones((1, 3))))


def test_grad_check_quadratic_form_tight():
    for seed in range(10):
        rng = _rng(2000 + seed)
        x = tp.leaf(rng.normal(size=(3, 1)))
        q = tp.leaf(rng.normal(size=(3, 3)))
        f = lambda: tp.matmul(tp.matmul(gr.transpose(x), q), x)
        assert tp.grad_check(f, [x]) < 1e-7


def test_grad_check_softmax_kl_composite():
    for seed in range(10):
        rng = _rng(3000 + seed)
        p = tp.leaf(rng.normal(size=(4, 5)))
        q = tp.leaf(rng.normal(size=(4, 5)))

        def f():
            probs = gr.row_softmax(p)
            diff = gr.sub(gr.row_log_softmax(p), gr.row_log_softmax(q))
            return gr.sum_all(tp.mul(probs, diff))

        assert tp.grad_check(f, [p, q]) < 1e-5


def test_grad_check_constant_expression_is_exact_zero():
    x = tp.leaf([[1.0, 2.0]])
    f = lambda: gr.sum_all(tp.leaf([[4.0]]))
    assert tp.grad_check(f, [x]) == 0.0


def test_grad_check_through_angular_distance():
    # gradient through normalize -> cosine -> clamped arccos; the diagonal
    # hits the clamp and must contribute exactly zero
    for seed in range(5):
        rng = _rng(4000 + seed)
        h = tp.leaf(rng.normal(size=(4, 5)))

        def f():
            hn = gr.row_normalize(h)
            return gr.sum_all(gr.arccos(tp.matmul(hn, gr.transpose(hn))))

        assert tp.grad_check(f, [h]) < 1e-4


def test_grad_check_rejects_bad_step():
    x = tp.leaf([[1.0]])
    with pytest.raises(ValueError):
        tp.grad_check(lambda: gr.sum_all(x), [x], fd_step=0.0)


# --------------------------------------------------------------------- adam


def test_adam_zero_grad_zero_decay_leaves_params():
    p = {"w": ad.Param([[1.0, -2.0]])}
    st = ad.adam_init(p, lr=1e-4, weight_decay=0.0)
    before = p["w"].value.copy()
    tp.adam_step(p, {"w": np.zeros((1, 2))}, st)
    assert np.array_equal(p["w"].value, before)
    assert st.step_count == 1


def test_adam_first_step_magnitude_close_to_lr():
    p = {"w": ad.Param([[1.0]])}
    st = ad.adam_init(p, lr=1e-4, weight_decay=0.0)
    tp.adam_step(p, {"w": np.array([[0.5]])}, st)
    delta = p["w"].value[0, 0] - 1.0
    assert delta < 0
    assert abs(abs(delta) - 1e-4) < 1e-9


def test_adam_decay_pulls_toward_zero():
    p = {"w": ad.Param([[10.0]])}
    st = ad.adam_init(p, lr=1e-2, weight_decay=1e-1)
    for _ in range(200):
        tp.adam_step(p, {"w": np.array([[0.0]])}, st)
    assert abs(p["w"].value[0, 0]) < 10.0


def test_adam_deterministic():
    def run():
        p = {"w": ad.Param([[1.0, 2.0]]), "b": ad.Param([[0.5, 0.5]])}
        st = ad.adam_init(p)
        rng = _rng(7)
        for _ in range(50):
            g = {k: rng.normal(size=(1, 2)) for k in p}
            tp.adam_step(p, g, st)
        return {k: v.value.copy() for k, v in p.items()}

    a, b = run(), run()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_adam_aborts_on_non_finite_grad():
    p = {"w": ad.Param([[1.0]]), "v": ad.Param([[2.0]])}
    st = ad.adam_init(p)
    before_w = p["w"].value.copy()
    with pytest.raises(ad.NonFiniteError, match="v"):
        tp.adam_step(p, {"w": np.array([[1.0]]), "v": np.array([[np.nan]])}, st)
    assert np.array_equal(p["w"].value, before_w)
    assert st.step_count == 0


def test_adam_skips_params_without_grads():
    p = {"w": ad.Param([[1.0]]), "idle": ad.Param([[3.0]])}
    st = ad.adam_init(p)
    tp.adam_step(p, {"w": np.array([[0.5]])}, st)
    assert p["idle"].value[0, 0] == 3.0


def _reference_adam_step(values, grads, m, v, step, lr, wd,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """Per-parameter Adam on plain arrays, one parameter at a time; returns
    the new step count."""
    t = step + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        g = g + wd * values[name]
        m[name] = beta1 * m[name] + (1 - beta1) * g
        v[name] = beta2 * v[name] + (1 - beta2) * g * g
        values[name] = values[name] - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
    return t


@st.composite
def _adam_runs(draw):
    shape = st.tuples(st.integers(1, 4), st.integers(1, 4))
    comps = draw(st.lists(st.lists(shape, min_size=1, max_size=4), min_size=1, max_size=3))
    steps = draw(st.integers(1, 12))
    # the step at which each component first gets gradients, like the
    # projector, which idles until the memory bank fills
    starts = [draw(st.integers(0, steps)) for _ in comps]
    lr = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 0.5]))
    wd = draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.1]))
    missing = draw(st.floats(0.0, 0.5))
    return comps, steps, starts, lr, wd, missing, draw(st.integers(0, 2**32 - 1))


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(_adam_runs())
def test_flat_adam_matches_per_parameter_reference(run):
    comps, steps, starts, lr, wd, missing, seed = run
    rng = _rng(seed)
    params, states, ref = [], [], []
    for shapes in comps:
        p = {f"p{i}": ad.Param(rng.normal(size=s) * 3.0) for i, s in enumerate(shapes)}
        ref.append(({k: t.value.copy() for k, t in p.items()},
                    {k: np.zeros(s) for k, s in zip(p, shapes)},
                    {k: np.zeros(s) for k, s in zip(p, shapes)}, [0]))
        params.append(p)
        states.append(ad.adam_init(p, lr=lr, weight_decay=wd))
    for step in range(steps):
        for p, state, (values, m, v, count), start in zip(params, states, ref, starts):
            if step < start:
                continue
            grads = {k: rng.normal(size=t.value.shape) * 10.0 ** rng.integers(-6, 3)
                     for k, t in p.items() if rng.random() >= missing}
            if not grads:
                continue
            tp.adam_step(p, grads, state)
            count[0] = _reference_adam_step(values, grads, m, v, count[0], lr, wd)
    for p, state, (values, m, v, count) in zip(params, states, ref):
        assert state.step_count == count[0]
        for k, t in p.items():
            lo, hi = state.spans[k]
            assert t.value.tobytes() == values[k].tobytes()
            assert state.m[lo:hi].tobytes() == m[k].tobytes()
            assert state.v[lo:hi].tobytes() == v[k].tobytes()
            assert t.value.base is state.buffer


def test_adam_rejects_rebound_parameter():
    p = {"w": ad.Param([[1.0]]), "b": ad.Param([[2.0]])}
    st_ = ad.adam_init(p)
    p["b"].value = np.array([[2.0]])  # no longer a view into the buffer
    with pytest.raises(ValueError, match="in place"):
        tp.adam_step(p, {"w": np.array([[1.0]]), "b": np.array([[1.0]])}, st_)
    assert st_.step_count == 0 and p["w"].value[0, 0] == 1.0


def test_ops_deterministic_bit_identical():
    def build():
        rng = _rng(11)
        x = tp.leaf(rng.normal(size=(6, 6)))
        y = gr.row_softmax(tp.matmul(tp.relu(x), gr.transpose(x)))
        return y.value.copy(), tp.backward(gr.sum_all(y), [[1.0]])[x].copy()

    (v1, g1), (v2, g2) = build(), build()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)
