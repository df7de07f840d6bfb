"""``autodiff``'s halves on a stack of lanes against their 2-D calls, one
lane at a time, bit for bit: every value and every gradient sink.

Each case draws 2-4 lanes of one set of shapes, down to 1-row batches and
1-wide layers and heads, with values from a small set that holds 0.0 and
-0.0 half of the time, so ReLU kinks and signed zeros occur. Every sink
starts at -0.0 on both sides; a sink that is None for the stack is None
for each lane. Per-lane scalars (a loss's gradient, a weight, Adam's step
count) differ between lanes."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mreplay.autodiff as ad

SETTINGS = settings(database=None, derandomize=True, max_examples=150, deadline=None)
ATOMS = np.array([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _cases(draw, n_layers=(1, 3)):
    """(rng, lanes, rows, widths, atoms, which inputs get a sink)."""
    k = draw(st.integers(*n_layers))
    widths = draw(st.lists(st.integers(1, 6), min_size=k + 1, max_size=k + 1))
    leafy = draw(st.lists(st.booleans(), min_size=16, max_size=16))
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 4)),
            draw(st.integers(1, 6)), widths, draw(st.booleans()), leafy)


def _values(rng, shape, atoms):
    return rng.choice(ATOMS, size=shape) if atoms else rng.normal(size=shape)


def _layers(rng, lanes, widths, atoms) -> list:
    """Each layer's stacked weight, then its stacked bias."""
    out = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        out += [_values(rng, (lanes, fan_in, fan_out), atoms),
                _values(rng, (lanes, 1, fan_out), atoms)]
    return out


def _sinks(arrays, leafy) -> list:
    """A fresh -0.0 sink for each array whose flag is set, else None."""
    return [np.full(a.shape, -0.0) if f else None for a, f in zip(arrays, leafy)]


def _lane(sinks) -> list:
    """A fresh -0.0 sink for one lane where the stack has one."""
    return [None if s is None else np.full(s.shape[1:], -0.0) for s in sinks]


@SETTINGS
@given(_cases(), st.booleans())
def test_stacked_mlp_equals_its_lanes(case, output_relu):
    rng, lanes, rows, widths, atoms, leafy = case
    x = _values(rng, (lanes, rows, widths[0]), atoms)
    params = _layers(rng, lanes, widths, atoms)
    acts = ad.mlp_fwd(x, params, output_relu)
    g = _values(rng, acts[-1].shape, atoms)
    sinks = _sinks(params, leafy)
    x_sink = np.full(x.shape, -0.0) if leafy[-1] else None
    ad.mlp_bwd(g, params, acts, output_relu, sinks, x_sink)
    for i in range(lanes):
        p = [w[i] for w in params]
        lane_acts = ad.mlp_fwd(x[i], p, output_relu)
        lane_sinks, lane_x = _lane(sinks), None if x_sink is None else np.full(x[i].shape, -0.0)
        ad.mlp_bwd(g[i], p, lane_acts, output_relu, lane_sinks, lane_x)
        for a, b in zip(acts, lane_acts):
            assert a[i].tobytes() == b.tobytes()
        for s, t in zip(sinks + [x_sink], lane_sinks + [lane_x]):
            assert (s is None) == (t is None)
            assert s is None or s[i].tobytes() == t.tobytes()


@SETTINGS
@given(_cases(n_layers=(1, 2)), st.booleans())
def test_stacked_score_equals_its_lanes(case, with_eps):
    rng, lanes, rows, widths, atoms, leafy = case
    x = _values(rng, (lanes, rows, widths[0]), atoms)
    params = _layers(rng, lanes, widths, atoms) + _layers(rng, lanes, [widths[-1], 1], atoms) \
        + _layers(rng, lanes, [widths[-1], 1], atoms)
    eps = _values(rng, (lanes, rows, 1), atoms) if with_eps else None
    out = ad.score_fwd(x, params, eps)
    g = _values(rng, (lanes, rows, 1), atoms)
    sinks = _sinks(params, leafy)
    x_sink = np.full(x.shape, -0.0) if leafy[-1] else None
    ad.score_bwd(g, params, eps, out[3], sinks, x_sink)
    for i in range(lanes):
        p = [w[i] for w in params]
        lane_eps = None if eps is None else eps[i]
        lane = ad.score_fwd(x[i], p, lane_eps)
        lane_sinks, lane_x = _lane(sinks), None if x_sink is None else np.full(x[i].shape, -0.0)
        ad.score_bwd(g[i], p, lane_eps, lane[3], lane_sinks, lane_x)
        for a, b in zip(out[:3], lane[:3]):
            assert a[i].tobytes() == b.tobytes()
        for s, t in zip(sinks + [x_sink], lane_sinks + [lane_x]):
            assert s is None or s[i].tobytes() == t.tobytes()


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.sampled_from([0.5, 1.0, 1.0 / 3.0]))
def test_stacked_sq_error_and_add_equal_their_lanes(case, c):
    rng, lanes, rows, widths, atoms, _ = case
    a, b = (_values(rng, (lanes, rows, widths[0]), atoms) for _ in range(2))
    value, diff = ad.sq_error_fwd(a, b, c)
    assert value.shape == (lanes, 1, 1)
    g = _values(rng, (lanes, 1, 1), atoms)
    grad = ad.sq_error_bwd(g, c, diff)
    added = ad.add_fwd(a, b)
    for i in range(lanes):
        lane_value, lane_diff = ad.sq_error_fwd(a[i], b[i], c)
        assert value[i].tobytes() == np.reshape(lane_value, (1, 1)).tobytes()
        assert grad[i].tobytes() == ad.sq_error_bwd(float(g[i, 0, 0]), c, lane_diff).tobytes()
        assert added[i].tobytes() == ad.add_fwd(a[i], b[i]).tobytes()


@SETTINGS
@given(_cases(n_layers=(1, 1)), st.lists(st.booleans(), min_size=2, max_size=4))
def test_stacked_weighted_sum_equals_its_lanes(case, weighted):
    rng, lanes, _, _, atoms, _ = case
    values = [_values(rng, (lanes, 1, 1), atoms) for _ in weighted]
    weights = [_values(rng, (lanes, 1, 1), atoms) if w else None for w in weighted]
    total, factors = ad.weighted_sum_fwd(values, weights)
    grads = ad.weighted_sum_bwd(1.0, factors)
    for i in range(lanes):
        lane_total, lane_factors = ad.weighted_sum_fwd(
            [v[i, 0, 0] for v in values], [None if w is None else w[i, 0, 0] for w in weights])
        assert total[i].tobytes() == np.reshape(lane_total, (1, 1)).tobytes()
        for g, h in zip(grads, ad.weighted_sum_bwd(1.0, lane_factors)):
            assert np.reshape(np.broadcast_to(g, (lanes, 1, 1))[i], ()).tobytes() == \
                np.float64(h).tobytes()


@st.composite
def _graph_cases(draw):
    lanes = draw(st.integers(2, 4))
    # one (joint, intra_inter, use_mse) per lane, not both terms off;
    # sometimes equal in every lane
    flags = st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(
        lambda f: f[0] or f[1])
    per_lane = draw(st.lists(flags, min_size=lanes, max_size=lanes))
    if draw(st.booleans()):
        per_lane = per_lane[:1] * lanes
    return (np.random.default_rng(draw(st.integers(0, 2**32 - 1))), lanes,
            draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 5)),
            draw(st.booleans()), per_lane)


@SETTINGS
@given(_graph_cases())
def test_stacked_graph_equals_its_lanes(case):
    rng, lanes, b1, b2, d, atoms, per_lane = case
    old = _values(rng, (lanes, b1, d), atoms)
    new = _values(rng, (lanes, b2, d), atoms)
    y = rng.uniform(size=(lanes, b1 + b2))
    gaps = y[:, :, None] - y[:, None, :]
    names = ("joint", "intra_inter", "use_mse")
    value, ctx = ad.graph_fwd(old, new, gaps, **dict(zip(names, zip(*per_lane))))
    g = _values(rng, (lanes, 1, 1), False)
    grad = ad.graph_bwd(g, ctx)
    for i in range(lanes):
        lane_value, lane_ctx = ad.graph_fwd(old[i], new[i], gaps[i],
                                            **dict(zip(names, per_lane[i])))
        assert value[i].tobytes() == np.reshape(lane_value, (1, 1)).tobytes()
        assert grad[i].tobytes() == ad.graph_bwd(float(g[i, 0, 0]), lane_ctx).tobytes()


def test_stacked_graph_rejects_a_lane_without_terms():
    old, new = np.ones((2, 2, 3)), np.ones((2, 1, 3))
    with pytest.raises(ValueError, match="no joint and no block terms"):
        ad.graph_fwd(old, new, np.zeros((2, 3, 3)), joint=(True, False),
                     intra_inter=(True, False), use_mse=False)


@SETTINGS
@given(_cases(n_layers=(1, 2)), st.lists(st.integers(0, 40), min_size=4, max_size=4))
def test_stacked_adam_update_equals_its_lanes(case, counts):
    rng, lanes, _, widths, atoms, _ = case
    layers = _layers(rng, lanes, widths, atoms)

    def states():
        out = []
        for i in range(lanes):
            params = {f"p{j}": ad.Param(w[i]) for j, w in enumerate(layers)}
            state = ad.adam_init(params, lr=1e-2, weight_decay=1e-3)
            state.m[:] = _values(rng, state.m.shape, atoms)
            state.v[:] = np.abs(_values(rng, state.v.shape, atoms))
            state.step_count = counts[i]
            out.append((params, state))
        return out

    lone, laned = states(), states()
    for (_, a), (_, b) in zip(lone, laned):
        b.m[:], b.v[:] = a.m, a.v
    grads = [_values(rng, a.grad.shape, atoms) for _, a in lone]
    stack = ad.adam_stack([s for _, s in laned], [p for p, _ in laned])
    values, _ = ad.stacked_views(stack, [w.shape[1:] for w in layers])
    for (params, state), g in zip(lone, grads):
        state.grad[:] = g
        ad.adam_update([state])
    stack.grad[:] = np.stack(grads)
    ad.adam_update([stack])
    # each lane's parameters view its row of the stack until it is unstacked
    assert all(values[j][i].tobytes() == p.value.tobytes()
               for i, (params, _) in enumerate(laned) for j, p in enumerate(params.values()))
    ad.adam_unstack(stack, [s for _, s in laned], [p for p, _ in laned])
    for (pa, a), (pb, b) in zip(lone, laned):
        for name in ("buffer", "m", "v", "grad"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert type(b.step_count) is int and a.step_count == b.step_count
        assert all(p.value.base is b.buffer for p in pb.values())
