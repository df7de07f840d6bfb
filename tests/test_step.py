"""The fused training step against the tape step it replaced, as bytes; its
update after checking every gradient; and ``_fork``'s copies."""
from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mreplay.autodiff as ad
import tape_reference
from mreplay import data, memory as mem, trainer
from mreplay.models import components, freeze_copy

FLAGS = (*trainer.ABLATION_FLAGS, "lm_stop_grad", "online")


def _state_bytes(state) -> list:
    """Session, bank, RNG states, and per component the parameters, their
    gradient views and the Adam buffers and step count, as bytes."""
    out = [state.session, state.bank.capacity, state.bank.size,
           {k: g.bit_generator.state for k, g in state.rngs.items()}]
    if state.bank.size:
        out += [state.bank.features().tobytes(), state.bank.scores().tobytes()]
    for name, params in components(state.bundle).items():
        a = state.adam[name]
        assert all(p.value.base is a.buffer and p.grad.base is a.grad
                   for p in params.values())
        out += [{k: p.value.tobytes() for k, p in params.items()}, a.buffer.tobytes(),
                a.m.tobytes(), a.v.tobytes(), a.grad.tobytes(), a.step_count, a.lr,
                a.weight_decay]
    out.append({k: p.value.tobytes() for k, p in (state.bundle.frozen_encoder or {}).items()})
    return out


@st.composite
def _cases(draw):
    """(config, feature mode, bank fill, batch rows, seed) for one state."""
    flags = {f: draw(st.booleans()) for f in FLAGS}
    if flags["no_mp"]:
        flags["no_residual"] = False  # no_mp removes the residual branch too
    method = draw(st.one_of(st.just("magr"), st.sampled_from(trainer.METHODS)))
    config = trainer.TrainConfig(method=method, b1=5, b2=3,
                                 lr=draw(st.sampled_from([1e-4, 1e-2])),
                                 lambda_p=draw(st.sampled_from([0.0, 0.3, 1.0])),
                                 lambda_r=draw(st.sampled_from([0.5, 1.0])),
                                 encoder_widths=(7, 6, 4), projector_widths=(4, 5, 4),
                                 trunk_widths=(4, 3), **flags)
    return (config, draw(st.booleans()), draw(st.sampled_from(["empty", "partial", "full"])),
            draw(st.sampled_from([1, 3])), draw(st.integers(0, 2**32 - 1)))


def _state(config, feature_mode: bool, fill: str, rng):
    """A state as session 2 starts: live weights moved off the frozen copy,
    Adam moments from earlier steps, and an empty bank, one session of two
    entries (fewer than ``b1``), or two sessions of four."""
    width = 4 if feature_mode else 7
    state = trainer.new_state(config, width, feature_mode)
    freeze_copy(state.bundle)
    for a in state.adam.values():
        a.buffer += rng.normal(scale=0.3, size=a.buffer.size)
        a.m[:] = rng.normal(scale=0.1, size=a.m.size)
        a.v[:] = rng.random(a.v.size)
        a.step_count = 3
    state.session = 1
    stored = width if config.method == "replay-raw" else 4
    for session, n in {"empty": [], "partial": [(1, 2)], "full": [(1, 4), (2, 4)]}[fill]:
        mem.store_session(state.bank, rng.normal(size=(n, stored)), rng.normal(size=n),
                          [f"s{session}-{i}" for i in range(n)], session)
    return state, width


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(_cases())
def test_fused_step_equals_the_tape_step_as_bytes(case):
    config, feature_mode, fill, rows, seed = case
    config = trainer._preset(config)
    rng = np.random.default_rng(seed)
    fused, width = _state(config, feature_mode, fill, rng)
    taped = copy.deepcopy(fused)
    for _ in range(2):
        xb, yb = rng.normal(size=(rows, width)), rng.normal(size=rows)
        got, = trainer._train_step([(fused, config, xb, yb)])
        want, grads = tape_reference.train_step(taped, xb, yb, config)
        assert repr(got) == repr(want)
        # the tape gives a component a gradient for all its parameters or none
        comps = components(taped.bundle)
        assert all(set(g) == set(comps[name]) for name, g in grads.items())
        assert _state_bytes(fused) == _state_bytes(taped)


@st.composite
def _lane_cases(draw):
    """(configs, feature mode, bank fill, batch rows, seed) for 2-4 lanes of
    one group: one method kind, each lane with its own flags and lambdas."""
    kind = draw(st.sampled_from(["magr", "replay-raw", "sequential-ft"]))
    configs = []
    for _ in range(draw(st.integers(2, 4))):
        config, *rest = draw(_cases())
        method = kind if kind != "magr" else draw(st.sampled_from(
            ["magr", "replay-feature-naive"]))
        configs.append(trainer._preset(replace(config, method=method, lr=1e-2, online=False)))
    return configs, *rest


@settings(database=None, derandomize=True, max_examples=100, deadline=None)
@given(_lane_cases())
def test_laned_steps_equal_their_lanes_as_bytes(case):
    configs, feature_mode, fill, rows, seed = case
    rng = np.random.default_rng(seed)
    states = [_state(config, feature_mode, fill, rng)[0] for config in configs]
    width = 4 if feature_mode else 7
    alone = copy.deepcopy(states)
    group = trainer._Lanes(states, configs)
    for _ in range(2):
        batches = [(rng.normal(size=(rows, width)), rng.normal(size=rows)) for _ in configs]
        got = trainer._train_step([(s, c, *b) for s, c, b in zip(states, configs, batches)],
                                  group)
        want = [trainer._train_step([(s, c, *b)])[0]
                for s, c, b in zip(alone, configs, batches)]
        assert repr(got) == repr(want)
    group.unstack()
    for s, a in zip(states, alone):
        assert _state_bytes(s) == _state_bytes(a)


def test_non_finite_gradient_aborts_the_step_before_any_update(monkeypatch):
    # the encoder is updated last; a bad gradient there must leave the
    # projector and regressor untouched too, and be named
    plan, _ = data.normalize_scores(data.grade_split(data.generate_synthetic(
        data.DataConfig(n=60, d_x=8, T=3, shots=5)), T=3, shots=5, seed=0))
    config = trainer.TrainConfig(epochs=1, m=4)
    state = trainer.new_state(config, plan.input_width)
    trainer.train_session(state, *plan.training_arrays(1), config)
    freeze_copy(state.bundle)

    def snapshot():
        return [({k: p.value.tobytes() for k, p in params.items()}, a.buffer.tobytes(),
                 a.m.tobytes(), a.v.tobytes(), a.step_count)
                for params, a in zip(components(state.bundle).values(), state.adam.values())]

    before = snapshot()
    real = ad.adam_update

    def poison(states):
        assert [id(s) for s in states] == [id(state.adam[n]) for n in components(state.bundle)]
        encoder = states[-1]
        encoder.grad[encoder.spans["encoder.b1"][0]] = np.inf
        return real(states)

    monkeypatch.setattr(ad, "adam_update", poison)
    x, y, _ = plan.training_arrays(2)
    with pytest.raises(ad.NonFiniteError, match="'encoder.b1'"):
        trainer._train_step([(state, config, x[:3], y[:3])])
    assert snapshot() == before


def test_fork_is_an_equal_copy_that_shares_nothing():
    plan, _ = data.normalize_scores(data.grade_split(data.generate_synthetic(
        data.DataConfig(n=60, d_x=8, T=3, shots=5)), T=3, shots=5, seed=0))
    config = trainer.TrainConfig(epochs=2, m=4, lr=1e-3)
    state = trainer.new_state(config, plan.input_width)
    trainer.train_session(state, *plan.training_arrays(1), config)
    freeze_copy(state.bundle)
    fork = trainer._fork(state, replace(config, m=2))
    assert fork.bank.size == 0 and fork.bank.capacity == 2
    state.bank = mem.MemoryBank(capacity=2)
    assert _state_bytes(fork) == _state_bytes(state)

    def arrays(s):
        out = [p.value for p in s.bundle.frozen_encoder.values()]
        for name, params in components(s.bundle).items():
            a = s.adam[name]
            out += [a.buffer, a.m, a.v, a.grad]
            out += [p.value for p in params.values()] + [p.grad for p in params.values()]
        return out

    assert not any(np.shares_memory(a, b) for a in arrays(fork) for b in arrays(state))
    assert fork.bank is not state.bank and fork.bundle.spec == state.bundle.spec
    for name, rng in state.rngs.items():
        assert fork.rngs[name] is not rng
        assert fork.rngs[name].random(5).tobytes() == rng.random(5).tobytes()
    # and it trains on as the source does
    x, y, ids = plan.training_arrays(2)
    trainer.train_session(fork, x, y, ids, config)
    trainer.train_session(state, x, y, ids, config)
    assert _state_bytes(fork) == _state_bytes(state)
