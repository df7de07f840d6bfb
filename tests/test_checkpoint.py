"""Checkpoint round-trips: bit-exact restore, resume equivalence, tampering."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mreplay import checkpoint, cli, data, models, trainer
from mreplay.memory import FeatureRecord
from mreplay.models import components, encode, freeze_copy, predict


SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


def _plan():
    ds = data.generate_synthetic(data.DataConfig(
        n=60, d_x=8, T=3, shots=5, noise_x=0.05, drift=0.3, seed=0))
    return data.normalize_scores(data.grade_split(ds, T=3, shots=5, seed=0))


def _cfg(**kw):
    base = dict(method="magr", epochs=2, b1=5, b2=3, m=4, seed=0,
                encoder_widths=(8, 32, 12), projector_widths=(12, 12, 12),
                trunk_widths=(12, 6))
    base.update(kw)
    return trainer.TrainConfig(**base)


def _trained_state(plan, cfg, sessions=2):
    state = trainer.new_state(cfg, plan.input_width)
    for t in range(1, sessions + 1):
        x, y, ids = plan.training_arrays(t)
        trainer.train_session(state, x, y, ids, cfg)
    return state


def _smoke_plan():
    """The normalized plan, scaler and train config that `mreplay train
    --config configs/smoke.json` runs on."""
    raw = json.loads(SMOKE.read_text())
    data_cfg = cli._data_config(raw)
    cfg = data.config_from_dict(trainer.TrainConfig, raw["train"], "train")
    plan, _ = cli._build_plan(data.generate_synthetic(data_cfg), data_cfg, None, cfg.seed)
    return (*data.normalize_scores(plan), cfg)


def _assert_same_state(a, b):
    """Parameters, Adam buffers, moments and counts, frozen encoder, bank,
    RNG states and session of two states, bit for bit."""
    assert a.session == b.session
    for comp, params in components(a.bundle).items():
        other = components(b.bundle)[comp]
        assert list(params) == list(other)
        for k in params:
            assert params[k].value.tobytes() == other[k].value.tobytes(), k
        x, y = a.adam[comp], b.adam[comp]
        assert x.step_count == y.step_count, comp
        for key in ("buffer", "m", "v"):
            assert getattr(x, key).tobytes() == getattr(y, key).tobytes(), (comp, key)
    frozen_a, frozen_b = a.bundle.frozen_encoder or {}, b.bundle.frozen_encoder or {}
    assert list(frozen_a) == list(frozen_b)
    for name, t in frozen_a.items():
        assert t.value.tobytes() == frozen_b[name].value.tobytes()
    assert (a.bank.capacity, a.bank.refresh_epoch, a.bank.size) == \
        (b.bank.capacity, b.bank.refresh_epoch, b.bank.size)
    for x, y in zip(a.bank.entries, b.bank.entries):
        assert x.feature.tobytes() == y.feature.tobytes()
        assert (x.score, x.session, x.sample_id) == (y.score, y.session, y.sample_id)
    assert {k: g.bit_generator.state for k, g in a.rngs.items()} == \
        {k: g.bit_generator.state for k, g in b.rngs.items()}


def test_round_trip_bit_exact(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, loaded_scaler, loaded_cfg = checkpoint.load_checkpoint(path)

    assert loaded_cfg == cfg
    assert loaded_scaler == scaler
    _assert_same_state(loaded, state)

    x = plan.test_arrays(2)[0]
    assert np.array_equal(predict(state.bundle, x), predict(loaded.bundle, x))


def test_unknown_top_level_key_is_ignored(tmp_path):
    # loading a format-2 file ignores a top-level key it does not know, here
    # "has_frozen", which format 1 wrote beside "frozen_encoder" (a format-1
    # file itself is refused by its version)
    plan, scaler = _plan()
    cfg = _cfg()
    x = plan.test_arrays(2)[0]
    for sessions, flag in ((1, False), (2, True)):
        state = _trained_state(plan, cfg, sessions=sessions)
        path = tmp_path / f"ckpt{sessions}.json"
        checkpoint.save_checkpoint(path, state, scaler, cfg)
        payload = json.loads(path.read_text())
        assert "has_frozen" not in payload
        assert (payload["frozen_encoder"] is not None) == flag
        payload["has_frozen"] = flag
        path.write_text(json.dumps(payload))
        loaded, _, _ = checkpoint.load_checkpoint(path)
        assert np.array_equal(predict(state.bundle, x), predict(loaded.bundle, x))
        if flag:
            assert np.array_equal(encode(state.bundle, x, frozen=True),
                                  encode(loaded.bundle, x, frozen=True))
        else:
            assert loaded.bundle.frozen_encoder is None


def test_resume_training_is_bit_exact(tmp_path):
    # sessions 1-2, save, load, session 3 end in the same bits as the
    # uninterrupted run, Adam moments and RNG streams included
    plan, scaler, cfg = _smoke_plan()
    path = tmp_path / "session_02.json"

    def save(state, t):
        if t == 2:
            checkpoint.save_checkpoint(path, state, scaler, cfg)

    whole = trainer.run_continual(plan, scaler, cfg, on_session=save).state
    resumed, _, _ = checkpoint.load_checkpoint(path)
    trainer.train_session(resumed, *plan.training_arrays(3), cfg)
    _assert_same_state(resumed, whole)
    assert whole.session == 3 and all(a.step_count > 0 for a in whole.adam.values())


def test_load_writes_into_optimizer_buffers_and_training_continues(tmp_path):
    # loading keeps the fresh state's leaves and writes the parameters, Adam
    # moments and step counts into its optimizer in place, so Adam steps the
    # tensors the forward pass reads: session 3 from the file equals session
    # 3 of the in-memory state
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=2)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    for name, params in components(loaded.bundle).items():
        assert all(t.value.base is loaded.adam[name].buffer for t in params.values())
        assert loaded.adam[name].step_count == state.adam[name].step_count > 0
        assert loaded.adam[name].m.tobytes() == state.adam[name].m.tobytes()
        assert loaded.adam[name].v.tobytes() == state.adam[name].v.tobytes()
    assert all(t.grad is None for t in loaded.bundle.frozen_encoder.values())

    before = {name: loaded.adam[name].buffer.copy() for name in loaded.adam}
    x, y, ids = plan.training_arrays(3)
    ra = trainer.train_session(state, x, y, ids, cfg)
    rb = trainer.train_session(loaded, x, y, ids, cfg)
    assert ra.epoch_losses == rb.epoch_losses
    for name in components(state.bundle):
        assert state.adam[name].buffer.tobytes() == loaded.adam[name].buffer.tobytes()
        assert not np.array_equal(before[name], loaded.adam[name].buffer)
    xt = plan.test_arrays(3)[0]
    assert np.array_equal(predict(state.bundle, xt), predict(loaded.bundle, xt))


def test_load_draws_no_init(tmp_path, monkeypatch):
    # the loaded state is built from the stored arrays: no random weights
    # are drawn only to be overwritten
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)

    def forbidden(*args, **kwargs):
        raise AssertionError("a checkpoint load drew a random init")

    for module, name in ((models, "init_bundle"), (trainer, "init_bundle"),
                         (trainer, "new_state"), (checkpoint, "init_bundle"),
                         (checkpoint, "new_state")):
        monkeypatch.setattr(module, name, forbidden, raising=False)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    _assert_same_state(state, loaded)


@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[-0.0]]))
@example(np.array([[5e-324, -2.2250738585072e-308, 1e308, -1e308, -0.0]]))
def test_array_payload_round_trips_bit_for_bit(a):
    packed = json.loads(json.dumps(checkpoint._pack_array(a)))
    back = checkpoint._unpack_array(packed, "a")
    assert back.dtype == np.float64 and back.shape == a.shape
    assert back.tobytes() == a.tobytes()


def _truncate(d):
    d["f64"] = d["f64"][:-4]


def _bad_base64(d):
    d["f64"] = "!" + d["f64"][1:]


def _non_finite(d):
    d.update(checkpoint._pack_array(np.full(d["shape"], np.nan)))


# a path into the payload -> the array's name in the error
PAYLOAD_ARRAYS = {
    ("params", "projector", "projector.w0"): "params/projector/projector.w0",
    ("frozen_encoder", "encoder.b1"): "frozen_encoder/encoder.b1",
    ("bank", "features"): "bank/features",
    ("adam", "regressor", "v"): "adam/regressor/v",
}


@pytest.mark.parametrize("keys", PAYLOAD_ARRAYS, ids=list(PAYLOAD_ARRAYS.values()))
@pytest.mark.parametrize("fault, message", [
    (_truncate, "payload of .* bytes does not match shape"),
    (_bad_base64, "bad base64 payload"),
    (_non_finite, "non-finite values"),
], ids=["truncated", "bad_base64", "non_finite"])
def test_malformed_payload_rejected(tmp_path, keys, fault, message):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=2)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    d = payload
    for key in keys:
        d = d[key]
    fault(d)
    path.write_text(json.dumps(payload))
    with pytest.raises(checkpoint.CheckpointError,
                       match=f"{PAYLOAD_ARRAYS[keys]}: {message}"):
        checkpoint.load_checkpoint(path)


def test_layout_read_by_the_benchmark_checks(tmp_path):
    # bench/checks.py reads "session", params/<comp>/<name>/shape and, from
    # session 2 on, frozen_encoder/<name>/shape of every checkpoint
    assert cli.main(["train", "--config", str(SMOKE), "--out", str(tmp_path)]) == 0
    for t in (1, 2, 3):
        path = tmp_path / "magr-seed0" / "checkpoints" / f"session_{t:02d}.json"
        payload = json.loads(path.read_text())
        state, _, _ = checkpoint.load_checkpoint(path)
        assert payload["session"] == t
        assert {comp: {name: d["shape"] for name, d in params.items()}
                for comp, params in payload["params"].items()} == \
            {comp: {name: list(p.value.shape) for name, p in params.items()}
             for comp, params in components(state.bundle).items()}
        frozen = payload["frozen_encoder"]
        if t >= 2:
            assert {name: d["shape"] for name, d in frozen.items()} == \
                {name: list(p.value.shape) for name, p in state.bundle.encoder.items()}


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _saved_states(draw):
    """A config and a state of it with drawn parameter values, RNG
    positions and session, a frozen encoder or none, and a non-empty bank
    of arbitrary finite features and scores, stored and last refreshed in
    sessions no later than the state's."""
    cfg = _cfg(seed=draw(st.integers(0, 2**16)), m=draw(st.integers(1, 6)))
    state = trainer.new_state(cfg, 8)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.floats(1e-300, 1e300))
    for params in components(state.bundle).values():
        for p in params.values():
            p.value[...] = rng.standard_normal(p.value.shape) * scale
    if draw(st.booleans()):
        freeze_copy(state.bundle)
    for g in state.rngs.values():
        g.standard_normal(draw(st.integers(0, 5)))
    state.session = draw(st.integers(1, 9))
    state.bank.refresh_epoch = draw(st.integers(0, state.session))  # a refresh is no later
    for t in range(draw(st.integers(1, 4))):
        state.bank.entries.append(FeatureRecord(
            feature=np.array(draw(st.lists(_any_float, min_size=12, max_size=12))),
            score=draw(_any_float), session=min(t + 1, state.session),
            sample_id=draw(st.text(max_size=6))))
    return cfg, state, data.ScoreScaler(lo=-1.5, hi=draw(st.floats(0.0, 1e6)))


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_saved_states())
def test_save_load_save_is_byte_identical(tmp_path_factory, saved):
    cfg, state, scaler = saved
    first, second = (tmp_path_factory.mktemp("ckpt") / "c.json" for _ in range(2))
    checkpoint.save_checkpoint(first, state, scaler, cfg)
    loaded, loaded_scaler, loaded_cfg = checkpoint.load_checkpoint(first)
    checkpoint.save_checkpoint(second, loaded, loaded_scaler, loaded_cfg)
    assert second.read_bytes() == first.read_bytes()


def test_failed_save_keeps_previous_file(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    good = path.read_bytes()
    # the bank is serialized after the parameters, so this fails midway
    state.bank.entries[-1].score = object()
    with pytest.raises(TypeError):
        checkpoint.save_checkpoint(path, state, scaler, cfg)
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


def test_rng_streams_restored(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    for name in state.rngs:
        a = state.rngs[name].standard_normal(5)
        b = loaded.rngs[name].standard_normal(5)
        assert np.array_equal(a, b)


def test_feature_mode_checkpoint(tmp_path):
    ds = data.generate_synthetic(data.DataConfig(
        n=40, d_x=6, T=2, shots=4, seed=1))
    feats = data.Dataset(samples=ds.samples, input_width=6,
                         score_range=ds.score_range, feature_mode=True)
    plan, scaler = data.normalize_scores(data.grade_split(feats, T=2, shots=4, seed=1))
    cfg = _cfg(epochs=1)
    state = trainer.new_state(cfg, plan.input_width, feature_mode=True)
    x, y, ids = plan.training_arrays(1)
    trainer.train_session(state, x, y, ids, cfg)
    path = tmp_path / "fm.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    assert loaded.bundle.encoder is None
    xt = plan.test_arrays(1)[0]
    assert np.array_equal(predict(state.bundle, xt), predict(loaded.bundle, xt))


def test_version_mismatch_rejected(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    # 1 is the float-list format, which is no longer read
    for version in (99, 1):
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(checkpoint.CheckpointError,
                           match=f"checkpoint format {version} is not the supported"):
            checkpoint.load_checkpoint(path)


def test_tampered_shape_rejected(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    payload["params"]["projector"]["projector.w0"] = checkpoint._pack_array(np.zeros((3, 3)))
    path.write_text(json.dumps(payload))
    with pytest.raises(checkpoint.CheckpointError, match="spec|shape"):
        checkpoint.load_checkpoint(path)


def test_tampered_param_names_rejected(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    payload["params"]["projector"]["projector.w9"] = \
        payload["params"]["projector"].pop("projector.w0")
    path.write_text(json.dumps(payload))
    with pytest.raises(checkpoint.CheckpointError, match="parameter names"):
        checkpoint.load_checkpoint(path)


def test_missing_component_rejected(tmp_path):
    # a component the spec has must be stored: none of its weights is drawn
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    payload["params"]["encoder"] = None
    path.write_text(json.dumps(payload))
    with pytest.raises(checkpoint.CheckpointError, match="parameter names for encoder"):
        checkpoint.load_checkpoint(path)


def test_unknown_config_field_rejected(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    payload["config"]["mystery_knob"] = 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown train config"):
        checkpoint.load_checkpoint(path)


# SHA-256 of each session checkpoint that `mreplay train --config
# configs/smoke.json` writes in format 2, raw float64 payloads
SMOKE_CHECKPOINTS = {
    "session_01.json": "afbae32636e5c9db1fa8104853e7fc9656785b3a9f8d5e832377210c6ef94ce0",
    "session_02.json": "b4b8280030d9a384a177045f6cb9b2314cd7ae7497368a9e61f07847d4842947",
    "session_03.json": "e7a9a6940aeb47fdad2d7256bb798f6e8fcd7b58b04d02330c45480ce3380739",
}


def test_smoke_checkpoints_match_recorded_bytes(tmp_path):
    assert cli.main(["train", "--config", str(SMOKE), "--out", str(tmp_path)]) == 0
    written = sorted((tmp_path / "magr-seed0" / "checkpoints").iterdir())
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == SMOKE_CHECKPOINTS
