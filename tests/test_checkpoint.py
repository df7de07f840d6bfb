"""Checkpoint round-trips: bit-exact restore, resume equivalence, tampering."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mreplay.autodiff as ad
from mreplay import checkpoint, cli, data, trainer
from mreplay.memory import FeatureRecord
from mreplay.models import components, encode, freeze_copy, predict


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


def test_round_trip_bit_exact(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, loaded_scaler, loaded_cfg = checkpoint.load_checkpoint(path)

    assert loaded_cfg == cfg
    assert loaded_scaler == scaler
    assert loaded.session == state.session
    for comp in components(state.bundle):
        pa, pb = components(state.bundle)[comp], components(loaded.bundle)[comp]
        assert set(pa) == set(pb)
        for k in pa:
            assert np.array_equal(pa[k].value, pb[k].value)
    assert set(loaded.bundle.frozen_encoder) == set(state.bundle.frozen_encoder)
    for name, t in state.bundle.frozen_encoder.items():
        assert np.array_equal(t.value, loaded.bundle.frozen_encoder[name].value)
    assert loaded.bank.size == state.bank.size
    assert loaded.bank.capacity == state.bank.capacity
    assert loaded.bank.refresh_epoch == state.bank.refresh_epoch
    for a, b in zip(state.bank.entries, loaded.bank.entries):
        assert np.array_equal(a.feature, b.feature)
        assert a.score == b.score and a.session == b.session
        assert a.sample_id == b.sample_id

    x = plan.test_arrays(2)[0]
    assert np.array_equal(predict(state.bundle, x), predict(loaded.bundle, x))


def test_has_frozen_key_of_older_files_ignored(tmp_path):
    # format 1 files once carried a redundant "has_frozen" flag beside
    # "frozen_encoder"; it is no longer written, and loading ignores it
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
            assert np.array_equal(encode(state.bundle, ad.leaf(x), frozen=True).value,
                                  encode(loaded.bundle, ad.leaf(x), frozen=True).value)
        else:
            assert loaded.bundle.frozen_encoder is None


def test_resume_training_is_bit_exact(tmp_path):
    # optimizer moments are not part of the format, so resumption is defined
    # as: any two loads of the same file continue identically
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=2)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    first, _, _ = checkpoint.load_checkpoint(path)
    second, _, _ = checkpoint.load_checkpoint(path)

    x, y, ids = plan.training_arrays(3)
    ra = trainer.train_session(first, x, y, ids, cfg)
    rb = trainer.train_session(second, x, y, ids, cfg)

    assert ra.epoch_losses == rb.epoch_losses
    for comp in components(first.bundle):
        pa, pb = components(first.bundle)[comp], components(second.bundle)[comp]
        for k in pa:
            assert np.array_equal(pa[k].value, pb[k].value)
    for a, b in zip(first.bank.entries, second.bank.entries):
        assert np.array_equal(a.feature, b.feature)


def test_load_writes_into_optimizer_buffers_and_training_continues(tmp_path):
    # loading keeps the fresh state's leaves and writes into the flat
    # buffers their values view, so Adam steps the tensors the forward pass
    # reads: session 3 from the file equals session 3 of the in-memory state
    # given the same fresh optimizer state
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=2)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    for name, params in components(loaded.bundle).items():
        assert all(t.value.base is loaded.adam[name].buffer for t in params.values())
        assert loaded.adam[name].step_count == 0
    assert all(not t.needs_grad for t in loaded.bundle.frozen_encoder.values())

    state.adam = {name: ad.adam_init(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
                  for name, params in components(state.bundle).items()}
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


_any_float = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _saved_states(draw):
    """A config and a state of it with drawn parameter values, RNG
    positions and session, a frozen encoder or none, and a non-empty bank
    of arbitrary finite features and scores."""
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
    state.bank.refresh_epoch = draw(st.integers(0, 9))
    for t in range(draw(st.integers(1, 4))):
        state.bank.entries.append(FeatureRecord(
            feature=np.array(draw(st.lists(_any_float, min_size=12, max_size=12))),
            score=draw(_any_float), session=t + 1, sample_id=draw(st.text(max_size=6))))
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
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(checkpoint.CheckpointError, match="format"):
        checkpoint.load_checkpoint(path)


def test_tampered_shape_rejected(tmp_path):
    plan, scaler = _plan()
    cfg = _cfg()
    state = _trained_state(plan, cfg, sessions=1)
    path = tmp_path / "ckpt.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    payload = json.loads(path.read_text())
    payload["params"]["projector"]["projector.w0"]["shape"] = [3, 3]
    payload["params"]["projector"]["projector.w0"]["data"] = [0.0] * 9
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
# configs/smoke.json` writes, recorded when checkpoints were written by
# `json.dump`; the C encoder behind `json.dumps` must give the same bytes
SMOKE_CHECKPOINTS = {
    "session_01.json": "75931f7986fb145cd76aa2b0ab2e3b4a841d7cecd55cde6c015eea0c6c22323a",
    "session_02.json": "5c5d4c21bb3d55edcc06f78802ed9b565176ac1b6831eebe9a1f618b473c70cb",
    "session_03.json": "7b59a2bda790a670ead66679e4e0e0bdf8b4546aa377e7df4e3db634d81b7a3d",
}


def test_smoke_checkpoints_match_recorded_bytes(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path)]) == 0
    written = sorted((tmp_path / "magr-seed0" / "checkpoints").iterdir())
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in written} == SMOKE_CHECKPOINTS
