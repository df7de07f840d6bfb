"""Checkpoint round-trips: bit-exact restore, resume equivalence, tampering."""
from __future__ import annotations

import json

import numpy as np
import pytest

import mreplay.autodiff as ad
from mreplay import checkpoint, data, trainer
from mreplay.models import components, encode, predict


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
        x, y, ids = trainer._session_arrays(trainer._training_samples(plan, t))
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

    x = np.stack([s.x for s in plan.test_samples(2)])
    assert np.array_equal(predict(state.bundle, x), predict(loaded.bundle, x))


def test_has_frozen_key_of_older_files_ignored(tmp_path):
    # format 1 files once carried a redundant "has_frozen" flag beside
    # "frozen_encoder"; it is no longer written, and loading ignores it
    plan, scaler = _plan()
    cfg = _cfg()
    x = np.stack([s.x for s in plan.test_samples(2)])
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

    x, y, ids = trainer._session_arrays(trainer._training_samples(plan, 3))
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
    x, y, ids = trainer._session_arrays(trainer._training_samples(plan, 3))
    ra = trainer.train_session(state, x, y, ids, cfg)
    rb = trainer.train_session(loaded, x, y, ids, cfg)
    assert ra.epoch_losses == rb.epoch_losses
    for name in components(state.bundle):
        assert state.adam[name].buffer.tobytes() == loaded.adam[name].buffer.tobytes()
        assert not np.array_equal(before[name], loaded.adam[name].buffer)
    xt = np.stack([s.x for s in plan.test_samples(3)])
    assert np.array_equal(predict(state.bundle, xt), predict(loaded.bundle, xt))


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
    x, y, ids = trainer._session_arrays(trainer._training_samples(plan, 1))
    trainer.train_session(state, x, y, ids, cfg)
    path = tmp_path / "fm.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    assert loaded.bundle.encoder is None
    xt = np.stack([s.x for s in plan.test_samples(1)])
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
