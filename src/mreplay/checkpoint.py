"""Versioned JSON checkpoints for a training run.

One file holds the component specs, the parameter arrays, the frozen
encoder copy, the memory bank, each component's Adam moments and step
count, the score scaler, the train config, and the RNG stream states.
Every array is stored as ``{"shape": [...], "f64": "<base64>"}``: the
little-endian float64 bytes in C order, base64-encoded, so save -> load ->
evaluate is bit-exact and no array passes through float text. The bank's
features are one (size, D) matrix beside lists of its scores, sessions
and ids. A file is written beside its target and then moved over it, so a
failed save leaves the previous file intact.

Loading builds the bundle from the stored parameters, with no random
init, writes the Adam moments and step counts into its fresh optimizer
state in place and restores the frozen copy as constants, so training on
from a loaded checkpoint reproduces the uninterrupted run bit for bit. A
payload that is not base64, does not fill its shape or holds a non-finite
value raises ``CheckpointError`` naming the array. Format-1 files, which
store arrays as float lists and the bank entry by entry, and hold no Adam
state, still load, with fresh optimizer state; the loader reads only the
keys it needs, so the ``has_frozen`` flag some of them carry is ignored.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .data import ScoreScaler, atomic_write
from .memory import FeatureRecord, MemoryBank
from .models import BundleSpec, MlpSpec, build_bundle, param_shapes
from .trainer import TrainConfig, TrainState, bundle_spec_for, fresh_state

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, FORMAT_VERSION)


class CheckpointError(ValueError):
    pass


def _pack_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f64": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack_array(d: dict, where: str) -> np.ndarray:
    shape = d["shape"]
    try:
        raw = base64.b64decode(d["f64"], validate=True)
    except (binascii.Error, TypeError, ValueError) as e:
        raise CheckpointError(f"{where}: bad base64 payload: {e}") from None
    if not all(isinstance(n, int) and n >= 0 for n in shape) or \
            len(raw) != 8 * math.prod(shape):
        raise CheckpointError(f"{where}: payload of {len(raw)} bytes does not "
                              f"match shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(a).all():
        raise CheckpointError(f"{where}: non-finite values")
    return a


def _unpack_text_array(d: dict, where: str) -> np.ndarray:
    # format 1: the values as a flat list of JSON floats
    return np.array(d["data"], dtype=np.float64).reshape(d["shape"])


def _pack_params(params: dict) -> dict:
    return {name: _pack_array(t.value) for name, t in params.items()}


def _pack_spec(spec: BundleSpec) -> dict:
    return {
        "encoder": None if spec.encoder is None else list(spec.encoder.widths),
        "projector": list(spec.projector.widths),
        "trunk": list(spec.trunk.widths),
    }


def _unpack_spec(d: dict) -> BundleSpec:
    return BundleSpec(
        encoder=None if d["encoder"] is None else MlpSpec(tuple(d["encoder"])),
        projector=MlpSpec(tuple(d["projector"])),
        trunk=MlpSpec(tuple(d["trunk"])),
    )


def save_checkpoint(path, state: TrainState, scaler: ScoreScaler,
                    config: TrainConfig) -> None:
    b = state.bundle
    entries = state.bank.entries
    payload = {
        "format_version": FORMAT_VERSION,
        "session": state.session,
        "config": asdict(config),
        "scaler": {"lo": scaler.lo, "hi": scaler.hi},
        "spec": _pack_spec(b.spec),
        "params": {
            "encoder": None if b.encoder is None else _pack_params(b.encoder),
            "projector": _pack_params(b.projector),
            "regressor": _pack_params(b.regressor),
        },
        "frozen_encoder": None if b.frozen_encoder is None else
        _pack_params(b.frozen_encoder),
        "bank": {
            "capacity": state.bank.capacity,
            "refresh_epoch": state.bank.refresh_epoch,
            "features": _pack_array(state.bank.features() if entries else
                                    np.empty((0, 0))),
            "scores": [r.score for r in entries],
            "sessions": [r.session for r in entries],
            "ids": [r.sample_id for r in entries],
        },
        "adam": {name: {"m": _pack_array(a.m), "v": _pack_array(a.v),
                        "step_count": a.step_count}
                 for name, a in state.adam.items()},
        "rng": {name: json.dumps(g.bit_generator.state)
                for name, g in state.rngs.items()},
    }
    with atomic_write(path) as fh:
        # json.dumps runs the C encoder; json.dump to a file never does
        fh.write(json.dumps(payload) + "\n")


def load_checkpoint(path) -> tuple[TrainState, ScoreScaler, TrainConfig]:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version not in READABLE_VERSIONS:
        raise CheckpointError(f"{path}: checkpoint format {version!r} is not one of "
                              f"the supported versions {READABLE_VERSIONS}")
    unpack = _unpack_array if version == FORMAT_VERSION else _unpack_text_array
    config = TrainConfig.from_dict(payload["config"])
    stored = _unpack_spec(payload["spec"])
    spec = bundle_spec_for(config, stored.input_width, stored.encoder is None)
    if _pack_spec(spec) != payload["spec"]:
        raise CheckpointError(f"{path}: stored spec {payload['spec']} does not "
                              f"match config-derived spec {_pack_spec(spec)}")
    for comp_name, shapes in param_shapes(spec).items():
        if set(payload["params"][comp_name] or ()) != set(shapes or ()):
            raise CheckpointError(f"{path}: parameter names for {comp_name} do "
                                  f"not match the spec")

    def value(name: str, shape: tuple[int, int]) -> np.ndarray:
        comp_name = name.partition(".")[0]
        arr = unpack(payload["params"][comp_name][name],
                     f"{path}: params/{comp_name}/{name}")
        if arr.shape != shape:
            raise CheckpointError(f"{path}: shape {arr.shape} for {name} "
                                  f"does not match {shape}")
        return arr

    # the bundle holds the stored arrays, each checked as a tensor holds it,
    # and the optimizer state copies them into its buffer
    state = fresh_state(build_bundle(spec, value), config)
    state.bundle.frozen_encoder = None if payload["frozen_encoder"] is None else \
        {name: ad.const(unpack(d, f"{path}: frozen_encoder/{name}"))
         for name, d in payload["frozen_encoder"].items()}
    packed_bank = payload["bank"]
    bank = MemoryBank(capacity=packed_bank["capacity"])
    bank.refresh_epoch = packed_bank["refresh_epoch"]
    if version == FORMAT_VERSION:
        _load_bank(bank, packed_bank, f"{path}: bank")
        _load_adam(state, payload["adam"], path)
    else:
        for e in packed_bank["entries"]:
            bank.entries.append(FeatureRecord(
                feature=np.array(e["feature"], dtype=np.float64),
                score=e["score"], session=e["session"], sample_id=e["id"]))
    state.bank = bank
    state.session = payload["session"]
    for name, s in payload["rng"].items():
        state.rngs[name].bit_generator.state = json.loads(s)
    scaler = ScoreScaler(lo=payload["scaler"]["lo"], hi=payload["scaler"]["hi"])
    return state, scaler, config


def _load_bank(bank: MemoryBank, packed: dict, where: str) -> None:
    features = _unpack_array(packed["features"], f"{where}/features")
    columns = packed["scores"], packed["sessions"], packed["ids"]
    if features.ndim != 2 or any(len(c) != features.shape[0] for c in columns):
        raise CheckpointError(f"{where}: features of shape {features.shape} for "
                              f"{', '.join(str(len(c)) for c in columns)} scores, "
                              f"sessions and ids")
    bank.entries = [FeatureRecord(feature=row.copy(), score=score, session=session,
                                  sample_id=sid)
                    for row, score, session, sid in zip(features, *columns)]


def _load_adam(state: TrainState, packed: dict, path) -> None:
    """Write each component's stored moments and step count into its fresh
    ``AdamState`` in place."""
    if set(packed) != set(state.adam):
        raise CheckpointError(f"{path}: optimizer components {sorted(packed)} do not "
                              f"match the spec")
    for name, adam in state.adam.items():
        for key in ("m", "v"):
            where = f"adam/{name}/{key}"
            arr = _unpack_array(packed[name][key], f"{path}: {where}")
            if arr.shape != adam.buffer.shape:
                raise CheckpointError(f"{path}: shape {arr.shape} for {where} does "
                                      f"not match {adam.buffer.shape}")
            getattr(adam, key)[...] = arr
        step_count = packed[name]["step_count"]
        if type(step_count) is not int or step_count < 0:
            raise CheckpointError(f"{path}: adam/{name}/step_count {step_count!r} is "
                                  f"not a count")
        adam.step_count = step_count
