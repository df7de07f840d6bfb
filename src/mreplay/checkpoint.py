"""Versioned JSON checkpoints for a training run.

One file holds the component specs, flat parameter arrays, the frozen
encoder copy, the memory bank, the score scaler, the train config, and the
RNG stream states. Floats are serialized with full round-trip precision,
so save -> load -> evaluate is bit-exact. A file is written beside its
target and then moved over it, so a failed save leaves the previous file
intact. Loading writes the parameters into the fresh state's optimizer
buffers in place and restores the frozen copy as constants. The loader
reads only the keys it needs, so older format-1 files, which also carry a
flag saying whether ``frozen_encoder`` is set, load unchanged.

A checkpoint does not hold the Adam moments or step counts: loading gives
fresh optimizer state, so training on from a loaded checkpoint does not
reproduce an uninterrupted run. Resuming a run exactly needs them in the
format first.
"""
from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .data import ScoreScaler, atomic_write
from .memory import FeatureRecord, MemoryBank
from .models import BundleSpec, MlpSpec, ModelBundle
from .trainer import TrainConfig, TrainState, new_state

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _pack_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape), "data": a.reshape(-1).tolist()}


def _unpack_array(d: dict) -> np.ndarray:
    a = np.array(d["data"], dtype=np.float64).reshape(d["shape"])
    return a


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
    payload = {
        "format_version": FORMAT_VERSION,
        "session": state.session,
        "config": config.to_dict(),
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
            "entries": [{"feature": r.feature.tolist(), "score": r.score,
                         "session": r.session, "id": r.sample_id}
                        for r in state.bank.entries],
        },
        "rng": {name: json.dumps(g.bit_generator.state)
                for name, g in state.rngs.items()},
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> tuple[TrainState, ScoreScaler, TrainConfig]:
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: checkpoint format {version!r} does not "
                              f"match supported version {FORMAT_VERSION}")
    config = TrainConfig.from_dict(payload["config"])
    spec = _unpack_spec(payload["spec"])
    state = new_state(config, spec.input_width, feature_mode=spec.encoder is None)
    bundle: ModelBundle = state.bundle
    if _pack_spec(bundle.spec) != payload["spec"]:
        raise CheckpointError(f"{path}: stored spec {payload['spec']} does not "
                              f"match config-derived spec {_pack_spec(bundle.spec)}")
    for comp_name, packed in payload["params"].items():
        if packed is None:
            continue
        params = getattr(bundle, comp_name)
        if set(packed) != set(params):
            raise CheckpointError(f"{path}: parameter names for {comp_name} do "
                                  f"not match the spec")
        for name, d in packed.items():
            arr = _unpack_array(d)
            if arr.shape != params[name].value.shape:
                raise CheckpointError(f"{path}: shape {arr.shape} for {name} "
                                      f"does not match {params[name].value.shape}")
            # in place: the values are views into the optimizer's buffer;
            # wrapping the array first keeps the tensor's finiteness check
            params[name].value[...] = ad.const(arr, name=name).value
    bundle.frozen_encoder = None if payload["frozen_encoder"] is None else \
        {name: ad.const(_unpack_array(d)) for name, d in payload["frozen_encoder"].items()}
    bank = MemoryBank(capacity=payload["bank"]["capacity"])
    bank.refresh_epoch = payload["bank"]["refresh_epoch"]
    for e in payload["bank"]["entries"]:
        bank.entries.append(FeatureRecord(
            feature=np.array(e["feature"], dtype=np.float64),
            score=e["score"], session=e["session"], sample_id=e["id"]))
    state.bank = bank
    state.session = payload["session"]
    for name, s in payload["rng"].items():
        state.rngs[name].bit_generator.state = json.loads(s)
    scaler = ScoreScaler(lo=payload["scaler"]["lo"], hi=payload["scaler"]["hi"])
    return state, scaler, config
