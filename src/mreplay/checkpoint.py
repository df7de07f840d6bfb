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
state in place and restores the frozen copy, so training on
from a loaded checkpoint reproduces the uninterrupted run bit for bit. A
payload that is not base64, does not fill its shape or holds a non-finite
value raises ``CheckpointError`` naming the array; so does a file of another
format version, such as format 1's float lists. A root that is no object
or a missing top-level, scaler or bank field raises it naming the field.
The stored train config is checked field by field, as a config file is,
and so are the session, the scaler's bounds and the bank's capacity and
refresh epoch, which is no later than the session. The bank's columns are
checked whole: finite float scores, int sessions from 1 to the session,
and str ids.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .data import ScoreScaler, atomic_write, check_field, config_from_dict
from .memory import FeatureRecord, MemoryBank
from .models import BundleSpec, MlpSpec, build_bundle, param_shapes
from .trainer import TrainConfig, TrainState, bundle_spec_for, fresh_state

FORMAT_VERSION = 2


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


def _need(d, name: str, path):
    """The last part of the dotted checkpoint field ``name`` in ``d``, or a
    ``CheckpointError`` naming the file and the field."""
    key = name.rpartition(".")[2]
    if not isinstance(d, dict) or key not in d:
        raise CheckpointError(f"{path}: checkpoint field {name!r} is missing")
    return d[key]


def _check(path, name: str, annotation: str, value, least=None):
    """``check_field`` on a checkpoint field, raising ``CheckpointError``."""
    try:
        check_field("checkpoint", name, annotation, value, least)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from None
    return value


def load_checkpoint(path) -> tuple[TrainState, ScoreScaler, TrainConfig]:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: checkpoint root is {type(payload).__name__!r}, "
                              f"not an object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: checkpoint format {version!r} is not the "
                              f"supported version {FORMAT_VERSION}")
    packed_bank = _need(payload, "bank", path)
    session = _check(path, "session", "int", _need(payload, "session", path), 0)
    capacity, refresh_epoch = (_check(path, name, "int", _need(packed_bank, name, path), least)
                               for name, least in (("bank.capacity", 1),
                                                   ("bank.refresh_epoch", 0)))
    if refresh_epoch > session:
        raise CheckpointError(f"{path}: checkpoint field 'bank.refresh_epoch' is "
                              f"{refresh_epoch}, above its session {session}")
    packed_scaler = _need(payload, "scaler", path)
    lo, hi = (_check(path, name, "float", _need(packed_scaler, name, path))
              for name in ("scaler.lo", "scaler.hi"))
    try:
        scaler = ScoreScaler(lo=lo, hi=hi)
    except ValueError as e:
        raise CheckpointError(f"{path}: checkpoint field 'scaler': {e}") from None
    config = config_from_dict(TrainConfig, _need(payload, "config", path), "train")
    packed_spec = _need(payload, "spec", path)
    stored = _unpack_spec(packed_spec)
    spec = bundle_spec_for(config, stored.input_width, stored.encoder is None)
    if _pack_spec(spec) != packed_spec:
        raise CheckpointError(f"{path}: stored spec {packed_spec} does not "
                              f"match config-derived spec {_pack_spec(spec)}")
    packed_params = _need(payload, "params", path)
    for comp_name, shapes in param_shapes(spec).items():
        if set(packed_params.get(comp_name) or ()) != set(shapes or ()):
            raise CheckpointError(f"{path}: parameter names for {comp_name} do "
                                  f"not match the spec")

    def value(name: str, shape: tuple[int, int]) -> np.ndarray:
        comp_name = name.partition(".")[0]
        arr = _unpack_array(packed_params[comp_name][name],
                            f"{path}: params/{comp_name}/{name}")
        if arr.shape != shape:
            raise CheckpointError(f"{path}: shape {arr.shape} for {name} "
                                  f"does not match {shape}")
        return arr

    # the bundle holds the stored arrays, each checked as a tensor holds it,
    # and the optimizer state copies them into its buffer
    state = fresh_state(build_bundle(spec, value), config)
    frozen = _need(payload, "frozen_encoder", path)
    state.bundle.frozen_encoder = None if frozen is None else \
        {name: ad.Param(_unpack_array(d, f"{path}: frozen_encoder/{name}"))
         for name, d in frozen.items()}
    bank = MemoryBank(capacity=capacity, refresh_epoch=refresh_epoch)
    _load_bank(bank, packed_bank, path, session)
    _load_adam(state, _need(payload, "adam", path), path)
    state.bank = bank
    state.session = session
    for name, s in _need(payload, "rng", path).items():
        state.rngs[name].bit_generator.state = json.loads(s)
    return state, scaler, config


def _load_bank(bank: MemoryBank, packed: dict, path, upto: int) -> None:
    """Fill ``bank`` with the stored entries, each column checked whole."""
    def column(name: str, kinds: set, ok, want: str) -> list:
        values = _need(packed, f"bank.{name}", path)
        if type(values) is not list or not {type(v) for v in values} <= kinds or \
                not ok(values):
            raise CheckpointError(f"{path}: checkpoint field 'bank.{name}' is not a list "
                                  f"of {want}")
        return values

    features = _unpack_array(_need(packed, "bank.features", path), f"{path}: bank/features")
    columns = (column("scores", {int, float},
                      lambda vs: all(type(v) is int or math.isfinite(v) for v in vs),
                      "finite floats"),
               column("sessions", {int}, lambda vs: not vs or 1 <= min(vs) and max(vs) <= upto,
                      f"ints from 1 to the session {upto}"),
               column("ids", {str}, lambda vs: True, "strs"))
    if features.ndim != 2 or any(len(c) != features.shape[0] for c in columns):
        raise CheckpointError(f"{path}: bank: features of shape {features.shape} for "
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
