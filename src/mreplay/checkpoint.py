"""Versioned JSON checkpoints for a training run.

One file holds the component specs, the parameter arrays, the frozen
encoder copy, the memory bank, each component's Adam moments and step
count, the score scaler, the train config, and the RNG stream states.
Every array is stored as ``{"shape": [...], "f64": "<base64>"}``: the
little-endian float64 bytes in C order, base64-encoded, so save -> load ->
evaluate is bit-exact and no array passes through float text. The bank's
features are one (size, D) matrix beside lists of its scores, sessions
and ids. A file is ``json.dumps`` of its payload, each array's base64
spliced into the dump rather than scanned by it, and is written beside
its target and then moved over it, so a failed save leaves the previous
file intact.

A load has two steps. ``_decode`` parses and checks a file's bytes into
read-only contents, which ``data.kept`` keeps beside the bytes until
other checkpoint bytes are read, so a process decodes a file once however
often it loads it. ``_build`` then makes a new state from the contents on
every load (``trainer.bound_state``): each component's Adam buffer a copy
of the stored parameters, which the bundle's parameters view, beside
copies of the stored moments and the step count, the frozen copy, the
bank and the RNG streams at their stored states. No random init is drawn
and no array is shared with the kept contents or another load's state,
so training on from a loaded checkpoint reproduces the uninterrupted run
bit for bit.

A payload that is not base64, does not fill its shape or holds a
non-finite value raises ``CheckpointError`` naming the array; so does a
file of another format version, such as format 1's float lists. A file
that is no JSON, a root that is no object, and a missing or faulty field
at any depth raise it naming the file and the field, a nested one by its
dotted path (``adam.regressor.step_count``). The stored train config is
checked field by field, as a config file is, and so are the session, the
scaler's bounds, the bank's capacity and refresh epoch, which is no later
than the session, and each component's step count. The bank's columns
are checked whole: finite float scores, int sessions from 1 to the
session, and str ids. The RNG streams must be exactly those of a state,
each at a state its bit generator accepts.
"""
from __future__ import annotations

import binascii
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import ScoreScaler, atomic_write, check_field, config_from_dict, kept
from .memory import FeatureRecord, MemoryBank
from .models import BundleSpec, generator_at, param_shapes
from .trainer import TrainConfig, TrainState, bound_state, bundle_spec_for

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def _encoded(a: np.ndarray) -> tuple[list, bytes]:
    """The shape of ``a`` and the base64 of its little-endian float64 bytes
    in C order."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return list(a.shape), binascii.b2a_base64(a, newline=False)


def _pack_array(a: np.ndarray) -> dict:
    shape, encoded = _encoded(a)
    return {"shape": shape, "f64": encoded.decode("ascii")}


def _unpack_array(d: dict, where: str) -> np.ndarray:
    """The float64 array that ``d``, a ``_pack_array`` object, holds, read
    only; ``where`` names it in an error."""
    shape = d["shape"]
    try:
        raw = binascii.a2b_base64(d["f64"], strict_mode=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError
        raise CheckpointError(f"{where}: bad base64 payload: {e}") from None
    if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape) or \
            len(raw) != 8 * math.prod(shape):
        raise CheckpointError(f"{where}: payload of {len(raw)} bytes does not "
                              f"match shape {shape}")
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False).reshape(shape)
    a.flags.writeable = False
    if not np.isfinite(a).all():
        raise CheckpointError(f"{where}: non-finite values")
    return a


def _pack_spec(spec: BundleSpec) -> dict:
    return {
        "encoder": None if spec.encoder is None else list(spec.encoder.widths),
        "projector": list(spec.projector.widths),
        "trunk": list(spec.trunk.widths),
    }


# the JSON of an f64 field whose payload ``save_checkpoint`` splices in
_SPLICE = b'"f64": ""'


def save_checkpoint(path, state: TrainState, scaler: ScoreScaler,
                    config: TrainConfig) -> None:
    """Write ``json.dumps`` of the checkpoint payload and a newline to
    ``path``, atomically. JSON would scan every base64 payload character
    by character for escapes it never needs, so each array is dumped with
    an empty ``f64`` and its payload spliced in after: every other string
    is escaped, so ``"f64": ""`` occurs in the dump only at an array, and
    in the order the arrays were packed."""
    b = state.bundle
    entries = state.bank.entries
    payloads = []

    def pack(a: np.ndarray) -> dict:
        shape, encoded = _encoded(a)
        payloads.append(encoded)
        return {"shape": shape, "f64": ""}

    def pack_params(params: dict) -> dict:
        return {name: pack(t.value) for name, t in params.items()}

    payload = {
        "format_version": FORMAT_VERSION,
        "session": state.session,
        "config": asdict(config),
        "scaler": {"lo": scaler.lo, "hi": scaler.hi},
        "spec": _pack_spec(b.spec),
        "params": {
            "encoder": None if b.encoder is None else pack_params(b.encoder),
            "projector": pack_params(b.projector),
            "regressor": pack_params(b.regressor),
        },
        "frozen_encoder": None if b.frozen_encoder is None else
        pack_params(b.frozen_encoder),
        "bank": {
            "capacity": state.bank.capacity,
            "refresh_epoch": state.bank.refresh_epoch,
            "features": pack(state.bank.features() if entries else np.empty((0, 0))),
            "scores": [r.score for r in entries],
            "sessions": [r.session for r in entries],
            "ids": [r.sample_id for r in entries],
        },
        "adam": {name: {"m": pack(a.m), "v": pack(a.v), "step_count": a.step_count}
                 for name, a in state.adam.items()},
        "rng": {name: json.dumps(g.bit_generator.state)
                for name, g in state.rngs.items()},
    }
    # json.dumps runs the C encoder; json.dump to a file never does. Its
    # default ensure_ascii makes the dump ASCII, so it encodes as it is.
    parts = json.dumps(payload).encode("ascii").split(_SPLICE)
    assert len(parts) == len(payloads) + 1, "a splice point is not an array"
    out = [parts[0]]
    for encoded, rest in zip(payloads, parts[1:]):
        out += (_SPLICE[:-1], encoded, b'"', rest)
    out.append(b"\n")
    with atomic_write(path, binary=True) as fh:
        fh.write(b"".join(out))


def _need(d, name: str, path):
    """The last part of the dotted checkpoint field ``name`` in ``d``, or a
    ``CheckpointError`` naming the file and the field."""
    key = name.rpartition(".")[2]
    if not isinstance(d, dict) or key not in d:
        raise CheckpointError(f"{path}: checkpoint field {name!r} is missing")
    return d[key]


def _object(d, name: str, path) -> dict:
    """``_need`` of a checkpoint field that holds an object."""
    value = _need(d, name, path)
    if not isinstance(value, dict):
        raise CheckpointError(f"{path}: checkpoint field {name!r} is not an object")
    return value


def _check(path, name: str, annotation: str, value, least=None):
    """``check_field`` on a checkpoint field, raising ``CheckpointError``."""
    try:
        check_field("checkpoint", name, annotation, value, least)
    except ValueError as e:
        raise CheckpointError(f"{path}: {e}") from None
    return value


def _array(d, name: str, path, where: str, shape=None) -> np.ndarray:
    """The read-only array of the dotted checkpoint field ``name``, which is
    ``d``, of ``shape`` if one is given; ``where`` names it in an error."""
    _need(d, f"{name}.shape", path)
    _need(d, f"{name}.f64", path)
    arr = _unpack_array(d, f"{path}: {where}")
    if shape is not None and arr.shape != shape:
        raise CheckpointError(f"{path}: shape {arr.shape} for {where} does not "
                              f"match {shape}")
    return arr


# the RNG streams of a state, in the order trainer.fresh_state makes them
RNG_STREAMS = ("order", "replay", "eps", "store")


@dataclass(frozen=True)
class _Stored:
    """A checkpoint's checked contents, decoded once per process for the
    same bytes (``data.kept``): each array read-only, and nothing in it
    written after ``_decode``. Every load builds a state of its own from
    them (``_build``)."""

    session: int
    scaler: ScoreScaler
    config: TrainConfig
    spec: BundleSpec
    # component -> its parameters' spans in its flat buffer, the buffer's
    # values, its Adam moments m and v, and its step count
    optimizers: dict[str, tuple[dict, np.ndarray, np.ndarray, np.ndarray, int]]
    frozen: dict[str, np.ndarray] | None
    # capacity, refresh epoch, the (size, D) features, and the scores,
    # sessions and ids of the entries
    bank: tuple[int, int, np.ndarray, list, list, list]
    rngs: dict[str, dict]


def load_checkpoint(path) -> tuple[TrainState, ScoreScaler, TrainConfig]:
    """The state, score scaler and train config a checkpoint file holds.
    Its bytes are decoded and checked once per process (``data.kept``); the
    state is new on every call and shares no array with another's."""
    raw = Path(path).read_bytes()
    stored = kept("checkpoint", raw, lambda: _decode(raw, path))
    return _build(stored), stored.scaler, stored.config


def _decode(raw: bytes, path) -> _Stored:
    """A checkpoint file's bytes, checked and decoded, or a
    ``CheckpointError`` naming the file and the first faulty field."""
    try:
        payload = json.loads(raw)
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError are
        raise CheckpointError(f"{path}: not a JSON checkpoint: {e}") from None
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
    encoder, projector, _ = (_need(packed_spec, f"spec.{name}", path)
                             for name in ("encoder", "projector", "trunk"))
    try:
        # the stored input width, the first of the encoder's or in feature
        # mode the projector's widths
        spec = bundle_spec_for(config, (projector if encoder is None else encoder)[0],
                               encoder is None)
    except (TypeError, LookupError, ValueError):
        spec = None
    if spec is None or _pack_spec(spec) != packed_spec:
        raise CheckpointError(f"{path}: stored spec {packed_spec} does not match "
                              f"config-derived spec {spec and _pack_spec(spec)}")
    shapes = param_shapes(spec)

    def arrays(packed, name: str, comp: str) -> dict[str, np.ndarray]:
        """The checked arrays of the dotted field ``name``, which is
        ``packed``, one per parameter of ``comp`` in ``param_shapes`` order;
        a component the spec lacks is stored as None."""
        if not isinstance(packed, dict | None) or set(packed or ()) != set(shapes[comp] or ()):
            raise CheckpointError(f"{path}: parameter names for "
                                  f"{name.rpartition('.')[2]} do not match the spec")
        where = name.replace(".", "/")
        return {p: _array(packed[p], f"{name}.{p}", path, f"{where}/{p}", shape)
                for p, shape in (shapes[comp] or {}).items()}

    packed_params = _object(payload, "params", path)
    params = {comp: arrays(packed_params.get(comp), f"params.{comp}", comp)
              for comp in shapes}
    packed_adam = _object(payload, "adam", path)
    if set(packed_adam) != {comp for comp, values in params.items() if values}:
        raise CheckpointError(f"{path}: optimizer components {sorted(packed_adam)} do "
                              f"not match the spec")
    optimizers = {}
    for comp, packed in packed_adam.items():
        spans, lo = {}, 0
        for p, value in params[comp].items():
            spans[p] = lo, lo + value.size
            lo += value.size
        values = np.concatenate([value.reshape(-1) for value in params[comp].values()])
        values.flags.writeable = False
        m, v = (_array(_need(packed, f"adam.{comp}.{key}", path), f"adam.{comp}.{key}",
                       path, f"adam/{comp}/{key}", values.shape) for key in ("m", "v"))
        step_count = _check(path, f"adam.{comp}.step_count", "int",
                            _need(packed, f"adam.{comp}.step_count", path), 0)
        optimizers[comp] = spans, values, m, v, step_count
    frozen = _need(payload, "frozen_encoder", path)
    if frozen is not None:
        frozen = arrays(frozen, "frozen_encoder", "encoder")
    return _Stored(session=session, scaler=scaler, config=config, spec=spec,
                   optimizers=optimizers, frozen=frozen,
                   bank=(capacity, refresh_epoch, *_bank_columns(packed_bank, path, session)),
                   rngs=_rng_states(_object(payload, "rng", path), path))


def _bank_columns(packed: dict, path, upto: int) -> tuple:
    """The bank's stored features and its scores, sessions and ids, each
    column checked whole."""
    def column(name: str, kinds: set, ok, want: str) -> list:
        values = _need(packed, f"bank.{name}", path)
        if type(values) is not list or not {type(v) for v in values} <= kinds or \
                not ok(values):
            raise CheckpointError(f"{path}: checkpoint field 'bank.{name}' is not a list "
                                  f"of {want}")
        return values

    features = _array(_need(packed, "bank.features", path), "bank.features", path,
                      "bank/features")
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
    return (features, *columns)


def _rng_states(packed, path) -> dict[str, dict]:
    """Each RNG stream's stored bit-generator state, checked by setting a
    bit generator to it."""
    if set(packed) != set(RNG_STREAMS):
        raise CheckpointError(f"{path}: checkpoint field 'rng' has the streams "
                              f"{sorted(packed)}, not {sorted(RNG_STREAMS)}")
    states, bit_generator = {}, np.random.PCG64(0)
    for name in RNG_STREAMS:
        try:
            states[name] = json.loads(packed[name])
            bit_generator.state = states[name]
        except (TypeError, ValueError, LookupError, OverflowError) as e:
            raise CheckpointError(f"{path}: checkpoint field 'rng.{name}' is not a "
                                  f"generator state: {e}") from None
    return states


def _build(stored: _Stored) -> TrainState:
    """A new state of ``stored``: each component's Adam buffer a copy of
    the stored parameters, which the bundle's parameters view, beside
    copies of the stored moments; the frozen encoder, the bank's features
    and the RNG streams are new too."""
    config = stored.config
    adam = {comp: ad.AdamState(buffer=values.copy(), spans=dict(spans), m=m.copy(), v=v.copy(),
                               grad=np.zeros_like(values), lr=config.lr,
                               weight_decay=config.weight_decay, step_count=step_count)
            for comp, (spans, values, m, v, step_count) in stored.optimizers.items()}
    capacity, refresh_epoch, features, *columns = stored.bank
    bank = MemoryBank(capacity=capacity, refresh_epoch=refresh_epoch, entries=[
        FeatureRecord(feature=row, score=score, session=session, sample_id=sid)
        for row, score, session, sid in zip(features.copy(), *columns)])
    return bound_state(stored.spec, adam, stored.frozen, bank,
                       {name: generator_at(state) for name, state in stored.rngs.items()},
                       stored.session)
