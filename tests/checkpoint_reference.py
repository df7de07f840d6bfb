"""A checkpoint file as ``json.dumps`` writes it, as the reference for
``checkpoint.save_checkpoint``.

This is how ``save_checkpoint`` wrote every file before it spliced the
arrays' payloads into the dump: the format-2 payload is built field by
field, each array as ``{"shape": [...], "f64": "<base64>"}`` of its
little-endian float64 bytes in C order, and the whole payload goes through
``json.dumps`` once. ``save_checkpoint`` must write these bytes for any
state.
"""
from __future__ import annotations

import base64
import json
from dataclasses import asdict

import numpy as np

from mreplay.models import components


def _array(a) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f64": base64.b64encode(a.tobytes()).decode("ascii")}


def _params(params) -> dict | None:
    return None if params is None else {name: _array(p.value) for name, p in params.items()}


def dump(state, scaler, config) -> bytes:
    """The bytes of the checkpoint file of ``state``, ``scaler`` and
    ``config``."""
    b, entries = state.bundle, state.bank.entries
    spec = b.spec
    payload = {
        "format_version": 2,
        "session": state.session,
        "config": asdict(config),
        "scaler": {"lo": scaler.lo, "hi": scaler.hi},
        "spec": {"encoder": None if spec.encoder is None else list(spec.encoder.widths),
                 "projector": list(spec.projector.widths),
                 "trunk": list(spec.trunk.widths)},
        "params": {"encoder": _params(b.encoder), "projector": _params(b.projector),
                   "regressor": _params(b.regressor)},
        "frozen_encoder": _params(b.frozen_encoder),
        "bank": {
            "capacity": state.bank.capacity,
            "refresh_epoch": state.bank.refresh_epoch,
            "features": _array(np.stack([r.feature for r in entries]) if entries else
                               np.empty((0, 0))),
            "scores": [r.score for r in entries],
            "sessions": [r.session for r in entries],
            "ids": [r.sample_id for r in entries],
        },
        "adam": {name: {"m": _array(state.adam[name].m), "v": _array(state.adam[name].v),
                        "step_count": state.adam[name].step_count}
                 for name in components(b)},
        "rng": {name: json.dumps(g.bit_generator.state) for name, g in state.rngs.items()},
    }
    return (json.dumps(payload) + "\n").encode()
