"""The training step on ``configs/smoke.json``: which parameters get a
gradient, that the frozen encoder runs forward only, and bit identity of
whole runs against recorded digests."""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mreplay.autodiff as ad
from mreplay import data, trainer
from mreplay.models import components

SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"

# SHA-256 after each session of the parameters of every component, the
# frozen encoder copy, and the memory bank's features and scores (see
# `_state_digest`), keyed by method, `online`, `lm_stop_grad` and the
# ablation flags set. The flagged magr runs pin each path of the graph
# regularizer (MSE rows, blocks only, joint only) as the composed
# primitives computed it. They pin the arithmetic of training, not just its
# outcome: changing the order in which fan-out gradients are summed changes
# them (replaying the tape in creation order instead of depth-first
# post-order does, from session 2 on). Recorded with numpy's OpenBLAS build
# (0.3.31, x86-64); another BLAS may round matrix products differently.
DIGESTS = {
    ("magr", False, True): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "f27b079c8be0ad93e2527c23c94628a6dfdf4b714b9852e7df135630b853a14f",
        "e7e1223d7cbae30ab1c1d76d8ee79e863870cafe516fb73b69393e140b72c490"],
    ("magr", True, True): [
        "6ad35e26edf9e17bfe90b0d13e898a6dd91606f4de4eff3664911f94aeac7680",
        "830c4c380af84627ce9c2c5929a4e48f6f97da95488d7d3278be9ac16f6542e2",
        "ab483d84de676a1783be6574c7dd73c13d4cfdb7396050f4a11de758226b0925"],
    ("magr", False, False): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "01bf6f48c60fea1dc9a27d511918fd23166050b0ab0a60c4a6619c481269cca8",
        "fcb1df92e7fc1ee9ed2fd93d5b885099f2144aff0f777696d94506a1e9c59e3c"],
    ("replay-raw", False, True): [
        "4e7bf55c401141867d675013528b4979ca6e8e5f8dadf0c226629d4488218fe4",
        "dbdccde4e8f65feed07d8d973798d7139ff3c50756ab42e8058ca8722bae3b5a",
        "699721db273d560de870e116602d62dd76a7131347b526d4dbd95e183095d725"],
    ("magr", False, True, "mse_gr"): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "4de24beb2fbd25e3591cdd5419f7172332f493b08e711424ededc1e7cb871cab",
        "4e96894ef2a72ee97588f4b72e822633b692aba98a4bd7ccfe20f0cd9595c459"],
    ("magr", False, True, "no_j_gr"): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "fc5880b91f35200299516e9b109fd11e8d1fac3cb3dd59373f9e4f62acd41ed3",
        "8766f45e9c9e73d70004ca8b7ff8af045f08554b003bf098b67aa7922b6d2842"],
    ("magr", False, True, "no_ii_gr"): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "e9652a0fb175fe773b22abfa82d07700dbb8f6037bcfc153806b841febc3c283",
        "8b610761fa09956e322fe8a3891a6e08594bdfb2c5f4788cf21914ed09062fe6"],
}


def _smoke(**overrides):
    """The smoke config's normalized plan, scaler and train config, built as
    ``mreplay train`` builds them."""
    cfg = json.loads(SMOKE.read_text())
    data_cfg = data.DataConfig(**cfg["data"])
    train_cfg = replace(data.config_from_dict(trainer.TrainConfig, cfg["train"], "train"),
                        **overrides)
    split = data.grade_split(data.generate_synthetic(data_cfg), data_cfg.T,
                             data_cfg.shots, train_cfg.seed)
    plan, scaler = data.normalize_scores(split)
    return plan, scaler, train_cfg


def _state_digest(state) -> str:
    h = hashlib.sha256()
    for _, params in sorted(components(state.bundle).items()):
        for p in params.values():
            h.update(p.value.tobytes())
    for p in (state.bundle.frozen_encoder or {}).values():
        h.update(p.value.tobytes())
    h.update(state.bank.features().tobytes())
    h.update(state.bank.scores().tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda key: "-".join(map(str, key)))
def test_runs_match_recorded_digests(key):
    method, online, lm_stop_grad, *flags = key
    plan, scaler, cfg = _smoke(method=method, online=online,
                               lm_stop_grad=lm_stop_grad, **dict.fromkeys(flags, True))
    digests = []
    trainer.run_continual(plan, scaler, cfg,
                          on_session=lambda state, t: digests.append(_state_digest(state)))
    assert digests == DIGESTS[key]


def _spy_on_sinks(monkeypatch) -> list:
    """Make the step's backward halves record the parameter sinks they are
    handed, and ``adam_update`` the states it updates; returns a list that
    gets each step's (ids of the sinks handed, ids of the states updated)."""
    sinks, steps = [], []
    for name in ("mlp_bwd", "score_bwd"):
        def spy(*args, real=getattr(ad, name)):
            sinks.extend(s for s in args[4] if s is not None)  # the parameter sinks
            return real(*args)

        monkeypatch.setattr(ad, name, spy)
    real_update = ad.adam_update

    def update(states):
        steps.append(({id(s) for s in sinks}, [id(s) for s in states]))
        sinks.clear()
        return real_update(states)

    monkeypatch.setattr(ad, "adam_update", update)
    return steps


def test_backward_reaches_only_trainable_parameters(monkeypatch):
    # the input batch, replayed features, noise draws, targets, score gaps
    # and the frozen snapshot are constants, so a magr step with a full bank
    # writes exactly one gradient per trainable parameter, into its view of
    # its component's flat gradient, and updates every component
    plan, _, cfg = _smoke()
    state = trainer.new_state(cfg, plan.input_width)
    steps = _spy_on_sinks(monkeypatch)
    comps = components(state.bundle)
    trainable = {t for params in comps.values() for t in params.values()}
    assert len(trainable) == 14
    for t in (1, 2):
        steps.clear()
        x, y, ids = plan.training_arrays(t)
        trainer.train_session(state, x, y, ids, cfg)
        assert steps
        for written, updated in steps:
            got = {p for p in trainable if id(p.grad) in written}
            if t == 1:  # empty bank: the projector is not in the step yet
                assert got == trainable - set(comps["projector"].values())
                assert updated == [id(state.adam[name]) for name in ("regressor", "encoder")]
            else:
                assert got == trainable
                assert updated == [id(state.adam[name]) for name in comps]


def test_frozen_encoder_pass_records_no_backward(monkeypatch):
    # session 2's magr steps run the frozen copy forward for the projector
    # loss, but hand no backward half its weights, so it never changes
    plan, _, cfg = _smoke()
    state = trainer.new_state(cfg, plan.input_width)
    trainer.train_session(state, *plan.training_arrays(1), cfg)
    handed = {"mlp_fwd": set(), "mlp_bwd": set(), "score_bwd": set()}
    for name, ids in handed.items():
        def spy(*args, real=getattr(ad, name), ids=ids):
            ids.update(map(id, args[1]))  # the parameter values
            return real(*args)

        monkeypatch.setattr(ad, name, spy)
    trainer.train_session(state, *plan.training_arrays(2), cfg)
    frozen = state.bundle.frozen_encoder
    ids = {id(p.value) for p in frozen.values()}
    assert ids <= handed["mlp_fwd"]
    assert not ids & (handed["mlp_bwd"] | handed["score_bwd"])
    assert all(p.grad is None for p in frozen.values())
