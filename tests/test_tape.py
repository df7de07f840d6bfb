"""The training step's tape on ``configs/smoke.json``: which tensors get a
gradient, and bit identity of whole runs against recorded digests."""
from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mreplay.autodiff as ad
from mreplay import data, trainer
from mreplay.models import components, encode, freeze_copy

SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"

# SHA-256 after each session of the parameters of every component, the
# frozen encoder copy, and the memory bank's features and scores (see
# `_state_digest`), keyed by method, `online`, `lm_stop_grad` and the
# ablation flags set. The flagged magr runs pin each path of the graph
# regularizer (MSE rows, reverse KL over absolute score gaps, blocks only,
# joint only) as the composed primitives computed it. They pin the arithmetic of training, not just its
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
    ("magr", False, True, "reverse_kl", "abs_score_distance"): [
        "e99f7c9ec014e5db90d05079d7a9b4557161406b1322beaf4f6c6bad298f7586",
        "ab43c10a8e4d6056fffb4e9033535136b802c94c4f0120cff49a63ae0d5bca66",
        "248ca053040f00f4942321f4c81ce4fcd90579d012c23dc791b888351980c62d"],
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
    train_cfg = replace(trainer.TrainConfig.from_dict(cfg["train"]), **overrides)
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


def test_backward_reaches_only_trainable_parameters(monkeypatch):
    # the input batch, replayed features, noise draws, targets, score gaps
    # and the frozen snapshot are constants, so a magr step with a full bank
    # gets exactly one gradient per trainable parameter
    plan, _, cfg = _smoke()
    state = trainer.new_state(cfg, plan.input_width)
    returned = []
    real_backward = ad.backward

    def spy(root, seed):
        grads = real_backward(root, seed)
        returned.append(set(grads))
        return grads

    monkeypatch.setattr(ad, "backward", spy)
    trainable = {t for params in components(state.bundle).values() for t in params.values()}
    assert len(trainable) == 14
    for t in (1, 2):
        returned.clear()
        x, y, ids = plan.training_arrays(t)
        trainer.train_session(state, x, y, ids, cfg)
        assert returned
        if t == 1:  # empty bank: the projector is not on the tape yet
            projector = set(state.bundle.projector.values())
            assert all(r == trainable - projector for r in returned)
        else:
            assert all(r == trainable for r in returned)


def test_frozen_encoder_pass_records_no_backward(monkeypatch):
    plan, _, cfg = _smoke()
    state = trainer.new_state(cfg, plan.input_width)
    for t in (1, 2):
        x, y, ids = plan.training_arrays(t)
        trainer.train_session(state, x, y, ids, cfg)
    recorded = []
    real_node = ad._node

    def spy(value, parents, bwd):
        out = real_node(value, parents, bwd)
        recorded.append(out)
        return out

    monkeypatch.setattr(ad, "_node", spy)
    frozen = encode(state.bundle, ad.const(x[:3]), frozen=True)
    assert recorded and all(n._bwd is None and not n._parents for n in recorded)
    assert not frozen.needs_grad
    live = encode(state.bundle, ad.const(x[:3]))
    assert live.needs_grad and live._bwd is not None
    assert all(not p.needs_grad for p in state.bundle.frozen_encoder.values())


def test_magr_step_with_a_full_bank_records_thirteen_nodes(monkeypatch):
    # one node per MLP chain (live encoder, frozen encoder, projector twice),
    # per sampled score (twice), per loss (four), per residual add (twice)
    # and for the weighted total. The composed tape made 40 here, one per
    # primitive; a change that splits a fused node shows up in this count.
    plan, _, cfg = _smoke()
    state = trainer.new_state(cfg, plan.input_width)
    trainer.train_session(state, *plan.training_arrays(1), cfg)
    assert state.bank.size == cfg.m
    freeze_copy(state.bundle)
    calls = []
    real_node = ad._node

    def spy(value, parents, bwd):
        calls.append(parents)
        return real_node(value, parents, bwd)

    monkeypatch.setattr(ad, "_node", spy)
    x, y, _ = plan.training_arrays(2)
    terms = trainer._train_step(state, x[:cfg.b2], y[:cfg.b2], cfg)
    assert None not in terms.values()  # every term of a magr step is on
    assert len(calls) == 13
