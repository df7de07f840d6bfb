"""Session loop: method switches, loss-term activation, config knobs, determinism."""
from __future__ import annotations

import copy
import json
import os
import pickle
import time
from contextlib import closing
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mreplay import autodiff as ad
from mreplay import data, metrics, trainer
from mreplay.models import ModelBundle, components, encode, init_bundle


def _plan(n=60, T=3, shots=5, d_x=8, seed=0):
    ds = data.generate_synthetic(data.DataConfig(
        n=n, d_x=d_x, T=T, shots=shots, noise_x=0.05, drift=0.3, seed=seed))
    plan = data.grade_split(ds, T=T, shots=shots, seed=seed)
    return data.normalize_scores(plan)


def _stacked(samples):
    """Inputs and scores of ``samples``, stacked apart from the plan's arrays."""
    return np.stack([s.x for s in samples]), np.array([s.score for s in samples])


def _cfg(**kw):
    base = dict(method="magr", epochs=3, b1=5, b2=3, m=4, seed=0)
    base.update(kw)
    return trainer.TrainConfig(**base)


def _two_sessions(**kw):
    """State and session-2 report after two one-epoch sessions."""
    plan, _ = _plan()
    cfg = _cfg(epochs=1, **kw)
    state = trainer.new_state(cfg, plan.input_width)
    for t in (1, 2):
        x, y, ids = plan.training_arrays(t)
        report = trainer.train_session(state, x, y, ids, cfg)
    return state, report


# ---------------------------------------------------------- method switches


def test_resolve_magr_everything_on():
    # magr keeps memory, the projector and both graph terms; its preset
    # leaves the flags as they are
    state, report = _two_sessions()
    assert state.bank.size > 0 and state.bank.refresh_epoch == 2
    assert state.bank.features().shape[1] == 16  # features, not raw inputs
    assert all(report.step_terms[0][k] is not None
               for k in ("l_d", "l_m", "l_p", "l_r"))
    assert trainer._preset(_cfg()) == _cfg()


def test_resolve_baselines():
    # methods are presets over the ablation flags: only memory and raw
    # storage are spelled by the method string
    for method in ("sequential-ft", "joint"):
        state, report = _two_sessions(method=method)
        assert state.bank.size == 0
        assert all(t["l_m"] is None and t["l_r"] is None for t in report.step_terms)
    for method, width in (("replay-raw", 8), ("replay-feature-naive", 16)):
        # no_residual is moot once the preset removes the projector
        state, report = _two_sessions(method=method, no_residual=True)
        assert all(t["l_m"] is not None and t["l_p"] is None and t["l_r"] is None
                   for t in report.step_terms)
        assert state.bank.refresh_epoch == 0
        assert state.bank.features().shape[1] == width  # raw inputs vs features
        assert trainer._preset(_cfg(method=method)) == _cfg(
            method=method, no_mp=True, no_ii_gr=True, no_j_gr=True)


def test_resolve_ablation_flags():
    # session 1 never replays, so session 2 starts from the same state and
    # its first step isolates what each flag changes
    magr_state, magr = _two_sessions()
    first = magr.step_terms[0]
    assert magr_state.bank.refresh_epoch == 2
    for flag in ("no_ii_gr", "no_j_gr", "mse_gr"):
        terms = _two_sessions(**{flag: True})[1].step_terms[0]
        assert (terms["l_d"], terms["l_m"], terms["l_p"]) == \
            (first["l_d"], first["l_m"], first["l_p"]), flag
        assert terms["l_r"] is not None and terms["l_r"] != first["l_r"], flag
    assert _two_sessions(no_ii_gr=True, no_j_gr=True)[1].step_terms[0]["l_r"] is None
    assert _two_sessions(no_residual=True)[1].step_terms[0]["l_p"] != first["l_p"]
    state, report = _two_sessions(no_mp=True)
    assert report.step_terms[0]["l_p"] is None and state.bank.refresh_epoch == 0
    state, _ = _two_sessions(random_sampling=True)
    ids = lambda bank: [r.sample_id for r in bank.entries]
    assert ids(state.bank) != ids(magr_state.bank)


def test_config_validation():
    with pytest.raises(ValueError, match="train field 'method' is 'does-not-exist', "
                                         "not one of \\('magr', "):
        _cfg(method="does-not-exist")
    with pytest.raises(ValueError, match="train field 'b1' is 0, not an int >= 1"):
        _cfg(b1=0)
    with pytest.raises(ValueError, match="train field 'epochs' is 0, not an int >= 1"):
        _cfg(epochs=0)
    with pytest.raises(ValueError, match="train field 'm' is 0, not an int >= 1"):
        _cfg(m=0)
    with pytest.raises(ValueError, match="train field 'lr' is 0.0, not a finite float >= 5e-324"):
        _cfg(lr=0.0)
    with pytest.raises(ValueError, match="train field 'no_residual' is True, but no_mp"):
        _cfg(no_mp=True, no_residual=True)


def test_config_dict_round_trip():
    cfg = _cfg(lambda_r=0.5, no_mp=True, encoder_widths=(8, 32, 12),
               projector_widths=(12, 12, 12), trunk_widths=(12, 6))
    d = json.loads(json.dumps(asdict(cfg)))
    assert d["encoder_widths"] == [8, 32, 12]
    back = data.config_from_dict(trainer.TrainConfig, d, "train")
    assert back == cfg
    with pytest.raises(ValueError, match="unknown train config"):
        data.config_from_dict(trainer.TrainConfig, {"method": "magr", "bogus": 1}, "train")


def test_online_mode_caps_epochs():
    assert _cfg(online=True, epochs=40).effective_epochs == 1
    assert _cfg(epochs=40).effective_epochs == 40


# ------------------------------------------------------------ session loop


def test_first_session_uses_regression_only():
    plan, _ = _plan()
    cfg = _cfg(epochs=1)
    state = trainer.new_state(cfg, plan.input_width)
    x, y, ids = plan.training_arrays(1)
    report = trainer.train_session(state, x, y, ids, cfg)
    assert report.session == 1
    for terms in report.step_terms:
        assert terms["l_m"] is None and terms["l_p"] is None and terms["l_r"] is None
        assert terms["total"] == terms["l_d"]
    assert state.bank.size == min(cfg.m, y.size)
    assert state.bank.sessions() == {1}


def test_second_session_activates_replay_terms():
    plan, _ = _plan()
    cfg = _cfg(epochs=1)
    state = trainer.new_state(cfg, plan.input_width)
    for t in (1, 2):
        x, y, ids = plan.training_arrays(t)
        report = trainer.train_session(state, x, y, ids, cfg)
    for terms in report.step_terms:
        assert terms["l_m"] is not None
        assert terms["l_p"] is not None
        assert terms["l_r"] is not None
        assert terms["total"] > 0.0
    assert state.bank.sessions() == {1, 2}
    assert state.bank.refresh_epoch == 2


def test_naive_replay_skips_projector_and_graph_terms():
    plan, _ = _plan()
    cfg = _cfg(method="replay-feature-naive", epochs=1)
    state = trainer.new_state(cfg, plan.input_width)
    for t in (1, 2):
        x, y, ids = plan.training_arrays(t)
        report = trainer.train_session(state, x, y, ids, cfg)
    for terms in report.step_terms:
        assert terms["l_m"] is not None
        assert terms["l_p"] is None and terms["l_r"] is None
    assert state.bank.refresh_epoch == 0  # never refreshed


def test_session_data_validation():
    plan, _ = _plan()
    cfg = _cfg()
    state = trainer.new_state(cfg, plan.input_width)
    with pytest.raises(ValueError, match="inconsistent"):
        trainer.train_session(state, np.ones((3, plan.input_width)),
                              np.ones(2), ["a", "b"], cfg)


def test_early_stopping_by_patience():
    plan, _ = _plan()
    cfg = _cfg(epochs=30, patience=2, min_delta=1e9)
    state = trainer.new_state(cfg, plan.input_width)
    x, y, ids = plan.training_arrays(1)
    report = trainer.train_session(state, x, y, ids, cfg)
    # the first epoch always improves on best=inf, then the streak runs
    assert report.epochs_run == cfg.patience + 1


def test_online_single_pass():
    plan, _ = _plan()
    cfg = _cfg(online=True, epochs=25)
    state = trainer.new_state(cfg, plan.input_width)
    x, y, ids = plan.training_arrays(1)
    report = trainer.train_session(state, x, y, ids, cfg)
    assert report.epochs_run == 1
    assert report.steps == int(np.ceil(y.size / cfg.b2))


# ------------------------------------------------------------- full driver


def test_run_continual_matrix_complete():
    plan, scaler = _plan()
    result = trainer.run_continual(plan, scaler, _cfg(epochs=2))
    T = plan.n_sessions
    assert result.n_sessions == T
    for i in range(1, T + 1):
        for j in range(1, i + 1):
            assert (i, j) in result.matrix.cells
    for t in range(1, T):
        assert (t, t + 1) in result.matrix.cells  # look-ahead
    for t in range(2, T + 1):
        assert t in result.matrix.reference
    assert set(result.matrix.pooled) == set(range(1, T + 1))
    s = result.summary
    assert s["method"] == "magr" and s["seed"] == 0
    assert -1.0 <= s["rho_avg"] <= 1.0
    assert s["rho_aft"] is not None and s["rho_fwt"] is not None
    assert len(result.reports) == T


def test_run_continual_deterministic():
    plan, scaler = _plan()
    a = trainer.run_continual(plan, scaler, _cfg(epochs=2))
    b = trainer.run_continual(plan, scaler, _cfg(epochs=2))
    assert a.summary == b.summary
    assert a.matrix.cells == b.matrix.cells
    for comp in components(a.state.bundle):
        pa = components(a.state.bundle)[comp]
        pb = components(b.state.bundle)[comp]
        for k in pa:
            assert np.array_equal(pa[k].value, pb[k].value)


def test_run_continual_seed_changes_outcome():
    plan, scaler = _plan()
    a = trainer.run_continual(plan, scaler, _cfg(epochs=2, seed=0))
    b = trainer.run_continual(plan, scaler, _cfg(epochs=2, seed=1))
    assert a.summary["rho_avg"] != b.summary["rho_avg"]


def test_joint_runs_one_pooled_session():
    plan, scaler = _plan()
    result = trainer.run_continual(plan, scaler, _cfg(method="joint", epochs=2))
    T = plan.n_sessions
    assert len(result.reports) == 1
    n_train = sum(len(plan.training_arrays(t)[1]) for t in range(1, T + 1))
    assert result.reports[0].steps == result.reports[0].epochs_run * \
        int(np.ceil(n_train / 3))
    for j in range(1, T + 1):
        assert (T, j) in result.matrix.cells
    assert result.summary["rho_aft"] is None
    assert result.summary["rho_fwt"] is None
    assert -1.0 <= result.summary["rho_avg"] <= 1.0


def test_naive_method_equals_flagged_magr_bit_exact():
    plan, scaler = _plan()
    naive = trainer.run_continual(plan, scaler,
                                  _cfg(method="replay-feature-naive", epochs=2))
    flagged = trainer.run_continual(plan, scaler,
                                    _cfg(no_mp=True, no_ii_gr=True,
                                         no_j_gr=True, epochs=2))
    assert naive.matrix.cells == flagged.matrix.cells
    assert naive.summary["rho_avg"] == flagged.summary["rho_avg"]
    for comp in components(naive.state.bundle):
        pn = components(naive.state.bundle)[comp]
        pf = components(flagged.state.bundle)[comp]
        for k in pn:
            assert np.array_equal(pn[k].value, pf[k].value)


def test_on_session_hook_called_in_order():
    plan, scaler = _plan()
    seen = []
    trainer.run_continual(plan, scaler, _cfg(epochs=1),
                          on_session=lambda state, t: seen.append(t))
    assert seen == [1, 2, 3]
    seen.clear()
    trainer.run_continual(plan, scaler, _cfg(method="joint", epochs=1),
                          on_session=lambda state, t: seen.append(t))
    assert seen == [1]


def test_bank_growth_capped_by_m():
    plan, scaler = _plan()
    result = trainer.run_continual(plan, scaler, _cfg(epochs=1, m=4))
    expected = sum(min(4, len(plan.training_arrays(t)[1]))
                   for t in range(1, plan.n_sessions + 1))
    assert result.state.bank.size == expected


def test_evaluate_on_denormalizes():
    plan, scaler = _plan()
    cfg = _cfg(epochs=1)
    state = trainer.new_state(cfg, plan.input_width)
    truth, pred = trainer.evaluate_on(state.bundle, *plan.test_arrays(1), scaler)
    raw_scores = plan.test_arrays(1)[1]
    assert truth.min() >= scaler.denormalize(min(raw_scores)) - 1e-9
    assert truth.max() <= scaler.denormalize(max(raw_scores)) + 1e-9
    assert truth.shape == pred.shape


def test_reference_seed_distinct():
    assert trainer._reference_seed(0) == 1
    assert trainer._reference_seed(3) == 7
    for s in range(50):
        assert trainer._reference_seed(s) != s


def feature_deviation(bundle_a: ModelBundle, bundle_b: ModelBundle, x) -> float:
    """Mean squared entrywise gap between the two encoders' features."""
    fa = encode(bundle_a, x)
    fb = encode(bundle_b, x)
    if fa.shape != fb.shape:
        raise ad.ShapeError(f"feature shapes differ: {fa.shape} vs {fb.shape}")
    return float(((fa - fb) ** 2).mean())


def test_feature_deviation():
    plan, _ = _plan()
    cfg = _cfg()
    a = trainer.new_state(cfg, plan.input_width).bundle
    b = trainer.new_state(cfg, plan.input_width).bundle
    x = plan.test_arrays(1)[0]
    assert feature_deviation(a, b, x) == 0.0
    c = trainer.new_state(_cfg(seed=9), plan.input_width).bundle
    assert feature_deviation(a, c, x) > 0.0


# ---------------------------------------------------- shared first session

# one value other than the default for each field session 1 never reads
SESSION_1_VARIED = {"m": 2, "no_mp": True, "no_residual": True, "no_ii_gr": True,
                    "no_j_gr": True, "mse_gr": True, "random_sampling": True,
                    "lambda_p": 0.3, "lambda_r": 0.5, "b1": 2, "lm_stop_grad": True,
                    "classic_forgetting": True}


def _state_bytes(state) -> list:
    """Session, RNG states, parameters and Adam buffers and step counts of
    ``state``, with arrays as bytes."""
    out = [state.session, {k: g.bit_generator.state for k, g in state.rngs.items()}]
    for name, params in components(state.bundle).items():
        adam = state.adam[name]
        assert all(p.value.base is adam.buffer for p in params.values())
        out += [{k: p.value.tobytes() for k, p in params.items()}, adam.buffer.tobytes(),
                adam.m.tobytes(), adam.v.tobytes(), adam.step_count]
    return out


def _run_bytes(result) -> list:
    """Everything a run returns, with arrays as bytes."""
    st = result.state
    out = [repr(result.summary), repr(result.matrix.cells), repr(result.matrix.pooled),
           repr(result.matrix.reference), st.bank.capacity, st.bank.refresh_epoch,
           [(r.feature.tobytes(), r.score, r.session, r.sample_id)
            for r in st.bank.entries],
           repr([(r.steps, r.step_terms, r.epoch_losses) for r in result.reports])]
    out += _state_bytes(st)
    out.append({k: p.value.tobytes()
                for k, p in (st.bundle.frozen_encoder or {}).items()})
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_run_many_equals_independent_runs(seed):
    # every method and every field session 1 never reads share one first
    # session, apart from joint; held_out_only opens a second key in between.
    # Each independent run gets a fresh plan, so it trains its own first
    # session instead of reading the shared plan's memo
    assert set(SESSION_1_VARIED) == set(trainer.SESSION_1_FREE)
    plan, scaler = _plan()
    base = _cfg(epochs=2, seed=seed, lr=1e-3)
    configs = [replace(base, method=m) for m in trainer.METHODS]
    configs += [replace(base, **{k: v}) for k, v in SESSION_1_VARIED.items()]
    configs.insert(3, replace(base, held_out_only=True))
    with closing(trainer.run_many(plan, scaler, configs)) as shared:
        for config in configs:
            alone = trainer.run_continual(*_plan(), config)
            assert _run_bytes(next(shared)) == _run_bytes(alone), config
        assert next(shared, None) is None


def test_lanes_share_their_step_and_epoch_counts():
    # _train_lanes steps a group's lanes on one batch size and one epoch
    # count, so the fields that set them must stay part of the lane key
    assert not {"b2", "epochs", "online"} & set(trainer.SESSION_1_FREE)
    base = _cfg()
    lanes = [replace(base, **{k: v}) for k, v in SESSION_1_VARIED.items()]
    others = [replace(base, b2=4), replace(base, epochs=7), replace(base, online=True)]
    for a in [base, *lanes, *others]:
        for b in [base, *lanes, *others]:
            if trainer._lane_key(a) == trainer._lane_key(b):
                assert (a.b2, a.effective_epochs) == (b.b2, b.effective_epochs)
    assert len({trainer._lane_key(c) for c in [base, *others]}) == 4


# fields a lane of a group may set apart from the others, and values for them
LANE_FIELDS = {**{flag: [False, True] for flag in trainer.ABLATION_FLAGS},
               "lm_stop_grad": [False, True], "classic_forgetting": [False, True],
               "lambda_p": [0.0, 0.3, 1.0, 2.5],
               "lambda_r": [0.0, 0.5, 1.0, 3.0]}


@st.composite
def _lane_configs(draw):
    """Configs for one run_many call on a small plan: mostly magr with random
    lane fields, and some other methods. At random places after the first
    there may be a magr lane with a lambda_p of 1e308, whose gradient
    overflows in session 2, and two configs with an lr of 1e22, a group of
    their own, whose weights overflow in session 3. Tiny widths make some
    runs predict a constant, which spearman refuses. Patience 1 with a
    min_delta stops lanes in different epochs and sessions."""
    base = _cfg(epochs=4, patience=1, min_delta=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
                lr=1e-2, encoder_widths=(8, 6, 4), projector_widths=(4, 5, 4),
                trunk_widths=(4, 3))
    configs = []
    for _ in range(draw(st.integers(2, 6))):
        fields = {k: draw(st.sampled_from(v)) for k, v in LANE_FIELDS.items()
                  if draw(st.integers(0, 2)) == 0}
        if fields.get("no_mp"):
            fields["no_residual"] = False
        method = draw(st.sampled_from(["magr"] * 4 + list(trainer.METHODS)))
        configs.append(replace(base, method=method, **fields))
    for failing in ([replace(base, lambda_p=1e308)],
                    [replace(base, lr=1e22), replace(base, lr=1e22, no_j_gr=True)]):
        if draw(st.booleans()):
            at = draw(st.integers(1, len(configs)))
            configs[at:at] = failing
    return configs


def _lane_bytes(result) -> list:
    """``_run_bytes`` and each component's last gradient, as bytes."""
    return _run_bytes(result) + [a.grad.tobytes() for a in result.state.adam.values()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the failing configs overflow
@pytest.mark.parametrize("n", [1, 2])
def test_lanes_equal_their_own_runs_as_bytes(workers, monkeypatch, n):
    # each config of a run_many call, laned with the others of its group,
    # yields the bytes of its own run_continual, or raises its error at its
    # place, after every config before it was yielded
    workers(n)
    widest = []
    real = trainer._train_lanes

    def train_lanes(states, *rest):
        widest.append(len(states))
        return real(states, *rest)

    monkeypatch.setattr(trainer, "_train_lanes", train_lanes)

    @settings(database=None, derandomize=True, max_examples=12, deadline=None)
    @given(_lane_configs())
    def check(configs):
        plan, scaler = _plan(n=40, shots=4)
        alone_plan = _plan(n=40, shots=4)
        runs = trainer.run_many(plan, scaler, configs)
        laned = False
        for config in configs:
            try:
                want = _lane_bytes(trainer.run_continual(*alone_plan, config))
            except Exception as e:  # noqa: BLE001 - the laned run must raise it too
                with pytest.raises(type(e)) as raised:
                    next(runs)
                assert str(raised.value) == str(e)
                assert next(runs, None) is None
                return
            assert _lane_bytes(next(runs)) == want, config
            laned |= config.method != "joint" and sum(
                trainer._lane_key(c) == trainer._lane_key(config) for c in configs) > 1
        assert next(runs, None) is None
        # where every config ran and some shared a group, lanes formed here
        assert n == 2 or not laned or max(widest) > 1

    check()


def _count_sessions(monkeypatch) -> list:
    """(session, method) of every session trained from now on, alone or in
    lockstep with others, and ("fork", method) of every copy of a first
    session."""
    calls = []
    real_train, real_fork = trainer._train_lanes, trainer._fork

    def train(states, configs, *data):
        calls.extend((state.session + 1, config.method)
                     for state, config in zip(states, configs))
        return real_train(states, configs, *data)

    def fork(state, config):
        calls.append(("fork", config.method))
        return real_fork(state, config)

    monkeypatch.setattr(trainer, "_train_lanes", train)
    monkeypatch.setattr(trainer, "_fork", fork)
    return calls


def test_run_many_trains_first_session_once_per_key(monkeypatch, workers):
    # in-process: a worker's calls would never reach this process's count
    workers(1)
    plan, scaler = _plan()
    calls = _count_sessions(monkeypatch)
    configs = [_cfg(epochs=1), _cfg(epochs=1, method="joint"), _cfg(epochs=1, no_mp=True),
               _cfg(epochs=1, seed=1), _cfg(epochs=1, method="replay-raw", m=2)]
    results = list(trainer.run_many(plan, scaler, configs))
    assert [r.method for r in results] == [c.method for c in configs]
    assert [c for c in calls if c[0] == 1] == [(1, "sequential-ft"), (1, "joint"),
                                               (1, "sequential-ft")]
    # every config goes on from a copy; the memoised first session stays.
    # Configs 0 and 2 share a lane group, so they fork together, when 0 is due
    assert [c for c in calls if c[0] == "fork"] == [("fork", configs[i].method)
                                                    for i in (0, 2, 1, 3, 4)]
    assert len(calls) == 5 + 3 + 4 * (plan.n_sessions - 1)


def test_run_continual_trains_each_session_once(monkeypatch):
    plan, scaler = _plan()
    calls = _count_sessions(monkeypatch)
    trainer.run_continual(plan, scaler, _cfg(epochs=1, method="replay-raw"))
    assert calls == [(1, "sequential-ft"), ("fork", "replay-raw"), (2, "replay-raw"),
                     (3, "replay-raw")]
    one = replace(plan, sessions=plan.sessions[:1])
    with pytest.raises(ValueError, match="at least 2 sessions"):
        trainer.run_continual(one, scaler, _cfg())
    with pytest.raises(ValueError, match="at least 2 sessions"):
        trainer.run_many(one, scaler, [_cfg()])  # on the call, before any run


@pytest.mark.parametrize("n", [1, 2])
def test_first_sessions_are_trained_where_their_configs_run(monkeypatch, workers, n):
    # each process trains the first sessions of the keys of the configs it
    # runs, once each, in config order: this one, keeping them in the plan's
    # memo, or only the call's two workers, worker w those of configs w,
    # w + 2, ... (the joint and seed-1 keys' on worker 1)
    forked = workers(n)
    plan, scaler = _plan()
    real = trainer._train_lanes

    def train(states, configs, *data):
        for state, config in zip(states, configs):
            if state.session == 0:
                workers.log.append(config.method, config.seed)
        return real(states, configs, *data)

    monkeypatch.setattr(trainer, "_train_lanes", train)
    configs = [_cfg(epochs=1), _cfg(epochs=1, method="joint"), _cfg(epochs=1, no_mp=True),
               _cfg(epochs=1, seed=1), _cfg(epochs=1, method="replay-raw", m=2)]
    results = list(trainer.run_many(plan, scaler, configs))
    assert [r.method for r in results] == [c.method for c in configs]
    keys = [(k.method, k.seed) for k in map(trainer._first_key, configs)]
    trained = workers.log.by_pid()
    memoised = [(k[1].method, k[1].seed) for k in plan.memo
                if isinstance(k[1], trainer.TrainConfig)]
    if n == 1:
        assert forked == []
        assert trained == {os.getpid(): list(dict.fromkeys(keys))}
        assert memoised == list(dict.fromkeys(keys))
    else:
        assert len(forked) == 2
        assert trained == {pid: list(dict.fromkeys(keys[w::2])) for w, pid in enumerate(forked)}
        assert memoised == []


def test_one_pool_per_call(workers):
    # two keys, interleaved, with two configs each share one pool of two
    forked = workers(2)
    plan, scaler = _plan()
    configs = [_cfg(epochs=2, lr=1e-3), _cfg(epochs=2, lr=1e-3, seed=1),
               _cfg(epochs=2, lr=1e-3, method="replay-raw", m=2),
               _cfg(epochs=2, lr=1e-3, seed=1, no_ii_gr=True)]
    pooled = list(trainer.run_many(plan, scaler, configs))
    assert len(forked) == 2
    for config, result in zip(configs, pooled):
        assert _run_bytes(result) == _run_bytes(trainer.run_continual(*_plan(), config))


def _three_configs():
    return [_cfg(epochs=2, lr=1e-3), _cfg(epochs=2, lr=1e-3, method="replay-raw", m=2),
            _cfg(epochs=2, lr=1e-3, no_ii_gr=True, lambda_p=0.5)]


def _alone_third():
    """``_three_configs`` with the third in a lane group of its own (m=5)."""
    *two, third = _three_configs()
    return [*two, replace(third, m=5)]


def test_workers_match_in_process_runs_as_bytes(workers):
    forked = workers(2)
    plan, scaler = _plan()
    configs = _three_configs()
    pooled = list(trainer.run_many(plan, scaler, configs))
    assert len(forked) == 2
    for config, result in zip(configs, pooled):
        assert _run_bytes(result) == _run_bytes(trainer.run_continual(plan, scaler, config))
    # the returned state trains on, as an in-process one would
    x, y, ids = plan.training_arrays(3)
    for result, config in zip(pooled, configs):
        trainer.train_session(result.state, x, y, ids, config)


def test_copied_and_unpickled_states_train_on():
    # a deep copy or a pickle round trip of a state keeps its values but not
    # the parameters' views into the Adam buffers; each must still train
    # session 2 exactly as the original does, on memory of its own
    plan, _ = _plan()
    cfg = _cfg(epochs=2, lr=1e-3)
    state = trainer.new_state(cfg, plan.input_width)
    trainer.train_session(state, *plan.training_arrays(1), cfg)
    copies = [copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
    shallow = copy.copy(state)
    assert shallow.bundle is state.bundle and shallow.adam is state.adam
    for name, params in components(state.bundle).items():
        assert all(p.value.base is state.adam[name].buffer for p in params.values())
        for other in copies:
            assert not np.shares_memory(other.adam[name].buffer, state.adam[name].buffer)
    for s in [state, *copies]:
        trainer.train_session(s, *plan.training_arrays(2), cfg)
    assert _state_bytes(copies[0]) == _state_bytes(state)
    assert _state_bytes(copies[1]) == _state_bytes(state)


def _before_run(monkeypatch, hook):
    """Make ``_fork``, which runs once per config at the start of its run,
    call ``hook(config)`` first."""
    real = trainer._fork

    def fork(state, config):
        hook(config)
        return real(state, config)

    monkeypatch.setattr(trainer, "_fork", fork)


def test_closing_the_pool_leaves_no_child(monkeypatch, workers):
    # worker 1 is still busy with config 1 when the caller stops
    forked = workers(2)
    plan, scaler = _plan()
    parent = os.getpid()

    def stall(config):
        if config.method == "replay-raw" and os.getpid() != parent:
            time.sleep(600)

    _before_run(monkeypatch, stall)
    runs = trainer.run_many(plan, scaler, _three_configs())
    assert next(runs).method == "magr"
    started = time.perf_counter()
    runs.close()
    assert time.perf_counter() - started < 60  # killed, not waited for
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [1, 2])
def test_worker_error_is_raised_at_its_config(monkeypatch, workers, n):
    # the third config fails on worker 0 after worker 1 finished the second
    forked = workers(n)
    plan, scaler = _plan()

    def fail(config):
        if config.lambda_p == 0.5:
            raise metrics.DegenerateInputError("constant predictions")

    _before_run(monkeypatch, fail)
    configs = _three_configs() + [_cfg(epochs=2, lr=1e-3, m=3)]
    runs = trainer.run_many(plan, scaler, configs)
    assert [next(runs).method for _ in range(2)] == ["magr", "replay-raw"]
    with pytest.raises(metrics.DegenerateInputError) as raised:
        next(runs)
    assert str(raised.value) == "constant predictions"
    assert next(runs, None) is None
    assert len(forked) == (n if n > 1 else 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the lr of 1e300 overflows
@pytest.mark.parametrize("n", [1, 2])
def test_failing_first_session_is_raised_at_its_first_config(workers, n):
    # the second config's key fails in its first session; the first config's
    # result still comes first: from this process, or from worker 0 of a pool
    # of two, while worker 1 fails in the second config
    forked = workers(n)
    plan, scaler = _plan()
    base = _cfg(epochs=2, lr=1e-3)
    runs = trainer.run_many(plan, scaler, [base, replace(base, lr=1e300)])
    assert _run_bytes(next(runs)) == _run_bytes(trainer.run_continual(*_plan(), base))
    with pytest.raises(ad.NonFiniteError):
        next(runs)
    assert next(runs, None) is None
    assert len(forked) == (2 if n > 1 else 0)


def test_worker_dying_without_a_result_raises_runtime_error(monkeypatch, workers):
    # worker 1 dies in its only config; worker 0 sent config 0's result
    workers(2)
    plan, scaler = _plan()
    parent = os.getpid()

    def die(config):
        if config.method == "replay-raw" and os.getpid() != parent:
            os._exit(3)

    _before_run(monkeypatch, die)
    runs = trainer.run_many(plan, scaler, _three_configs())
    assert next(runs).method == "magr"
    with pytest.raises(RuntimeError, match="worker 1 exited without the result of config 1"):
        next(runs)


def test_worker_dying_in_a_later_config_keeps_its_earlier_results(monkeypatch, workers):
    # worker 0 sends config 0's result, then dies in config 2, which has an
    # m of its own, so it does not train in lockstep with config 0
    workers(2)
    plan, scaler = _plan()
    parent = os.getpid()

    def die(config):
        if config.lambda_p == 0.5 and os.getpid() != parent:
            os._exit(3)

    _before_run(monkeypatch, die)
    configs = _alone_third() + [_cfg(epochs=2, lr=1e-3, m=3)]
    runs = trainer.run_many(plan, scaler, configs)
    for config in configs[:2]:
        assert _run_bytes(next(runs)) == _run_bytes(trainer.run_continual(plan, scaler,
                                                                          config))
    with pytest.raises(RuntimeError, match="worker 0 exited without the result of config 2"):
        next(runs)


def test_worker_dying_in_a_lane_group_loses_the_whole_group(monkeypatch, workers):
    # configs 0 and 2 are one lane group on worker 0, which sends a group's
    # results when the whole group is done; it dies in config 2, before
    # config 0's result is sent
    workers(2)
    plan, scaler = _plan()
    parent = os.getpid()

    def die(config):
        if config.lambda_p == 0.5 and os.getpid() != parent:
            os._exit(3)

    _before_run(monkeypatch, die)
    configs = _three_configs() + [_cfg(epochs=2, lr=1e-3, m=3)]
    assert trainer._lane_key(configs[0]) == trainer._lane_key(configs[2])
    runs = trainer.run_many(plan, scaler, configs)
    with pytest.raises(RuntimeError, match="worker 0 exited without the result of config 0"):
        next(runs)


@pytest.mark.parametrize("n", [1, 2])
def test_lanes_failing_where_no_config_does_raise_runtime_error(monkeypatch, workers, n):
    # a group that raises only in lockstep, with every config running alone
    # without error, is a defect of the lanes, not a result to recover from
    workers(n)
    plan, scaler = _plan()
    real = trainer._train_lanes

    def train_lanes(states, *rest):
        if len(states) > 1:
            raise ValueError("stacked shapes disagree")
        return real(states, *rest)

    monkeypatch.setattr(trainer, "_train_lanes", train_lanes)
    runs = trainer.run_many(plan, scaler, _three_configs())
    with pytest.raises(RuntimeError, match="lane group of 2 configs raised ValueError") as raised:
        next(runs)
    if n == 1:
        assert str(raised.value.__cause__) == "stacked shapes disagree"
    else:  # the cause does not travel; the worker's traceback note names it
        assert "ValueError: stacked shapes disagree" in "".join(raised.value.__notes__)
    assert next(runs, None) is None


@pytest.mark.parametrize("kept", [lambda n: 1, lambda n: n // 2, lambda n: n - 1],
                         ids=["first-byte", "half", "all-but-last-byte"])
def test_worker_stream_ending_inside_a_result_raises_runtime_error(monkeypatch, workers,
                                                                   kept):
    # worker 0 writes only part of config 2's pickled result, then dies at
    # config 4 before writing anything more; configs 0, 2 and 4 have an m
    # each, so worker 0 runs them one after another, not in lockstep
    workers(2)
    plan, scaler = _plan()
    parent, seen, real = os.getpid(), [], pickle.dumps

    def cut(obj, *args):
        blob = real(obj, *args)
        if os.getpid() == parent or seen[-1].lambda_p != 0.5:
            return blob
        return blob[:kept(len(blob))]

    def die_after_cut(config):
        if os.getpid() != parent and seen and seen[-1].lambda_p == 0.5:
            os._exit(3)
        seen.append(config)

    _before_run(monkeypatch, die_after_cut)
    monkeypatch.setattr(pickle, "dumps", cut)
    configs = _alone_third() + [_cfg(epochs=2, lr=1e-3, m=3), _cfg(epochs=2, lr=1e-3, m=2)]
    runs = trainer.run_many(plan, scaler, configs)
    for config in configs[:2]:
        assert _run_bytes(next(runs)) == _run_bytes(trainer.run_continual(plan, scaler,
                                                                          config))
    with pytest.raises(RuntimeError, match="worker 0 exited without the result of config 2"):
        next(runs)


# ------------------------------------------------------------- plan memo


def test_later_runs_on_a_plan_reuse_its_first_session(monkeypatch):
    plan, scaler = _plan()
    calls = _count_sessions(monkeypatch)
    trainer.run_continual(plan, scaler, _cfg(epochs=1))
    trainer.run_continual(plan, scaler, _cfg(epochs=1, method="replay-raw", m=2))
    assert [c for c in calls if c[0] == 1] == [(1, "sequential-ft")]
    # one trained first session, and one set of truth ranks
    assert sorted(type(k[1]).__name__ for k in plan.memo) == ["TrainConfig", "bool"]
    # another scaler is another key; a fresh plan, or a replaced one, starts
    # with an empty memo
    del calls[:]
    trainer.run_continual(plan, data.ScoreScaler(0.0, 1.0), _cfg(epochs=1))
    trainer.run_continual(_plan()[0], scaler, _cfg(epochs=1))
    trainer.run_continual(replace(plan), scaler, _cfg(epochs=1))
    assert [c for c in calls if c[0] == 1] == [(1, "sequential-ft")] * 3


def test_failed_first_session_memoises_nothing(monkeypatch):
    plan, scaler = _plan()
    real = trainer.train_session

    def fail(state, x, y, ids, config):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(trainer, "train_session", fail)
    with pytest.raises(FloatingPointError):
        trainer.run_continual(plan, scaler, _cfg(epochs=1))
    assert plan.memo == {}
    monkeypatch.setattr(trainer, "train_session", real)
    config = _cfg(epochs=1)
    assert (_run_bytes(trainer.run_continual(plan, scaler, config))
            == _run_bytes(trainer.run_continual(*_plan(), config)))


@settings(database=None, derandomize=True, max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(trainer.METHODS), st.booleans(),
                          st.integers(0, 1)), min_size=2, max_size=6))
def test_runs_on_a_shared_plan_match_fresh_plans_as_bytes(calls):
    # methods in any order, with repeats, on one plan: held_out_only and the
    # seed open further keys, so hits and misses of the memo interleave
    plan, scaler = _plan(n=40, shots=4)
    for method, held_out_only, seed in calls:
        config = _cfg(epochs=1, method=method, held_out_only=held_out_only, seed=seed)
        fresh = _run_bytes(trainer.run_continual(*_plan(n=40, shots=4), config))
        assert _run_bytes(trainer.run_continual(plan, scaler, config)) == fresh


def test_pooled_runs_on_a_warmed_plan_match_fresh_runs(monkeypatch, workers):
    plan, scaler = _plan()
    configs = _three_configs()
    warm = trainer.run_continual(plan, scaler, configs[0])
    (first, reference, report, arrays), = [
        v for k, v in plan.memo.items() if isinstance(k[1], trainer.TrainConfig)]

    def memoised():
        return (_state_bytes(first), repr(reference), repr(report.step_terms),
                [a.tobytes() for a in arrays[:2]], arrays[2])

    before = memoised()
    calls = _count_sessions(monkeypatch)
    forked = workers(2)
    pooled = list(trainer.run_many(plan, scaler, configs))
    assert len(forked) == 2
    assert calls == []  # no first session here, and the configs ran in the workers
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    workers(1)
    in_process = list(trainer.run_many(plan, scaler, configs))
    assert [c for c in calls if c[0] == 1] == []
    for config, a, b in zip(configs, pooled, in_process):
        fresh = _run_bytes(trainer.run_continual(*_plan(), config))
        assert _run_bytes(a) == _run_bytes(b) == fresh
    assert _run_bytes(warm) == _run_bytes(pooled[0])
    assert memoised() == before


def test_each_result_owns_its_first_session_report(workers):
    workers(1)
    plan, scaler = _plan()
    configs = [_cfg(epochs=1), _cfg(epochs=1, method="replay-raw", m=2)]
    a, b = trainer.run_many(plan, scaler, configs)
    other = _run_bytes(b)
    a.reports[0].step_terms[0]["l_d"] = -1.0
    a.reports[0].step_terms.append({})
    a.reports[0].epoch_losses.append(0.0)
    assert _run_bytes(b) == other
    fresh = _run_bytes(trainer.run_continual(*_plan(), configs[0]))
    assert _run_bytes(trainer.run_continual(plan, scaler, configs[0])) == fresh


# -------------------------------------------------------- stacked sessions


@pytest.mark.parametrize("held_out_only", [False, True])
def test_shared_plan_runs_match_fresh_plans_as_bytes(held_out_only):
    # later methods read the arrays the first run stacked on the shared plan
    plan, scaler = _plan()
    for method in trainer.METHODS:
        config = _cfg(epochs=2, lr=1e-3, method=method, held_out_only=held_out_only)
        shared = trainer.run_continual(plan, scaler, config)
        assert all("arrays" in vars(split) for split in plan.sessions)
        assert _run_bytes(shared) == _run_bytes(trainer.run_continual(*_plan(), config))


def test_runs_stack_each_split_at_most_once(monkeypatch):
    plan, scaler = _plan()
    session_of = {id(s.x): split.session
                  for split in plan.sessions for s in split.train + split.held_out}
    stacked, real = [], np.stack

    def stack(arrays, *args, **kwargs):
        arrays = list(arrays)
        if arrays and id(arrays[0]) in session_of:
            stacked.append(session_of[id(arrays[0])])
        return real(arrays, *args, **kwargs)

    monkeypatch.setattr(np, "stack", stack)
    for method in trainer.METHODS:
        for held_out_only in (False, True):
            trainer.run_continual(plan, scaler, _cfg(epochs=1, method=method,
                                                     held_out_only=held_out_only))
    assert sorted(stacked) == list(range(1, plan.n_sessions + 1))


# ------------------------------------------------------------ config knobs


def test_classic_forgetting_knob():
    plan, scaler = _plan()
    result = trainer.run_continual(plan, scaler, _cfg(epochs=2, classic_forgetting=True))
    assert result.summary["rho_aft"] == metrics.rho_aft(result.matrix, classic=True)
    assert result.summary["rho_aft"] != metrics.rho_aft(result.matrix)


def test_held_out_only_knob():
    plan, scaler = _plan()
    cfg = _cfg(epochs=2, held_out_only=True)
    expected = {}

    def on_session(state, t):
        for j in range(1, min(t + 1, plan.n_sessions) + 1):
            truth, pred = trainer.evaluate_on(state.bundle,
                                              *_stacked(plan.sessions[j - 1].held_out),
                                              scaler)
            expected[(t, j)] = metrics.spearman(truth, pred)

    result = trainer.run_continual(plan, scaler, cfg, on_session=on_session)
    assert result.matrix.cells == expected
    reference = init_bundle(result.state.bundle.spec, trainer._reference_seed(0))
    for t in range(2, plan.n_sessions + 1):
        truth, pred = trainer.evaluate_on(reference,
                                          *_stacked(plan.sessions[t - 1].held_out), scaler)
        assert result.matrix.reference[t] == metrics.spearman(truth, pred)
    default = trainer.run_continual(plan, scaler, _cfg(epochs=2))
    assert default.matrix.cells != result.matrix.cells


@pytest.mark.parametrize("n, T, shots, held_out_only, session, count", [
    (3, 3, 1, False, 1, 1),
    (6, 3, 2, True, 1, 0),
    (10, 3, 2, True, 2, 1),
])
def test_a_test_set_too_small_to_rank_fails_before_training(monkeypatch, n, T, shots,
                                                           held_out_only, session,
                                                           count):
    plan, scaler = _plan(n=n, T=T, shots=shots)
    monkeypatch.setattr(trainer, "train_session", None)  # nothing may train
    with pytest.raises(trainer.PlanError, match=f"session {session} has {count} test"):
        trainer.run_continual(plan, scaler, _cfg(held_out_only=held_out_only))
