"""End-to-end acceptance checks: gradient fidelity, metric oracles, geometry
invariants, memory contracts, training structure, benchmark ordering,
determinism, and serialization round-trips."""

import itertools
import json
import math
import os
import time

import numpy as np
from hypothesis import given, settings, strategies as st

import graph_reference as gr
import mreplay.autodiff as ad
import mreplay.losses as losses
import tape_reference as tp
import mreplay.memory as memory
import mreplay.metrics as metrics
import mreplay.models as models
from mreplay import checkpoint, cli, data, trainer

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _config(name: str) -> dict:
    with open(os.path.join(REPO, "configs", name)) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- criterion 1


def _normal_layers(rng, widths) -> list:
    # scaled as at init, so no softplus saturates to a gradient of about
    # 1e-7, whose finite difference is mostly roundoff
    return [a / np.sqrt(fan_in) for fan_in, fan_out in zip(widths, widths[1:])
            for a in (rng.normal(size=(fan_in, fan_out)), rng.normal(size=(1, fan_out)))]


@settings(database=None, derandomize=True, max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 5]), st.sampled_from([3, 5]))
def test_gradient_fidelity_all_losses(seed, rows, replayed):
    # every pair of array-level halves the training step runs, at its batch
    # shapes (current and replayed batches of 3 or 5 rows, 16-wide features)
    rng = np.random.default_rng(seed)
    x, h = rng.normal(size=(rows, 8)), rng.normal(size=(rows, 16))
    errors = {}
    for output_relu in (False, True):
        errors["mlp", output_relu] = tp.mlp_halves_error(
            x, _normal_layers(rng, (8, 16, 16)), output_relu, rng.normal(size=(rows, 16)))
    regressor = _normal_layers(rng, (16, 8)) + _normal_layers(rng, (8, 1)) \
        + _normal_layers(rng, (8, 1))
    for eps in (None, rng.normal(size=(rows, 1))):
        errors["score", eps is None] = tp.score_halves_error(
            h, regressor, eps, rng.normal(size=(rows, 1)))
    # a quadratic's central difference has no truncation error, and a wider
    # step keeps roundoff off its smallest gradients
    errors["sq_error"] = tp.sq_error_halves_error(h, rng.normal(size=h.shape), 1.0 / rows,
                                                  fd_step=1e-3)
    errors["weighted_sum"] = tp.weighted_sum_halves_error(
        [rng.normal(size=(1, 1)) for _ in range(4)], [None, None, 0.3, 0.7],
        rng.normal(size=(1, 1)))
    old = rng.normal(size=(replayed, 16))
    gaps = losses.score_distance_matrix(rng.uniform(size=replayed + rows))
    for joint, intra_inter, use_mse in itertools.product((True, False), repeat=3):
        if joint or intra_inter:
            # step balances FD roundoff against truncation for the composite
            errors["graph", joint, intra_inter, use_mse] = tp.graph_halves_error(
                old, h, gaps, fd_step=3e-5, joint=joint, intra_inter=intra_inter,
                use_mse=use_mse)
    worst = max(errors, key=errors.get)
    assert errors[worst] < 1e-5, worst


# ---------------------------------------------------------------- criterion 2


def _rank_oracle(v):
    v = np.asarray(v, dtype=np.float64)
    out = np.empty(v.size)
    for i, x in enumerate(v):
        out[i] = np.sum(v < x) + 0.5 * (np.sum(v == x) + 1)
    return out


def _pearson_oracle(a, b):
    am, bm = a - a.mean(), b - b.mean()
    denom = math.sqrt(np.sum(am * am) * np.sum(bm * bm))
    if denom == 0.0:
        return None
    return float(np.sum(am * bm) / denom)


def test_spearman_matches_bruteforce_oracle():
    checked = 0
    trial = 0
    worst = 0.0
    while checked < 1000:
        trial += 1
        rng = np.random.default_rng(20_000 + trial)
        n = int(rng.integers(3, 51))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if trial % 2 == 0:  # coarse grid forces ties
            a, b = np.round(a, 1), np.round(b, 1)
        expected = _pearson_oracle(_rank_oracle(a), _rank_oracle(b))
        if expected is None:
            continue
        worst = max(worst, abs(metrics.spearman(a, b) - expected))
        checked += 1
    assert worst < 1e-12
    assert metrics.spearman([1, 2, 3, 4], [1, 2, 4, 3]) == 0.8
    print(f"PASS spearman oracle: worst |diff| {worst:.2e} over 1000 vectors; "
          f"swap-last-two example is exactly 0.8")


# ---------------------------------------------------------------- criterion 3


def _graph(old, new, gaps, joint=True, intra_inter=True) -> float:
    """The graph term's value as the training step computes it."""
    return ad.graph_fwd(old, new, gaps, joint=joint, intra_inter=intra_inter,
                        use_mse=False)[0]


def test_angular_geometry_invariants():
    worst_sym = 0.0
    worst_diag = 0.0
    for trial in range(100):
        rng = np.random.default_rng(31_000 + trial)
        rows = int(rng.integers(2, 11))
        d = int(rng.integers(2, 25))
        feats = rng.normal(size=(rows, d))
        a_t = gr.angular_distance_matrix(tp.leaf(feats))
        a = a_t.value
        worst_sym = max(worst_sym, float(np.abs(a - a.T).max()))
        assert a.min() >= 0.0 and a.max() <= np.pi
        worst_diag = max(worst_diag, float(np.abs(np.diag(a)).max()))
        for c in (0.5, 2.0, 8.0, 1024.0):
            scaled = gr.angular_distance_matrix(tp.leaf(c * feats))
            assert np.array_equal(scaled.value, a)
        # the block terms tile the matrices: they equal the row losses of
        # the hand-sliced blocks, bit for bit
        b1 = max(1, rows // 2)
        scores = rng.uniform(size=rows)
        s = losses.score_distance_matrix(scores)
        halves = (slice(0, b1), slice(b1, rows))
        sliced = 0.0
        for r in halves:
            for c in halves:
                sliced += gr.kl_row_divergence(
                    tp.leaf(a[r, c]), tp.leaf(s[r, c])).value[0, 0]
        assert _graph(feats[:b1], feats[b1:], s, joint=False) == sliced
    assert worst_sym <= 1e-9
    assert worst_diag <= 1e-3
    # identical rows and identical scores make both matrices equal (all zero)
    row = np.array([0.3, -0.7, 0.2])
    batch = (np.tile(row, (5, 1)), np.tile(row, (3, 1)),
             losses.score_distance_matrix(np.full(8, 0.42)))
    assert _graph(*batch) == 0.0
    assert _graph(*batch, intra_inter=False) == 0.0
    assert _graph(*batch, joint=False) == 0.0
    print(f"PASS geometry invariants: sym {worst_sym:.1e}, "
          f"diag {worst_diag:.1e}, scale-exact, tiling-exact, "
          f"matched matrices give zero loss")


# ---------------------------------------------------------------- criterion 4


def _ous_enum(scores, m, ids):
    # independent restatement: sort (score, id) pairs, walk the rank list
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], ids[i]))
    m = min(m, n)
    if m == 1:
        return [order[(n - 1) // 2]]
    return [order[(k * (n - 1)) // (m - 1)] for k in range(m)]


def test_ordered_uniform_sampling_contract():
    for trial in range(200):
        rng = np.random.default_rng(40_000 + trial)
        n = int(rng.integers(2, 31))
        m = int(rng.integers(2, n + 1))
        if trial % 3 == 0:  # integer grid forces duplicate scores
            scores = rng.integers(0, 6, size=n).astype(np.float64)
        else:
            scores = rng.uniform(0.0, 10.0, size=n)
        ids = [f"s{k:03d}" for k in rng.permutation(n)]
        sel = memory.ous_select(scores, m, ids=ids)
        assert sel == memory.ous_select(scores, m, ids=ids)
        assert sel == _ous_enum(list(scores), m, ids)
        picked = [scores[i] for i in sel]
        assert picked == sorted(picked)
        assert picked[0] == scores.min()
        assert picked[-1] == scores.max()
    print("PASS ordered uniform sampling: 200 sets match enumeration, "
          "sorted, extremes included, deterministic")


# ---------------------------------------------------------------- criterion 5


def _smoke_plan(seed=0):
    ds = data.generate_synthetic(data.DataConfig(
        n=60, d_x=8, T=3, shots=5, noise_x=0.4, drift=0.3, seed=0))
    plan = data.grade_split(ds, T=3, shots=5, seed=seed)
    return data.normalize_scores(plan)


def _smoke_config(**overrides):
    base = dict(method="magr", m=4, epochs=5, lr=1e-3, weight_decay=1e-3,
                lambda_p=0.3, lm_stop_grad=True, seed=0,
                encoder_widths=(8, 32, 12), projector_widths=(12, 12, 12),
                trunk_widths=(12, 6))
    base.update(overrides)
    return trainer.TrainConfig(**base)


def test_training_loop_structure():
    plan, scaler = _smoke_plan()
    cfg = _smoke_config()
    run = trainer.run_continual(plan, scaler, cfg)

    for terms in run.reports[0].step_terms:
        assert terms["l_m"] is None and terms["l_p"] is None
        assert terms["l_r"] is None
        assert terms["total"] == terms["l_d"]

    expected_bank = sum(min(cfg.m, len(plan.training_arrays(t)[1]))
                        for t in (1, 2, 3))
    assert run.state.bank.size == expected_bank

    spec = models.BundleSpec(encoder=models.MlpSpec((8, 16, 6)),
                             projector=models.MlpSpec((6, 6, 6)),
                             trunk=models.MlpSpec((6, 4)))
    bundle = models.init_bundle(spec, seed=3)
    for t in bundle.projector.values():
        t.value[:] = 0.0
    feats = np.random.default_rng(7).normal(size=(9, 6))
    assert np.array_equal(models.project(bundle, feats), feats)

    state = trainer.new_state(cfg, input_width=plan.input_width)
    x1, y1, ids1 = plan.training_arrays(1)
    trainer.train_session(state, x1, y1, ids1, cfg)
    before = {k: t.value.copy() for k, t in state.bundle.encoder.items()}
    x2, y2, ids2 = plan.training_arrays(2)
    trainer.train_session(state, x2, y2, ids2, cfg)
    for k, snapshot in before.items():
        assert np.array_equal(state.bundle.frozen_encoder[k].value, snapshot)
        assert not np.array_equal(state.bundle.encoder[k].value, snapshot)
    print(f"PASS training structure: first-session total equals the data "
          f"term, bank holds {expected_bank}, zero projector is identity, "
          f"frozen copy immutable")


# ------------------------------------------------------- criteria 6, 7 and 10


# The benchmark runs, by tag: the train overrides of configs/benchmark.json.
# Each seed runs every tag through one run_many call, so the methods and
# variants other than joint train their first session once per process that
# runs any of them: once with one CPU, and in each of the two workers on 2.
BENCHMARK_TAGS = {
    "joint": {"method": "joint"},
    "magr": {"method": "magr"},
    "naive": {"method": "replay-feature-naive"},
    "seqft": {"method": "sequential-ft"},
    "no_mp": {"method": "magr", "no_mp": True},
    "no_iij_gr": {"method": "magr", "no_ii_gr": True, "no_j_gr": True},
    "random_sampling": {"method": "magr", "random_sampling": True},
}
_RUNS: dict[str, dict[str, list[float]]] = {}


def _benchmark_scores(config_name="benchmark.json",
                      tags=BENCHMARK_TAGS) -> dict[str, list[float]]:
    """rho_avg per tag, one value per seed of the config; cached per config."""
    if config_name in _RUNS:
        return _RUNS[config_name]
    cfg = _config(config_name)
    dataset = data.generate_synthetic(data.DataConfig(**cfg["data"]))
    scores: dict[str, list[float]] = {tag: [] for tag in tags}
    for seed in cfg["seeds"]:
        plan = data.grade_split(dataset, T=cfg["data"]["T"],
                                shots=cfg["data"]["shots"], seed=seed)
        plan, scaler = data.normalize_scores(plan)
        configs = [data.config_from_dict(trainer.TrainConfig,
                                         {**cfg["train"], **overrides, "seed": seed}, "train")
                   for overrides in tags.values()]
        for tag, run in zip(tags, trainer.run_many(plan, scaler, configs)):
            scores[tag].append(run.summary["rho_avg"])
    _RUNS[config_name] = scores
    return scores


def test_benchmark_method_ordering():
    started = time.perf_counter()
    scores = _benchmark_scores()
    joint, magr, naive, seqft = (np.mean(scores[tag])
                                 for tag in ("joint", "magr", "naive", "seqft"))
    elapsed = time.perf_counter() - started
    assert joint >= magr >= naive >= seqft
    assert magr - seqft >= 0.05
    assert magr - naive >= 0.02
    assert elapsed < 1800.0
    print(f"PASS benchmark ordering: joint {joint:+.3f} >= magr {magr:+.3f} "
          f">= naive {naive:+.3f} >= seqft {seqft:+.3f}; gaps "
          f"{magr - seqft:+.3f}/{magr - naive:+.3f}; {elapsed:.0f}s")


def test_ablation_directions():
    scores = _benchmark_scores()
    full, no_mp, no_gr, rand = (np.mean(scores[tag]) for tag in
                                ("magr", "no_mp", "no_iij_gr", "random_sampling"))
    assert full >= no_mp
    assert full >= no_gr
    assert full >= rand
    print(f"PASS ablation directions: full {full:+.3f} >= no_mp {no_mp:+.3f}, "
          f"no_iij_gr {no_gr:+.3f}, random_sampling {rand:+.3f}")


# ---------------------------------------------------------------- criterion 8


def test_train_runs_byte_identical(tmp_path):
    cfg_path = os.path.join(REPO, "configs", "smoke.json")
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main(["train", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        outputs.append(out / "magr-seed0")
    for artifact in ("results.csv", "summary.json"):
        first = (outputs[0] / artifact).read_bytes()
        second = (outputs[1] / artifact).read_bytes()
        assert first == second
    print("PASS determinism: repeated train runs emit byte-identical "
          "results.csv and summary.json")


# ---------------------------------------------------------------- criterion 9


def test_round_trips(tmp_path):
    plan, scaler = _smoke_plan()
    cfg = _smoke_config(epochs=3)
    state = trainer.new_state(cfg, input_width=plan.input_width)
    for t in (1, 2):
        x, y, ids = plan.training_arrays(t)
        trainer.train_session(state, x, y, ids, cfg)
    path = tmp_path / "ck.json"
    checkpoint.save_checkpoint(path, state, scaler, cfg)
    loaded, loaded_scaler, _ = checkpoint.load_checkpoint(path)
    x, y = (np.concatenate(a) for a in zip(plan.test_arrays(1), plan.test_arrays(2)))
    truth_a, pred_a = trainer.evaluate_on(state.bundle, x, y, scaler)
    truth_b, pred_b = trainer.evaluate_on(loaded.bundle, x, y,
                                          loaded_scaler)
    assert np.array_equal(truth_a, truth_b)
    assert np.array_equal(pred_a, pred_b)
    assert metrics.spearman(truth_a, pred_a) == metrics.spearman(truth_b,
                                                                 pred_b)

    ds = data.generate_synthetic(data.DataConfig(
        n=40, d_x=6, T=2, shots=5, noise_x=0.4, drift=0.3, seed=4))
    csv_path = tmp_path / "ds.csv"
    data.save_csv(ds, csv_path)
    again = data.load_csv(csv_path)
    assert len(again.samples) == len(ds.samples)
    for a, b in zip(ds.samples, again.samples):
        assert a.sample_id == b.sample_id
        assert a.score == b.score
        assert np.array_equal(a.x, b.x)
    twice = tmp_path / "ds2.csv"
    data.save_csv(again, twice)
    assert csv_path.read_bytes() == twice.read_bytes()

    rng = np.random.default_rng(11)
    y = rng.uniform(scaler.lo, scaler.hi, size=200)
    assert np.abs(scaler.denormalize(scaler.normalize(y)) - y).max() < 1e-12
    print("PASS round-trips: checkpoint eval bit-exact, CSV bit-exact, "
          "normalize/denormalize within 1e-12")


# --------------------------------------------------------------- criterion 10


def test_online_regime(tmp_path):
    cfg_path = os.path.join(REPO, "configs", "smoke.json")
    offline = tmp_path / "offline"
    online = tmp_path / "online"
    assert cli.main(["train", "--config", cfg_path, "--out",
                     str(offline)]) == 0
    assert cli.main(["train", "--config", cfg_path, "--online", "--out",
                     str(online)]) == 0
    run_off = offline / "magr-seed0"
    run_on = online / "magr-seed0"
    head_off = (run_off / "results.csv").read_text().splitlines()
    head_on = (run_on / "results.csv").read_text().splitlines()
    assert head_off[0] == head_on[0]
    names_off = {line.split(",")[1] for line in head_off[1:]}
    names_on = {line.split(",")[1] for line in head_on[1:]}
    assert names_off == names_on
    sum_off = json.loads((run_off / "summary.json").read_text())
    sum_on = json.loads((run_on / "summary.json").read_text())
    assert set(sum_off) == set(sum_on)

    scores = _benchmark_scores("benchmark_online.json",
                               {"magr-online": {"method": "magr"},
                                "seqft-online": {"method": "sequential-ft"}})
    magr, seqft = np.mean(scores["magr-online"]), np.mean(scores["seqft-online"])
    assert magr >= seqft
    print(f"PASS online regime: schema identical; magr {magr:+.3f} >= "
          f"seqft {seqft:+.3f} with single-epoch sessions")
