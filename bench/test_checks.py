"""Tests for the benchmark's own checks, tracer and output format.

    python3 -m pytest bench -q

Each check must pass on a real output and fail once that output is
corrupted: a missing row, a wrong summary value, a missing artifact.
"""
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mreplay import cli, data, metrics, trainer  # noqa: E402
from mreplay.models import predict  # noqa: E402
from tracing import PER_LAYER, Tracer, layer_metrics  # noqa: E402

SMALL_DATA = dict(n=60, d_x=8, T=3, shots=5, noise_x=0.4, drift=0.3)
SMALL_WIDTHS = dict(encoder_widths=[8, 16, 8], projector_widths=[8, 8, 8],
                    trunk_widths=[8, 4])


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ------------------------------------------------------------- grid-offline


@pytest.fixture(scope="module")
def ablation_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    config = out / "config.json"
    config.write_text(json.dumps({
        "data": {**SMALL_DATA, "seed": 0},
        "train": {"method": "magr", "m": 4, "epochs": 2, "lr": 0.001,
                  **SMALL_WIDTHS}}))
    assert cli.main(["ablate", "--config", str(config), "--seed", "7",
                     "--out", str(out)]) == 0
    return out / "ablation.csv"


def test_ablation_check_passes_on_real_output(ablation_csv):
    assert checks.check_ablation(ablation_csv, [7]) == []


def test_ablation_check_catches_missing_row(ablation_csv, tmp_path):
    rows = _rows(ablation_csv)
    path = tmp_path / "ablation.csv"
    _write_rows(path, rows[:3] + rows[4:])
    assert any("rows" in p for p in checks.check_ablation(path, [7]))


def test_ablation_check_catches_wrong_delta_and_negative_forgetting(ablation_csv,
                                                                     tmp_path):
    rows = _rows(ablation_csv)
    header = rows[0]
    bad_delta = [list(r) for r in rows]
    bad_delta[2][header.index("delta_rho_avg")] = "0.125"
    path = tmp_path / "delta.csv"
    _write_rows(path, bad_delta)
    assert any("recomputed" in p for p in checks.check_ablation(path, [7]))
    bad_aft = [list(r) for r in rows]
    bad_aft[1][header.index("rho_aft")] = "-0.01"
    _write_rows(path, bad_aft)
    assert any("rho_aft" in p for p in checks.check_ablation(path, [7]))


def test_ablation_check_catches_wrong_seed(ablation_csv):
    assert checks.check_ablation(ablation_csv, [8])


# ------------------------------------------------------------ stream-online


@pytest.fixture(scope="module")
def stream_runs():
    ds = data.generate_synthetic(data.DataConfig(**SMALL_DATA, seed=1))
    raw = data.grade_split(ds, SMALL_DATA["T"], SMALL_DATA["shots"], 3)
    plan, scaler = data.normalize_scores(raw)
    runs = {}
    for method in ("magr", "sequential-ft", "joint"):
        cfg = trainer.TrainConfig(method=method, m=4, online=True, b2=3, lr=0.001,
                                  seed=3, **{k: tuple(v) for k, v in SMALL_WIDTHS.items()})
        runs[method] = trainer.run_continual(plan, scaler, cfg)
    return raw, plan, scaler, runs


def test_stream_checks_pass_on_real_runs(stream_runs):
    raw, plan, scaler, runs = stream_runs
    for res in runs.values():
        assert checks.check_stream_run(res, plan, 4, 3) == []
    records = [checks.stream_oracle_record(r, raw, scaler, predict) for r in runs.values()]
    assert checks.check_stream_oracle(records) == []


def test_stream_oracle_catches_corrupted_summary(stream_runs):
    raw, plan, scaler, runs = stream_runs
    rec = checks.stream_oracle_record(runs["magr"], raw, scaler, predict)
    rec["rho_avg"] += 1e-9
    assert any("rho_avg" in p for p in checks.check_stream_oracle([rec]))
    rec = checks.stream_oracle_record(runs["joint"], raw, scaler, predict)
    rec["final_row"][0] = -rec["final_row"][0]
    assert any("cell 1" in p for p in checks.check_stream_oracle([rec]))


def test_stream_check_catches_missing_cell_and_wrong_bank(stream_runs):
    raw, plan, scaler, runs = stream_runs
    res = runs["magr"]
    cells = dict(res.matrix.cells)
    del cells[(2, 3)]
    broken = replace(res, matrix=replace(res.matrix, cells=cells))
    assert any("matrix cells" in p for p in checks.check_stream_run(broken, plan, 4, 3))

    bank = res.state.bank
    lowest_of_2 = next(i for i, e in enumerate(bank.entries) if e.session == 2)
    dropped = replace(bank, entries=[e for i, e in enumerate(bank.entries)
                                     if i != lowest_of_2])
    broken = replace(res, state=replace(res.state, bank=dropped))
    assert checks.check_stream_run(broken, plan, 4, 3)

    seq = runs["sequential-ft"]
    filled = replace(seq.state.bank, entries=list(bank.entries))
    broken = replace(seq, state=replace(seq.state, bank=filled))
    assert any("expected none" in p for p in checks.check_stream_run(broken, plan, 4, 3))


def test_stream_check_catches_wrong_step_count(stream_runs):
    raw, plan, scaler, runs = stream_runs
    res = runs["magr"]
    reports = list(res.reports)
    reports[1] = replace(reports[1], steps=reports[1].steps + 1)
    assert any("steps" in p for p in checks.check_stream_run(replace(res, reports=reports),
                                                             plan, 4, 3))


# ------------------------------------------------------------ cli-roundtrip


class SmallRoundtrip(workloads.CliRoundtrip):
    DATA = SMALL_DATA
    TRAIN = {**workloads.CliRoundtrip.TRAIN, "m": 4, "lr": 0.001, **SMALL_WIDTHS}


@pytest.fixture()
def roundtrip_dir(tmp_path):
    wl = SmallRoundtrip(2, tmp_path)
    wl.setup()
    for _, op in wl.round(0):
        op()
    shapes = checks.expected_param_shapes(8, SMALL_WIDTHS["encoder_widths"],
                                          SMALL_WIDTHS["projector_widths"],
                                          SMALL_WIDTHS["trunk_widths"])
    return wl.run_dir(0), shapes


def test_roundtrip_check_passes_on_real_output(roundtrip_dir):
    run_dir, shapes = roundtrip_dir
    assert checks.check_roundtrip(run_dir, 3, shapes) == []


def test_roundtrip_check_catches_corrupted_summary(roundtrip_dir):
    run_dir, shapes = roundtrip_dir
    path = run_dir / "summary.json"
    summary = json.loads(path.read_text())
    summary["rho_avg"] = summary["rho_avg"] + 1e-12
    path.write_text(json.dumps(summary))
    assert any("summary.json" in p for p in checks.check_roundtrip(run_dir, 3, shapes))


def test_roundtrip_check_catches_missing_results_row(roundtrip_dir):
    run_dir, shapes = roundtrip_dir
    rows = _rows(run_dir / "results.csv")
    _write_rows(run_dir / "results.csv", [r for r in rows if r[:2] != ["2", "rho_on_1"]])
    assert any("eval 2" in p for p in checks.check_roundtrip(run_dir, 3, shapes))


def test_roundtrip_check_catches_missing_artifact_and_bad_shape(roundtrip_dir):
    run_dir, shapes = roundtrip_dir
    (run_dir / "checkpoints" / "session_02.json").unlink()
    assert any("manifest" in p for p in checks.check_roundtrip(run_dir, 3, shapes))
    wrong = {**shapes, "projector": {**shapes["projector"], "projector.w0": [8, 9]}}
    assert any("parameter shapes" in p for p in checks.check_roundtrip(run_dir, 3, wrong))


# ------------------------------------------------------ tracer, output format


def test_tracer_wraps_every_binding_and_restores_them():
    import mreplay

    original = metrics.spearman
    tracer = Tracer()
    tracer.install()
    try:
        assert metrics.spearman is not original
        assert trainer.spearman is metrics.spearman is cli.spearman is mreplay.spearman
        assert cli.COMMANDS["train"] is cli.cmd_train
        assert cli.cmd_train.__wrapped__ is not None
        trainer.spearman(np.arange(4.0), np.array([0.0, 2.0, 1.0, 3.0]))
    finally:
        tracer.uninstall()
    assert metrics.spearman is original is trainer.spearman
    assert tracer.calls == {"metrics.spearman": 1}
    out = layer_metrics(tracer, 1.5)
    assert out["metrics.spearman.calls"] == 1 and out["metrics.spearman.s"] > 0
    assert out["trace.overhead_pct"] == 1.5
    assert list(out) == [name for name, _, _ in PER_LAYER]


def test_tracer_self_time_excludes_traced_children():
    ds = data.generate_synthetic(data.DataConfig(**SMALL_DATA, seed=0))
    plan, scaler = data.normalize_scores(data.grade_split(ds, 3, 5, 0))
    cfg = trainer.TrainConfig(m=4, online=True, lr=0.001, seed=0,
                              **{k: tuple(v) for k, v in SMALL_WIDTHS.items()})
    tracer = Tracer()
    tracer.install()
    try:
        trainer.run_continual(plan, scaler, cfg)
    finally:
        tracer.uninstall()
    run_s = tracer.busy["trainer.run_continual"]
    assert 0 < tracer.self_time["trainer.run_continual"] < run_s
    assert tracer.calls["trainer.train_session"] == 3
    assert tracer.counters["trainer.steps"] == sum(
        -(-len(checks.session_training(plan, t)) // 3) for t in (1, 2, 3))
    assert tracer.counters["memory.bank_rows"] == 12
    by_id = {s[1]: s for s in tracer.spans}
    for op, _, parent, name, start, end in tracer.spans:
        if parent is not None:
            p = by_id[parent]
            assert p[4] <= start <= end <= p[5]


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload,trace", [("cli-roundtrip", 0), ("cli-roundtrip", 1),
                                            ("stream-online", 0)])
def test_run_prints_every_declared_metric(workload, trace, capsys):
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert run.main(["--workload", workload, "--seed", "0",
                     "--seconds", "0.5", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert json.loads(lines[-2])["digest_reference"] == "match"
