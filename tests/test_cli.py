"""End-to-end CLI runs on a miniature benchmark."""
from __future__ import annotations

import csv
import json

import pytest

from mreplay import cli, data, trainer


MINI = {
    "data": {"n": 60, "d_x": 8, "T": 3, "shots": 5, "noise_x": 0.05,
             "drift": 0.3, "seed": 0},
    "train": {"method": "magr", "epochs": 2, "b1": 5, "b2": 3, "m": 4,
              "seed": 0, "encoder_widths": [8, 32, 12],
              "projector_widths": [12, 12, 12], "trunk_widths": [12, 6]},
}


@pytest.fixture()
def mini_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MINI))
    return str(path)


def _train(tmp_path, mini_config, out="run", extra=()):
    out_dir = tmp_path / out
    rc = cli.main(["train", "--config", mini_config, "--out", str(out_dir),
                   *extra])
    assert rc == 0
    return out_dir / "magr-seed0" if not extra else out_dir


def test_gen_writes_dataset_and_split(tmp_path, mini_config, capsys):
    out = tmp_path / "gen"
    assert cli.main(["gen", "--config", mini_config, "--out", str(out)]) == 0
    ds = data.load_csv(out / "dataset.csv")
    assert len(ds.samples) == 60 and ds.input_width == 8
    manifest = json.loads((out / "split.json").read_text())
    assert manifest["format_version"] == 1
    assert manifest["T"] == 3 and manifest["shots"] == 5
    assert len(manifest["sessions"]) == 3
    assert "wrote" in capsys.readouterr().out


def test_gen_reruns_byte_identical(tmp_path, mini_config):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["gen", "--config", mini_config, "--out", str(a)])
    cli.main(["gen", "--config", mini_config, "--out", str(b)])
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "split.json").read_bytes() == (b / "split.json").read_bytes()


def test_split_from_existing_csv(tmp_path, mini_config):
    gen = tmp_path / "gen"
    cli.main(["gen", "--config", mini_config, "--out", str(gen)])
    out = tmp_path / "resplit"
    rc = cli.main(["split", "--config", mini_config, "--dataset",
                   str(gen / "dataset.csv"), "--out", str(out), "--seed", "3"])
    assert rc == 0
    manifest = json.loads((out / "split.json").read_text())
    assert manifest["seed"] == 3


def test_train_produces_full_artifact_set(tmp_path, mini_config, capsys):
    run_dir = _train(tmp_path, mini_config)
    for name in ("dataset.csv", "split.json", "results.csv", "summary.json",
                 "manifest.json"):
        assert (run_dir / name).exists(), name
    ckpts = sorted((run_dir / "checkpoints").glob("session_*.json"))
    assert [p.name for p in ckpts] == ["session_01.json", "session_02.json",
                                       "session_03.json"]
    summary = json.loads((run_dir / "summary.json").read_text())
    assert set(summary) == {"method", "seed", "rho_avg", "rho_aft", "rho_fwt",
                            "n_sessions", "config", "version"}
    assert summary["method"] == "magr" and summary["n_sessions"] == 3
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["wall_seconds"]) == 3
    listed = manifest["artifacts"]
    assert listed["checkpoints"] == [str(p) for p in ckpts]
    out = capsys.readouterr().out
    assert "rho_avg=" in out


def test_train_results_schema(tmp_path, mini_config):
    run_dir = _train(tmp_path, mini_config)
    lines = (run_dir / "results.csv").read_text().splitlines()
    assert lines[0] == "session,metric,value"
    metrics = [line.split(",")[1] for line in lines[1:]]
    # lower triangle + look-ahead + pooled per session, aggregates at the end
    assert metrics.count("rho_avg") == 3
    assert "rho_on_1" in metrics and "rho_lookahead_2" in metrics
    assert metrics[-2] == "rho_aft" and metrics[-1] == "rho_fwt"
    for line in lines[1:]:
        session, metric, value = line.split(",")
        assert int(session) in (1, 2, 3)
        float(value)  # every value parses


def test_train_reruns_byte_identical(tmp_path, mini_config):
    a = _train(tmp_path, mini_config, out="ra")
    b = _train(tmp_path, mini_config, out="rb")
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    for name in ("session_01.json", "session_02.json", "session_03.json"):
        assert (a / "checkpoints" / name).read_bytes() == \
            (b / "checkpoints" / name).read_bytes()


def test_train_flag_overrides(tmp_path, mini_config):
    out = tmp_path / "seq"
    rc = cli.main(["train", "--config", mini_config, "--out", str(out),
                   "--method", "sequential-ft", "--seed", "2"])
    assert rc == 0
    summary = json.loads((out / "sequential-ft-seed2" / "summary.json").read_text())
    assert summary["method"] == "sequential-ft" and summary["seed"] == 2

    out2 = tmp_path / "flagged"
    rc = cli.main(["train", "--config", mini_config, "--out", str(out2),
                   "--no-mp", "--online"])
    assert rc == 0
    summary = json.loads((out2 / "magr-seed0" / "summary.json").read_text())
    assert summary["config"]["no_mp"] is True
    assert summary["config"]["online"] is True


def test_env_var_output_root(tmp_path, mini_config, monkeypatch):
    monkeypatch.setenv("MREPLAY_OUT", str(tmp_path / "envroot"))
    rc = cli.main(["gen", "--config", mini_config])
    assert rc == 0
    assert (tmp_path / "envroot" / "dataset.csv").exists()


def test_eval_reproduces_training_cells(tmp_path, mini_config):
    run_dir = _train(tmp_path, mini_config)
    ckpt = run_dir / "checkpoints" / "session_03.json"
    out = tmp_path / "metrics.json"
    rc = cli.main(["eval", "--checkpoint", str(ckpt),
                   "--dataset", str(run_dir / "dataset.csv"),
                   "--split", str(run_dir / "split.json"),
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    rows = {}
    for line in (run_dir / "results.csv").read_text().splitlines()[1:]:
        session, metric, value = line.split(",")
        rows[(int(session), metric)] = float(value)
    for j in ("1", "2", "3"):
        assert payload["rho_per_session"][j] == rows[(3, f"rho_on_{j}")]
    assert payload["rho_avg"] == rows[(3, "rho_avg")]


def test_eval_early_checkpoint_and_session_cap(tmp_path, mini_config):
    run_dir = _train(tmp_path, mini_config)
    ckpt = run_dir / "checkpoints" / "session_02.json"
    out = tmp_path / "m2.json"
    rc = cli.main(["eval", "--checkpoint", str(ckpt),
                   "--dataset", str(run_dir / "dataset.csv"),
                   "--split", str(run_dir / "split.json"),
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["rho_per_session"]) == {"1", "2"}
    rc = cli.main(["eval", "--checkpoint", str(ckpt),
                   "--dataset", str(run_dir / "dataset.csv"),
                   "--split", str(run_dir / "split.json"),
                   "--session", "9"])
    assert rc == 1


def test_ablate_grid(tmp_path, mini_config, capsys):
    cfg = dict(MINI)
    cfg["train"] = dict(MINI["train"], epochs=1)
    cfg["seeds"] = [0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "abl"
    rc = cli.main(["ablate", "--config", str(path), "--out", str(out)])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == ("variant,seed,rho_avg,rho_aft,rho_fwt,"
                        "delta_rho_avg,delta_pct")
    variants = [line.split(",")[0] for line in lines[1:]]
    assert variants == list(cli.ABLATION_VARIANTS)
    full_delta = float(lines[1].split(",")[5])
    assert full_delta == 0.0


def test_sweep_axis(tmp_path, mini_config):
    out = tmp_path / "sw"
    rc = cli.main(["sweep", "--config", mini_config, "--out", str(out),
                   "--axis", "shots", "--values", "3,4"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,seed,rho_avg,rho_aft,rho_fwt"
    assert len(lines) == 3
    assert all(line.startswith("shots,") for line in lines[1:])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _direct_summary(seed, train, data_kw=None):
    """One run_continual on the MINI dataset, split by hand."""
    dataset = data.generate_synthetic(data.DataConfig(**MINI["data"]))
    dcfg = data.DataConfig(**{**MINI["data"], **(data_kw or {})})
    plan = data.grade_split(dataset, dcfg.T, dcfg.shots, seed)
    if dcfg.label_noise > 0:
        plan = data.inject_label_noise(plan, dcfg.label_noise, seed)
    plan, scaler = data.normalize_scores(plan)
    cfg = trainer.TrainConfig.from_dict({**train, "seed": seed})
    return trainer.run_continual(plan, scaler, cfg).summary


def _assert_row_matches(row, summary):
    for key in ("rho_avg", "rho_aft", "rho_fwt"):
        assert float(row[key]) == summary[key], (row, key)


def test_grid_runner_matches_direct_runs(tmp_path):
    # a non-magr method shows that ablate overrides it and sweep keeps it
    cfg = dict(MINI, train=dict(MINI["train"], epochs=1, method="replay-raw"),
               seeds=[0, 1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    # ablate: every variant is magr plus the paper's flags for it
    variant_flags = {"full": {}, "no_mp": {"no_mp": True},
                     "no_residual": {"no_residual": True},
                     "no_ii_gr": {"no_ii_gr": True}, "no_j_gr": {"no_j_gr": True},
                     "no_iij_gr": {"no_ii_gr": True, "no_j_gr": True},
                     "mse_gr": {"mse_gr": True},
                     "random_sampling": {"random_sampling": True}}
    assert cli.main(["ablate", "--config", str(path), "--out", str(tmp_path / "abl")]) == 0
    rows = _read_csv(tmp_path / "abl" / "ablation.csv")
    assert [(r["variant"], int(r["seed"])) for r in rows] == \
        [(v, s) for v in variant_flags for s in (0, 1)]
    for r in rows:
        train = {**cfg["train"], "method": "magr", **variant_flags[r["variant"]]}
        _assert_row_matches(r, _direct_summary(int(r["seed"]), train))

    # sweep: each axis changes the split (shots, noise) or the config (memory)
    # and keeps the configured method
    for axis, values, kw in (("shots", "3,4", lambda v: ({"shots": int(v)}, {})),
                             ("noise", "0,5", lambda v: ({"label_noise": v}, {})),
                             ("memory", "2,3", lambda v: ({}, {"m": int(v)}))):
        out = tmp_path / f"sweep_{axis}"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out),
                         "--axis", axis, "--values", values]) == 0
        rows = _read_csv(out / "sweep.csv")
        assert [(r["axis"], r["value"], int(r["seed"])) for r in rows] == \
            [(axis, repr(float(v)), s) for v in values.split(",") for s in (0, 1)]
        for r in rows:
            data_kw, train_kw = kw(float(r["value"]))
            _assert_row_matches(r, _direct_summary(
                int(r["seed"]), {**cfg["train"], **train_kw}, data_kw))

    with pytest.raises(SystemExit):
        cli.main(["sweep", "--config", str(path), "--axis", "bogus"])


def test_plot_kinds(tmp_path, mini_config):
    run_dir = _train(tmp_path, mini_config)
    for kind in ("sessions", "scatter", "pca2d"):
        rc = cli.main(["plot", "--run", str(run_dir), "--kind", kind])
        assert rc == 0, kind
    plots_dir = run_dir / "plots"
    assert (plots_dir / "sessions.svg").read_text().startswith("<svg")
    assert (plots_dir / "scatter.svg").exists()
    assert (plots_dir / "pca2d.svg").exists()
    sidecar = json.loads((plots_dir / "pca2d.json").read_text())
    assert set(sidecar) == {"silhouette", "n_points"}
    assert sidecar["n_points"] == 12  # 3 sessions x m=4

    sw = tmp_path / "sw"
    cli.main(["sweep", "--config", mini_config, "--out", str(sw),
              "--axis", "memory", "--values", "2,3"])
    rc = cli.main(["plot", "--run", str(sw), "--kind", "sweep"])
    assert rc == 0
    assert (sw / "plots" / "sweep.svg").exists()


def test_report_table(tmp_path, mini_config, capsys):
    run_dir = _train(tmp_path, mini_config)
    capsys.readouterr()  # drain the train output
    rc = cli.main(["report", "--runs", str(run_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| run | method | seed |")
    assert "| magr | 0 |" in out
    dest = tmp_path / "report.md"
    rc = cli.main(["report", "--runs", str(run_dir), "--out", str(dest)])
    assert rc == 0
    assert dest.read_text().startswith("| run |")


def test_errors_exit_nonzero(tmp_path, mini_config, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"mystery": {}}))
    assert cli.main(["gen", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err

    assert cli.main(["train", "--config", mini_config,
                     "--out", str(tmp_path / "x"),
                     "--split", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    assert cli.main(["plot", "--run", str(tmp_path / "nowhere"),
                     "--kind", "sessions"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_checkpoint_version_fails_eval(tmp_path, mini_config, capsys):
    run_dir = _train(tmp_path, mini_config)
    ckpt = run_dir / "checkpoints" / "session_03.json"
    payload = json.loads(ckpt.read_text())
    payload["format_version"] = 42
    hacked = tmp_path / "hacked.json"
    hacked.write_text(json.dumps(payload))
    rc = cli.main(["eval", "--checkpoint", str(hacked),
                   "--dataset", str(run_dir / "dataset.csv"),
                   "--split", str(run_dir / "split.json")])
    assert rc == 1
    assert "format" in capsys.readouterr().err
