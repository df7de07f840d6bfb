"""End-to-end CLI runs on a miniature benchmark."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mreplay import cli, data, metrics, trainer


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


def test_gen_and_split_write_the_same_split(tmp_path, mini_config, capsys):
    gen, split = tmp_path / "gen", tmp_path / "split"
    assert cli.main(["gen", "--config", mini_config, "--seed", "4", "--out", str(gen)]) == 0
    assert cli.main(["split", "--config", mini_config, "--seed", "4", "--dataset",
                     str(gen / "dataset.csv"), "--out", str(split)]) == 0
    assert (gen / "split.json").read_bytes() == (split / "split.json").read_bytes()
    assert json.loads((gen / "split.json").read_text())["seed"] == 4
    assert not (split / "dataset.csv").exists()
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {gen / 'dataset.csv'} (60 samples) and {gen / 'split.json'}",
        f"wrote {split / 'split.json'}"]


def _renumber(manifest, numbers):
    for entry, t in zip(manifest["sessions"], numbers):
        entry["session"] = t


MANIFEST_FAULTS = {
    "no_T": (lambda m: m.pop("T"), "lacks the field 'T'"),
    "no_shots": (lambda m: m.pop("shots"), "lacks the field 'shots'"),
    "no_sessions": (lambda m: m.pop("sessions"), "lacks the field 'sessions'"),
    "no_session": (lambda m: m["sessions"][2].pop("session"),
                   "session entry 3 lacks the field 'session'"),
    "no_train": (lambda m: m["sessions"][0].pop("train"),
                 "session entry 1 lacks the field 'train'"),
    "no_held_out": (lambda m: m["sessions"][1].pop("held_out"),
                    "session entry 2 lacks the field 'held_out'"),
    "T_5_for_3": (lambda m: m.update(T=5), "field 'T' is 5 but it lists 3 sessions"),
    "T_float": (lambda m: m.update(T=3.0), "field 'T' is 3.0, not an int >= 2"),
    "T_bool": (lambda m: m.update(T=True), "field 'T' is True, not an int >= 2"),
    "shots_word": (lambda m: m.update(shots="many"), "field 'shots' is 'many', not an int >= 1"),
    "shots_negative": (lambda m: m.update(shots=-3), "field 'shots' is -3, not an int >= 1"),
    "shots_bool": (lambda m: m.update(shots=True), "field 'shots' is True, not an int >= 1"),
    "numbered_3_1_2": (lambda m: _renumber(m, (3, 1, 2)),
                       "session entry 1 has the field 'session' 3, not 1"),
    # one id where a list belongs used to be read as the list of its letters
    "train_string": (lambda m: m["sessions"][1].update(train="s00012"),
                     "session entry 2 field 'train' is 'str', not a list"),
    "held_out_object": (lambda m: m["sessions"][0].update(held_out={"s00012": 1}),
                        "session entry 1 field 'held_out' is 'dict', not a list"),
    "sessions_object": (lambda m: m.update(sessions={}),
                        "field 'sessions' is 'dict', not a list"),
    "id_number": (lambda m: m["sessions"][2]["train"].append(12),
                  "references unknown id 12"),
}


@pytest.mark.parametrize("fault", MANIFEST_FAULTS)
def test_train_rejects_a_malformed_split_manifest(tmp_path, mini_config, capsys, fault):
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--config", mini_config, "--out", str(gen)]) == 0
    manifest = json.loads((gen / "split.json").read_text())
    edit, message = MANIFEST_FAULTS[fault]
    edit(manifest)
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train", "--config", mini_config, "--dataset", str(gen / "dataset.csv"),
                     "--split", str(bad), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: split manifest {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fault", ["root_list", "empty_train"])
def test_train_rejects_a_split_before_writing_anything(tmp_path, mini_config, capsys,
                                                      fault):
    # a manifest that is not an object, and one whose session 2 has nothing
    # to train on: the whole plan is checked before the run directory exists
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--config", mini_config, "--out", str(gen)]) == 0
    manifest = json.loads((gen / "split.json").read_text())
    if fault == "root_list":
        manifest, message = manifest["sessions"], "split manifest root is 'list', not an object"
    else:
        manifest["sessions"][1]["train"] = []
        message = "session 2 has no training samples"
    bad = tmp_path / "split.json"
    bad.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["train", "--config", mini_config, "--dataset", str(gen / "dataset.csv"),
                     "--split", str(bad), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("trunk, message", [
    ([4, 2], "regressor trunk input 4 does not match feature width 12"),
    ([12], "MlpSpec needs at least 2 widths, got (12,)"),
])
def test_train_rejects_a_bad_trunk_before_writing_anything(tmp_path, capsys, trunk,
                                                          message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**MINI, "train": {**MINI["train"], "trunk_widths": trunk}}))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("data_fields, held_out_only, message", [
    ({"n": 3, "T": 3, "shots": 1}, False,
     "session 1 has 1 test sample with held_out_only=False"),
    ({"n": 50, "T": 5, "shots": 10}, True,
     "session 1 has 0 test samples with held_out_only=True"),
])
def test_train_rejects_a_tiny_test_set_before_writing_anything(tmp_path, capsys,
                                                              data_fields,
                                                              held_out_only, message):
    # one-sample test sets, and with held_out_only bands of exactly `shots`
    # samples, cannot be ranked: the plan fails before the run directory exists
    smoke = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                        "smoke.json").read_text())
    smoke["data"].update(data_fields)
    smoke["train"]["held_out_only"] = held_out_only
    config = tmp_path / "config.json"
    config.write_text(json.dumps(smoke))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == \
        f"error: {message}; a rank correlation needs at least 2\n"
    assert not (tmp_path / "run").exists()


# each field of both config sections: (section, name, annotation, bound)
CONFIG_FIELDS = [(section, f.name, f.type, bounds.get(f.name))
                 for section, cls, bounds in (("data", data.DataConfig, data.DATA_BOUNDS),
                                              ("train", trainer.TrainConfig,
                                               trainer.TRAIN_BOUNDS))
                 for f in fields(cls)]


def _wrong_values(annotation, bound):
    """Values that a field of type ``annotation`` and bound ``bound`` must
    refuse: each wrong type, and one step below a number's bound."""
    if annotation == "int":
        wrong = st.booleans() | st.floats()
    elif annotation == "float":
        wrong = st.text() | st.booleans() | st.sampled_from([math.nan, math.inf, -math.inf])
    elif annotation == "bool":
        wrong = st.text() | st.integers()
    elif annotation == "str":
        wrong = st.text().filter(lambda v: v not in bound) | st.integers()
    else:
        wrong = st.integers() | st.lists(st.integers(1, 64), max_size=3).flatmap(
            lambda widths: st.floats().map(lambda w: [*widths, w]))
    if annotation in ("int", "float") and bound is not None:
        wrong |= st.just(bound - 1 if annotation == "int" else math.nextafter(bound, -math.inf))
    return wrong


# values that trained, or failed only once the run directory existed, or
# failed naming no field, before every config field was checked by type
PROBES = [("train", "seed", True), ("train", "no_mp", "yes"), ("train", "online", "no"),
          ("train", "epochs", 2.5), ("train", "m", 2.5), ("train", "b1", 2.5),
          ("train", "b2", 1.5), ("train", "trunk_widths", [12, 6.0]),
          ("train", "lambda_p", math.nan), ("train", "lr", "0.01"),
          ("train", "encoder_widths", 5), ("data", "drift", math.nan), ("data", "T", 3.0),
          ("data", "shots", 2.5), ("data", "n", 60.5), ("train", "reverse_kl", True),
          ("train", "abs_score_distance", True), ("train", "stratified_replay", True)]


def _with_probes(test):
    for probe in PROBES:
        test = example(probe)(test)
    return test


@_with_probes
@settings(database=None, derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(CONFIG_FIELDS).flatmap(
    lambda f: _wrong_values(f[2], f[3]).map(lambda value: (f[0], f[1], value))))
def test_a_wrong_config_value_fails_naming_its_field_before_the_run_directory(case):
    section, name, value = case
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps({**MINI, section: {**MINI[section], name: value}}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert err.getvalue().startswith(f"error: {section} field {name!r} is ")
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--reverse-kl"], ["train", "--abs-score-distance"],
    ["sweep", "--axis", "memory", "--reverse-kl"], ["ablate", "--method", "joint"],
    ["ablate", "--mse-gr"]])
def test_an_option_the_command_does_not_take_is_a_usage_error(capsys, argv):
    # the removed variants have no flags, and ablate sets method and flags itself
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("section, value, kind", [
    ("train", 5, "int"), ("train", "abc", "str"), ("data", [1, 2], "list")])
def test_a_config_section_that_is_no_object_fails_naming_it(tmp_path, capsys, command,
                                                            section, value, kind):
    config, out = tmp_path / "config.json", tmp_path / "run"
    config.write_text(json.dumps({**MINI, section: value}))
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {section} config section is {kind!r}, not an object\n"
    assert not out.exists()


def test_reused_parser_gives_each_call_only_its_own_arguments(monkeypatch):
    seen = []

    def record(args):
        seen.append(vars(args))
        return 0

    for command in ("train", "eval"):
        monkeypatch.setitem(cli.COMMANDS, command, record)
    runs = [["train", "--online", "--no-mp", "--seed", "3", "--out", "a"],
            ["train", "--mse-gr", "--out", "b"],
            ["eval", "--checkpoint", "c", "--dataset", "d", "--split", "s",
             "--session", "2"],
            ["eval", "--checkpoint", "c", "--dataset", "d", "--split", "s"],
            ["train"]]
    for argv in runs:
        assert cli.main(argv) == 0
    assert cli.build_parser() is cli.build_parser()
    flags = {flag: False for flag in trainer.ABLATION_FLAGS}
    train = dict(command="train", config=None, method=None, dataset=None, split=None,
                 **flags)
    evaluate = dict(command="eval", checkpoint="c", dataset="d", split="s", out=None)
    assert seen == [
        {**train, "online": True, "no_mp": True, "seed": 3, "out": "a"},
        {**train, "online": False, "mse_gr": True, "seed": None, "out": "b"},
        {**evaluate, "session": 2},
        {**evaluate, "session": None},
        {**train, "online": False, "seed": None, "out": None},
    ]


def test_train_keeps_the_given_dataset_bytes(tmp_path, mini_config):
    # the run's dataset.csv is the --dataset file as given; for a file
    # `gen` wrote, those are the bytes a re-render of its dataset gives
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--config", mini_config, "--out", str(gen)]) == 0
    given = (gen / "dataset.csv").read_bytes()
    rendered = tmp_path / "rendered.csv"
    data.save_csv(data.load_csv(gen / "dataset.csv"), rendered)
    assert rendered.read_bytes() == given
    hand = tmp_path / "hand.csv"  # the same table with bare line feeds
    hand.write_bytes(given.replace(b"\r\n", b"\n"))
    for source, out in ((gen / "dataset.csv", "ra"), (hand, "rb")):
        assert cli.main(["train", "--config", mini_config, "--dataset", str(source),
                         "--split", str(gen / "split.json"),
                         "--out", str(tmp_path / out)]) == 0
    a, b = (tmp_path / out / "magr-seed0" for out in ("ra", "rb"))
    assert (a / "dataset.csv").read_bytes() == given
    assert (b / "dataset.csv").read_bytes() == hand.read_bytes() != given
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


@pytest.mark.parametrize("line, fault", [
    (b"a" * 131073 + b",1,2\n", "line 3: field larger than field limit (131072)"),
    (b"\xff,1,2\n",
     "'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
])
def test_train_names_the_dataset_file_it_cannot_read(tmp_path, mini_config, capsys,
                                                     line, fault):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"id,score,x0\nb,1,2\n" + line)
    assert cli.main(["train", "--config", mini_config, "--dataset", str(bad),
                     "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {fault}\n"
    assert not (tmp_path / "run").exists()


def test_commands_on_one_dataset_parse_it_once(tmp_path, mini_config, monkeypatch):
    # train, eval on two checkpoints and a scatter plot read the same bytes,
    # the --dataset file and then the run's copy of it: one parse serves
    # them all, and each writes what it writes with nothing kept before it
    gen = tmp_path / "gen"
    assert cli.main(["gen", "--config", mini_config, "--out", str(gen)]) == 0
    parses, read = [], data._read_table
    monkeypatch.setattr(data, "_read_table",
                        lambda text, path: parses.append(str(path)) or read(text, path))

    def outputs(out: Path, keep: bool) -> list:
        run = out / "magr-seed0"
        commands = [["train", "--config", mini_config, "--dataset", str(gen / "dataset.csv"),
                     "--split", str(gen / "split.json"), "--out", str(out)]]
        commands += [["eval", "--checkpoint", str(run / "checkpoints" / f"session_0{t}.json"),
                      "--dataset", str(run / "dataset.csv"),
                      "--split", str(run / "split.json"), "--out", str(out / f"{t}.json")]
                     for t in (2, 3)]
        commands.append(["plot", "--run", str(run), "--kind", "scatter"])
        for argv in commands:
            if not keep:
                monkeypatch.setattr(data, "_LAST", None)
            assert cli.main(argv) == 0
        evals = [json.loads((out / f"{t}.json").read_text()) for t in (2, 3)]
        for payload in evals:
            payload["checkpoint"] = str(Path(payload["checkpoint"]).relative_to(out))
        return [(run / "results.csv").read_bytes(), evals,
                (run / "plots" / "scatter.svg").read_bytes()]

    kept = outputs(tmp_path / "kept", keep=True)
    assert parses == [str(gen / "dataset.csv")]
    assert outputs(tmp_path / "fresh", keep=False) == kept
    assert len(parses) == 5


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
    # every checkpoint of a run, scored on every test set or on the held-out
    # parts alone, reads the cells and pooled rho that training wrote; with
    # label noise, both score the true scores of the split, not the noisy
    # labels training read
    held_out_only = tmp_path / "held_out_only.json"
    held_out_only.write_text(json.dumps({**MINI, "train": {**MINI["train"],
                                                           "held_out_only": True}}))
    smoke = json.loads((Path(__file__).resolve().parents[1] / "configs" /
                        "smoke.json").read_text())
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({**smoke, "data": {**smoke["data"], "label_noise": 6.0}}))
    for config in (mini_config, str(held_out_only), str(noisy)):
        run_dir = _train(tmp_path, config, out=Path(config).stem)
        rows = {}
        for line in (run_dir / "results.csv").read_text().splitlines()[1:]:
            session, metric, value = line.split(",")
            rows[(int(session), metric)] = float(value)
        for t in (1, 2, 3):
            out = tmp_path / f"metrics_{t}.json"
            rc = cli.main(["eval", "--checkpoint",
                           str(run_dir / "checkpoints" / f"session_0{t}.json"),
                           "--dataset", str(run_dir / "dataset.csv"),
                           "--split", str(run_dir / "split.json"),
                           "--out", str(out)])
            assert rc == 0
            payload = json.loads(out.read_text())
            assert payload["rho_per_session"] == {
                str(j): rows[(t, f"rho_on_{j}")] for j in range(1, t + 1)}
            assert payload["rho_avg"] == rows[(t, "rho_avg")]


def test_eval_early_checkpoint_and_session_cap(tmp_path, mini_config, capsys):
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
    for session in ("0", "-1"):  # no longer the default range, nor a crash
        rc = cli.main(["eval", "--checkpoint", str(ckpt),
                       "--dataset", str(run_dir / "dataset.csv"),
                       "--split", str(run_dir / "split.json"),
                       "--session", session])
        assert rc == 1
        assert f"--session must be >= 1, got {session}" in capsys.readouterr().err


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
    # every ablation flag has a variant, and no variant sets another field
    assert set(trainer.ABLATION_FLAGS) == set().union(*cli.ABLATION_VARIANTS.values())
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


def test_sweep_rejects_fractional_counts(tmp_path, mini_config, capsys):
    # shots and memory are counts: 3.5 would run as 3 but be recorded as 3.5
    for axis in ("shots", "memory"):
        out = tmp_path / axis
        rc = cli.main(["sweep", "--config", mini_config, "--out", str(out),
                       "--axis", axis, "--values", "3.5,3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--axis {axis}" in err and "3.5" in err
        assert not (out / "sweep.csv").exists()
    # values that are no numbers at all name the flag too; an empty list is
    # one of them, not a request for the default values
    for values in ("abc", "2,,3", ""):
        out = tmp_path / "bad"
        rc = cli.main(["sweep", "--config", mini_config, "--out", str(out),
                       "--axis", "shots", "--values", values])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --values ") and repr(values) in err
        assert not (out / "sweep.csv").exists()


def test_sweep_rejects_non_finite_noise_before_training(tmp_path, mini_config, capsys,
                                                       monkeypatch):
    # every cell is checked before the first one trains
    monkeypatch.setattr(trainer, "train_session", None)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", mini_config, "--out", str(out),
                     "--axis", "noise", "--values", "0,nan,inf"]) == 1
    assert capsys.readouterr().err == \
        "error: data field 'label_noise' is nan, not a finite float >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("held_out_only, values, message", [
    (False, "5,25", "grade 1 has 20 samples, fewer than shots=25"),
    (True, "5,20", "session 1 has 0 test samples with held_out_only=True"),
])
def test_grid_checks_every_plan_before_any_run(tmp_path, monkeypatch, capsys, held_out_only,
                                               values, message):
    # the second shot count's split is impossible: the sweep fails before
    # the first shot count's cells train
    calls, real = [], cli.run_many

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "run_many", spy)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINI, train=dict(MINI["train"], held_out_only=held_out_only),
                                    seeds=[0, 1])))
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(path), "--axis", "shots", "--values", values,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("seeds", [[True], [], [0, -1], [0.0], 3, "0"])
def test_grid_rejects_a_bad_seeds_list_before_any_run(tmp_path, capsys, seeds):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(MINI, seeds=seeds)))
    for command in (["ablate"], ["sweep", "--axis", "memory", "--values", "3"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: config field 'seeds' is {seeds!r}, "
                                           f"not a non-empty list of ints >= 0\n")
        assert not out.exists()


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
    cfg = data.config_from_dict(trainer.TrainConfig, {**train, "seed": seed}, "train")
    return trainer.run_continual(plan, scaler, cfg).summary


def _assert_row_matches(row, summary):
    for key in ("rho_avg", "rho_aft", "rho_fwt"):
        assert float(row[key]) == summary[key], (row, key)


def test_grid_runner_matches_direct_runs(tmp_path):
    # a non-magr method and ablation flags in the base config show that
    # ablate overrides them and sweep keeps them
    cfg = dict(MINI, train=dict(MINI["train"], epochs=1, method="replay-raw", mse_gr=True,
                                no_mp=True), seeds=[0, 1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))

    # ablate: every variant is magr plus the paper's flags for it, and no others
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
        train = {**cfg["train"], "method": "magr", "mse_gr": False, "no_mp": False,
                 **variant_flags[r["variant"]]}
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


def test_grid_explicit_seed_overrides_seeds_list(tmp_path):
    cfg = dict(MINI, train=dict(MINI["train"], epochs=1), seeds=[0, 1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["ablate", "--config", str(path), "--seed", "7",
                     "--out", str(tmp_path / "abl")]) == 0
    rows = _read_csv(tmp_path / "abl" / "ablation.csv")
    assert [(r["variant"], r["seed"]) for r in rows] == \
        [(v, "7") for v in cli.ABLATION_VARIANTS]
    _assert_row_matches(rows[0], _direct_summary(7, cfg["train"]))
    assert cli.main(["sweep", "--config", str(path), "--seed", "7", "--axis", "memory",
                     "--values", "2", "--out", str(tmp_path / "sw")]) == 0
    rows = _read_csv(tmp_path / "sw" / "sweep.csv")
    assert [r["seed"] for r in rows] == ["7"]
    _assert_row_matches(rows[0], _direct_summary(7, {**cfg["train"], "m": 2}))


def test_grid_trains_first_session_once_per_plan(tmp_path, monkeypatch, workers):
    # in-process: a worker's calls would never reach this process's count
    workers(1)
    cfg = dict(MINI, train=dict(MINI["train"], epochs=1), seeds=[0, 1])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    first_sessions = []
    real = trainer.train_session

    def spy(state, *args):
        if state.session == 0:
            first_sessions.append(args[-1].seed)
        return real(state, *args)

    monkeypatch.setattr(trainer, "train_session", spy)
    # 8 variants x 2 seeds: one first session per seed
    assert cli.main(["ablate", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert first_sessions == [0, 1]
    # memory sizes share a plan per seed; shot counts do not
    for axis, expected in (("memory", [0, 1]), ("shots", [0, 0, 1, 1])):
        first_sessions.clear()
        assert cli.main(["sweep", "--config", str(path), "--axis", axis, "--values",
                         "3,4", "--out", str(tmp_path / axis)]) == 0
        assert first_sessions == expected


def _grid_config(tmp_path, seeds=(0, 1)):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(MINI, train=dict(MINI["train"], epochs=1),
                                    seeds=list(seeds))))
    return str(path)


def test_grid_workers_train_their_own_first_sessions(tmp_path, monkeypatch, workers):
    # one pool of two per seed; each worker runs 4 of the 8 variants, which
    # train in lockstep, so its only train_session is its seed's first
    # session, and this process trains none
    forked = workers(2)
    real = trainer.train_session

    def spy(state, *args):
        workers.log.append(state.session + 1, args[-1].seed)
        return real(state, *args)

    monkeypatch.setattr(trainer, "train_session", spy)
    assert cli.main(["ablate", "--config", _grid_config(tmp_path),
                     "--out", str(tmp_path / "a")]) == 0
    assert len(forked) == 4
    assert workers.log.by_pid() == {pid: [(1, w // 2)] for w, pid in enumerate(forked)}


def test_grid_artifacts_do_not_depend_on_worker_count(tmp_path, workers):
    config = _grid_config(tmp_path)
    artifacts = []
    for n in (1, 2):
        forked = workers(n)
        out = tmp_path / f"cpus{n}"
        assert cli.main(["ablate", "--config", config, "--out", str(out)]) == 0
        assert cli.main(["sweep", "--config", config, "--axis", "memory",
                         "--values", "2,3,4", "--out", str(out)]) == 0
        assert len(forked) == (0 if n == 1 else 8)  # 2 per seed and command
        artifacts.append([(out / name).read_bytes()
                          for name in ("ablation.csv", "sweep.csv")])
    assert artifacts[0] == artifacts[1]


def test_worker_error_fails_ablate(tmp_path, monkeypatch, workers, capsys):
    workers(2)
    real = trainer._fork

    def fork(state, config):
        if config.no_residual:
            raise metrics.DegenerateInputError("constant predictions")
        return real(state, config)

    monkeypatch.setattr(trainer, "_fork", fork)
    out = tmp_path / "abl"
    assert cli.main(["ablate", "--config", _grid_config(tmp_path, seeds=[0]),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: constant predictions\n"
    assert not out.exists()


def _sessions() -> list[int]:
    """The session id of every process on the machine."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while being read
        out.append(int(fields[3]))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs Linux /proc")
def test_ablate_leaves_no_process_in_its_session(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "mreplay.cli", "ablate",
                             "--config", _grid_config(tmp_path),
                             "--out", str(tmp_path / "abl")],
                            env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    assert (tmp_path / "abl" / "ablation.csv").exists()
    assert proc.pid not in _sessions()


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")


def test_failed_artifact_writes_keep_previous_files(tmp_path):
    json_path, csv_path = tmp_path / "summary.json", tmp_path / "rows.csv"
    cli._write_json(json_path, {"a": 1.5})
    cli._write_rows(csv_path, ["k", "v"], [["a", 1.5]])
    good_json, good_csv = json_path.read_bytes(), csv_path.read_bytes()
    # the CSV writer has already written part of its file when it fails
    with pytest.raises(TypeError):
        cli._write_json(json_path, {"a": [1.0] * 100, "b": object()})
    with pytest.raises(RuntimeError, match="cannot format"):
        cli._write_rows(csv_path, ["k", "v"], [["a", 1.0]] * 100 + [["b", _Unprintable()]])
    assert json_path.read_bytes() == good_json
    assert csv_path.read_bytes() == good_csv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "summary.json"]


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


def test_failed_plot_and_report_writes_keep_previous_files(tmp_path, mini_config,
                                                           monkeypatch):
    run_dir = _train(tmp_path, mini_config)
    report = tmp_path / "report.md"
    assert cli.main(["plot", "--run", str(run_dir), "--kind", "sessions"]) == 0
    assert cli.main(["report", "--runs", str(run_dir), "--out", str(report)]) == 0
    svg = run_dir / "plots" / "sessions.svg"
    before = svg.read_bytes(), report.read_bytes()
    # a lone surrogate cannot be encoded, so each write fails after its
    # file has been opened
    monkeypatch.setattr(cli, "sessions_plot", lambda curves: "<svg>" * 5000 + "\ud800")
    assert cli.main(["plot", "--run", str(run_dir), "--kind", "sessions"]) == 1
    bad = tmp_path / "bad"
    bad.mkdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    (bad / "summary.json").write_text(json.dumps({**summary, "method": "\ud800"}))
    assert cli.main(["report", "--runs", str(run_dir), str(bad), "--out", str(report)]) == 1
    assert (svg.read_bytes(), report.read_bytes()) == before
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


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


_DROP = object()  # a field to delete


@pytest.mark.parametrize("field, value, message", [
    ("session", 2.5, "checkpoint field 'session' is 2.5, not an int >= 0"),
    ("session", "2", "checkpoint field 'session' is '2', not an int >= 0"),
    ("session", -3, "checkpoint field 'session' is -3, not an int >= 0"),
    ("bank.refresh_epoch", 2.5, "checkpoint field 'bank.refresh_epoch' is 2.5, "
                                "not an int >= 0"),
    ("bank.refresh_epoch", -1, "checkpoint field 'bank.refresh_epoch' is -1, "
                               "not an int >= 0"),
    ("bank.refresh_epoch", 3, "checkpoint field 'bank.refresh_epoch' is 3, "
                              "above its session 2"),
    ("bank.capacity", 0, "checkpoint field 'bank.capacity' is 0, not an int >= 1"),
    ("bank.capacity", True, "checkpoint field 'bank.capacity' is True, not an int >= 1"),
    # the root is field "", and a callable value is applied to the stored one
    ("", lambda p: [p], "checkpoint root is 'list', not an object"),
    ("scaler", _DROP, "checkpoint field 'scaler' is missing"),
    ("rng", _DROP, "checkpoint field 'rng' is missing"),
    ("bank.ids", _DROP, "checkpoint field 'bank.ids' is missing"),
    ("scaler.lo", "a", "checkpoint field 'scaler.lo' is 'a', not a finite float"),
    ("bank.scores", lambda v: ["0.5", *v[1:]],
     "checkpoint field 'bank.scores' is not a list of finite floats"),
    ("bank.sessions", lambda v: [*v[:-1], 99],
     "checkpoint field 'bank.sessions' is not a list of ints from 1 to the session 2"),
])
def test_a_bad_checkpoint_scalar_fails_eval_naming_it(tmp_path, capsys, field, value,
                                                      message):
    smoke = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"
    assert cli.main(["train", "--config", str(smoke), "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "magr-seed0"
    payload = json.loads((run_dir / "checkpoints" / "session_02.json").read_text())
    if not field:
        payload = value(payload)
    else:
        *parents, key = field.split(".")
        target = payload
        for parent in parents:
            target = target[parent]
        if value is _DROP:
            del target[key]
        else:
            target[key] = value(target[key]) if callable(value) else value
    hacked = tmp_path / "hacked.json"
    hacked.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(hacked),
                     "--dataset", str(run_dir / "dataset.csv"),
                     "--split", str(run_dir / "split.json")]) == 1
    assert capsys.readouterr().err == f"error: {hacked}: {message}\n"
