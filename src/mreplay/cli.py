"""Command-line front end.

Subcommands: gen, split, train, eval, ablate, sweep, plot, report.
A JSON config file mirrors the DataConfig / TrainConfig field names under
"data" and "train" sections; command-line flags override single fields.
Outputs land under --out, the MREPLAY_OUT env var, or ./runs. Each JSON
or CSV artifact is written beside its target and moved over it, so a failed
write never leaves a truncated file.

``ablate`` and ``sweep`` share one grid runner: each grid cell is a data
config plus a train config, run for ``--seed`` or each of the "seeds".
An ablation variant is a set of TrainConfig flags over ``magr``; a sweep
axis changes one field of the data or train config.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DATA_BOUNDS, DataConfig, Dataset, SessionPlan, SessionSplit,
                   atomic_write, check_field, config_from_dict, grade_split,
                   generate_synthetic, inject_label_noise, load_csv, normalize_scores,
                   parse_csv, save_csv)
from .metrics import spearman  # noqa: F401 - unused; bench/test_checks.py traces cli.spearman
from .plots import pca_plot, scatter_plot, sessions_plot, sweep_plot
from .trainer import (ABLATION_FLAGS, METHODS, RunResult, TrainConfig,
                      bundle_spec_for, check_test_sets, run_continual, run_many,
                      score_sets)

SPLIT_FORMAT_VERSION = 1
DEFAULT_SWEEP_VALUES = {"shots": [5, 10, 15, 20], "noise": [0.0, 3.0, 6.0, 9.0],
                        "memory": [3, 5, 7, 9, 11]}
# ablation variant -> the TrainConfig flags it sets on ``magr``
ABLATION_VARIANTS = {
    "full": {},
    "no_mp": {"no_mp": True},
    "no_residual": {"no_residual": True},
    "no_ii_gr": {"no_ii_gr": True},
    "no_j_gr": {"no_j_gr": True},
    "no_iij_gr": {"no_ii_gr": True, "no_j_gr": True},
    "mse_gr": {"mse_gr": True},
    "random_sampling": {"random_sampling": True},
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config root must be an object")
    known = {"data", "train", "seeds"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path}: unknown config sections {sorted(unknown)}")
    return raw


def _data_config(cfg: dict) -> DataConfig:
    return config_from_dict(DataConfig, cfg.get("data", {}), "data")


def _train_config(cfg: dict, args) -> TrainConfig:
    tc = config_from_dict(TrainConfig, cfg.get("train", {}), "train")
    overrides = {flag: True for flag in ("online", *ABLATION_FLAGS)
                 if getattr(args, flag, False)}
    if getattr(args, "method", None):
        overrides["method"] = args.method
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return replace(tc, **overrides)


def _out_root(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(os.environ.get("MREPLAY_OUT", "runs"))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _write_json(path: Path, payload) -> None:
    _write_text(path, _json_text(payload))


def _emit(out: str | None, text: str) -> None:
    """Write ``text`` to the file ``out`` and say so, or print it."""
    if out:
        _write_text(Path(out), text)
        print(f"wrote {out}")
    else:
        print(text, end="")


def _num(v: float | None) -> str:
    return "-" if v is None else f"{v:.4f}"


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([v if isinstance(v, str) else
                        ("" if v is None else repr(v) if isinstance(v, float) else str(v))
                        for v in row])


# ------------------------------------------------------------------- splits


def split_manifest(plan: SessionPlan, seed: int) -> dict:
    return {
        "format_version": SPLIT_FORMAT_VERSION,
        "T": plan.n_sessions,
        "shots": plan.shots,
        "seed": seed,
        "sessions": [{"session": s.session,
                      "train": [x.sample_id for x in s.train],
                      "held_out": [x.sample_id for x in s.held_out]}
                     for s in plan.sessions],
    }


def plan_from_manifest(dataset: Dataset, manifest: dict) -> SessionPlan:
    def kind(value, want: type, what: str):
        if not isinstance(value, want):
            raise ValueError(f"split manifest {what} is {type(value).__name__!r}, "
                             f"not {'an object' if want is dict else 'a list'}")
        return value

    version = kind(manifest, dict, "root").get("format_version")
    if version != SPLIT_FORMAT_VERSION:
        raise ValueError(f"split manifest format {version!r} does not match "
                         f"supported version {SPLIT_FORMAT_VERSION}")

    def need(d: dict, key: str, where: str = "split manifest"):
        if key not in d:
            raise ValueError(f"{where} lacks the field {key!r}")
        return d[key]

    for key in ("T", "shots"):
        check_field("split manifest", key, "int", need(manifest, key), DATA_BOUNDS[key])
    entries = kind(need(manifest, "sessions"), list, "field 'sessions'")
    if manifest["T"] != len(entries):
        raise ValueError(f"split manifest field 'T' is {manifest['T']!r} "
                         f"but it lists {len(entries)} sessions")
    by_id = {s.sample_id: s for s in dataset.samples}
    seen: set[str] = set()
    sessions = []

    def grab(ids):
        for sid in ids:
            if not isinstance(sid, str) or sid not in by_id:
                raise ValueError(f"split manifest references unknown id {sid!r}")
            if sid in seen:
                raise ValueError(f"split manifest reuses id {sid!r}")
            seen.add(sid)
        return tuple(by_id[sid] for sid in ids)

    for t, entry in enumerate(entries, start=1):
        where = f"split manifest session entry {t}"
        kind(entry, dict, f"session entry {t}")
        if need(entry, "session", where) != t:
            raise ValueError(f"{where} has the field 'session' "
                             f"{entry['session']!r}, not {t}")
        train, held_out = (kind(need(entry, field, where), list,
                                f"session entry {t} field {field!r}")
                           for field in ("train", "held_out"))
        sessions.append(SessionSplit(session=t, train=grab(train), held_out=grab(held_out)))
    return SessionPlan(sessions=tuple(sessions), shots=manifest["shots"],
                       input_width=dataset.input_width,
                       score_range=dataset.score_range,
                       feature_mode=dataset.feature_mode)


def _build_plan(dataset: Dataset, data_cfg: DataConfig, split_path: str | None,
                split_seed: int):
    if split_path:
        with open(split_path) as fh:
            manifest = json.load(fh)
        plan = plan_from_manifest(dataset, manifest)
    else:
        plan = grade_split(dataset, data_cfg.T, data_cfg.shots, split_seed)
        manifest = split_manifest(plan, split_seed)
    if data_cfg.label_noise > 0:
        plan = inject_label_noise(plan, data_cfg.label_noise, split_seed)
    for t in range(1, plan.n_sessions + 1):
        if not plan.training_arrays(t)[2]:
            raise ValueError(f"session {t} has no training samples")
    return plan, manifest


def _load_dataset(args, data_cfg: DataConfig) -> tuple[Dataset, bytes | None]:
    """The ``--dataset`` file's dataset and the bytes it was parsed from,
    or a dataset synthesized from ``data_cfg`` and None."""
    if getattr(args, "dataset", None):
        raw = Path(args.dataset).read_bytes()
        return parse_csv(raw, args.dataset), raw
    return generate_synthetic(data_cfg), None


# -------------------------------------------------------------- subcommands


def cmd_split(args) -> int:
    """``gen`` and ``split``: grade-split ``--dataset`` or, without one, a
    dataset synthesised with the seed and written beside the split."""
    data_cfg = _data_config(_load_config(args.config))
    seed = data_cfg.seed if args.seed is None else args.seed
    dataset, _ = _load_dataset(args, replace(data_cfg, seed=seed))
    plan = grade_split(dataset, data_cfg.T, data_cfg.shots, seed)
    out = _out_root(args)
    out.mkdir(parents=True, exist_ok=True)
    wrote = ""
    if not getattr(args, "dataset", None):
        save_csv(dataset, out / "dataset.csv")
        wrote = f"{out / 'dataset.csv'} ({len(dataset.samples)} samples) and "
    _write_json(out / "split.json", split_manifest(plan, seed))
    print(f"wrote {wrote}{out / 'split.json'}")
    return 0


def _results_rows(result: RunResult) -> list[list]:
    rows = []
    T = result.n_sessions
    joint = result.method == "joint"
    for t in [T] if joint else range(1, T + 1):
        for j in range(1, t + 1):
            rows.append([t, f"rho_on_{j}", result.matrix.cell(t, j)])
        if t < T:
            rows.append([t, f"rho_lookahead_{t + 1}", result.matrix.cell(t, t + 1)])
        rows.append([t, "rho_avg", result.matrix.pooled[t]])
    if not joint:
        rows.append([T, "rho_aft", result.summary["rho_aft"]])
        rows.append([T, "rho_fwt", result.summary["rho_fwt"]])
    return rows


def _open_run(run_dir: Path, args, data_cfg: DataConfig,
              train_cfg: TrainConfig) -> SessionPlan:
    """The run's plan, once ``run_dir`` holds its ``dataset.csv`` and
    ``split.json``. ``dataset.csv`` is the ``--dataset`` file's bytes as
    given, or the synthesized dataset rendered. The plan, its test sets and
    the model's widths are checked before the directory exists, and the
    bytes are let go before training starts."""
    dataset, raw = _load_dataset(args, data_cfg)
    plan, manifest = _build_plan(dataset, data_cfg, getattr(args, "split", None),
                                 train_cfg.seed)
    check_test_sets(plan, train_cfg.held_out_only)
    bundle_spec_for(train_cfg, dataset.input_width, dataset.feature_mode)
    run_dir.mkdir(parents=True, exist_ok=True)
    if raw is None:
        save_csv(dataset, run_dir / "dataset.csv")
    else:
        with atomic_write(run_dir / "dataset.csv", binary=True) as fh:
            fh.write(raw)
    _write_json(run_dir / "split.json", manifest)
    return plan


def _run_and_write(run_dir: Path, plan: SessionPlan, data_cfg: DataConfig,
                   train_cfg: TrainConfig) -> RunResult:
    plan_norm, scaler = normalize_scores(plan)
    ckpt_dir = run_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    saved = []

    def on_session(state, t):
        path = ckpt_dir / f"session_{t:02d}.json"
        save_checkpoint(path, state, scaler, train_cfg)
        saved.append(str(path))

    result = run_continual(plan_norm, scaler, train_cfg, on_session=on_session)
    _write_rows(run_dir / "results.csv", ["session", "metric", "value"],
                _results_rows(result))
    summary = dict(result.summary)
    summary["n_sessions"] = result.n_sessions
    summary["config"] = asdict(train_cfg)
    summary["version"] = __version__
    _write_json(run_dir / "summary.json", summary)
    manifest_doc = {
        "version": __version__,
        "config": {"data": asdict(data_cfg), "train": asdict(train_cfg)},
        "seed": train_cfg.seed,
        "artifacts": {
            "dataset": str(run_dir / "dataset.csv"),
            "split": str(run_dir / "split.json"),
            "results": str(run_dir / "results.csv"),
            "summary": str(run_dir / "summary.json"),
            "checkpoints": saved,
        },
        "wall_seconds": [r.wall_seconds for r in result.reports],
        "epochs_run": [r.epochs_run for r in result.reports],
    }
    _write_json(run_dir / "manifest.json", manifest_doc)
    return result


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    data_cfg = _data_config(cfg)
    train_cfg = _train_config(cfg, args)
    run_dir = _out_root(args) / f"{train_cfg.method}-seed{train_cfg.seed}"
    result = _run_and_write(run_dir, _open_run(run_dir, args, data_cfg, train_cfg),
                            data_cfg, train_cfg)
    s = result.summary
    print(f"{train_cfg.method} seed={train_cfg.seed}: rho_avg={_num(s['rho_avg'])} "
          f"rho_aft={_num(s['rho_aft'])} rho_fwt={_num(s['rho_fwt'])}")
    print(f"run dir: {run_dir}")
    return 0


def _checkpoint_scores(checkpoint, dataset_path, split_path, upto: int | None = None):
    """Score a checkpoint on the test sets of sessions 1..``upto`` of a
    dataset + split, their scores normalized by the checkpoint's scaler.
    ``upto`` defaults to the sessions the checkpoint was trained on (all of
    them for ``joint``). Returns that default and ``score_sets``' scores."""
    if upto is not None and upto < 1:
        raise ValueError(f"--session must be >= 1, got {upto}")
    state, scaler, train_cfg = load_checkpoint(checkpoint)
    dataset = load_csv(dataset_path)
    with open(split_path) as fh:
        plan = plan_from_manifest(dataset, json.load(fh))
    t = state.session if train_cfg.method != "joint" else plan.n_sessions
    upto = t if upto is None else upto
    if upto > plan.n_sessions:
        raise ValueError(f"session {upto} exceeds plan with {plan.n_sessions}")
    sets = [plan.test_arrays(j, train_cfg.held_out_only) for j in range(1, upto + 1)]
    return t, score_sets(state.bundle, [(x, scaler.normalize(y)) for x, y in sets], scaler)


def cmd_eval(args) -> int:
    t, scores = _checkpoint_scores(args.checkpoint, args.dataset, args.split, args.session)
    payload = {"checkpoint": str(args.checkpoint), "session": t,
               "rho_per_session": {str(j): rho for j, rho in enumerate(scores.rhos, start=1)},
               "rho_avg": scores.pooled}
    _emit(args.out, _json_text(payload))
    return 0


def _run_grid(args, cells):
    """The grid runner of ``ablate`` and ``sweep``. ``cells(data_cfg,
    train_cfg)`` yields (label, data config, train config) from the base
    configs. For each seed, the cells of one data config share a plan and
    a ``run_many`` call. Yields (label, seed, summary), cell by cell."""
    cfg = _load_config(args.config)
    data_cfg = _data_config(cfg)
    train_cfg = _train_config(cfg, args)
    seeds = cfg.get("seeds", [train_cfg.seed]) if args.seed is None else [args.seed]
    if not isinstance(seeds, list) or not seeds or \
            any(type(s) is not int or s < 0 for s in seeds):  # a bool is no seed
        raise ValueError(f"config field 'seeds' is {seeds!r}, "
                         "not a non-empty list of ints >= 0")
    # every cell is built, and so checked, before any of them trains
    grid = list(cells(data_cfg, train_cfg))
    dataset, _ = _load_dataset(args, data_cfg)
    summaries = {}
    for seed in seeds:
        for cell_data in dict.fromkeys(data for _, data, _ in grid):
            members = [i for i, (_, data, _) in enumerate(grid) if data == cell_data]
            plan, _ = _build_plan(dataset, cell_data, None, seed)
            runs = run_many(*normalize_scores(plan),
                            [replace(grid[i][2], seed=seed) for i in members])
            for i, result in zip(members, runs):
                summaries[i, seed] = result.summary
    for i, (label, _, _) in enumerate(grid):
        for seed in seeds:
            yield label, seed, summaries[i, seed]


def cmd_ablate(args) -> int:
    def cells(data_cfg, train_cfg):
        for variant, flags in ABLATION_VARIANTS.items():
            yield variant, data_cfg, replace(train_cfg, method="magr", **flags)

    rows = []
    full_scores: dict[int, float] = {}
    for variant, seed, s in _run_grid(args, cells):
        if variant == "full":
            full_scores[seed] = s["rho_avg"]
        delta = s["rho_avg"] - full_scores[seed]
        pct = 100.0 * delta / abs(full_scores[seed]) if full_scores[seed] else 0.0
        rows.append([variant, seed, s["rho_avg"], s["rho_aft"], s["rho_fwt"],
                     delta, pct])
        print(f"{variant} seed={seed}: rho_avg={s['rho_avg']:.4f} "
              f"(delta={delta:+.4f})")
    out = _out_root(args)
    _write_rows(out / "ablation.csv",
                ["variant", "seed", "rho_avg", "rho_aft", "rho_fwt",
                 "delta_rho_avg", "delta_pct"], rows)
    print(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_sweep(args) -> int:
    try:
        values = DEFAULT_SWEEP_VALUES[args.axis] if args.values is None else \
            [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ValueError(f"--values takes comma-separated numbers, got {args.values!r}") \
            from None
    for value in values:
        if args.axis != "noise" and not float(value).is_integer():
            raise ValueError(f"--axis {args.axis} takes whole numbers, got {value!r}")

    def cells(data_cfg, train_cfg):
        for value in values:
            if args.axis == "shots":
                yield value, replace(data_cfg, shots=int(value)), train_cfg
            elif args.axis == "noise":
                yield value, replace(data_cfg, label_noise=float(value)), train_cfg
            else:
                yield value, data_cfg, replace(train_cfg, m=int(value))

    rows = [[args.axis, value, seed, s["rho_avg"], s["rho_aft"], s["rho_fwt"]]
            for value, seed, s in _run_grid(args, cells)]
    out = _out_root(args)
    _write_rows(out / "sweep.csv",
                ["axis", "value", "seed", "rho_avg", "rho_aft", "rho_fwt"], rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_plot(args) -> int:
    run_dir = Path(args.run)
    out = Path(args.out) if args.out else run_dir / "plots"
    kind = args.kind
    if kind == "sessions":
        with open(run_dir / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        curve = [(int(r["session"]), float(r["value"])) for r in rows
                 if r["metric"] == "rho_avg"]
        svg = sessions_plot({run_dir.name: curve})
    elif kind == "sweep":
        with open(run_dir / "sweep.csv", newline="") as fh:
            raw = list(csv.DictReader(fh))
        rows = [{"axis": r["axis"], "value": float(r["value"]),
                 "seed": int(r["seed"]), "rho_avg": float(r["rho_avg"])}
                for r in raw]
        svg = sweep_plot(rows)
    elif kind in ("scatter", "pca2d"):
        ckpts = sorted((run_dir / "checkpoints").glob("session_*.json"))
        if not ckpts:
            raise FileNotFoundError(f"no checkpoints under {run_dir}")
        if kind == "scatter":
            _, scores = _checkpoint_scores(ckpts[-1], run_dir / "dataset.csv",
                                           run_dir / "split.json")
            tags = [j for j, truth in enumerate(scores.truths, start=1) for _ in truth]
            svg = scatter_plot(np.concatenate(scores.truths), np.concatenate(scores.preds),
                               tags)
        else:
            state, _, _ = load_checkpoint(ckpts[-1])
            if state.bank.size == 0:
                raise ValueError("empty memory bank; pca2d needs stored features")
            labels = [r.session for r in state.bank.entries]
            svg, sil = pca_plot(state.bank.features(), labels)
            _write_json(out / "pca2d.json", {"silhouette": sil,
                                             "n_points": state.bank.size})
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    path = out / f"{kind}.svg"
    _write_text(path, svg)
    print(f"wrote {path}")
    return 0


def cmd_report(args) -> int:
    lines = ["| run | method | seed | rho_avg | rho_aft | rho_fwt |",
             "|---|---|---|---|---|---|"]
    for run in args.runs:
        with open(Path(run) / "summary.json") as fh:
            s = json.load(fh)
        lines.append(f"| {Path(run).name} | {s['method']} | {s['seed']} | "
                     f"{_num(s['rho_avg'])} | {_num(s['rho_aft'])} | "
                     f"{_num(s['rho_fwt'])} |")
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every parse returns a
    new namespace and leaves the parser as it was."""
    p = argparse.ArgumentParser(prog="mreplay",
                                description="continual score-regression lab")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, method_flag=True):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, help="override the seed")
        sp.add_argument("--out", help="output directory")
        if method_flag:
            sp.add_argument("--method", choices=METHODS)
            sp.add_argument("--online", action="store_true",
                            help="single-epoch online regime")
            for flag in ABLATION_FLAGS:
                sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag,
                                action="store_true")

    sp = sub.add_parser("gen", help="generate a synthetic dataset + split")
    common(sp, method_flag=False)

    sp = sub.add_parser("split", help="split an existing dataset CSV")
    common(sp, method_flag=False)
    sp.add_argument("--dataset", required=True, help="dataset CSV")

    sp = sub.add_parser("train", help="run one continual training")
    common(sp)
    sp.add_argument("--dataset", help="dataset CSV (default: synthesize)")
    sp.add_argument("--split", help="split manifest JSON")

    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--split", required=True)
    sp.add_argument("--session", type=int, help="evaluate sessions 1..N")
    sp.add_argument("--out", help="write metrics JSON here")

    sp = sub.add_parser("ablate", help="run the ablation grid")
    common(sp)
    sp.add_argument("--dataset", help="dataset CSV (default: synthesize)")

    sp = sub.add_parser("sweep", help="sweep one robustness axis")
    common(sp)
    sp.add_argument("--axis", choices=tuple(DEFAULT_SWEEP_VALUES), required=True)
    sp.add_argument("--values", help="comma-separated axis values")

    sp = sub.add_parser("plot", help="render SVG diagnostics for a run")
    sp.add_argument("--run", required=True, help="run directory")
    sp.add_argument("--kind", choices=("scatter", "sessions", "sweep", "pca2d"),
                    required=True)
    sp.add_argument("--out", help="output directory")

    sp = sub.add_parser("report", help="summarize one or more runs")
    sp.add_argument("--runs", nargs="+", required=True)
    sp.add_argument("--out")
    return p


COMMANDS = {"gen": cmd_split, "split": cmd_split, "train": cmd_train,
            "eval": cmd_eval, "ablate": cmd_ablate, "sweep": cmd_sweep,
            "plot": cmd_plot, "report": cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        return 0
    except Exception as e:  # noqa: BLE001 - uniform CLI error reporting
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
