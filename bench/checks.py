"""Correctness checks for the benchmark's operations.

Each check returns a list of problems; an empty list means the output
passed. The checks compare the program's outputs with values computed apart
from it (stdlib csv/json parsing, scipy's Spearman) or with properties the
method must have. They read only what an operation left behind, so the
tests in this directory can corrupt an output and see the check fail.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Written out here rather than imported, so a program change that drops or
# renames a variant shows up as a failed check.
ABLATION_VARIANTS = ("full", "no_mp", "no_residual", "no_ii_gr", "no_j_gr",
                     "no_iij_gr", "mse_gr", "random_sampling")
MEMORY_METHODS = ("magr", "replay-raw", "replay-feature-naive")
NO_MEMORY_METHODS = ("sequential-ft", "joint")

# scipy and the program compute the same Pearson correlation of ranks in a
# different order of floating-point operations.
ORACLE_TOLERANCE = 1e-12


# ------------------------------------------------------------- grid-offline


def check_ablation(path, seeds) -> list[str]:
    """``ablation.csv``: one row per (variant, seed), forgetting >= 0, and
    the deltas against the ``full`` row recomputed from the written values."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as e:
        return [f"ablation: cannot read {path}: {e}"]
    problems = []
    try:
        got = sorted((r["variant"], int(r["seed"])) for r in rows)
        full = {int(r["seed"]): float(r["rho_avg"]) for r in rows
                if r["variant"] == "full"}
    except (KeyError, ValueError) as e:
        return [f"ablation: malformed table: {e!r}"]
    want = sorted((v, int(s)) for v in ABLATION_VARIANTS for s in seeds)
    if got != want:
        problems.append(f"ablation: rows {got} != expected {want}")
    for r in rows:
        where = f"ablation {r['variant']} seed={r['seed']}"
        try:
            seed = int(r["seed"])
            rho, aft = float(r["rho_avg"]), float(r["rho_aft"])
            delta, pct = float(r["delta_rho_avg"]), float(r["delta_pct"])
            float(r["rho_fwt"])
        except (KeyError, ValueError) as e:
            problems.append(f"{where}: unparsable row: {e!r}")
            continue
        if not -1.0 <= rho <= 1.0:
            problems.append(f"{where}: rho_avg {rho} outside [-1, 1]")
        if not aft >= 0.0:
            problems.append(f"{where}: rho_aft {aft} < 0")
        if seed not in full:
            continue
        want_delta = rho - full[seed]
        want_pct = 100.0 * want_delta / abs(full[seed]) if full[seed] else 0.0
        if delta != want_delta or pct != want_pct:
            problems.append(f"{where}: delta {delta}/{pct}% != recomputed "
                            f"{want_delta}/{want_pct}%")
    return problems


# ------------------------------------------------------------ stream-online


def session_training(plan, t: int):
    """Session t's training samples; the base session adds its fine-tune pool."""
    s = plan.sessions[t - 1]
    return s.train + plan.sessions[0].held_out if t == 1 else s.train


def session_test(plan, t: int):
    s = plan.sessions[t - 1]
    return s.train + s.held_out


def check_stream_run(result, plan, m: int, b2: int) -> list[str]:
    """Structure of one single-epoch ``run_continual`` result.

    ``plan`` is the normalized plan the run trained on."""
    where = f"{result.method} seed={result.seed}"
    T = plan.n_sessions
    problems = []
    if result.method == "joint":
        want_cells = {(T, j) for j in range(1, T + 1)}
        sizes = [sum(len(session_training(plan, t)) for t in range(1, T + 1))]
    else:
        want_cells = {(i, j) for i in range(1, T + 1)
                      for j in range(1, min(i + 1, T) + 1)}
        sizes = [len(session_training(plan, t)) for t in range(1, T + 1)]
    cells = result.matrix.cells
    if set(cells) != want_cells:
        problems.append(f"{where}: matrix cells {sorted(set(cells) ^ want_cells)} "
                        f"missing or unexpected")
    bad = [k for k, v in cells.items() if not -1.0 <= v <= 1.0]
    if bad:
        problems.append(f"{where}: cells {bad} outside [-1, 1]")
    steps = [r.steps for r in result.reports]
    want_steps = [math.ceil(n / b2) for n in sizes]
    if steps != want_steps:
        problems.append(f"{where}: session steps {steps} != ceil(n_t / b2) "
                        f"{want_steps}")
    bank = result.state.bank
    if result.method in NO_MEMORY_METHODS:
        if bank.size != 0:
            problems.append(f"{where}: bank holds {bank.size} rows, expected none")
        return problems
    want_rows = sum(min(m, n) for n in sizes)
    if bank.size != want_rows:
        problems.append(f"{where}: bank holds {bank.size} rows, expected {want_rows}")
    for t in range(1, T + 1):
        stored = {r.score for r in bank.entries if r.session == t}
        scores = [s.score for s in session_training(plan, t)]
        if min(scores) not in stored or max(scores) not in stored:
            problems.append(f"{where}: session {t} bank misses its extreme scores")
    return problems


def stream_oracle_record(result, raw_plan, scaler, predict) -> dict:
    """What the scipy comparison needs from one run, taken before the run's
    model is dropped: truths in original units and the returned model's
    predictions, denormalized the way the program reports them."""
    T = raw_plan.n_sessions
    truths, preds = [], []
    for j in range(1, T + 1):
        samples = session_test(raw_plan, j)
        x = np.stack([s.x for s in samples])
        truths.append(np.array([s.score for s in samples], dtype=np.float64))
        preds.append(predict(result.state.bundle, x) * (scaler.hi - scaler.lo)
                     + scaler.lo)
    return {"where": f"{result.method} seed={result.seed}",
            "truths": truths, "preds": preds,
            "final_row": [result.matrix.cells.get((T, j)) for j in range(1, T + 1)],
            "rho_avg": result.summary["rho_avg"]}


def check_stream_oracle(records) -> list[str]:
    """``rho_avg`` and every final-row cell against ``scipy.stats.spearmanr``."""
    from scipy.stats import spearmanr

    problems = []
    for rec in records:
        want = [spearmanr(t, p).statistic for t, p in zip(rec["truths"], rec["preds"])]
        for j, (got, exp) in enumerate(zip(rec["final_row"], want), start=1):
            if got is None or abs(got - exp) > ORACLE_TOLERANCE:
                problems.append(f"{rec['where']}: final-row cell {j} = {got}, "
                                f"scipy gives {exp}")
        exp = spearmanr(np.concatenate(rec["truths"]),
                        np.concatenate(rec["preds"])).statistic
        got = rec["rho_avg"]
        if got is None or abs(got - exp) > ORACLE_TOLERANCE:
            problems.append(f"{rec['where']}: rho_avg {got}, scipy gives {exp}")
    return problems


# ------------------------------------------------------------ cli-roundtrip


def expected_param_shapes(d_x: int, encoder_widths, projector_widths,
                          trunk_widths) -> dict[str, dict[str, list[int]]]:
    """Parameter name -> shape per component, from the configured widths."""
    def mlp(prefix, widths):
        out = {}
        for i in range(len(widths) - 1):
            out[f"{prefix}.w{i}"] = [widths[i], widths[i + 1]]
            out[f"{prefix}.b{i}"] = [1, widths[i + 1]]
        return out

    regressor = mlp("regressor", trunk_widths)
    for head in ("mean", "std"):
        regressor[f"regressor.{head}.w0"] = [trunk_widths[-1], 1]
        regressor[f"regressor.{head}.b0"] = [1, 1]
    return {"encoder": mlp("encoder", [d_x] + list(encoder_widths[1:])),
            "projector": mlp("projector", projector_widths),
            "regressor": regressor}


def _load_json(path: Path, problems: list[str]):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        problems.append(f"cannot read {path}: {e}")
        return None


def check_roundtrip(run_dir, n_sessions: int, shapes) -> list[str]:
    """A ``train`` run directory after ``eval`` on every checkpoint (written
    as ``eval_<t>.json``), two plots and a report."""
    run_dir = Path(run_dir)
    problems: list[str] = []
    summary = _load_json(run_dir / "summary.json", problems)
    manifest = _load_json(run_dir / "manifest.json", problems)
    try:
        with open(run_dir / "results.csv", newline="") as fh:
            results = {(int(r["session"]), r["metric"]): float(r["value"])
                       for r in csv.DictReader(fh)}
    except (OSError, KeyError, ValueError) as e:
        problems.append(f"cannot read results.csv: {e!r}")
        results = {}
    if summary is None or manifest is None:
        return problems

    for t in range(1, n_sessions + 1):
        doc = _load_json(run_dir / f"eval_{t:02d}.json", problems)
        if doc is None:
            continue
        if doc.get("session") != t:
            problems.append(f"eval {t}: reports session {doc.get('session')}")
        per = doc.get("rho_per_session", {})
        want = {str(j): results.get((t, f"rho_on_{j}")) for j in range(1, t + 1)}
        if per != want:
            problems.append(f"eval {t}: rho_per_session {per} != results.csv {want}")
        if doc.get("rho_avg") != results.get((t, "rho_avg")):
            problems.append(f"eval {t}: rho_avg {doc.get('rho_avg')} != results.csv "
                            f"{results.get((t, 'rho_avg'))}")
        if t == n_sessions and doc.get("rho_avg") != summary.get("rho_avg"):
            problems.append(f"eval {t}: rho_avg {doc.get('rho_avg')} != summary.json "
                            f"{summary.get('rho_avg')}")

    artifacts = manifest.get("artifacts", {})
    listed = [artifacts.get(k) for k in ("dataset", "split", "results", "summary")]
    listed += artifacts.get("checkpoints", [])
    missing = [p for p in listed if not p or not Path(p).is_file()]
    if missing or len(artifacts.get("checkpoints", [])) != n_sessions:
        problems.append(f"manifest: missing artifacts {missing}, "
                        f"{len(artifacts.get('checkpoints', []))} checkpoints")
    for p in artifacts.get("checkpoints", []):
        ckpt = _load_json(Path(p), problems)
        if ckpt is None:
            continue
        got = {comp: {name: d["shape"] for name, d in params.items()}
               for comp, params in ckpt["params"].items()}
        if got != shapes:
            problems.append(f"{p}: parameter shapes {got} != configured {shapes}")
        frozen = ckpt.get("frozen_encoder")
        if ckpt["session"] >= 2 and (frozen is None or {
                name: d["shape"] for name, d in frozen.items()} != shapes["encoder"]):
            problems.append(f"{p}: frozen encoder missing or misshapen")
    for name in ("plots/scatter.svg", "plots/pca2d.svg", "report.md"):
        path = run_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"{name} missing or empty")
    return problems
