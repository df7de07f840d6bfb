"""The benchmark's three workloads.

A workload makes its inputs from the run seed in `setup`, then yields
rounds of operations. An operation is one call into a public entry point
(``mreplay.cli.main`` or ``mreplay.trainer.run_continual``); a round is the
unit the runner repeats, so every run attempts whole rounds. Round ``r``
trains with seed ``1000 * seed + r``, so the inputs of every round follow
from the run seed. `check` judges one finished round outside the timed
region; `finish` runs the checks that need scipy, after the runner has read
the memory figure.
"""
from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np

# Program functions are looked up on their modules when an operation is
# built, so the tracer's wrappers are the ones called in a traced round.
from mreplay import cli, data, trainer
# The checks call the unwrapped function, so their work is never traced.
from mreplay.models import predict

import checks

METHODS = ("magr", "sequential-ft", "joint", "replay-raw", "replay-feature-naive")
# Every workload widens the regressor trunk's output from the pinned 8 to
# 32 units. With 8 ReLU units the regressor predicts a constant on some
# seeds (all units dead on a test set, after training or already at the
# random-init reference), `spearman` raises and the whole operation fails
# (see CHANGES.md): about 1 seed in 200 offline, 1 in 20 online. With 32
# units no seed failed in 400 per workload.
TRUNK_WIDTHS = (16, 32)


class CliError(RuntimeError):
    pass


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Workload:
    name = ""
    trace_rounds = 1  # rounds in the traced phase of a traced run

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work = work_dir
        self.tracer = None  # set by the runner while tracing

    def train_seed(self, r: int) -> int:
        return 1000 * self.seed + r

    def cli(self, argv: list[str], artifacts=()) -> None:
        """One ``mreplay`` command; ``artifacts`` are the paths it writes."""
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = cli.main([str(a) for a in argv])
        if rc != 0:
            raise CliError(f"mreplay {argv[0]} exited {rc}: {err.getvalue().strip()}")
        if self.tracer is not None:
            self.tracer.add("cli.artifact_bytes", sum(_tree_bytes(Path(p))
                                                      for p in artifacts))

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int):
        """Yield (label, operation) pairs; code between yields is round
        preparation and counts as work."""
        raise NotImplementedError

    def digest_payload(self, r: int, outputs: list):
        """JSON-able results of round r; called before `check`."""
        raise NotImplementedError

    def check(self, r: int, outputs: list) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        return []


class GridOffline(Workload):
    """``mreplay ablate`` over the 8 variants for one seed per operation, on
    the offline data and training settings of ``configs/benchmark.json``
    with the epochs cut from 120 to 6 (with patience 10, early stopping
    never fires, so every operation takes the same number of steps) and
    the wider trunk (see `TRUNK_WIDTHS`)."""

    name = "grid-offline"
    DATA = dict(n=500, d_x=32, T=5, shots=10, noise_x=0.4, drift=0.3)
    TRAIN = dict(method="magr", m=10, epochs=6, patience=10, b1=5, b2=3,
                 lr=0.0003, weight_decay=0.001, lambda_p=0.3, lambda_r=1.0,
                 lm_stop_grad=True, trunk_widths=list(TRUNK_WIDTHS))

    def setup(self) -> None:
        self.config = self.work / "grid.json"
        self.config.write_text(json.dumps({"data": {**self.DATA, "seed": self.seed},
                                           "train": self.TRAIN}))
        self.out = self.work / "ablate"

    def round(self, r):
        s = self.train_seed(r)
        yield "ablate", partial(self.cli, ["ablate", "--config", self.config,
                                           "--seed", s, "--out", self.out],
                                [self.out / "ablation.csv"])

    def digest_payload(self, r, outputs):
        return (self.out / "ablation.csv").read_text()

    def check(self, r, outputs):
        return checks.check_ablation(self.out / "ablation.csv", [self.train_seed(r)])


class StreamOnline(Workload):
    """All five methods, one ``run_continual`` call each, single-epoch, on a
    longer stream than ``configs/benchmark_online.json`` (n=2000, T=10).
    Each round re-splits the stream with the round's seed. Trunk as in
    `TRUNK_WIDTHS`."""

    name = "stream-online"
    trace_rounds = 3
    DATA = dict(n=2000, d_x=32, T=10, shots=10, noise_x=0.4, drift=0.3)
    TRAIN = dict(m=10, online=True, b1=5, b2=3, lr=0.01, weight_decay=0.001,
                 lambda_p=0.3, lm_stop_grad=True, trunk_widths=TRUNK_WIDTHS)

    def setup(self) -> None:
        self.dataset = data.generate_synthetic(data.DataConfig(**self.DATA, seed=self.seed))
        # (arrays file, record without its arrays) per checked run; the
        # arrays wait on disk so memory does not grow with the run's length
        self.oracle: list[tuple[Path, dict]] = []

    def round(self, r):
        s = self.train_seed(r)
        self.raw_plan = data.grade_split(self.dataset, self.DATA["T"], self.DATA["shots"], s)
        self.plan, self.scaler = data.normalize_scores(self.raw_plan)
        for method in METHODS:
            cfg = trainer.TrainConfig(method=method, seed=s, **self.TRAIN)
            yield method, partial(trainer.run_continual, self.plan, self.scaler, cfg)

    def digest_payload(self, r, outputs):
        return [{"summary": res.summary,
                 "cells": sorted([i, j, v] for (i, j), v in res.matrix.cells.items()),
                 "pooled": sorted(res.matrix.pooled.items()),
                 "reference": sorted(res.matrix.reference.items())}
                for res in outputs if res is not None]

    def check(self, r, outputs):
        problems = []
        for res in outputs:
            if res is None:
                continue
            problems += checks.check_stream_run(res, self.plan, self.TRAIN["m"],
                                                self.TRAIN["b2"])
            rec = checks.stream_oracle_record(res, self.raw_plan, self.scaler, predict)
            path = self.work / f"oracle_{len(self.oracle)}.npz"
            np.savez(path, *rec.pop("truths"), *rec.pop("preds"))
            self.oracle.append((path, rec))
        return problems

    def finish(self):
        problems = []
        for path, rec in self.oracle:
            with np.load(path) as f:
                arrays = [f[f"arr_{i}"] for i in range(len(f.files))]
            half = len(arrays) // 2
            problems += checks.check_stream_oracle(
                [{**rec, "truths": arrays[:half], "preds": arrays[half:]}])
        return problems


class CliRoundtrip(Workload):
    """One ``mreplay`` command per operation on the settings of
    ``configs/benchmark_online.json``: ``train`` on a CSV that ``mreplay gen``
    wrote during set-up, ``eval`` on every session checkpoint, the scatter
    and pca2d plots, and ``report``. Trunk as in `TRUNK_WIDTHS`."""

    name = "cli-roundtrip"
    trace_rounds = 5
    DATA = dict(n=500, d_x=32, T=5, shots=10, noise_x=0.4, drift=0.3)
    TRAIN = dict(method="magr", m=10, online=True, b1=5, b2=3, lr=0.01,
                 weight_decay=0.001, lambda_p=0.3, lm_stop_grad=True,
                 encoder_widths=[32, 64, 16], projector_widths=[16, 16, 16],
                 trunk_widths=list(TRUNK_WIDTHS))

    def setup(self) -> None:
        self.config = self.work / "roundtrip.json"
        self.config.write_text(json.dumps({"data": {**self.DATA, "seed": self.seed},
                                           "train": self.TRAIN}))
        self.data = self.work / "data"
        self.runs = self.work / "runs"
        self.cli(["gen", "--config", self.config, "--out", self.data])

    def run_dir(self, r: int) -> Path:
        return self.runs / f"magr-seed{self.train_seed(r)}"

    def round(self, r):
        run = self.run_dir(r)
        yield "train", partial(self.cli, [
            "train", "--config", self.config, "--dataset", self.data / "dataset.csv",
            "--split", self.data / "split.json", "--seed", self.train_seed(r),
            "--out", self.runs], [run])
        for t in range(1, self.DATA["T"] + 1):
            out = run / f"eval_{t:02d}.json"
            yield "eval", partial(self.cli, [
                "eval", "--checkpoint", run / "checkpoints" / f"session_{t:02d}.json",
                "--dataset", run / "dataset.csv", "--split", run / "split.json",
                "--out", out], [out])
        yield "plot", partial(self.cli, ["plot", "--run", run, "--kind", "scatter"],
                              [run / "plots" / "scatter.svg"])
        yield "plot", partial(self.cli, ["plot", "--run", run, "--kind", "pca2d"],
                              [run / "plots" / "pca2d.svg", run / "plots" / "pca2d.json"])
        yield "report", partial(self.cli, ["report", "--runs", run,
                                           "--out", run / "report.md"],
                                [run / "report.md"])

    def digest_payload(self, r, outputs):
        run = self.run_dir(r)
        evals = []
        for t in range(1, self.DATA["T"] + 1):
            doc = json.loads((run / f"eval_{t:02d}.json").read_text())
            doc.pop("checkpoint")  # an absolute path
            evals.append(doc)
        return {"summary": json.loads((run / "summary.json").read_text()),
                "results": (run / "results.csv").read_text(),
                "evals": evals,
                "pca2d": json.loads((run / "plots" / "pca2d.json").read_text())}

    def check(self, r, outputs):
        shapes = checks.expected_param_shapes(self.DATA["d_x"],
                                              self.TRAIN["encoder_widths"],
                                              self.TRAIN["projector_widths"],
                                              self.TRAIN["trunk_widths"])
        run = self.run_dir(r)
        problems = checks.check_roundtrip(run, self.DATA["T"], shapes)
        shutil.rmtree(run, ignore_errors=True)
        return problems


WORKLOADS = {w.name: w for w in (GridOffline, StreamOnline, CliRoundtrip)}
