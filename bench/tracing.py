"""Span tracing for the benchmark's traced run.

The program has no tracing of its own, so the tracer wraps its public
functions from outside: every module attribute, and every value of a
module-level dict (such as ``cli.COMMANDS``), that binds a traced function
is replaced by one wrapper, so ``trainer.spearman`` and ``cli.save_checkpoint``
are traced as well as ``metrics.spearman``. Spans stay in memory until the
run ends. Per function the tracer sums busy time (the span), self time (the
span minus the traced child spans inside it) and calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import time

MODULES = ("autodiff", "models", "losses", "memory", "metrics", "data",
           "trainer", "checkpoint", "plots", "cli")
# The tape primitives run about a hundred times per training step; wrapping
# them would multiply the tracing overhead, so in autodiff only the backward
# pass and the optimizer step are traced.
AUTODIFF_TRACED = ("backward", "adam_step")

# Per-layer metrics: (name, unit, better). "<module>.<function>.s" is busy
# time and ".calls" a call count; the rest are derived in `layer_metrics`.
PER_LAYER = (
    ("autodiff.backward.s", "s", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.adam_step.s", "s", "lower"),
    ("autodiff.adam_step.calls", "count", "lower"),
    ("models.encode.s", "s", "lower"),
    ("models.project.s", "s", "lower"),
    ("models.regress.s", "s", "lower"),
    ("models.predict.s", "s", "lower"),
    ("models.predict.calls", "count", "lower"),
    ("losses.graph_reg_loss.s", "s", "lower"),
    ("losses.graph_reg_loss.calls", "count", "lower"),
    ("losses.regression_loss.s", "s", "lower"),
    ("losses.projector_loss.s", "s", "lower"),
    ("losses.total_loss.s", "s", "lower"),
    ("memory.sample_replay.s", "s", "lower"),
    ("memory.store_session.s", "s", "lower"),
    ("memory.refresh.s", "s", "lower"),
    ("memory.bank_rows", "count", "lower"),
    ("metrics.spearman.s", "s", "lower"),
    ("metrics.spearman.calls", "count", "lower"),
    ("data.generate_synthetic.s", "s", "lower"),
    ("data.grade_split.s", "s", "lower"),
    ("data.normalize_scores.s", "s", "lower"),
    ("data.apply_scaler.s", "s", "lower"),
    ("data.save_csv.s", "s", "lower"),
    ("data.load_csv.s", "s", "lower"),
    ("trainer.run_continual.s", "s", "lower"),
    ("trainer.run_continual.calls", "count", "lower"),
    ("trainer.train_session.s", "s", "lower"),
    ("trainer.evaluate_on.s", "s", "lower"),
    ("trainer.steps", "count", "lower"),
    ("trainer.steps_per_s", "1/s", "higher"),
    ("trainer.self_s", "s", "lower"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.save_checkpoint.calls", "count", "lower"),
    ("checkpoint.load_checkpoint.s", "s", "lower"),
    ("checkpoint.bytes_written", "bytes", "lower"),
    ("plots.scatter_plot.s", "s", "lower"),
    ("plots.pca_plot.s", "s", "lower"),
    ("cli.ablate.s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.eval.s", "s", "lower"),
    ("cli.plot.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Counters read off a traced function's arguments or result.
_ON_RETURN = {
    "trainer.train_session": lambda args, out: ("trainer.steps", out.steps),
    "memory.store_session": lambda args, out: ("memory.bank_rows", len(out)),
    "checkpoint.save_checkpoint":
        lambda args, out: ("checkpoint.bytes_written", os.path.getsize(args[0])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.op = -1  # operation the next spans belong to; -1 is set-up
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, name: str, fn):
        hook = _ON_RETURN.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                took = end - start
                if parent is not None:
                    parent[1] += took
                self.busy[name] = self.busy.get(name, 0.0) + took
                self.self_time[name] = self.self_time.get(name, 0.0) + took - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.spans.append((self.op, span_id,
                                   None if parent is None else parent[0],
                                   name, start, end))
            if hook is not None:
                self.add(*hook(args, out))
            return out

        return traced

    def install(self) -> None:
        """Replace every binding of every traced function with its wrapper."""
        mods = [importlib.import_module(f"mreplay.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (short == "autodiff" and attr not in AUTODIFF_TRACED)):
                    continue
                wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("mreplay")] + mods:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((vars(mod), attr, obj))
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[value]

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}))
                fh.write("\n")


def layer_metrics(tracer: Tracer, overhead_pct: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""
    def module_self(prefix):
        return sum(v for k, v in tracer.self_time.items() if k.startswith(prefix))

    steps = tracer.counters.get("trainer.steps", 0)
    session_s = tracer.busy.get("trainer.train_session", 0.0)
    derived = {
        "trainer.steps_per_s": steps / session_s if session_s else 0.0,
        "trainer.self_s": module_self("trainer."),
        "cli.self_s": module_self("cli."),
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = tracer.calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            fn = name[:-len(".s")]
            if fn.startswith("cli."):
                fn = "cli.cmd_" + fn[len("cli."):]
            out[name] = tracer.busy.get(fn, 0.0)
        else:
            out[name] = tracer.counters.get(name, 0)
    return out
