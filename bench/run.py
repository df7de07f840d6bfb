"""The mreplay benchmark: one workload per invocation, closed loop, one
operation at a time in one process.

    python3 bench/run.py --workload grid-offline --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(median of several set-ups), operations per second and median operation
time over ``--seconds`` of work, and peak RSS. With ``--trace 1`` it first
runs ``--seconds`` untraced, then a fixed number of rounds with every
public function of the program wrapped, and reports the per-layer totals of
those rounds plus the tracing overhead. Every operation's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (machine-speed probe, result digest, problems).

    python3 bench/run.py --write-reference

regenerates ``reference_digests.json``, the digest of round 0 of every
workload for seeds 0-19.
"""
import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread, so a run's
# timing does not depend on how many cores the machine lends it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_digests.json"
REFERENCE_SEEDS = range(20)
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mreplay.cli; "
                "print(time.perf_counter() - t)")


def child_import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def speed_probe() -> float:
    """Seconds for a fixed number of small numpy calls from a Python loop,
    the kind of work the tape does; recorded, not reported as a metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 16)), rng.standard_normal((16, 16)) * 0.1
    start = time.perf_counter()
    for _ in range(20000):
        a = np.tanh(a @ b + 1.0)
    return time.perf_counter() - start


class Loop:
    """Times whole rounds of operations; checks each round outside the timing."""

    def __init__(self, wl):
        self.wl = wl
        self.op_times: list[float] = []
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.work = 0.0  # seconds spent in rounds, checks excluded
        self.digest = None

    def run(self, seconds=None, rounds=None, tracer=None) -> "Loop":
        r = 0
        while (r < rounds) if rounds is not None else (self.work < seconds):
            outputs = []
            started = time.perf_counter()
            for label, op in self.wl.round(r):
                if tracer is not None:
                    tracer.op = len(self.op_times)
                t0 = time.perf_counter()
                try:
                    out = op()
                except Exception as e:  # noqa: BLE001 - counted, reported, run goes on
                    out = None
                    self.failures.append(f"round {r} {label}: {type(e).__name__}: {e}")
                self.op_times.append(time.perf_counter() - t0)
                outputs.append(out)
            self.work += time.perf_counter() - started
            try:
                if r == 0 and self.digest is None:
                    payload = json.dumps(self.wl.digest_payload(r, outputs),
                                         sort_keys=True)
                    self.digest = hashlib.sha256(payload.encode()).hexdigest()
                self.problems += self.wl.check(r, outputs)
            except Exception as e:  # noqa: BLE001 - unreadable results fail the check
                self.problems.append(f"round {r} check raised {type(e).__name__}: {e}")
            r += 1
        return self

    @property
    def ops_per_s(self) -> float:
        return len(self.op_times) / self.work


def warm_up(wl) -> None:
    """One untimed operation: the first of round 0."""
    ops = wl.round(0)
    _, op = next(ops)
    op()
    ops.close()


def fresh_workload(name: str, seed: int):
    from workloads import WORKLOADS

    work = OUT / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return WORKLOADS[name](seed, work)


def peak_rss_mb() -> float:
    """Peak resident set size of this process or its children, in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def reference_status(name: str, seed: int, digest: str | None) -> str:
    try:
        ref = json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))
    except (OSError, ValueError):
        ref = None
    if ref is None:
        return "no reference"
    return "match" if ref == digest else "MISMATCH"


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, list, Loop]:
    probe_start = speed_probe()
    wl = fresh_workload(name, seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = child_import_seconds()
        t0 = time.perf_counter()
        wl.setup()
        setups.append(imported + time.perf_counter() - t0)
    warm_up(wl)
    loop = Loop(wl).run(seconds=seconds)
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": loop.ops_per_s, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(loop.op_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    problems = loop.problems + wl.finish()
    details = {"setup_samples_s": setups, "probe_start_s": probe_start,
               "probe_end_s": speed_probe()}
    return metrics, details, problems, loop


def traced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict, list, Loop]:
    from tracing import PER_LAYER, Tracer, layer_metrics

    probe_start = speed_probe()
    wl = fresh_workload(name, seed)
    tracer = Tracer()
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    warm_up(wl)
    loop = Loop(wl).run(seconds=seconds)
    traced = Loop(wl)
    tracer.install()
    wl.tracer = tracer
    try:
        traced.run(rounds=wl.trace_rounds, tracer=tracer)
    finally:
        wl.tracer = None
        tracer.uninstall()
    tracer.write(wl.work / "spans.jsonl")
    overhead = 100.0 * (1.0 - traced.ops_per_s / loop.ops_per_s)
    units = {n: u for n, u, _ in PER_LAYER}
    metrics = {k: {"value": v, "unit": units[k]}
               for k, v in layer_metrics(tracer, overhead).items()}
    problems = loop.problems + traced.problems + wl.finish()
    loop.op_times += traced.op_times
    loop.failures += traced.failures
    details = {"untraced_ops_per_s": loop.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
               "traced_rounds": wl.trace_rounds, "spans": len(tracer.spans),
               "probe_start_s": probe_start, "probe_end_s": speed_probe()}
    return metrics, details, problems, loop


def write_reference() -> int:
    from workloads import WORKLOADS

    digests = {}
    for name in WORKLOADS:
        digests[name] = {}
        for seed in REFERENCE_SEEDS:
            wl = fresh_workload(name, seed)
            wl.setup()
            loop = Loop(wl).run(rounds=1)
            if loop.failures or loop.problems:
                print(f"{name} seed {seed}: {loop.failures + loop.problems}",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = loop.digest
            print(f"{name} seed {seed}: {loop.digest}")
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference_digests.json and exit")
    args = p.parse_args(argv)
    if not (SRC / "mreplay" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        return write_reference()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    run = traced_run if args.trace else timed_run
    metrics, details, problems, loop = run(args.workload, args.seed, args.seconds)
    for line in loop.failures + problems:
        print(line, file=sys.stderr)
    details.update({
        "workload": args.workload, "seed": args.seed, "work_s": loop.work,
        "digest": loop.digest,
        "digest_reference": reference_status(args.workload, args.seed, loop.digest),
        "failures": loop.failures[:5], "problems": problems[:5]})
    print(json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": len(loop.op_times),
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
