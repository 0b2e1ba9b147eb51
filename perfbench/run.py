"""Benchmark of the convexcount CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {bfile,spectrum,verify} --seed N --seconds S --trace {0,1}

Every op is one ``python -m convexcount ...`` command in a fresh process,
run one at a time from this process (a closed loop with one client).  The
ops repeat in passes, each pass in a seed-shuffled order, until ``--seconds``
have gone by; every op runs at least once.

``--trace 0`` reports the end-to-end metrics with tracing off:

* ``wall_s``: one pass over the ops, interpreter start-up included, as the
  sum over ops of the median wall time of that op;
* ``relation_s``: the same sum over the ops on the relation class;
* ``setup_s``: median time for a fresh interpreter to import
  ``convexcount.cli`` and exit, sampled a few times in each pass;
* ``peak_rss_mb``: the highest max-RSS of any op's process;

and prints ``failed_ops`` (failed / attempted) beside them.

The host's speed drifts by a third within a minute (README.md), so the timed
figures are scaled to a reference speed.  Before and after every timed
process, this process runs ``reference_s``, a fixed computation that shares
no code with convexcount, and the process's wall time is multiplied by
REFERENCE_S over the mean of those two reference times.  This process and
every op are pinned to one CPU, so the reference times the CPU the ops run
on.  The unscaled figures are printed as ``raw_*``, with ``host_speed``.

``--trace 1`` runs each op untraced and then under ``tracer.py``, and reports
the per-layer metrics (see README.md): means over the traced runs of each op,
summed over the ops.

Outputs are checked after the timed runs, never inside them.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

OP_TIMEOUT_S = 60.0
SETUPS_PER_PASS = 5
# Nominal time of reference_s().  Each timed process is scaled by
# REFERENCE_S over the mean of the reference runs just before and after it.
REFERENCE_S = 0.05
SETUP_CODE = "import convexcount.cli"


@dataclass
class ProcResult:
    wall_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: str
    stderr: str


def run_process(argv: list[str], env: dict[str, str], timeout: float = OP_TIMEOUT_S) -> ProcResult:
    """Run one process to completion; its wall time and max-RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    streams = {}

    def drain(name, pipe):
        with pipe:
            streams[name] = pipe.read()

    readers = [
        threading.Thread(target=drain, args=("stdout", proc.stdout)),
        threading.Thread(target=drain, args=("stderr", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    return ProcResult(
        wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out.is_set(),
        streams.get("stdout", ""), streams.get("stderr", ""),
    )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def op_argv(op: workloads.Op, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(HERE / "tracer.py"), *op.argv]
    return [sys.executable, "-m", "convexcount", *op.argv]


def run_context(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import mpmath.libmp

    return {
        "commit": commit,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "CONVEX_COUNT_PRECISION": os.environ.get("CONVEX_COUNT_PRECISION", "unset (256)"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


class Tally:
    """Outputs of every op run, checked together once the timed runs are over."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, Counter] = defaultdict(Counter)
        self.problems: list[str] = []

    def add(self, name: str, result: ProcResult) -> None:
        self.attempted += 1
        if result.returncode != 0 or result.timed_out:
            self.failed += 1
            why = "timed out" if result.timed_out else f"exit {result.returncode}"
            self.problems.append(f"{name}: {why}: {result.stderr.strip()[-300:]}")
        elif name != "setup":
            self.outputs[name][result.stdout] += 1

    def check(self, ops: list[workloads.Op]) -> None:
        peers = {name: outs.most_common(1)[0][0] for name, outs in self.outputs.items()}
        for op in ops:
            for stdout, times in self.outputs[op.name].items():
                problem = workloads.check_output(op, stdout, peers)
                if problem is not None:
                    self.failed += times
                    self.problems.append(f"{op.name}: {problem}")


def _passes(ops, rng, seconds, extra=()):
    """Yield the items of each pass in a fresh shuffled order until ``seconds``
    have gone by; the first pass always completes."""
    deadline = time.perf_counter() + seconds
    first = True
    while first or time.perf_counter() < deadline:
        order = list(ops) + list(extra)
        rng.shuffle(order)
        for item in order:
            if not first and time.perf_counter() >= deadline:
                return
            yield item
        first = False


def reference_s() -> float:
    """Wall time of a fixed computation that shares no code with convexcount:
    big-integer products, an interpreter-bound loop and Fraction arithmetic,
    the three kinds of work the workloads do.  It takes about REFERENCE_S on
    a 2-core VM running Python 3.11.7."""
    start = time.perf_counter()
    big = [3 ** (400 + i) for i in range(40)]
    acc = 0
    for _ in range(24):
        acc += sum(a * b for a in big for b in big)
    for i in range(120000):
        acc += i * i % 7
    x = Fraction(0)
    for i in range(1, 800):
        x = x / 2 + Fraction(1, i % 13 + 1)
    return time.perf_counter() - start


def measure(ops, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off, scaled to the reference host speed;
    and the same figures unscaled."""
    env = child_env()
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    walls = {"setup": [], **{op.name: [] for op in ops}}
    scaled = {name: [] for name in walls}
    peak_rss = 0.0
    refs = [reference_s()]
    for op in _passes(ops, random.Random(seed), seconds, extra=[None] * SETUPS_PER_PASS):
        name = "setup" if op is None else op.name
        result = run_process(setup_argv if op is None else op_argv(op, traced=False), env)
        refs.append(reference_s())
        tally.add(name, result)
        walls[name].append(result.wall_s)
        scaled[name].append(result.wall_s * REFERENCE_S * 2 / (refs[-2] + refs[-1]))
        if op is not None:
            peak_rss = max(peak_rss, result.rss_mb)

    def figures(samples):
        per_op = {name: statistics.median(values) for name, values in samples.items()}
        return {
            "wall_s": (sum(per_op[op.name] for op in ops), "s"),
            "relation_s": (sum(per_op[op.name] for op in ops if op.relation), "s"),
            "setup_s": (per_op["setup"], "s"),
        }

    metrics = {**figures(scaled), "peak_rss_mb": (peak_rss, "MB")}
    raw = {f"raw_{name}": value for name, value in figures(walls).items()}
    raw["host_speed"] = (REFERENCE_S / statistics.fmean(refs), "x")
    return metrics, raw


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "production.self_s": "s",
    "exact.self_s": "s",
    "closedform.self_s": "s",
    "spectral.self_s": "s",
    "oracle.self_s": "s",
    "verify.self_s": "s",
    "exact.mat_vec.calls": "count",
    "exact.mat_vec.self_s": "s",
    "exact.charpoly_determinant.self_s": "s",
    "production.count_sequence.calls": "count",
    "production.count_sequence.self_s": "s",
    "production.levels": "count",
    "production.max_bits": "bits",
    "spectral.real_roots.calls": "count",
    "spectral.real_roots.self_s": "s",
    "spectral.roots": "count",
    "spectral.eigenvector.self_s": "s",
    "spectral.charpoly_closed.self_s": "s",
    "spectral.charpoly_recurrence.self_s": "s",
    "oracle.objects": "count",
    "oracle.objects_per_s": "1/s",
    "closedform.entries": "count",
    "verify.checks": "count",
    "process.outside_main_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def measure_traced(ops, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Per-layer metrics, unscaled: each op once untraced, then once traced,
    per pass."""
    env = child_env()
    plain = defaultdict(list)
    traced = defaultdict(list)
    for op in _passes(ops, random.Random(seed), seconds):
        result = run_process(op_argv(op, traced=False), env)
        tally.add(op.name, result)
        plain[op.name].append(result.wall_s)
        result = run_process(op_argv(op, traced=True), env)
        tally.add(op.name, result)
        dump = tracer.parse_spans(result.stderr)
        if dump is not None:
            traced[op.name].append(tracer.summarize(dump, result.wall_s))
    totals = defaultdict(float)
    for op in ops:
        runs = traced[op.name]
        for key in runs[0] if runs else ():
            values = [run[key] for run in runs]
            if key == "production.max_bits":
                totals[key] = max(totals[key], max(values))
            else:
                totals[key] += statistics.fmean(values)
    untraced = sum(statistics.fmean(plain[op.name]) for op in ops)
    totals["trace.overhead_s"] = totals["trace.wall_s"] - untraced
    oracle_s = totals["oracle.self_s"]
    totals["oracle.objects_per_s"] = totals["oracle.objects"] / oracle_s if oracle_s > 0 else 0.0
    return {key: (totals[key], unit) for key, unit in PER_LAYER_UNITS.items()}, {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the result holds the metrics, the failure count
    and the run context."""
    if not (ROOT / "src" / "convexcount" / "cli.py").is_file():
        raise FileNotFoundError(f"no convexcount sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    ops = workloads.make_ops(workload, seed)
    context = run_context(seed)
    # Children inherit this process's CPU affinity.  With the harness and every
    # op on one CPU, the reference runs time the CPU the ops ran on: the vCPUs
    # of a VM can run at different speeds at the same moment.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    context["cpu"] = cpu
    # Untimed warm-up: compiles the package's bytecode once per checkout.
    run_process([sys.executable, "-c", SETUP_CODE], child_env())
    tally = Tally()
    measure_fn = measure_traced if trace else measure
    metrics, raw = measure_fn(ops, seed, seconds, tally)
    tally.check(ops)
    return {
        "workload": workload,
        "trace": trace,
        "context": context,
        "metrics": metrics,
        "raw": raw,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }


def print_report(result: dict, out=sys.stdout) -> None:
    """Human-readable lines: the context, every metric with its unit, failures."""
    print(f"context {json.dumps(result['context'])}", file=out)
    for name, (value, unit) in {**result["metrics"], **result["raw"]}.items():
        print(f"{result['workload']:9s} {name:36s} {value:14.6f} {unit}", file=out)
    if result["trace"]:
        layer = max(tracer.LAYERS, key=lambda name: result["metrics"][f"{name}.self_s"][0])
        print(f"{result['workload']:9s} largest layer by self time: {layer}", file=out)
    share = result["failed"] / result["attempted"]
    print(f"{result['workload']:9s} {'failed_ops':36s} {share:14.6f} share"
          f" ({result['failed']} of {result['attempted']})", file=out)
    for problem in result["problems"][:20]:
        print(f"problem {problem}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
