"""Run every workload with tracing off and then on, print every metric with its
unit, and write ``perfbench/results/BENCH_<label>.json`` with the run context.

    python3 perfbench/record.py --label baseline [--seed 1] [--seconds S]

``--seconds`` defaults to ``run_seconds`` from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    seconds = args.seconds or json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    results = []
    try:
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                result = run.run_workload(workload, args.seed, seconds, trace)
                run.print_report(result)
                results.append(result)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        for key in ("metrics", "raw"):
            result[key] = {name: {"value": value, "unit": unit} for name, (value, unit) in result[key].items()}
    out = run.HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"label": args.label, "seconds": seconds, "results": results}, indent=2) + "\n")
    print(f"wrote {out.relative_to(run.ROOT)}")
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
