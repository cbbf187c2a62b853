#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise every reported metric.

    python3 perfbench/summarize.py --workload zeta_default --seeds 1-10 --seconds 10 \
        [--trace 1] [--out perfbench/trajectory/<commit>.json]

For each metric of the report lines it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, the quantity
the bounds of BENCHMARK.json are compared with.  --out merges the summary
into a JSON file under [workload]["trace0" | "trace1"].
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    run = {"seed": seed, "correct": final["correct"], "attempted": final["attempted"],
           "failed": final["failed"], "metrics": {}, "failures": []}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "environment":
            run["environment"] = json.loads(rest)
        elif kind in ("metric", "layer"):
            name, value, unit = rest.split()[:3]
            run["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "FAILED":
            run["failures"].append(rest)
    return run


def summarise(runs: list) -> dict:
    names = {name: m["unit"] for run in runs for name, m in run["metrics"].items()}
    out = {}
    for name, unit in names.items():
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": unit, "n": len(values), "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else None}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        run = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(run)
        status = "ok" if run["correct"] else "INCORRECT " + "; ".join(run["failures"])
        print(f"seed {seed}: {status}", flush=True)
    summary = summarise(runs)
    print(f"{'metric':52} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, s in summary.items():
        spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{name:52} {s['unit']:9} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {spread:>7}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                data = json.load(fh)
        data.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seconds": args.seconds,
            "environment": runs[0].get("environment"),
            "summary": summary,
            "runs": [{k: v for k, v in run.items() if k != "environment"} for run in runs],
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
