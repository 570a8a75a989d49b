#!/usr/bin/env python3
"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/BASELINE.json

Each untraced run gets its own seed (first-seed, first-seed + 1, ...); one
traced run per workload follows.  For every end-to-end metric the summary
gives the median of the per-run values, their quartiles as
statistics.quantiles(values, n=4) computes them, and the spread: the
distance between the quartiles as a share of the median, which is what a
metric's bound in BENCHMARK.json is compared against.  Runs go one at a
time, so they never compete for the cores.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail: "))


def summarize(values: list) -> dict:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "p25": q[0], "p75": q[2], "spread": (q[2] - q[0]) / median,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the summary here as JSON")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, unscaled, attempted, failed, correct = {}, [], 0, 0, True
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, detail = run_once(workload, seed, spec["run_seconds"], 0)
            report.setdefault("environment", detail["environment"])
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            unscaled.append(statistics.median(detail["unscaled_series"]["wall_s"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        entry = {"correct": correct, "attempted": attempted, "failed": failed,
                 "end_to_end": {n: summarize(v) for n, v in values.items()},
                 # wall time as the host gave it, before scaling to the reference speed
                 "unscaled_wall_s": summarize(unscaled)}
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  (not below a third of its bound)"
            print(f"{workload} {name}: median {s['median']:.4g}, spread {s['spread']:.3f}, "
                  f"bound {bounds[name]}{flag}", flush=True)
        print(f"{workload} unscaled wall_s: spread {entry['unscaled_wall_s']['spread']:.3f}",
              flush=True)
        result, detail = run_once(workload, args.first_seed, spec["run_seconds"], 1)
        entry["traced"] = {"correct": result["correct"],
                           "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
