#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(n=4)) as a share of the median, and that spread
against a third of the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads zone-suite --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10

Run it from the repository root, with nothing else loading the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: wall_s {runs[-1]['wall_s']:.3f}", flush=True)
        print(f"\n{workload} ({len(runs)} seeds)")
        print(f"  {'metric':16} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else 0.0
            ok = share <= bound / 3
            steady &= ok
            print(f"  {name:16} {med:12.6g} {share:8.2%} {bound / 3:8.2%}"
                  f"{'' if ok else '  TOO NOISY'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
