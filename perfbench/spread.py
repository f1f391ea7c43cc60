#!/usr/bin/env python3
"""Run the benchmark at several seeds and report each end-to-end
metric's median and spread, the interquartile range as a share of the
median, next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/spread.py --workloads ppme tap15 --seeds 1 2 3 4 5

A spread at or above a third of the metric's bound is marked "wide".
setup_s has no spread limit, only its bound on the median.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{w} seed {seed}: {result['failed']} failed, correct={result['correct']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, xs in values.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            rel = (q3 - q1) / med
            wide = name != "setup_s" and rel >= bounds[name] / 3
            ok = ok and not wide
            print(f"{w:11s} {name:15s} median {med:12.5g}  spread {rel:6.3f}  "
                  f"bound {bounds[name]:.2f}{'  wide' if wide else ''}  "
                  + " ".join(f"{x:.4g}" for x in xs), flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
