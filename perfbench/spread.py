#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 10] [--first-seed 1]

Runs the benchmark once per seed and prints, for each metric, the median of
its values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of that median, next to the metric's
bound in BENCHMARK.json. A metric whose spread is above its bound cannot be
told apart from noise; aim for under a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    """(median, interquartile distance / median) of the values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {out.returncode})")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                          result["metrics"].items()), flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vs in values.items():
        med, sp = spread(vs)
        bound = bounds.get(name)
        flag = "" if bound is None or sp < bound / 3 else ("  > bound/3" if sp <= bound else "  > BOUND")
        print(f"{name:<20} median {med:>12.4f}  spread {sp:6.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
