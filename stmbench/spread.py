#!/usr/bin/env python3
"""Run one workload with several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 stmbench/spread.py --workload seq-lbr --seeds 1-10 --seconds 20 [--trace 0]

For each metric it prints the median of the runs and the distance between
their first and third quartiles as a share of the median (Python's
statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is steady enough.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    secs = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(secs), "--trace", args.trace],
            cwd=root, stdout=subprocess.PIPE, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {p.returncode}", file=sys.stderr)
            continue
        res = json.loads(last)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    for name in sorted(values):
        vs = values[name]
        med = statistics.median(vs)
        spread = float("nan")
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and not spread < bound / 3:
            flag = "  <-- over a third of the bound"
        print(f"{name:34s} median {med:14.6g} {units[name]:8s} spread {spread:7.3f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        print(" " * 34 + " values " + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
