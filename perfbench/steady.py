#!/usr/bin/env python3
"""Steadiness check: runs one workload repeatedly and prints each
metric's median, quartiles, interquartile spread (as a share of the
median) and worst deviation from the median, plus the failed share.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seconds 20]
                                [--first-seed 1] [--trace 0|1]

Each run gets its own seed (first-seed, first-seed+1, ...). Quartiles are
Python's statistics.quantiles(values, n=4). The end-to-end bounds in
BENCHMARK.json were set from this command's output on the reference
host (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    a = ap.parse_args()

    values, units, shares = {}, {}, set()
    for k in range(a.runs):
        seed = a.first_seed + k
        t = time.monotonic()
        p = subprocess.run([sys.executable, str(RUN), "--workload", a.workload, "--seed", str(seed),
                            "--seconds", str(a.seconds), "--trace", a.trace],
                           capture_output=True, text=True)
        wall = time.monotonic() - t
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            print(f"seed {seed}: exit {p.returncode}, no result\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            return 1
        shares.add(res["failed"] / res["attempted"])
        print(f"seed {seed}: exit {p.returncode} wall {wall:.1f} s correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'worst':>8}  unit")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        iqr = (q3 - q1) / abs(med) if med else float("nan")
        worst = max(abs(x - med) for x in v) / abs(med) if med else float("nan")
        print(f"{name:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.2%} {worst:>8.2%}  {units[name]}")
    print(f"failed share per run: {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
