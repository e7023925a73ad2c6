"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload pipeline_small --seeds 10 --seconds 35

Runs run.py once per seed (1 to N) and prints, per metric, the median and
the distance between the first and third quartile (statistics.quantiles
with n=4) as a share of the median. Compare each share with the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(1, args.seeds + 1):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} items failed")
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.5g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound {bound}  spread/bound {share / bound:.2f}"
        print(f"{name:20s} median {med:.5g}  iqr/median {share:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
