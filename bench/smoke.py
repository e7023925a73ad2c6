"""Smoke test of the benchmark: every workload at minimal size.

    python3 bench/smoke.py

For each workload it makes one --trace 0 run and two --trace 1 runs at a
fixed seed with --seconds 1 (a run still completes 20 items in whole
rotations). It checks that:

- each run exits 0 and its last line is the result object, with every
  item passing its gate;
- the metrics are exactly those BENCHMARK.json lists (end_to_end for
  --trace 0, per_layer for --trace 1), each with its unit, and each is
  also printed by name and unit in the human-readable report;
- every count metric repeats exactly between the two traced runs;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEED = 7
SECONDS = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, expected: dict, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{what}: {result['failed']} of {result['attempted']} items failed\n{proc.stderr}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise AssertionError(f"{what}: missing {missing}, unlisted {extra}, wrong unit {wrong}")
    report = lines[:-1]
    for name, unit in expected.items():
        if not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in report):
            raise AssertionError(f"{what}: report has no line for {name} in {unit}")
    return result


def bare_directory_fails() -> None:
    bare = os.path.join(BENCH_DIR, "work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("synth_wide", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in spec["workloads"]:
        name = w["name"]
        result_of(run(name, 0), end_to_end, f"{name} --trace 0")
        first = result_of(run(name, 1), per_layer, f"{name} --trace 1")["metrics"]
        second = result_of(run(name, 1), per_layer, f"{name} --trace 1 (again)")["metrics"]
        differ = [
            f"{k}: {first[k]['value']} then {second[k]['value']}"
            for k, u in per_layer.items()
            if u == "count" and first[k]["value"] != second[k]["value"]
        ]
        if differ:
            raise AssertionError(f"{name}: counts differ between runs at seed {SEED}: {differ}")
        print(f"ok  {name}")
    bare_directory_fails()
    print("ok  bare directory exits nonzero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
