"""Benchmark for qbond: time to a verified schedule, per-layer spans, memory.

    python3 bench/run.py --workload pipeline_small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop in its own child process (worker.py),
under an address-space limit and with BLAS held to one thread. --trace 0
reports the end-to-end metrics; --trace 1 reports per-layer metrics from a
traced re-run of the same items. The run writes a result file under
bench/results/ and prints, as the last line of standard output, one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, "work")

WORKLOADS = ("pipeline_small", "synth_wide", "models_cli")
# set-up time is the median over this many fresh interpreters
SETUP_RUNS = 7
# per child; a run that needs more reports failed items instead of
# exhausting the machine
MEMORY_BUDGET_MB = 2048
# at most nproc; the matrices are at most 64 x 64, where more threads only add noise
BLAS_THREADS = 1
# the tail percentile is the highest one with at least this many items above it
TAIL_ITEMS_ABOVE = 10
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170

# the end-to-end metrics BENCHMARK.json gates; latency_p50_ms and error_rate
# are reported beside them (README.md says why they are not gated)
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith((".share", ".coverage", "_overhead")):
        return "ratio"
    return "count"


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _limit_memory() -> None:
    budget = MEMORY_BUDGET_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (budget, budget))


def spawn(workload: str, seed: int, seconds: float, mode: str, tag: str) -> dict:
    """One worker process; returns the JSON it printed."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "worker.py"),
        "--root", ROOT,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        "--workdir", os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-{tag}"),
    ]
    if mode == "trace":
        cmd += ["--spans", os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-spans.npz")]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            env=env,
            preexec_fn=_limit_memory,
            timeout=SETUP_TIMEOUT_S if mode == "setup" else RUN_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) ran past {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(workload: str, seed: int, k: int) -> float:
    return spawn(workload, seed, 0.0, "setup", f"setup{k}")["setup_s"]


def latency_metrics(latencies: list) -> tuple[dict, dict]:
    """Throughput, median and tail over the items that passed their gate."""
    ok = sorted(t for t in latencies if t is not None)
    n = len(ok)
    if n <= TAIL_ITEMS_ABOVE:
        raise BenchError(f"only {n} items passed; the tail needs more than {TAIL_ITEMS_ABOVE}")
    metrics = {
        "items_per_s": n / sum(ok),
        "latency_p50_ms": 1e3 * statistics.median(ok),
        "latency_tail_ms": 1e3 * ok[n - 1 - TAIL_ITEMS_ABOVE],
    }
    tail = {"percentile": 100.0 * (n - TAIL_ITEMS_ABOVE) / n, "items": n}
    return metrics, tail


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its result document."""
    doc = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": git_commit(ROOT),
        "settings": {
            "loop": "closed, one caller, one process",
            "blas_threads_requested": BLAS_THREADS,
            "memory_budget_mb": MEMORY_BUDGET_MB,
            "setup_runs": 0 if trace else SETUP_RUNS,
        },
    }
    if trace:
        raw = spawn(workload, seed, seconds, "trace", "trace")
        untraced = sum(t for t in raw["latencies_s"] if t is not None)
        traced = sum(t for t in raw["traced_latencies_s"] if t is not None)
        metrics = dict(raw["layers"])
        metrics["propagation.peak_alloc_mb"] = raw["peak_alloc_mb"]
        metrics["trace_overhead"] = traced / untraced - 1.0
        attempted = len(raw["latencies_s"]) + len(raw["traced_latencies_s"])
        failed = raw["failed"] + raw["traced_failed"]
        units = {name: layer_unit(name) for name in metrics}
        doc["errors"] = raw["errors"] + raw["traced_errors"]
    else:
        # set-up samples come before and after the measured run, so that
        # their median spans the run's time rather than one moment of it
        before = (SETUP_RUNS - 1) // 2
        samples = [setup_time(workload, seed, k) for k in range(before)]
        raw = spawn(workload, seed, seconds, "run", "run")
        samples.append(raw["setup_s"])
        samples += [setup_time(workload, seed, k) for k in range(before, SETUP_RUNS - 1)]
        metrics, doc["tail"] = latency_metrics(raw["latencies_s"])
        metrics["setup_s"] = statistics.median(samples)
        metrics["peak_rss_mb"] = raw["peak_rss_mb"]
        attempted = len(raw["latencies_s"])
        failed = raw["failed"]
        units = END_TO_END_UNITS
        doc["latency_p50_ms"] = metrics["latency_p50_ms"]
        doc["setup_samples_s"] = samples
        doc["latencies_s"] = raw["latencies_s"]
        doc["errors"] = raw["errors"]
    doc.update(
        environment=raw["environment"],
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        items_per_rotation=raw["rotation"],
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in sorted(units)},
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    doc["path"] = path
    return doc


def report(doc: dict) -> None:
    """Human-readable block: every metric with its unit, then the errors."""
    head = (
        f"{doc['workload']} seed={doc['seed']} trace={doc['trace']}: "
        f"{doc['attempted']} items, {doc['failed']} failed"
    )
    if "tail" in doc:
        head += f"; tail = p{doc['tail']['percentile']:.2f} of {doc['tail']['items']} items"
    print(head)
    for name, m in doc["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if "latency_p50_ms" in doc:
        print(f"  {'latency_p50_ms':48s} {doc['latency_p50_ms']:.6g} ms (reported, not gated)")
    print(f"  {'error_rate':48s} {doc['error_rate']:.6g} ratio (reported, not gated)")
    for err in doc["errors"]:
        print(err, file=sys.stderr)
    print(f"  result file: {os.path.relpath(doc['path'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "qbond", "__init__.py")):
        print(f"error: no qbond sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        docs = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for doc in docs:
        report(doc)
        prefix = "" if len(docs) == 1 else doc["workload"] + "."
        metrics.update({prefix + k: v for k, v in doc["metrics"].items()})
    failed = sum(d["failed"] for d in docs)
    result = {
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
