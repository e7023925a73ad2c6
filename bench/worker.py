"""Child process of the benchmark: set up one workload and run its closed loop.

run.py starts this script once per measurement, with the address-space
limit and BLAS thread count already set. It prints one JSON line with
the raw measurements on standard output; run.py turns them into metrics.

Modes:
  setup  set up, warm up, report the set-up time and exit
  run    as setup, then items until --seconds have passed (whole rotations)
  trace  as run, but every item runs twice, untraced and with layer spans;
         then the first rotation once more under tracemalloc for
         propagation's allocation peak
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from time import perf_counter

from spans import PHASE_CHECK, PHASE_ITEM, Tracer

# at least this many items, so that the tail percentile has ten items above it
MIN_ITEMS = 20
ERRORS_KEPT = 5


def _import_qbond(root: str) -> None:
    """Import qbond from root/src, never from an installed copy."""
    sys.path.insert(0, os.path.join(root, "src"))
    import qbond

    expected = os.path.realpath(os.path.join(root, "src", "qbond"))
    if os.path.dirname(os.path.realpath(qbond.__file__)) != expected:
        raise ImportError(f"qbond was imported from {qbond.__file__}, not from {expected}")


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


class Results:
    """Latencies of one pass over the items; None marks a failed item."""

    def __init__(self):
        self.latencies: list[float | None] = []
        self.failed = 0
        self.errors: list[str] = []

    def add(self, latency: float, error: str | None) -> None:
        if error is None:
            self.latencies.append(latency)
        else:
            self.latencies.append(None)
            self.failed += 1
            if len(self.errors) < ERRORS_KEPT:
                self.errors.append(error)


def one_item(w, i: int, x, tracer=None) -> tuple[float, str | None]:
    """Time w.run on x, then gate its output; returns (seconds, error or None)."""
    if tracer is not None:
        tracer.item, tracer.phase = i, PHASE_ITEM
    t0 = perf_counter()
    try:
        out = w.run(x)
    except Exception:  # a failed item is counted and the loop goes on
        return perf_counter() - t0, f"item {i} raised:\n{traceback.format_exc()}"
    latency = perf_counter() - t0
    if tracer is not None:
        tracer.phase = PHASE_CHECK
    try:
        extra = w.check(x, out)
    except Exception:
        return latency, f"item {i} failed its check:\n{traceback.format_exc()}"
    if tracer is not None and i < tracer.count_items:
        for key, n in extra.items():
            tracer.add(key, n)
    return latency, None


def run_loop(w, seconds: float, count: int | None = None, tracer=None):
    """Closed loop over items 0, 1, 2, ...

    Stops at the first rotation boundary after `seconds` (and MIN_ITEMS),
    or after `count` items. With a tracer every item runs twice in a row,
    once untraced and once traced, the order swapping every rotation, so
    that the two passes see the same items under the same conditions.
    Returns (untraced Results, traced Results).
    """
    plain, traced = Results(), Results()
    start = perf_counter()
    i = 0
    while True:
        if count is None:
            if i >= MIN_ITEMS and i % w.rotation == 0 and perf_counter() - start >= seconds:
                break
        elif i >= count:
            break
        x = w.inputs(i)
        if tracer is None:
            plain.add(*one_item(w, i, x))
        else:
            traced_first = (i // w.rotation) % 2 == 1
            for with_spans in (traced_first, not traced_first):
                if not with_spans:
                    plain.add(*one_item(w, i, x))
                    continue
                tracer.install()
                try:
                    traced.add(*one_item(w, i, x, tracer))
                finally:
                    tracer.uninstall()
        i += 1
    return plain, traced


def _peak_alloc_mb(w, propagation) -> float:
    """Largest tracemalloc peak inside one simulate_schedule over the first rotation."""
    import tracemalloc

    original = propagation.simulate_schedule
    peak = 0

    def measured(*args, **kwargs):
        nonlocal peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    propagation.simulate_schedule = measured
    tracemalloc.start()
    try:
        run_loop(w, 0.0, count=w.rotation)
    finally:
        tracemalloc.stop()
        propagation.simulate_schedule = original
    return peak / 2**20


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where the trace mode writes its spans (.npz)")
    args = parser.parse_args()

    _import_qbond(args.root)
    import numpy as np

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
        w.warm_up()
        setup_s = time.monotonic() - args.spawned
        doc = {"setup_s": setup_s}
        if args.mode == "setup":
            print(json.dumps(doc))
            return 0

        tracer = _tracer(w) if args.mode == "trace" else None
        plain, traced = run_loop(w, args.seconds, tracer=tracer)
        doc.update(
            latencies_s=plain.latencies,
            failed=plain.failed,
            errors=plain.errors,
            rotation=w.rotation,
            environment=environment(np),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            from qbond import propagation

            doc.update(
                traced_latencies_s=traced.latencies,
                traced_failed=traced.failed,
                traced_errors=traced.errors,
                layers=tracer.summary(
                    items=len(traced.latencies),
                    item_seconds=sum(t for t in traced.latencies if t is not None),
                ),
                peak_alloc_mb=_peak_alloc_mb(w, propagation),
            )
            if args.spans:
                tracer.save(args.spans)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def _tracer(w) -> Tracer:
    """Spans on every qbond layer, PulseSchedule.reconstruct and the JSON text step."""
    from qbond import pulse_synthesis

    import workloads

    return Tracer(
        "qbond",
        count_items=w.rotation,
        extra=[
            (pulse_synthesis.PulseSchedule, "reconstruct", "pulse_synthesis.PulseSchedule.reconstruct"),
            (workloads, "json_text", "serialization.json_text"),
            (workloads, "json_parse", "serialization.json_parse"),
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
