"""Layer spans recorded from outside qbond, by wrapping module attributes.

Every public function defined on a traced module is replaced, on that
module, by a wrapper that records one span per call: its name, start,
end, parent span, item id and phase (timed item or correctness gate).
Calls that go through the module attribute, including calls from other
functions of the same module, get a span. A name brought in with
``from module import name`` still points at the original function, so
that call stays inside its caller's span. No source file is edited;
``uninstall`` puts the originals back.

Spans live in typed arrays while the run lasts and are written out once
at the end. Self time is a span's duration minus the durations of its
direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

PHASE_ITEM = 0
PHASE_CHECK = 1

LAYERS = (
    "propagation",
    "pulse_synthesis",
    "serialization",
    "tunneling_well",
    "jaynes_cummings",
    "cli",
    "binding",
    "operators",
)

# per-layer metric -> spans whose self time it sums
SELF_METRICS = {
    "propagation.simulate_unitary.self_s": ("propagation.simulate_schedule",),
    "propagation.simulate_trajectory.self_s": ("propagation.evolve_density",),
    "propagation.verify_passive.self_s": ("propagation.verify_passive",),
    "pulse_synthesis.schedule.self_s": ("pulse_synthesis.schedule",),
    "pulse_synthesis.givens_decompose.self_s": ("pulse_synthesis.givens_decompose",),
    "pulse_synthesis.shape_pulse.self_s": ("pulse_synthesis.shape_pulse",),
    "pulse_synthesis.pulse_unitary.self_s": ("pulse_synthesis.pulse_unitary",),
    "pulse_synthesis.reconstruct.self_s": ("pulse_synthesis.PulseSchedule.reconstruct",),
    "serialization.encode.self_s": (
        "serialization.schedule_to_json",
        "serialization.matrix_to_json",
        "serialization.binding_report_to_json",
        "serialization.envelope_csv",
        "serialization.trajectory_csv",
        "serialization.well_levels_csv",
        "serialization.json_text",
    ),
    "serialization.decode.self_s": (
        "serialization.schedule_from_json",
        "serialization.matrix_from_json",
        "serialization.vector_from_json",
        "serialization.require_keys",
        "serialization.json_parse",
    ),
    "tunneling_well.bound_state_energies.self_s": ("tunneling_well.bound_state_energies",),
    "tunneling_well.quadrature.self_s": (
        "tunneling_well.barrier_action_quadrature",
        "tunneling_well.wkb_transmission_quadrature",
    ),
    "binding.binding_energy.self_s": ("binding.binding_energy",),
    "binding.thermal_state.self_s": ("binding.thermal_state",),
    "cli.main.self_s": ("cli.main",),
}


def _segments(sched) -> int:
    """Envelope segments of positive width that playback integrates."""
    total = 0
    for sp in sched.pulses:
        if sp.shape is not None:
            times = np.unique([b[0] for b in sp.shape.breakpoints])
            total += int(np.count_nonzero(np.diff(times) > 0.0))
    return total


# work counts taken at layer boundaries: span name -> (count, f(args, result), whole run).
# Counts that are not whole-run cover the first `count_items` items only.
COUNTERS = {
    "pulse_synthesis.givens_decompose": (
        "pulse_synthesis.pulses",
        lambda a, r: len(r.pulses),
        False,
    ),
    "pulse_synthesis.shape_pulse": (
        "pulse_synthesis.trapezoid_pulses",
        lambda a, r: int(len(r.breakpoints) == 4),
        False,
    ),
    "propagation.simulate_schedule": ("propagation.segments", lambda a, r: _segments(a[0]), False),
    "tunneling_well.bound_state_energies": ("tunneling_well.levels", lambda a, r: len(r), False),
    "serialization.json_text": ("serialization.json_bytes", lambda a, r: len(r.encode()), False),
    "cli.main": ("cli.exit_nonzero", lambda a, r: int(r != 0), True),
}


class Tracer:
    """Span store plus the wrappers that feed it.

    ``item`` and ``phase`` are set by the caller before each item step.
    Counts are kept only while ``item < count_items`` so that they cover
    a fixed set of inputs and repeat exactly at a fixed seed.
    """

    def __init__(self, package: str, count_items: int, extra=()):
        self.package = package
        self.extra = list(extra)
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_col = array("i")
        self.parent = array("q")
        self.item_col = array("q")
        self.phase_col = array("b")
        self.error = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.current = -1
        self.item = -1
        self.phase = PHASE_ITEM
        self.count_items = count_items
        self.counts: dict[str, int] = {}
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str):
        nid = self.name_id.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        counter = COUNTERS.get(span)
        calls = span.split(".", 1)[0] + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.t0)
            parent = tracer.current
            tracer.name_col.append(nid)
            tracer.parent.append(parent)
            tracer.item_col.append(tracer.item)
            tracer.phase_col.append(tracer.phase)
            tracer.error.append(0)
            tracer.t1.append(0.0)
            tracer.current = sid
            t0 = perf_counter()
            tracer.t0.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[sid] = 1
                raise
            finally:
                tracer.t1[sid] = perf_counter()
                tracer.current = parent
            first = tracer.item < tracer.count_items
            if first:
                tracer.add(calls, 1)
            if counter is not None and (first or counter[2]):
                tracer.add(counter[0], counter[1](args, result))
            return result

        return traced

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _patch(self, owner, attr: str, span: str) -> None:
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span))

    def install(self) -> None:
        """Wrap the public functions of each layer module and the extra (owner, attr, span)."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package}.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    self._patch(mod, attr, f"{layer}.{attr}")
        for owner, attr, span in self.extra:
            self._patch(owner, attr, span)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "item": np.frombuffer(self.item_col, dtype=np.int64).copy(),
            "phase": np.frombuffer(self.phase_col, dtype=np.int8).copy(),
            "error": np.frombuffer(self.error, dtype=np.int8).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())

    def summary(self, items: int, item_seconds: float) -> dict[str, float]:
        """Per-layer metrics over the traced items.

        Self times are seconds per item and include the correctness gate's
        calls. Shares and coverage divide item-phase time by item wall time.
        """
        c = self.columns()
        n = len(c["t0"])
        dur = c["t1"] - c["t0"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child[:n]
        layer_of = np.array([s.split(".", 1)[0] for s in self.names])[c["name"]]
        in_item = c["phase"] == PHASE_ITEM

        out: dict[str, float] = {}
        for metric, spans in SELF_METRICS.items():
            ids = [self.name_id[s] for s in spans if s in self.name_id]
            out[metric] = float(self_time[np.isin(c["name"], ids)].sum()) / items
        for layer in LAYERS:
            mine = layer_of == layer
            out[f"{layer}.self_s"] = float(self_time[mine].sum()) / items
            out[f"{layer}.share"] = float(self_time[mine & in_item].sum()) / item_seconds
            out[f"{layer}.calls"] = self.counts.get(f"{layer}.calls", 0)
            out[f"{layer}.errors"] = int(c["error"][mine].sum())
        for key, _, _ in COUNTERS.values():
            out[key] = self.counts.get(key, 0)
        top = in_item & ~has_parent
        out["trace.coverage"] = float(dur[top].sum()) / item_seconds
        return out
