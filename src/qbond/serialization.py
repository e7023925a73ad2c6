"""Interchange formats: JSON matrix schema, schedule schema, CSV tables.

A complex matrix travels as

    {"dim": n, "re": [[...]], "im": [[...]]}

with full double precision (row major). Every emitted JSON document
re-parses to bit-identical values because floats are serialized through
repr. Schemas are strict: unknown keys are rejected so that typos fail
loudly instead of being ignored. A schedule pulse may carry a "dipole"
key, the D_k its envelope was shaped for; it defaults to 1.0 when absent.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from .binding import BindingEnergyReport
from .errors import ValidationError
from .pulse_synthesis import PulseSchedule, PulseShape, ScheduledPulse, TransitionPulse

MATRIX_KEYS = {"dim", "re", "im"}


def require_keys(obj: dict, required: set, optional: set = frozenset(), what: str = "object") -> None:
    """Strict schema check: all required present, nothing unknown."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValidationError(f"{what} is missing keys {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what} has unknown keys {sorted(unknown)}")


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"only square matrices serialize, got shape {m.shape}")
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict, what: str = "matrix") -> np.ndarray:
    require_keys(obj, MATRIX_KEYS, what=what)
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"{what}: dim must be a positive integer, got {dim!r}")
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"{what}: parts must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def binding_report_to_json(report: BindingEnergyReport) -> dict:
    return {
        "delta_u_be": report.delta_u_be,
        "initial_energy": report.initial_energy,
        "final_energy": report.final_energy,
        "passive_state": matrix_to_json(report.passive_state),
        "assignment": list(report.assignment),
        "optimal_unitary": matrix_to_json(report.optimal_unitary),
    }


def schedule_to_json(sched: PulseSchedule) -> dict:
    pulses = []
    for sp in sched.pulses:
        shape = sp.shape
        pulses.append(
            {
                "transition": list(sp.pulse.transition),
                "area": sp.pulse.area,
                "phase": sp.pulse.phase,
                "breakpoints": [[t, a] for t, a in (shape.breakpoints if shape else ())],
                "duration": shape.duration if shape else 0.0,
                "dipole": sp.dipole,
            }
        )
    return {
        "pulses": pulses,
        "residual_phases": [float(x) for x in sched.residual_phases],
        "total_time": float(sched.total_time),
    }


def schedule_from_json(obj: dict) -> PulseSchedule:
    require_keys(obj, {"pulses", "residual_phases", "total_time"}, what="schedule")
    pulses = []
    for n, p in enumerate(obj["pulses"]):
        require_keys(
            p,
            {"transition", "area", "phase", "breakpoints", "duration"},
            optional={"dipole"},
            what=f"pulse {n}",
        )
        pulse = TransitionPulse(
            transition=tuple(int(x) for x in p["transition"]),
            area=float(p["area"]),
            phase=float(p["phase"]),
        )
        points = tuple((float(t), float(a)) for t, a in p["breakpoints"])
        if points:
            duration = float(p["duration"])
            if abs(points[-1][0] - duration) > 1e-9 * max(1.0, duration):
                raise ValidationError(
                    f"pulse {n}: duration {duration} disagrees with final breakpoint {points[-1][0]}"
                )
            base = points[0][1]
            realized = _piecewise_area(points, base)
            shape = PulseShape(breakpoints=points, duration=duration, realized_area=realized)
        else:
            shape = None
        dipole = p.get("dipole", 1.0)
        if isinstance(dipole, bool) or not isinstance(dipole, (int, float)):
            raise ValidationError(f"pulse {n}: dipole must be a number, got {dipole!r}")
        pulses.append(ScheduledPulse(pulse=pulse, shape=shape, dipole=float(dipole)))
    return PulseSchedule(
        pulses=pulses,
        residual_phases=np.asarray(obj["residual_phases"], dtype=float),
        total_time=float(obj["total_time"]),
    )


def _piecewise_area(points, baseline: float) -> float:
    total = 0.0
    for (t0, a0), (t1, a1) in zip(points[:-1], points[1:]):
        total += 0.5 * ((a0 - baseline) + (a1 - baseline)) * (t1 - t0)
    return total


def well_levels_csv(rows) -> str:
    """CSV table (n, E_eV, kind, P, tau_s); P and tau blank off the tunneling window."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "E_eV", "kind", "P", "tau_s"])
    for r in rows:
        p = "" if r.get("P") is None else repr(float(r["P"]))
        tau = r.get("tau_s")
        tau = "" if tau is None else ("inf" if math.isinf(tau) else repr(float(tau)))
        writer.writerow([r["n"], repr(float(r["E_eV"])), r["kind"], p, tau])
    return buf.getvalue()


def envelope_csv(sched: PulseSchedule, points_per_segment: int = 50) -> str:
    """Envelope samples (time, amplitude, transition) on the schedule timeline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["time", "amplitude", "transition"])
    offset = 0.0
    for sp in sched.pulses:
        shape = sp.shape
        if shape is None or not shape.breakpoints:
            continue
        label = "{}-{}".format(*sp.pulse.transition)
        knots = [b[0] for b in shape.breakpoints]
        for a, b in zip(knots[:-1], knots[1:]):
            if b <= a:
                continue
            for t in np.linspace(a, b, points_per_segment, endpoint=False):
                writer.writerow([repr(offset + float(t)), repr(shape.amplitude_at(float(t))), label])
        writer.writerow([repr(offset + shape.duration), repr(shape.amplitude_at(shape.duration)), label])
        offset += shape.duration
    return buf.getvalue()


def trajectory_csv(times, states, energies) -> str:
    """Trajectory table (t, U_energy, purity, populations...)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = states[0].shape[0] if states else 0
    writer.writerow(["t", "U_energy", "purity"] + [f"pop_{k + 1}" for k in range(d)])
    for t, rho, e in zip(times, states, energies):
        purity = float(np.trace(rho @ rho).real)
        pops = [repr(float(rho[k, k].real)) for k in range(d)]
        writer.writerow([repr(float(t)), repr(float(e)), repr(purity)] + pops)
    return buf.getvalue()
