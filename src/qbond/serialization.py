"""Interchange formats: JSON matrix schema, schedule schema, CSV tables.

A complex matrix travels as

    {"dim": n, "re": [[...]], "im": [[...]]}

with full double precision (row major). Every emitted JSON document
re-parses to bit-identical values because floats are serialized through
repr. Schemas are strict: unknown keys fail loudly, and numbers must be finite
ints or floats. A schedule pulse may carry its "dipole" D_k (default 1.0).
Every pulse's "duration" must match its last breakpoint time (0.0 when it has
none), and a schedule's "total_time" must match its summed pulse durations.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .binding import BindingEnergyReport
from .errors import ValidationError
from .pulse_synthesis import PulseSchedule, PulseShape, ScheduledPulse, TransitionPulse

MATRIX_KEYS = {"dim", "re", "im"}
_DURATION_RTOL = 1e-9           # stored durations against the breakpoints they summarize
_NUMBER_TYPES = {int, float}       # not bool, whose type is its own
_FLOAT_MAX = float(np.finfo(float).max)


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


def _number(value, what: str, field: str) -> float:
    """The reader of every number in a document: a finite int or float, not bool, as a float."""
    if type(value) not in _NUMBER_TYPES or not abs(value) <= _FLOAT_MAX:
        raise ValidationError(f"{what}: {field}: non-finite or non-numeric value {value!r}")
    return float(value)


def _numbers(values, what: str, field: str) -> list[float]:
    """_number over each entry of a list."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{what}: {field} must be a list of numbers, got {values!r}")
    return [_number(x, what, field) for x in values]


def _flat_rows(rows, width: int, what: str, field: str) -> list:
    """Entries of a list of width-long lists (breakpoint pairs, matrix rows), row after row."""
    if isinstance(rows, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and len(row) == width for row in rows
    ):
        return list(chain.from_iterable(rows))
    raise ValidationError(f"{what}: {field} must be a list of lists of {width} numbers, got {rows!r}")


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
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"{what}: dim must be a positive integer, got {dim!r}")
    re = np.array(_numbers(_flat_rows(obj["re"], dim, what, "re"), what, "re")).reshape(-1, dim)
    im = np.array(_numbers(_flat_rows(obj["im"], dim, what, "im"), what, "im")).reshape(-1, dim)
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
    pulses = [
        {
            "transition": list(sp.pulse.transition),
            "area": sp.pulse.area,
            "phase": sp.pulse.phase,
            "breakpoints": [[t, a] for t, a in sp.shape.breakpoints],
            "duration": sp.shape.duration,
            "dipole": sp.dipole,
        }
        for sp in sched.pulses
    ]
    return {
        "pulses": pulses,
        "residual_phases": [float(x) for x in sched.residual_phases],
        "total_time": sched.total_time,
    }


def schedule_from_json(obj: dict) -> PulseSchedule:
    require_keys(obj, {"pulses", "residual_phases", "total_time"}, what="schedule")
    if not isinstance(obj["pulses"], list):
        raise ValidationError(f"schedule: pulses must be a list, got {obj['pulses']!r}")
    pulses = []
    for n, p in enumerate(obj["pulses"]):
        what = f"pulse {n}"
        require_keys(
            p,
            {"transition", "area", "phase", "breakpoints", "duration"},
            optional={"dipole"},
            what=what,
        )
        area = _number(p["area"], what, "area")
        phase = _number(p["phase"], what, "phase")
        duration = _number(p["duration"], what, "duration")
        dipole = _number(p.get("dipole", 1.0), what, "dipole")
        levels = _numbers(p["transition"], what, "transition")
        if len(levels) != 2 or not all(x.is_integer() for x in levels):
            raise ValidationError(f"{what}: transition must be two integer levels, got {p['transition']!r}")
        pulse = TransitionPulse(transition=(int(levels[0]), int(levels[1])), area=area, phase=phase)
        flat = _numbers(_flat_rows(p["breakpoints"], 2, what, "breakpoints"), what, "breakpoints")
        shape = PulseShape(tuple(zip(flat[0::2], flat[1::2])))
        if abs(shape.duration - duration) > _DURATION_RTOL * max(1.0, duration):
            raise ValidationError(
                f"{what}: duration {duration} differs from {shape.duration}, "
                "the envelope's last breakpoint time (0.0 when it has none)"
            )
        pulses.append(ScheduledPulse(pulse=pulse, shape=shape, dipole=dipole))
    residual = np.array(_numbers(obj["residual_phases"], "schedule", "residual_phases"))
    if not residual.size:
        raise ValidationError("schedule: residual_phases is empty; it holds one phase per level")
    sched = PulseSchedule(pulses=pulses, residual_phases=residual)
    stored, summed = _number(obj["total_time"], "schedule", "total_time"), sched.total_time
    if abs(stored - summed) > _DURATION_RTOL * max(1.0, summed):
        raise ValidationError(f"schedule: total_time {stored} differs from the summed durations {summed}")
    return sched


def _cell(x) -> str:
    if type(x) is float:
        return repr(x)
    if x is None or isinstance(x, str):
        return x or ""
    return str(x) if isinstance(x, int) else repr(float(x))


def csv_table(header, rows) -> str:
    """CSV text of a header row and rows of cells; every table qbond writes goes through here.

    A str cell is written as it is, None blank, an int through str and any other number as repr(float(x)).
    Nothing is quoted, so a str cell must hold no comma and no line break.
    """
    return "".join(",".join(map(_cell, row)) + "\n" for row in chain([header], rows))


def well_levels_csv(rows) -> str:
    """CSV table (n, E_eV, kind, P, tau_s) of dict rows; P and tau blank off the tunneling window."""
    cells = ([r["n"], r["E_eV"], r["kind"], r.get("P"), r.get("tau_s")] for r in rows)
    return csv_table(("n", "E_eV", "kind", "P", "tau_s"), cells)


def envelope_csv(sched: PulseSchedule) -> str:
    """Envelope breakpoints (time, amplitude, transition) on the schedule timeline.

    Envelopes are piecewise linear, so one row per breakpoint describes
    them exactly; each pulse's times are offset by its start_times entry.
    """
    rows = []
    for sp, offset in zip(sched.pulses, sched.start_times.tolist()):
        label = "{}-{}".format(*sp.pulse.transition)
        rows += [(offset + t, amp, label) for t, amp in sp.shape.breakpoints]
    return csv_table(("time", "amplitude", "transition"), rows)


def trajectory_csv(times, states, energies) -> str:
    """Trajectory table (t, U_energy, purity, pop_1 ... pop_d), one row per sample.

    states is a sequence of d x d density matrices (a list of them or one
    (samples, d, d) array), stacked once. With S the stack, the columns are
    t = times, U_energy = energies, purity = Re Tr(S_i S_i) (one batched
    product, then np.trace over the last two axes) and pop_k = Re S_i[k-1, k-1]
    (one diagonal view).
    """
    d = len(states[0]) if len(states) else 0
    stack = np.asarray(states).reshape(len(states), d, d)
    purity = np.trace(stack @ stack, axis1=1, axis2=2).real
    pops = stack.diagonal(axis1=1, axis2=2).real
    rows = np.column_stack((times, energies, purity, pops)).tolist()
    return csv_table(["t", "U_energy", "purity"] + [f"pop_{k + 1}" for k in range(d)], rows)
