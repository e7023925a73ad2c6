"""Interchange formats: JSON matrix schema, schedule schema, CSV tables.

A complex matrix travels as

    {"dim": n, "re": [[...]], "im": [[...]]}

with full double precision (row major). Every emitted JSON document
re-parses to bit-identical values because floats are serialized through
repr. Schemas are strict: unknown keys fail loudly, and numbers must be finite
ints or floats.

A schedule travels as the PulseSchedule columns themselves (format 2):

    {"format": 2, "levels": [k, ...], "areas": [...], "phases": [...],
     "dipoles": [...], "offsets": [0, ..., N], "breakpoints": [t0, a0, t1, a1, ...],
     "residual_phases": [...]}

Pulse i drives levels (k, k+1) with k = levels[i]; its envelope is rows
offsets[i] to offsets[i + 1] of the (N, 2) breakpoint table, stored flat.
"dipoles" is optional (1.0 per pulse). Nothing derived is stored: the
transition pairs, durations and total time are read off levels and the
breakpoints. schedule_to_json is one .tolist() per column. schedule_from_json
checks only the format: strict keys, format 2, finite numbers a column at
a time and whole (t, amplitude) pairs. It then hands the columns to
PulseSchedule(...), which states every rule of a schedule. A per-pulse
document (the earlier format, with "pulses") is refused. envelope_csv is
the row-per-breakpoint view of the same envelopes on the schedule clock.
"""

from __future__ import annotations

from itertools import chain, count, repeat

import numpy as np

from .binding import BindingEnergyReport
from .errors import ValidationError
from .pulse_synthesis import PulseSchedule

MATRIX_KEYS = {"dim", "re", "im"}
SCHEDULE_FORMAT = 2
_SCHEDULE_KEYS = {"format", "levels", "areas", "phases", "offsets", "breakpoints", "residual_phases"}
# the per-pulse columns, each with the field name an error gives after "pulse n: "
_PULSE_FIELDS = {"levels": "level", "areas": "area", "phases": "phase", "dipoles": "dipole"}
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
    return {
        "format": SCHEDULE_FORMAT,
        "levels": sched.levels.tolist(),
        "areas": sched.areas.tolist(),
        "phases": sched.phases.tolist(),
        "dipoles": sched.dipoles.tolist(),
        "offsets": sched.offsets.tolist(),
        "breakpoints": sched.breakpoints.ravel().tolist(),
        "residual_phases": sched.residual_phases.tolist(),
    }


def _floats(values) -> np.ndarray | None:
    """values as a float array if every one passes _number's rule, else None.

    The rule on a whole column: each type exactly int or float (so not
    bool), then np.array, then one range check. An int past the float
    range makes np.array raise OverflowError; an entry that converts to
    the largest float is checked exactly, as _number checks it.
    """
    try:
        if set(map(type, values)) <= _NUMBER_TYPES:
            col = np.array(values, dtype=float)
            if (np.abs(col) < _FLOAT_MAX).all() or all(abs(x) <= _FLOAT_MAX for x in values):
                return col
    except OverflowError:
        pass
    return None


def _column(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float array, every entry checked by _number's rule at once.

    An entry that breaks it is named as "pulse n: <field>" in a per-pulse
    column, else as "schedule: <key>".
    """
    values = obj[key]
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"schedule: {key} must be a list of numbers, got {values!r}")
    col = _floats(values)
    if col is None:  # read again one entry at a time to name the first that breaks the rule
        field = _PULSE_FIELDS.get(key)
        names = (f"pulse {n}" for n in count()) if field else repeat("schedule")
        col = np.array([_number(x, what, field or key) for what, x in zip(names, values)])
    return col


def _check_format(obj) -> None:
    """Refuse a schedule object that is not format 2: another format, no format, or per-pulse "pulses"."""
    if not isinstance(obj, dict):
        return  # require_keys refuses it
    if type(obj.get("format")) is int and obj["format"] == SCHEDULE_FORMAT and "pulses" not in obj:
        return
    found = f"format {obj['format']!r}" if "format" in obj else "no format"
    if "pulses" in obj:
        found += " and a per-pulse pulses list"
    raise ValidationError(
        f"schedule: only format {SCHEDULE_FORMAT} is read, got {found}; "
        f"re-run qbond synth to write a format-{SCHEDULE_FORMAT} schedule"
    )


def schedule_from_json(obj: dict) -> PulseSchedule:
    """A PulseSchedule from its format-2 document, every value checked a column at a time.

    The format rules: strict keys with format exactly 2; finite numbers in
    every column; an even count of breakpoint numbers. The schedule's own
    rules are PulseSchedule's.
    """
    _check_format(obj)
    require_keys(obj, _SCHEDULE_KEYS, optional={"dipoles"}, what="schedule")
    levels, areas, phases, offsets, points, residual = (
        _column(obj, key) for key in ("levels", "areas", "phases", "offsets", "breakpoints", "residual_phases")
    )
    dipoles = _column(obj, "dipoles") if "dipoles" in obj else np.ones(len(levels))
    if len(points) % 2:
        raise ValidationError(f"schedule: breakpoints must hold (t, amplitude) pairs, got an odd count {len(points)}")
    return PulseSchedule(levels, areas, phases, dipoles, points.reshape(-1, 2), offsets, residual)


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
    The columns are formatted whole: the times are the breakpoint table's
    times plus each row's pulse start, the labels one per level.
    """
    counts = np.diff(sched.offsets)
    times, amps = sched.breakpoints.T
    labels = np.array([f"{k}-{k + 1}" for k in range(sched.levels.max(initial=0) + 1)])
    rows = zip(
        (np.repeat(sched.start_times, counts) + times).tolist(),
        amps.tolist(),
        labels[np.repeat(sched.levels, counts)].tolist(),
    )
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
