"""Interchange formats: JSON matrix schema, schedule schema, CSV tables.

A complex matrix travels as

    {"dim": n, "re": [[...]], "im": [[...]]}

with full double precision (row major). Every emitted JSON document
re-parses to bit-identical values because floats are serialized through
repr. Schemas are strict: unknown keys fail loudly, and numbers must be finite
ints or floats. A schedule pulse may carry its "dipole" D_k (default 1.0).
Every pulse's "duration" must match its last breakpoint time (0.0 when it has
none), and a schedule's "total_time" must match its summed pulse durations.

A schedule travels to and from the PulseSchedule columns directly:
schedule_to_json and envelope_csv format .tolist() columns, and
schedule_from_json gathers every pulse's numbers in one pass, then checks
them as columns, naming the first pulse that breaks a rule. It checks only
the format; the schedule's own rules are PulseSchedule._check's.
"""

from __future__ import annotations

from itertools import accumulate, chain

import numpy as np

from .binding import BindingEnergyReport
from .errors import ValidationError
from .pulse_synthesis import PulseSchedule

MATRIX_KEYS = {"dim", "re", "im"}
_DURATION_RTOL = 1e-9           # stored durations against the breakpoints they summarize
_NUMBER_TYPES = {int, float}       # not bool, whose type is its own
_SEQUENCES = {list, tuple}
# the keys of a pulse object: with its optional dipole (as schedule_to_json writes it) and without
_PULSE_KEYS = (
    frozenset({"transition", "area", "phase", "breakpoints", "duration", "dipole"}),
    frozenset({"transition", "area", "phase", "breakpoints", "duration"}),
)
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
    points = sched.breakpoints.tolist()
    bounds = sched.offsets.tolist()
    columns = (sched.levels.tolist(), sched.areas.tolist(), sched.phases.tolist(), sched.durations.tolist())
    pulses = [
        {
            "transition": [k, k + 1],
            "area": area,
            "phase": phase,
            "breakpoints": points[lo:hi],
            "duration": duration,
            "dipole": dipole,
        }
        for k, area, phase, duration, dipole, lo, hi in zip(*columns, sched.dipoles.tolist(), bounds, bounds[1:])
    ]
    return {
        "pulses": pulses,
        "residual_phases": sched.residual_phases.tolist(),
        "total_time": sched.total_time,
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


def _pairs(values) -> bool:
    """Whether every value is a list or tuple of two entries."""
    return set(map(type, values)) <= _SEQUENCES and set(map(len, values)) <= {2}


def _read_each(values, read) -> np.ndarray:
    """The numbers read(value, "pulse n") gives, pulse after pulse; read raises for the first pulse that breaks its rule."""
    return np.array([x for n, value in enumerate(values) for x in read(value, f"pulse {n}")], dtype=float)


def _levels(value, what: str) -> list[float]:
    levels = _numbers(value, what, "transition")
    if len(levels) != 2 or not all(x.is_integer() for x in levels):
        raise ValidationError(f"{what}: transition must be two integer levels, got {value!r}")
    return levels


def schedule_from_json(obj: dict) -> PulseSchedule:
    """A PulseSchedule from its JSON document, every value checked a column at a time.

    One pass over the pulse objects checks their keys and gathers their
    values; every number then gets _number's rule as one column. The format
    rules follow as column checks (a transition of two integer levels
    (k, k+1), a duration that is the last breakpoint time), then
    PulseSchedule._check, then total_time. An error names the first pulse
    that breaks a rule, with a pulse-by-pulse reader's message; numbers
    that break _number's rule are read again pulse by pulse to find it.
    """
    require_keys(obj, {"pulses", "residual_phases", "total_time"}, what="schedule")
    docs = obj["pulses"]
    if not isinstance(docs, list):
        raise ValidationError(f"schedule: pulses must be a list, got {docs!r}")
    rows = []
    for n, p in enumerate(docs):
        if not (type(p) is dict and p.keys() in _PULSE_KEYS):
            require_keys(p, _PULSE_KEYS[1], optional={"dipole"}, what=f"pulse {n}")
        rows.append((p["area"], p["phase"], p["duration"], p.get("dipole", 1.0), p["transition"], p["breakpoints"]))
    *scalars, transition, breakpoints = zip(*rows) if rows else [()] * 6

    # every number of every pulse in one column: area, phase, duration, dipole, transitions, breakpoints
    m, numbers = len(rows), None
    if _pairs(transition) and set(map(type, breakpoints)) <= _SEQUENCES:
        pairs = list(chain.from_iterable(breakpoints))
        if _pairs(pairs):
            flat = chain(*scalars, chain.from_iterable(transition), chain.from_iterable(pairs))
            numbers = _floats(list(flat))
    if numbers is not None:
        (area, phase, duration, dipole), levels, points = (
            numbers[: 4 * m].reshape(4, m), numbers[4 * m : 6 * m], numbers[6 * m :]
        )
    else:  # a value breaks a rule (or is laid out unusually): read pulse by pulse, naming the first that breaks it
        area, phase, duration, dipole = (
            np.array([_number(x, f"pulse {n}", field) for n, x in enumerate(values)])
            for field, values in zip(("area", "phase", "duration", "dipole"), scalars)
        )
        levels = _read_each(transition, _levels)
        points = _read_each(
            breakpoints, lambda v, what: _numbers(_flat_rows(v, 2, what, "breakpoints"), what, "breakpoints")
        )
    residual = np.array(_numbers(obj["residual_phases"], "schedule", "residual_phases"))

    k, k1 = levels.reshape(-1, 2).T
    offsets = np.fromiter(accumulate(map(len, breakpoints), initial=0), dtype=int, count=m + 1)
    with np.errstate(over="ignore"):  # a difference past the float range reads inf and fails
        # k an integer and k1 - k == 1 exactly: then k1 is the integer k + 1
        form = (k == np.floor(k)) & (k1 - k == 1.0)
        sched = PulseSchedule._from_columns(np.where(form, k, 0.0), area, phase, dipole, points, offsets, residual)
        ends = sched.durations
        valid = form & (np.abs(ends - duration) <= _DURATION_RTOL * np.maximum(1.0, duration))
    if not valid.all():
        n = int(valid.argmin())
        what = f"pulse {n}"
        if not form[n]:
            k, k1 = _levels(transition[n], what)
            raise ValidationError(f"{what}: transition must be (k, k+1) with k >= 1, got {(int(k), int(k1))}")
        raise ValidationError(
            f"{what}: duration {float(duration[n])} differs from {float(ends[n])}, "
            "the envelope's last breakpoint time (0.0 when it has none)"
        )
    sched._check()
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
