"""Serial reference implementations of the batched routes.

givens_decompose runs its eliminations as a wavefront of batched
rotations, simulate_schedule samples its trajectory in one batched pass,
trajectory_csv formats whole columns, and a PulseSchedule is held, shaped,
encoded and decoded as columns. The loops below do the same work one
rotation, one sample, one row and one pulse record at a time, so the tests
can compare the two.
"""

import cmath
import csv
import io
from itertools import accumulate
import math

import numpy as np

from qbond.errors import ValidationError
from qbond.pulse_synthesis import (
    ELIMINATION_ATOL,
    PulseSchedule,
    PulseShape,
    TransitionPulse,
    _dipole,
    _lookup,
    givens_decompose,
)
from qbond.serialization import _check_format, _number, csv_table, require_keys


def wrap_angle(angle):
    a = math.fmod(angle + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def rotate_rows(u, k, area, phase):
    """Left-multiply rows k-1 and k of u in place by the pulse block on (k, k+1)."""
    c, s = math.cos(area), math.sin(area)
    e = 1j * cmath.exp(1j * phase) * s
    rows = u[k - 1 : k + 1]
    rows[:] = np.array([[c, e], [-e.conjugate(), c]]) @ rows


def reck_decompose(target):
    """Serial Reck loop: (transition, area, phase) of the schedule's pulses and the residual phases.

    Columns are cleared from last to first, rows top down within a column;
    each entry on row k is rotated into row k+1, and a lower entry at or
    below ELIMINATION_ATOL counts as angle 0. The schedule applies the
    adjoint eliminations in reverse order.
    """
    work = np.array(target, dtype=complex)
    d = work.shape[0]
    eliminations = []
    for col in range(d, 1, -1):
        for row in range(1, col):
            upper, lower = work[row - 1, col - 1], work[row, col - 1]
            if abs(upper) <= ELIMINATION_ATOL:
                continue
            area = math.atan2(abs(upper), abs(lower))
            # a lower entry that is zero to roundoff has angle 0
            lower_angle = np.angle(lower) if abs(lower) > ELIMINATION_ATOL else 0.0
            phase = wrap_angle(np.angle(upper) - lower_angle + math.pi / 2)
            rotate_rows(work, row, area, phase)
            eliminations.append((row, area, phase))
    pulses = [((k, k + 1), a, wrap_angle(p + math.pi)) for k, a, p in reversed(eliminations)]
    return pulses, -np.angle(np.diag(work))


def serial_trajectory(sched, rho, times, dipole=None):
    """Final unitary, states and drive energies of a shaped schedule, one sample at a time.

    Each sample rotates a copy of the finished-segment propagator by the
    partial area of the segment still playing. The energy uses the segment
    playing at t; at a boundary the earlier one.
    """
    segments = []
    offset = 0.0
    for sp in sched.pulses:
        k = sp.transition[0]
        d_k = sp.dipole if dipole is None else dipole
        base = sp.shape.baseline
        for (t0, a0), (t1, a1) in zip(sp.shape.breakpoints[:-1], sp.shape.breakpoints[1:]):
            if t1 > t0:
                segments.append((offset + t0, offset + t1, k, d_k, sp.phase, a0 - base, a1 - base))
        offset += sp.shape.duration

    def area(seg, t):
        t_lo, t_hi, _, d_k, _, a_lo, a_hi = seg
        if t >= t_hi:
            return d_k * 0.5 * (a_lo + a_hi) * (t_hi - t_lo)
        x = t - t_lo
        slope = (a_hi - a_lo) / (t_hi - t_lo)
        return d_k * x * (a_lo + 0.5 * slope * x)

    def energy(done, t, state):
        if done > 0 and segments[done - 1][1] == t:
            seg = segments[done - 1]
        elif done < len(segments) and segments[done][0] <= t:
            seg = segments[done]
        else:
            return 0.0
        t_lo, t_hi, k, d_k, phase, a_lo, a_hi = seg
        amp = a_lo + (a_hi - a_lo) * (t - t_lo) / (t_hi - t_lo)
        coupling = -d_k * amp * cmath.exp(1j * phase)
        return 2.0 * (coupling * state[k, k - 1]).real

    d = sched.dimension
    u = np.eye(d, dtype=complex)
    done = 0
    states, energies = [], []
    for t in times:
        while done < len(segments) and segments[done][1] <= t:
            seg = segments[done]
            rotate_rows(u, seg[2], area(seg, seg[1]), seg[4])
            done += 1
        now = u.copy()
        if done < len(segments) and segments[done][0] < t:
            seg = segments[done]
            rotate_rows(now, seg[2], area(seg, t), seg[4])
        state = now @ rho @ now.conj().T
        states.append(state)
        energies.append(energy(done, t, state))
    for seg in segments[done:]:
        rotate_rows(u, seg[2], area(seg, seg[1]), seg[4])
    return u, states, np.array(energies)


def trajectory_csv_rows(times, states, energies):
    """trajectory.csv written row by row through csv.writer, one np.trace(rho @ rho) per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = states[0].shape[0] if states else 0
    writer.writerow(["t", "U_energy", "purity"] + [f"pop_{k + 1}" for k in range(d)])
    for t, rho, e in zip(times, states, energies):
        purity = float(np.trace(rho @ rho).real)
        pops = [repr(float(rho[k, k].real)) for k in range(d)]
        writer.writerow([repr(float(t)), repr(float(e)), repr(purity)] + pops)
    return buf.getvalue()


def shape_pulse_serial(area_required, constraints):
    """One envelope from the closed forms in Python floats: a triangle under the cap, else a trapezoid at it."""
    if area_required < 0.0:
        raise ValidationError(f"area must be nonnegative, got {area_required}")
    if area_required == 0.0:
        return PulseShape(())
    cap = constraints.headroom
    if cap <= 0.0:
        raise ValidationError(
            f"no amplitude headroom above the baseline ({constraints.amplitude_min} vs "
            f"{constraints.amplitude_max}); the requested area {area_required} is infeasible"
        )
    rate_up = constraints.slew_max
    rate_down = -constraints.slew_min
    ramp_factor = 1.0 / rate_up + 1.0 / rate_down
    base = constraints.amplitude_min
    peak = math.sqrt(2.0 * area_required / ramp_factor)
    if not peak > 0.0:
        raise ValidationError(
            f"area {area_required} with slew_max {constraints.slew_max} and slew_min "
            f"{constraints.slew_min}: the triangle peak sqrt(2 area / ramp factor) underflows to 0"
        )
    if peak <= cap:
        rise = peak / rate_up
        fall = peak / rate_down
        duration = rise + fall
        return PulseShape(((0.0, base), (rise, base + peak), (duration, base)))
    rise = cap / rate_up
    fall = cap / rate_down
    plateau = (area_required - 0.5 * cap * cap * ramp_factor) / cap
    duration = rise + plateau + fall
    return PulseShape(((0.0, base), (rise, base + cap), (rise + plateau, base + cap), (duration, base)))


def schedule_serial(target, constraints, dipoles=None):
    """schedule as a loop over pulse records: look up D_k and the limits, shape, record, one pulse at a time."""
    plan = givens_decompose(target)
    shaped = []
    for sp in plan.pulses:
        k = sp.transition[0]
        d_k = _dipole(dipoles, k)
        limits = _lookup(constraints, k, what="constraints")
        if limits is None:
            raise ValidationError(f"no constraints provided for transition ({k}, {k + 1})")
        shape = shape_pulse_serial(sp.area / d_k, limits)
        shaped.append(TransitionPulse(sp.transition, sp.area, sp.phase, shape=shape, dipole=d_k))
    return PulseSchedule(pulses=shaped, residual_phases=plan.residual_phases)


def schedule_to_json_records(sched):
    """schedule.json (format 2) built from the pulse records, one record at a time."""
    pulses = sched.pulses
    return {
        "format": 2,
        "levels": [sp.transition[0] for sp in pulses],
        "areas": [sp.area for sp in pulses],
        "phases": [sp.phase for sp in pulses],
        "dipoles": [sp.dipole for sp in pulses],
        "offsets": list(accumulate((len(sp.shape.breakpoints) for sp in pulses), initial=0)),
        "breakpoints": [x for sp in pulses for point in sp.shape.breakpoints for x in point],
        "residual_phases": [float(x) for x in sched.residual_phases],
    }


def schedule_from_json_records(obj):
    """schedule.json (format 2) read one pulse at a time, each value through _number, into TransitionPulse records."""
    _check_format(obj)
    keys = {"format", "levels", "areas", "phases", "offsets", "breakpoints", "residual_phases"}
    require_keys(obj, keys, optional={"dipoles"}, what="schedule")
    for key, values in obj.items():
        if key != "format" and not isinstance(values, list):
            raise ValidationError(f"schedule: {key} must be a list of numbers, got {values!r}")
    columns = dict(obj, dipoles=obj.get("dipoles", [1.0] * len(obj["levels"])))
    per_pulse = [columns[key] for key in ("levels", "areas", "phases", "dipoles")]
    lengths = list(map(len, per_pulse))
    if len(set(lengths)) > 1:
        raise ValidationError(
            f"schedule: levels, areas, phases and dipoles must have one entry per pulse, got lengths {lengths}"
        )
    m = lengths[0]
    if len(columns["offsets"]) != m + 1:
        raise ValidationError(
            f"schedule: offsets must have one entry more than the {m} pulses, got {len(columns['offsets'])}"
        )
    fields = ("level", "area", "phase", "dipole")
    rows = [[_number(column[n], f"pulse {n}", field) for field, column in zip(fields, per_pulse)] for n in range(m)]
    offsets, points, residual = (
        [_number(x, "schedule", key) for x in columns[key]] for key in ("offsets", "breakpoints", "residual_phases")
    )
    if len(points) % 2:
        raise ValidationError(f"schedule: breakpoints must hold (t, amplitude) pairs, got an odd count {len(points)}")
    for x in offsets:
        if not x.is_integer():
            raise ValidationError(f"schedule: offsets must be integers, got {x:g}")
    if offsets[0] != 0.0:
        raise ValidationError(f"schedule: offsets must start at 0, got {offsets[0]:g}")
    for lo, hi in zip(offsets, offsets[1:]):
        if hi < lo:
            raise ValidationError(f"schedule: offsets must not decrease, got {lo:g} then {hi:g}")
    if offsets[-1] != len(points) // 2:
        raise ValidationError(
            f"schedule: offsets must end at {len(points) // 2}, the breakpoint row count, got {offsets[-1]:g}"
        )
    pairs = list(zip(points[0::2], points[1::2]))
    pulses = []
    for (k, area, phase, dipole), lo, hi in zip(rows, offsets, offsets[1:]):
        shape = PulseShape(tuple(pairs[int(lo) : int(hi)]))
        transition = (int(k), int(k) + 1) if k.is_integer() else (k, k + 1)
        pulses.append(TransitionPulse(transition, area, phase, shape=shape, dipole=dipole))
    return PulseSchedule(pulses=pulses, residual_phases=np.array(residual))


def envelope_csv_records(sched):
    """envelope.csv from the pulse records: each breakpoint offset by the durations before its pulse."""
    rows = []
    starts = np.cumsum([0.0] + [sp.shape.duration for sp in sched.pulses]).tolist()
    for sp, offset in zip(sched.pulses, starts):
        label = "{}-{}".format(*sp.transition)
        rows += [(offset + t, amp, label) for t, amp in sp.shape.breakpoints]
    return csv_table(("time", "amplitude", "transition"), rows)
