"""Serial reference implementations of the batched routes.

givens_decompose runs its eliminations as a wavefront of batched
rotations, simulate_schedule samples its trajectory in one batched pass
and trajectory_csv formats whole columns. The loops below do the same work
one rotation, one sample and one row at a time, so the tests can compare
the two.
"""

import cmath
import csv
import io
import math

import numpy as np

from qbond.pulse_synthesis import ELIMINATION_ATOL


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
