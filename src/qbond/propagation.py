"""Time-ordered propagation and passivity verification.

Schedule playback (simulate_schedule) uses the structure of a pulse train.
Every pulse drives one fixed level pair (k, k+1) with one fixed carrier
phase, so its generators commute at all times and the propagator of one
linear envelope segment is the closed-form pulse block with area
D * integral (a - baseline) dt. Playback builds the blocks of all segments
in one pulse_synthesis._blocks call and applies them in order, each to two
rows: O(d) work per segment, exact up to roundoff, with no step size to
refine. steps_per_segment only sets the grid the state trajectory is
sampled on. With rho0, the propagator at each sample time is copied into a
(samples, d, d) stack; one batched rotation adds the partial area of each
sample's running segment, and one batched product gives the states, so the
trajectory holds at most three such stacks. D is the dipole recorded on
each pulse unless dipoles overrides it; it is never inferred. Each pulse
starts at its PulseSchedule.start_times entry, and its segments are slices
of the schedule's breakpoint table. Playback refuses only an unshaped
pulse: every other rule was checked when the schedule was built or read.

This is the library's only route from an envelope to its propagator. The
test suite checks it against a generic midpoint spectral integrator of
the rotating-frame Hamiltonian, which the library does not ship.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .operators import (
    as_square_matrix,
    hermitian_eigendecomposition,
    validate_density_matrix,
    validate_unitary,
)
from .pulse_synthesis import PulseSchedule, _blocks, _by_transition, _dipole

STEPS_PER_SEGMENT = 200
COMMUTATOR_ATOL = 1e-8
POPULATION_ATOL = 1e-10
DEGENERACY_ATOL = 1e-10
TRAJECTORY_SAMPLES = 201
# the rho0 trajectory's three (samples, d, d) complex stacks may take this much
TRAJECTORY_BUDGET_BYTES = 2**30


@dataclass
class PropagationResult:
    final_unitary: np.ndarray
    times: np.ndarray
    state_trajectory: list | None = None
    energy_trajectory: np.ndarray | None = None
    fidelity_to_target: float | None = None


def _sample_picks(n_steps: int, samples: int) -> np.ndarray:
    """Indices of at most `samples` points spread evenly over grid points 0..n_steps."""
    return np.unique(np.round(np.linspace(0, n_steps, min(samples, n_steps + 1))).astype(int))


def fidelity(u_a: np.ndarray, u_b: np.ndarray) -> float:
    """Global-phase-insensitive overlap |Tr(A^dag B)| / d."""
    a = as_square_matrix(u_a)
    b = as_square_matrix(u_b)
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])


class _Segments(NamedTuple):
    """Linear envelope pieces on the schedule clock, one array entry each.

    Entry i runs from t_lo[i] to t_hi[i] on the pair (k[i], k[i]+1), k
    1-based; a_lo and a_hi are the envelope above its baseline at t_lo and
    t_hi. Entries are in playback order.
    """

    t_lo: np.ndarray
    t_hi: np.ndarray
    k: np.ndarray
    dipole: np.ndarray
    phase: np.ndarray
    a_lo: np.ndarray
    a_hi: np.ndarray

    def full_area(self) -> np.ndarray:
        """Rotation angle D * integral of the envelope over each whole segment."""
        return self.dipole * 0.5 * (self.a_lo + self.a_hi) * (self.t_hi - self.t_lo)

    def area(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rotation angle of segments i from t_lo[i] to t, for t_lo[i] <= t <= t_hi[i]."""
        x = t - self.t_lo[i]
        slope = (self.a_hi[i] - self.a_lo[i]) / (self.t_hi[i] - self.t_lo[i])
        return self.dipole[i] * x * (self.a_lo[i] + 0.5 * slope * x)

    def amplitude(self, i: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Envelope above baseline of segments i at t."""
        return self.a_lo[i] + (self.a_hi[i] - self.a_lo[i]) * (t - self.t_lo[i]) / (
            self.t_hi[i] - self.t_lo[i]
        )


def _segments(sched: PulseSchedule, dipoles) -> _Segments:
    """Envelope segments of positive width, each pulse from its start_times entry.

    Slices of the schedule's breakpoint table: rows j and j + 1 of one
    pulse make a segment, amplitudes taken above that pulse's first
    breakpoint amplitude. A pulse with no breakpoints is unshaped and
    refused; every other rule was checked when the schedule was built or read.
    """
    levels, offsets = sched.levels, sched.offsets
    counts = np.diff(offsets)
    if not counts.all():
        raise ValidationError("schedule contains unshaped pulses; run shaping first")
    times, amps = sched.breakpoints.T
    # rows j and j + 1 make a segment when time moves forward between them inside one pulse
    opens = np.diff(times) > 0.0
    opens[offsets[1:-1] - 1] = False
    j = np.flatnonzero(opens)
    pulse = np.repeat(np.arange(len(counts)), counts)[j]
    if dipoles is None:
        d_k = sched.dipoles
    else:
        d_k = _by_transition(levels, lambda k: _dipole(dipoles, k), width=1)[:, 0]
    start = sched.start_times[pulse]
    base = amps[offsets[:-1]][pulse]
    return _Segments(
        start + times[j],
        start + times[j + 1],
        levels[pulse],
        d_k[pulse],
        sched.phases[pulse],
        amps[j] - base,
        amps[j + 1] - base,
    )


def _drive_energies(segs: _Segments, done: np.ndarray, times: np.ndarray, states) -> np.ndarray:
    """Tr[H(t) state] for the rotating-frame drive at each sample time.

    done[i] segments have finished by times[i]. At a boundary the earlier
    segment applies; outside every segment H is zero.
    """
    n = len(segs.k)
    if n == 0:
        return np.zeros(len(times))
    earlier = np.maximum(done - 1, 0)
    later = np.minimum(done, n - 1)
    at_end = (done > 0) & (segs.t_hi[earlier] == times)
    running = (done < n) & (segs.t_lo[later] <= times)
    seg = np.where(at_end, earlier, later)
    k = segs.k[seg]
    coupling = -segs.dipole[seg] * segs.amplitude(seg, times) * np.exp(1j * segs.phase[seg])
    energies = 2.0 * (coupling * states[np.arange(len(times)), k, k - 1]).real
    return np.where(at_end | running, energies, 0.0)


def simulate_schedule(
    sched: PulseSchedule,
    dipoles=None,
    target=None,
    rho0=None,
    steps_per_segment: int = STEPS_PER_SEGMENT,
    samples: int = TRAJECTORY_SAMPLES,
) -> PropagationResult:
    """Play a shaped schedule back end to end.

    Pulses play back to back in application order. Each envelope segment
    is one closed-form block rotation with area D * integral (a - baseline)
    dt over the segment, so the final unitary is exact up to roundoff and
    no refinement is done. D is the dipole recorded on each pulse; dipoles
    (a scalar, or a mapping keyed by the lower level k) overrides it. When
    a target is given the fidelity is computed after residual-phase
    accounting, comparing the propagated train against target @ R with R
    the residual diagonal.

    With rho0, the state and the drive energy Tr[H(t) rho(t)] are sampled
    at up to `samples` times picked from the grid that splits every segment
    into steps_per_segment equal steps. Setting that grid is all
    steps_per_segment does; it has no effect on accuracy. A segment still
    playing at a sample time contributes the closed-form area of its linear
    ramp up to that time. The states are views into one (samples, d, d)
    array. Playback holds three such stacks at once, so 3 * samples * d**2 *
    16 bytes are estimated before any is allocated, and an estimate past
    TRAJECTORY_BUDGET_BYTES raises NumericalError.
    """
    if (
        isinstance(steps_per_segment, bool)
        or not isinstance(steps_per_segment, numbers.Integral)
        or steps_per_segment < 1
    ):
        raise ValidationError(
            f"steps_per_segment must be an integer >= 1, got {steps_per_segment!r}"
        )
    d = sched.dimension
    if target is not None:
        target = as_square_matrix(target)
        if target.shape != (d, d):
            raise ValidationError(f"target has shape {target.shape}, the schedule acts on dimension {d}")
        try:
            validate_unitary(target)
        except ValidationError as exc:
            raise ValidationError(f"target: {exc}") from None
    segs = _segments(sched, dipoles)
    n_segs = len(segs.k)
    with np.errstate(over="ignore"):
        areas = segs.full_area()
    if not np.isfinite(areas).all():
        i = int(np.flatnonzero(~np.isfinite(areas))[0])
        raise NumericalError(
            f"the envelope segment from t = {segs.t_lo[i]} to {segs.t_hi[i]} on transition "
            f"({segs.k[i]}, {segs.k[i] + 1}) plays an area past the float range"
        )
    blocks = _blocks(areas, segs.phase)
    lows = (segs.k - 1).tolist()
    u = np.eye(d, dtype=complex)
    result = PropagationResult(final_unitary=u, times=np.array([0.0, sched.total_time]))
    done = 0

    if rho0 is not None:
        rho = validate_density_matrix(rho0)
        if rho.shape != (d, d):
            raise ValidationError(f"rho0 has shape {rho.shape}, the schedule acts on dimension {d}")
        knots = np.unique(np.append(0.0, segs.t_hi))
        if len(knots) < 2:
            knots = np.array([0.0, 1.0])
        # only the samples are computed: grid point i = q * s + j is linspace's j * ((b - a) / s) + a
        s = int(steps_per_segment)
        n_steps = s * (len(knots) - 1)
        if n_steps > 2**53:  # grid indices are exact in float64 up to here
            raise ValidationError(f"steps_per_segment {s} makes {n_steps} grid steps, over 2**53")
        q, j = np.divmod(_sample_picks(n_steps, samples), s)
        times = np.unique(j * np.append(np.diff(knots) / s, 0.0)[q] + knots[q])
        need = 3 * len(times) * d * d * np.dtype(complex).itemsize
        if need > TRAJECTORY_BUDGET_BYTES:
            raise NumericalError(
                f"the rho0 trajectory needs {need} bytes ({len(times)} samples at d = {d}), "
                f"over TRAJECTORY_BUDGET_BYTES = {TRAJECTORY_BUDGET_BYTES}"
            )
        # propagator at each sample time: finished segments now, the running one below
        stack = np.empty((len(times), d, d), dtype=complex)
        done_at = np.empty(len(times), dtype=int)
        t_hi = segs.t_hi.tolist()
        for i, t in enumerate(times.tolist()):
            while done < n_segs and t_hi[done] <= t:
                lo = lows[done]
                u[lo : lo + 2] = blocks[done] @ u[lo : lo + 2]
                done += 1
            stack[i] = u
            done_at[i] = done
        running = np.flatnonzero(done_at < n_segs)
        running = running[segs.t_lo[done_at[running]] < times[running]]
        seg = done_at[running]
        k = segs.k[seg]
        rows = np.stack([k - 1, k], axis=-1)
        sel = running[:, None]
        stack[sel, rows] = _blocks(segs.area(seg, times[running]), segs.phase[seg]) @ stack[sel, rows]
        # states U rho U^dag with at most three (samples, d, d) stacks alive
        left = stack @ rho
        np.conj(stack, out=stack)
        states = left @ stack.transpose(0, 2, 1)
        result.times = times
        result.state_trajectory = list(states)
        result.energy_trajectory = _drive_energies(segs, done_at, times, states)

    for i in range(done, n_segs):
        lo = lows[i]
        u[lo : lo + 2] = blocks[i] @ u[lo : lo + 2]

    if target is not None:
        reference = target @ sched.residual_matrix()
        result.fidelity_to_target = fidelity(reference, u)
    return result


def verify_passive(rho, h_free) -> tuple[bool, dict]:
    """Check that a state is passive for the given free Hamiltonian.

    Passive means the state commutes with h_free and its populations are
    nonincreasing along nondecreasing energy. Levels within
    DEGENERACY_ATOL of each other count as one block, inside which any
    population order is acceptable.

    Returns (is_passive, diagnostics); diagnostics reports the commutator
    norm and the first ordering violation, if any.
    """
    r = as_square_matrix(rho)
    spec = hermitian_eigendecomposition(h_free)
    h = as_square_matrix(h_free)
    comm = r @ h - h @ r
    comm_norm = float(np.abs(comm).max())

    pops = np.real(np.einsum("ij,jk,ki->i", spec.eigenvectors.conj().T, r, spec.eigenvectors))
    energies = spec.eigenvalues

    # group degenerate levels, then compare block extremes
    blocks = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > DEGENERACY_ATOL:
            blocks.append((start, i))
            start = i
    violation = None
    for (a0, a1), (b0, b1) in zip(blocks[:-1], blocks[1:]):
        lo_prev = float(pops[a0:a1].min())
        hi_next = float(pops[b0:b1].max())
        if hi_next > lo_prev + POPULATION_ATOL:
            violation = {
                "lower_block": (a0, a1 - 1),
                "upper_block": (b0, b1 - 1),
                "population_low_energy": lo_prev,
                "population_high_energy": hi_next,
            }
            break

    ok = comm_norm <= COMMUTATOR_ATOL and violation is None
    diagnostics = {
        "commutator_norm": comm_norm,
        "commutator_atol": COMMUTATOR_ATOL,
        "violation": violation,
        "populations": pops,
    }
    return ok, diagnostics
