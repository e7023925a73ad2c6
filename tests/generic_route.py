"""Generic reference routes that the library does not ship.

qbond plays a schedule back one closed-form rotation per envelope segment
(propagation.simulate_schedule). The oracle here integrates the same
rotating-frame Hamiltonian the generic way: evolve_unitary and
evolve_density multiply per-step exponentials exp(-i H(t_mid) dt), each
computed from the spectral decomposition of the Hermitian midpoint
generator, so every step is exactly unitary regardless of step size.
rwa_interaction and schedule_hamiltonian express a schedule as such
Hamiltonian callables; the tests validate the integrator itself against
scipy's expm.

amplitude_at, adjoint_pulse, triangle_duration and trapezoid_duration
restate, in their textbook form, what the library computes inline
(envelope interpolation, the inverse pulse, the closed-form durations).
"""

import math
from dataclasses import dataclass

import numpy as np

from qbond.errors import ValidationError
from qbond.operators import HERMITIAN_ATOL, as_square_matrix, validate_density_matrix
from qbond.propagation import (
    STEPS_PER_SEGMENT,
    TRAJECTORY_SAMPLES,
    PropagationResult,
    _sample_picks,
    fidelity,
)
from qbond.pulse_synthesis import PulseSchedule, TransitionPulse, _dipole, _wrap_angle


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points; steps run between neighbors."""

    times: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValidationError("a time grid needs at least two points")
        if not np.all(np.diff(t) > 0):
            raise ValidationError("time grid must be strictly increasing")
        object.__setattr__(self, "times", t)

    @classmethod
    def uniform(cls, t_start: float, t_end: float, steps: int) -> "TimeGrid":
        if steps < 1 or t_end <= t_start:
            raise ValidationError(f"bad uniform grid: [{t_start}, {t_end}] with {steps} steps")
        return cls(times=np.linspace(t_start, t_end, steps + 1))

    @classmethod
    def from_breakpoints(cls, knots, steps_per_segment: int = STEPS_PER_SEGMENT) -> "TimeGrid":
        """Subdivide each interval between consecutive knots, keeping the knots."""
        k = np.unique(np.asarray(knots, dtype=float))
        if len(k) < 2:
            raise ValidationError("need at least two distinct knots")
        pieces = [
            np.linspace(a, b, steps_per_segment + 1)[:-1] for a, b in zip(k[:-1], k[1:])
        ]
        return cls(times=np.append(np.concatenate(pieces), k[-1]))


def _step_unitaries(h_of_t, times: np.ndarray) -> np.ndarray:
    """Spectral exponentials exp(-i H(t_mid) dt) for every step of a time grid."""
    h_stack = np.array([as_square_matrix(h_of_t(t)) for t in 0.5 * (times[:-1] + times[1:])])
    drift = float(np.abs(h_stack - np.conj(np.swapaxes(h_stack, -1, -2))).max())
    if drift > HERMITIAN_ATOL:
        raise ValidationError(f"step generator departs from Hermitian by {drift:.3e}")
    w, v = np.linalg.eigh(h_stack)
    phases = np.exp(-1j * w * np.diff(times)[:, None])
    return np.einsum("nij,nj,nkj->nik", v, phases, v.conj())


def evolve_unitary(h_of_t, grid: TimeGrid) -> np.ndarray:
    """Time-ordered propagator over the grid for a Hamiltonian callable h_of_t."""
    steps = _step_unitaries(h_of_t, grid.times)
    u = np.eye(steps.shape[1], dtype=complex)
    for s in steps:
        u = s @ u
    return u


def evolve_density(
    rho0,
    h_of_t,
    grid: TimeGrid,
    samples: int = TRAJECTORY_SAMPLES,
    target=None,
    h_measure=None,
) -> PropagationResult:
    """Propagate a density matrix, sampling the trajectory.

    The state advances unitarily (rho(t) = U rho0 U^dag with U the
    accumulated propagator), so purity and spectrum are preserved by
    construction. energy_trajectory[i] is Tr[H(t_i) rho(t_i)] at the
    sampled times. h_measure, when given, replaces h_of_t in that trace
    only: dynamics in one frame, accounting in another (a rotating-frame
    drive measured against the lab Hamiltonian is the typical pairing;
    populations in the free eigenbasis agree between the frames).
    """
    rho = validate_density_matrix(rho0)
    meter = h_of_t if h_measure is None else h_measure
    times = grid.times
    steps = _step_unitaries(h_of_t, times)
    n_steps = len(steps)
    picks = _sample_picks(n_steps, samples)
    sample_times = times[picks]

    states = []
    energies = []
    u = np.eye(rho.shape[0], dtype=complex)
    cursor = 0
    for idx in range(n_steps + 1):
        if cursor < len(picks) and idx == picks[cursor]:
            state = u @ rho @ u.conj().T
            states.append(state)
            energies.append(float(np.trace(meter(times[idx]) @ state).real))
            cursor += 1
        if idx < n_steps:
            u = steps[idx] @ u

    fid = fidelity(target, u) if target is not None else None
    return PropagationResult(
        final_unitary=u,
        times=sample_times,
        state_trajectory=states,
        energy_trajectory=np.array(energies),
        fidelity_to_target=fid,
    )


def amplitude_at(shape, t: float) -> float:
    """Envelope value by linear interpolation; baseline outside the support."""
    if not shape.breakpoints:
        return 0.0
    times = [b[0] for b in shape.breakpoints]
    values = [b[1] for b in shape.breakpoints]
    return float(np.interp(t, times, values))


def rwa_interaction(pulse, shape, dipole: float, dimension: int):
    """Rotating-frame generator of a shaped pulse as a Hamiltonian callable.

    H(t) = -D a(t) (exp(i phi) |k><k+1| + exp(-i phi) |k+1><k|), with a(t)
    the envelope measured above its baseline. Propagating this for the
    full shape reproduces the closed-form pulse block with
    C = D * realized_area; the baseline contribution is reported by the
    shape, not folded into the rotation.
    """
    if not shape.breakpoints:
        raise ValidationError("pulse has no breakpoints; synthesize envelopes before propagation")
    k = pulse.transition[0]
    if pulse.transition[1] > dimension:
        raise ValidationError(f"transition {pulse.transition} exceeds dimension {dimension}")
    base = shape.baseline

    def h_of_t(t: float) -> np.ndarray:
        h = np.zeros((dimension, dimension), dtype=complex)
        amp = amplitude_at(shape, t) - base
        # the minus sign pairs with the +i e^{i phi} sin C block entry
        h[k - 1, k] = -dipole * amp * np.exp(1j * pulse.phase)
        h[k, k - 1] = np.conj(h[k - 1, k])
        return h

    return h_of_t


def schedule_hamiltonian(sched: PulseSchedule, dipoles=None):
    """Whole-schedule Hamiltonian callable, each pulse from its start_times entry.

    Evaluating between pulses (or outside the schedule) returns the zero
    generator; inside a pulse the rotating-frame generator of that pulse
    applies with its local clock. Dipoles are as in simulate_schedule.
    """
    d = sched.dimension
    spans = []
    for sp, t0 in zip(sched.pulses, sched.start_times.tolist()):
        dur = sp.shape.duration
        d_k = _dipole(dipoles, sp.pulse.transition[0], sp.dipole)
        gen = rwa_interaction(sp.pulse, sp.shape, d_k, d)
        spans.append((t0, t0 + dur, gen))

    def h_of_t(t: float) -> np.ndarray:
        for lo, hi, gen in spans:
            if lo <= t <= hi and hi > lo:
                return gen(t - lo)
        return np.zeros((d, d), dtype=complex)

    return h_of_t


def adjoint_pulse(pulse: TransitionPulse) -> TransitionPulse:
    """Inverse rotation as another pulse: same area, carrier phase shifted by pi."""
    return TransitionPulse(
        transition=pulse.transition, area=pulse.area, phase=float(_wrap_angle(pulse.phase + math.pi))
    )


def triangle_duration(area: float, slew: float) -> float:
    """Closed-form minimal duration below the cap, symmetric slews."""
    return 2.0 * math.sqrt(area / slew)


def trapezoid_duration(area: float, cap: float, slew: float) -> float:
    """Closed-form minimal duration at the cap, symmetric slews."""
    return cap / slew + area / cap
