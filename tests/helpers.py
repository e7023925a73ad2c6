"""Shared random-object generators for the test suite."""

import dataclasses

import numpy as np

from qbond.pulse_synthesis import PulseConstraints, PulseSchedule, schedule


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2.0


def random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    # fix the QR phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d, rank=None):
    k = d if rank is None else rank
    m = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_probabilities(rng, d):
    p = rng.uniform(0.05, 1.0, size=d)
    return p / p.sum()


def early_pulse_schedule(shift=-1.0):
    """(schedule, target) for a seeded d = 3 target, with every breakpoint of pulse 1 (2-3) moved by shift.

    Its duration moves with the last breakpoint, so durations and total_time
    stay consistent; a negative shift starts the envelope inside pulse 0, and
    building the schedule refuses it.
    """
    target = random_unitary(np.random.default_rng(3), 3)
    sched = schedule(target, PulseConstraints(amplitude_max=1.0))
    sp = sched.pulses[1]
    points = tuple((t + shift, a) for t, a in sp.shape.breakpoints)
    shape = dataclasses.replace(sp.shape, breakpoints=points)
    pulses = [sched.pulses[0], dataclasses.replace(sp, shape=shape), *sched.pulses[2:]]
    return PulseSchedule(pulses=pulses, residual_phases=sched.residual_phases), target
