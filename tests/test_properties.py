"""Property tests: the schedule document round trip, the shaped envelope's bounds, reconstruct,
the schedule check on synthesized schedules, and the passive energy.

Examples are derandomized, so every run of the suite draws the same ones.
"""

import itertools
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from qbond.binding import binding_energy
from qbond.pulse_synthesis import PulseConstraints, schedule, shape_pulse
from qbond.serialization import schedule_from_json, schedule_to_json

from helpers import random_density, random_hermitian, random_unitary

FIXED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def constraints(draw):
    amplitude_max = draw(st.floats(0.01, 100.0))
    floor = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    return PulseConstraints(
        amplitude_max=amplitude_max,
        amplitude_min=floor * amplitude_max,
        slew_max=draw(st.floats(0.01, 100.0)),
        slew_min=-draw(st.floats(0.01, 100.0)),
    )


@st.composite
def dipoles(draw, d):
    weight = st.floats(0.1, 10.0)
    return draw(
        st.one_of(st.none(), weight, st.lists(weight, min_size=d - 1, max_size=d - 1).map(
            lambda ws: {k + 1: w for k, w in enumerate(ws)}
        ))
    )


@st.composite
def schedule_docs(draw):
    d = draw(st.integers(2, 12))
    target = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d)
    sched = schedule(target, draw(constraints()), dipoles=draw(dipoles(d)))
    # through JSON text, as schedule.json travels
    return json.loads(json.dumps(schedule_to_json(sched)))


@FIXED
@given(schedule_docs())
def test_schedule_document_round_trip_is_exact(doc):
    assert schedule_to_json(schedule_from_json(doc)) == doc


@FIXED
@given(st.floats(1e-4, 1e4), constraints())
def test_shape_pulse_realizes_its_area_within_the_bounds(area, limits):
    shape = shape_pulse(area, limits)
    assert abs(shape.realized_area - area) <= 1e-9 * area
    times = np.array([t for t, _ in shape.breakpoints])
    amps = np.array([a for _, a in shape.breakpoints])
    assert times[0] == 0.0 and shape.duration == times[-1] > 0.0
    assert amps[0] == amps[-1] == limits.amplitude_min == shape.baseline
    tol = 1e-12 * limits.amplitude_max
    assert amps.min() >= limits.amplitude_min - tol
    assert amps.max() <= limits.amplitude_max + tol
    widths = np.diff(times)
    assert widths.min() >= 0.0
    # times are absolute, so a segment's width is known to the rounding of its end time
    reach = (widths + 2.0 * np.spacing(times[1:])) * (1.0 + 1e-12)
    steps = np.diff(amps)
    assert np.all(steps <= limits.slew_max * reach + tol)
    assert np.all(steps >= limits.slew_min * reach - tol)


@FIXED
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), constraints(), st.data())
def test_reconstruct_gives_back_the_target(d, seed, limits, data):
    target = random_unitary(np.random.default_rng(seed), d)
    sched = schedule(target, limits, dipoles=data.draw(dipoles(d)))
    assert np.abs(sched.reconstruct() - target).max() <= 1e-10


@FIXED
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), constraints(), st.data())
def test_synthesized_schedules_pass_the_schedule_check(d, seed, limits, data):
    # schedule() builds its columns unchecked, since they are valid by construction
    target = random_unitary(np.random.default_rng(seed), d)
    schedule(target, limits, dipoles=data.draw(dipoles(d)))._check()


@FIXED
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
def test_passive_energy_is_at_most_every_permutation_energy(d, seed, data):
    rng = np.random.default_rng(seed)
    rho0 = random_density(rng, d, rank=data.draw(st.integers(1, d)))
    h_free = random_hermitian(rng, d)
    report = binding_energy(rho0, h_free, random_hermitian(rng, d))
    populations = np.clip(np.linalg.eigvalsh(rho0), 0.0, None)
    levels = np.linalg.eigvalsh(h_free)
    # every assignment of the populations to the free levels
    energies = populations[list(itertools.permutations(range(d)))] @ levels
    tol = 1e-12 * (1.0 + np.abs(levels).max())
    assert report.final_energy <= energies.min() + tol
    assert report.final_energy >= energies.min() - tol
