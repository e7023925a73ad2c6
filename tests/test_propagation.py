import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qbond.binding import binding_energy, passive_state, thermal_state
from qbond.errors import NumericalError, ValidationError
from qbond.operators import hermitian_eigendecomposition
from qbond.propagation import (
    TRAJECTORY_BUDGET_BYTES,
    TRAJECTORY_SAMPLES,
    fidelity,
    simulate_schedule,
    verify_passive,
)
from qbond.pulse_synthesis import (
    PulseConstraints,
    PulseShape,
    TransitionPulse,
    schedule,
)
from qbond.serialization import schedule_from_json, schedule_to_json

from generic_route import (
    TimeGrid,
    evolve_density,
    evolve_unitary,
    rwa_interaction,
    schedule_hamiltonian,
)
from helpers import (
    early_pulse_schedule,
    random_density,
    random_hermitian,
    random_probabilities,
    random_unitary,
)
from serial_oracles import from_records, pulse_unitary, serial_trajectory, shape_pulse

SYM = PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0)


def test_time_grid_validation():
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.0]))
    with pytest.raises(ValidationError):
        TimeGrid(times=np.array([0.0, 0.0, 1.0]))
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    assert len(grid.times) == 11
    grid = TimeGrid.from_breakpoints([0.0, 0.5, 1.0], steps_per_segment=4)
    assert 0.5 in grid.times
    assert len(grid.times) == 9


def test_evolve_unitary_constant_hamiltonian():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 3)
    grid = TimeGrid.uniform(0.0, 2.0, 400)
    got = evolve_unitary(lambda t: h, grid)
    want = expm(-2.0j * h)
    assert np.abs(got - want).max() < 1e-9


def test_evolve_unitary_zero_hamiltonian():
    got = evolve_unitary(lambda t: np.zeros((3, 3)), TimeGrid.uniform(0.0, 1.0, 50))
    assert np.abs(got - np.eye(3)).max() < 1e-12


def test_evolve_unitary_rabi_half_transfer():
    # resonant drive with total area pi/4 in the rotation angle puts half
    # the population in the excited state: |<e|U|g>|^2 = sin^2(pi/4) = 0.5
    omega = 0.8

    def h(t):
        return -omega * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    t_final = (math.pi / 4.0) / omega
    u = evolve_unitary(h, TimeGrid.uniform(0.0, t_final, 2000))
    transfer = abs(u[1, 0]) ** 2
    assert abs(transfer - 0.5) < 1e-6


def test_unitarity_drift_stays_small_over_many_steps():
    rng = np.random.default_rng(5)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    u = evolve_unitary(
        lambda t: h0 + math.sin(t) * h1, TimeGrid.uniform(0.0, 10.0, 10_000)
    )
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-9


def test_midpoint_rule_convergence_order():
    # non-commuting H(t); halving the step should cut the error by ~4
    rng = np.random.default_rng(7)
    h0, h1 = random_hermitian(rng, 3), random_hermitian(rng, 3)

    def h(t):
        return math.cos(t) * h0 + math.sin(2.0 * t) * h1

    reference = evolve_unitary(h, TimeGrid.uniform(0.0, 3.0, 40_000))
    err_coarse = np.abs(evolve_unitary(h, TimeGrid.uniform(0.0, 3.0, 250)) - reference).max()
    err_fine = np.abs(evolve_unitary(h, TimeGrid.uniform(0.0, 3.0, 500)) - reference).max()
    assert err_coarse / err_fine >= 3.5


def test_fidelity_endpoints():
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 4)
    assert abs(fidelity(u, u) - 1.0) < 1e-12
    assert abs(fidelity(u, np.exp(0.7j) * u) - 1.0) < 1e-12
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert fidelity(np.eye(2), swap) < 1e-12


def test_evolve_density_stationary_state():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 3)
    spec = hermitian_eigendecomposition(h)
    rho0 = passive_state(random_probabilities(rng, 3), spec)
    result = evolve_density(rho0, lambda t: h, TimeGrid.uniform(0.0, 4.0, 800), samples=9)
    for state in result.state_trajectory:
        assert np.abs(state - rho0).max() < 1e-9


def test_evolve_density_maximally_mixed_is_invariant():
    rng = np.random.default_rng(13)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    result = evolve_density(
        np.eye(4) / 4.0,
        lambda t: h0 + math.cos(3.0 * t) * h1,
        TimeGrid.uniform(0.0, 2.0, 500),
        samples=11,
    )
    for state in result.state_trajectory:
        assert np.abs(state - np.eye(4) / 4.0).max() < 1e-10


def test_evolve_density_preserves_spectrum():
    rng = np.random.default_rng(17)
    rho0 = random_density(rng, 4)
    h0, h1 = random_hermitian(rng, 4), random_hermitian(rng, 4)
    result = evolve_density(
        rho0, lambda t: h0 + t * h1, TimeGrid.uniform(0.0, 1.5, 400), samples=7
    )
    base = np.linalg.eigvalsh(rho0)
    for state in result.state_trajectory:
        assert np.abs(np.linalg.eigvalsh(state) - base).max() < 1e-8


def test_two_pair_swap_schedule_moves_populations():
    # alpha_1 = 0.7, alpha_2 = 0.3 on levels 1, 2 must land on levels 3, 4
    target = np.zeros((4, 4))
    target[2, 0] = target[0, 2] = 1.0
    target[3, 1] = target[1, 3] = 1.0
    sched = schedule(target, SYM)
    rho0 = np.diag([0.7, 0.3, 0.0, 0.0])
    result = simulate_schedule(sched, target=target, rho0=rho0, steps_per_segment=64)
    final = result.state_trajectory[-1]
    assert np.abs(np.diag(final).real - [0.0, 0.0, 0.7, 0.3]).max() < 1e-6
    assert result.fidelity_to_target >= 1.0 - 1e-9
    # oracle: applying the target unitary directly
    oracle = target @ rho0 @ target.T
    assert np.abs(np.diag(final).real - np.diag(oracle).real).max() < 1e-6


def test_rwa_interaction_zero_envelope():
    shape = PulseShape(breakpoints=((0.0, 0.0), (1.0, 0.0)))
    h = rwa_interaction(TransitionPulse(transition=(1, 2), area=0.0, phase=0.0), shape, 1.0, 2)
    assert np.abs(h(0.5)).max() == 0.0


def test_rwa_area_theorem_triangle():
    # propagating the shaped envelope reproduces the closed-form block
    # with C = dipole * realized_area
    for phase in (0.0, 0.9, -2.0):
        for dipole, area_env in ((1.0, math.pi / 3.0), (2.5, 0.4)):
            shape = shape_pulse(area_env, SYM)
            c = dipole * shape.realized_area
            pulse = TransitionPulse(transition=(1, 2), area=c % math.pi, phase=phase)
            gen = rwa_interaction(pulse, shape, dipole, 2)
            knots = [t for t, _ in shape.breakpoints]
            u = evolve_unitary(gen, TimeGrid.from_breakpoints(knots, 300))
            want = pulse_unitary(TransitionPulse(transition=(1, 2), area=c, phase=phase), 2)
            assert np.abs(u - want).max() < 1e-8
            # a grid ignoring the apex still converges, one order looser
            u_blind = evolve_unitary(gen, TimeGrid.uniform(0.0, shape.duration, 600))
            assert np.abs(u_blind - want).max() < 1e-6


def test_rwa_area_theorem_trapezoid():
    shape = shape_pulse(10.0, SYM)
    assert len(shape.breakpoints) == 4  # rise, plateau, fall
    pulse = TransitionPulse(transition=(2, 3), area=(10.0 % math.pi), phase=1.3)
    gen = rwa_interaction(pulse, shape, 1.0, 3)
    u = evolve_unitary(gen, TimeGrid.from_breakpoints([t for t, _ in shape.breakpoints], 200))
    # 10.0 rotates by 10 radians; compare against the full-angle block
    full = np.eye(3, dtype=complex)
    c, s = math.cos(10.0), math.sin(10.0)
    full[1, 1] = full[2, 2] = c
    full[1, 2] = 1j * np.exp(1.3j) * s
    full[2, 1] = 1j * np.exp(-1.3j) * s
    assert np.abs(u - full).max() < 1e-7


def test_simulate_schedule_end_to_end_fidelity():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        u_target = random_unitary(rng, d)
        sched = schedule(u_target, SYM)
        result = simulate_schedule(sched, target=u_target, steps_per_segment=32)
        assert result.fidelity_to_target >= 1.0 - 1e-6


def test_simulate_schedule_plays_the_recorded_dipole():
    rng = np.random.default_rng(23)
    u_target = random_unitary(rng, 3)
    sched = schedule(u_target, SYM, dipoles=3.7)
    # no dipole passed to simulate: each pulse plays the dipole recorded on it
    result = simulate_schedule(sched, target=u_target, steps_per_segment=32)
    assert result.fidelity_to_target >= 1.0 - 1e-6


def test_simulate_schedule_refuses_an_envelope_that_starts_before_its_pulse():
    sched, target = early_pulse_schedule(0.0)
    assert simulate_schedule(sched, target=target).fidelity_to_target >= 1.0 - 1e-9
    with pytest.raises(ValidationError, match="pulse 1: breakpoint times must start at 0"):
        sched, target = early_pulse_schedule(-1.0)
        simulate_schedule(sched, target=target)


def test_simulate_schedule_refuses_a_target_of_another_dimension():
    sched, _ = early_pulse_schedule(0.0)
    with pytest.raises(ValidationError, match=r"target has shape \(2, 2\), .* dimension 3"):
        simulate_schedule(sched, target=np.eye(2))


def test_simulate_schedule_rejects_bad_step_count():
    rng = np.random.default_rng(47)
    u_target = random_unitary(rng, 3)
    sched = schedule(u_target, SYM)
    for steps in (0, -3, 2.5, "4", True, None):
        with pytest.raises(ValidationError, match="steps_per_segment"):
            simulate_schedule(sched, target=u_target, steps_per_segment=steps)
    rho0 = random_density(rng, 3)
    for samples in (-1, 2.5, 0, True):
        with pytest.raises(ValidationError, match=r"samples must be an integer >= 1"):
            simulate_schedule(sched, rho0=rho0, samples=samples)


def test_simulate_schedule_rejects_malformed_input():
    rng = np.random.default_rng(53)
    u_target = random_unitary(rng, 3)
    sched = schedule(u_target, SYM)
    with pytest.raises(ValidationError, match="rho0"):
        simulate_schedule(sched, rho0=np.eye(2) / 2.0)
    first = sched.pulses[0]
    outside = dataclasses.replace(first, transition=(3, 4), phase=0.0)
    with pytest.raises(ValidationError, match="exceeds dimension"):
        simulate_schedule(from_records([outside], sched.residual_phases))
    backwards = PulseShape(breakpoints=((0.0, 0.0), (2.0, 1.0), (1.0, 0.0)))
    reversed_pulse = dataclasses.replace(first, shape=backwards)
    with pytest.raises(ValidationError, match="breakpoint times"):
        simulate_schedule(from_records([reversed_pulse], sched.residual_phases))


def _schedule_knots(sched):
    """Every breakpoint on the schedule clock, pulses back to back from 0."""
    knots, offset = [0.0], 0.0
    for sp in sched.pulses:
        knots.extend(offset + t for t, _ in sp.shape.breakpoints)
        offset += sp.shape.duration
    return knots


def test_simulate_schedule_matches_generic_density_route():
    # closed-form segment rotations against the midpoint spectral route on
    # the same grid: Haar targets, per-transition dipoles, thermal rho0
    rng = np.random.default_rng(37)
    for d in range(4, 9):
        u_target = random_unitary(rng, d)
        dipoles = {k: float(rng.uniform(0.5, 2.0)) for k in range(1, d)}
        sched = schedule(u_target, SYM, dipoles=dipoles)
        rho0 = thermal_state(random_hermitian(rng, d), 1.0)
        grid = TimeGrid.from_breakpoints(_schedule_knots(sched), 8)
        oracle = evolve_density(rho0, schedule_hamiltonian(sched, dipoles), grid, samples=41)
        got = simulate_schedule(
            sched, dipoles=dipoles, target=u_target, rho0=rho0, steps_per_segment=8, samples=41
        )
        assert np.abs(got.final_unitary - oracle.final_unitary).max() < 1e-9
        assert got.times.shape == oracle.times.shape
        assert np.abs(got.times - oracle.times).max() < 1e-9
        assert len(got.state_trajectory) == len(oracle.state_trajectory)
        for mine, theirs in zip(got.state_trajectory, oracle.state_trajectory):
            assert np.abs(mine - theirs).max() < 1e-9
        assert np.abs(oracle.energy_trajectory).max() > 1e-3
        assert np.abs(got.energy_trajectory - oracle.energy_trajectory).max() < 1e-9
        assert got.fidelity_to_target >= 1.0 - 1e-9


def test_batched_trajectory_matches_serial_samples():
    # one sample at a time with scalar rotations against the batched pass;
    # steps_per_segment = 1 samples every knot, so every segment end is hit
    rng = np.random.default_rng(83)
    for d in (2, 3, 5, 8):
        u_target = random_unitary(rng, d)
        dipoles = {k: float(rng.uniform(0.5, 2.0)) for k in range(1, d)}
        sched = schedule(u_target, SYM, dipoles=dipoles)
        rho0 = random_density(rng, d)
        knots = np.unique(_schedule_knots(sched))
        for steps, samples in ((1, 10**6), (3, 10**6), (7, 57)):
            got = simulate_schedule(sched, rho0=rho0, steps_per_segment=steps, samples=samples)
            if steps == 1:
                assert np.array_equal(got.times, knots)
            u, states, energies = serial_trajectory(sched, rho0, got.times)
            assert np.abs(got.final_unitary - u).max() <= 1e-12
            assert len(got.state_trajectory) == len(states)
            assert max(np.abs(a - b).max() for a, b in zip(got.state_trajectory, states)) <= 1e-12
            assert np.abs(energies).max() > 1e-3
            assert np.abs(got.energy_trajectory - energies).max() <= 1e-12


def test_batched_trajectory_takes_the_earlier_segment_at_a_jump():
    # envelopes that jump at a breakpoint and at the end of each pulse: at
    # those sample times the earlier segment sets the drive energy
    rng = np.random.default_rng(89)
    sched = schedule(random_unitary(rng, 3), SYM, dipoles=1.2)
    stepped = PulseShape(
        breakpoints=((0.0, 0.0), (0.5, 0.8), (0.5, 0.3), (1.0, 0.6), (1.5, 0.4), (1.5, 0.0)),
    )
    jumpy = from_records([dataclasses.replace(sp, shape=stepped) for sp in sched.pulses], sched.residual_phases)
    rho0 = random_density(rng, 3)
    got = simulate_schedule(jumpy, rho0=rho0, steps_per_segment=1, samples=10**6)
    u, states, energies = serial_trajectory(jumpy, rho0, got.times)
    assert np.abs(got.final_unitary - u).max() <= 1e-12
    assert max(np.abs(a - b).max() for a, b in zip(got.state_trajectory, states)) <= 1e-12
    assert np.abs(got.energy_trajectory - energies).max() <= 1e-12


def test_simulate_schedule_plays_the_envelope_not_the_stored_area():
    rng = np.random.default_rng(41)
    u_target = random_unitary(rng, 4)
    sched = schedule(u_target, SYM, dipoles=1.7)
    honest = simulate_schedule(sched, dipoles=1.7, target=u_target).fidelity_to_target
    assert honest >= 1.0 - 1e-9

    def tampered(edit):
        pulses = [dataclasses.replace(sp, shape=edit(sp.shape)) for sp in sched.pulses]
        return from_records(pulses, sched.residual_phases)

    def halve(sh):
        points = tuple((t, sh.baseline + 0.5 * (a - sh.baseline)) for t, a in sh.breakpoints)
        return dataclasses.replace(sh, breakpoints=points)

    halved = tampered(halve)
    assert simulate_schedule(halved, dipoles=1.7, target=u_target).fidelity_to_target < 0.99


def test_simulate_plays_recorded_dipoles_not_inferred_ones():
    # halving every breakpoint of a schedule.json must show up as a lost
    # fidelity when simulate gets no dipoles: the recorded D_k apply, none
    # is inferred from the envelope under test
    rng = np.random.default_rng(59)
    u_target = random_unitary(rng, 4)
    sched = schedule(u_target, SYM, dipoles={1: 0.7, 2: 1.9, 3: 1.3})
    doc = json.loads(json.dumps(schedule_to_json(sched)))
    honest = simulate_schedule(schedule_from_json(doc), target=u_target).fidelity_to_target
    assert honest >= 1.0 - 1e-9
    doc["breakpoints"][1::2] = [0.5 * a for a in doc["breakpoints"][1::2]]
    halved = schedule_from_json(json.loads(json.dumps(doc)))
    assert simulate_schedule(halved, target=u_target).fidelity_to_target < 0.99


def test_a_segment_too_narrow_for_its_slope_plays_a_finite_trajectory():
    # the rise to the peak takes 1e-320: its slope overflows, the area it plays does not
    path = os.path.join(os.path.dirname(__file__), "..", "problems", "simulate_half_swap.json")
    with open(path) as fh:
        doc = json.load(fh)["payload"]["schedule"]
    doc["breakpoints"][2] = 1e-320
    sched = schedule_from_json(doc)
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # underflow is expected at 1e-320
        result = simulate_schedule(sched, rho0=np.diag([1.0, 0.0]), samples=201)
    states = np.array(result.state_trajectory)
    assert np.isfinite(states).all() and np.isfinite(result.energy_trajectory).all()
    assert np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() < 1e-12


def test_schedule_file_without_dipoles_plays_at_one():
    path = os.path.join(os.path.dirname(__file__), "..", "problems", "simulate_half_swap.json")
    with open(path) as fh:
        payload = json.load(fh)["payload"]
    assert "dipoles" not in payload["schedule"]
    sched = schedule_from_json(payload["schedule"])
    assert [sp.dipole for sp in sched.pulses] == [1.0] * len(sched.pulses)
    implicit = simulate_schedule(sched).final_unitary
    explicit = simulate_schedule(sched, dipoles=1.0).final_unitary
    assert np.array_equal(implicit, explicit)
    doubled = simulate_schedule(sched, dipoles=2.0).final_unitary
    assert np.abs(doubled - implicit).max() > 0.5


def test_simulate_schedule_d32_in_bounded_memory():
    # playback holds one propagator plus the sampled trajectory, never a
    # per-step stack of dense generators
    rng = np.random.default_rng(43)
    u_target = random_unitary(rng, 32)
    sched = schedule(u_target, SYM, dipoles=1.5)
    rho0 = thermal_state(random_hermitian(rng, 32), 1.0)
    tracemalloc.start()
    try:
        result = simulate_schedule(sched, dipoles=1.5, target=u_target, rho0=rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 - result.fidelity_to_target <= 1e-9
    assert peak < 20e6


def test_trajectory_past_memory_budget_raises_before_allocating():
    # the smallest d whose three (201, d, d) complex stacks exceed the budget
    d = math.isqrt(TRAJECTORY_BUDGET_BYTES // (3 * TRAJECTORY_SAMPLES * 16)) + 1
    swap = schedule(np.array([[0.0, 1.0], [1.0, 0.0]]), SYM)
    one_pulse = from_records(swap.pulses[:1], np.zeros(d))
    rho0 = np.zeros((d, d))
    rho0[0, 0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(NumericalError, match="TRAJECTORY_BUDGET_BYTES"):
            simulate_schedule(one_pulse, rho0=rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one stack alone would be 201 * d**2 * 16 bytes, about 360 MB
    assert peak < 50e6


def test_energy_bookkeeping_full_run():
    # breaking the bond: drive the optimal unitary, measure with the full
    # Hamiltonian at the start (interaction on) and the free one at the
    # end; the energy difference must be the reported binding energy
    rng = np.random.default_rng(29)
    h_free = np.diag(np.sort(rng.uniform(0.0, 2.0, size=3)))
    h_int = 0.4 * random_hermitian(rng, 3)
    # diagonal initial state: the schedule's residual phases (diagonal in
    # the free basis, realized by free evolution before the train) then
    # commute with rho0 and the pulse train alone lands on the passive state
    rho0 = np.diag(random_probabilities(rng, 3))
    report = binding_energy(rho0, h_free, h_int)

    sched = schedule(report.optimal_unitary, SYM)
    drive = schedule_hamiltonian(sched)

    def h_lab(t):
        # interaction on at the start, gone once driving begins
        return h_free + h_int if t <= 0.0 else h_free

    grid = TimeGrid.from_breakpoints(
        np.concatenate([[0.0], np.cumsum([sp.shape.duration for sp in sched.pulses])]), 400
    )
    result = evolve_density(rho0, drive, grid, samples=5, h_measure=h_lab)
    delta = result.energy_trajectory[-1] - result.energy_trajectory[0]
    assert abs(delta - report.delta_u_be) < 1e-6


def test_verify_passive_accepts_and_rejects():
    h = np.diag([0.0, 1.0])
    ground = np.diag([1.0, 0.0])
    ok, info = verify_passive(ground, h)
    assert ok

    inverted = np.diag([0.2, 0.8])
    ok, info = verify_passive(inverted, h)
    assert not ok
    assert info["violation"] is not None

    # coherences in the free basis break the commutation requirement
    coherent = np.array([[0.5, 0.4], [0.4, 0.5]])
    ok, info = verify_passive(coherent, h)
    assert not ok
    assert info["commutator_norm"] > info["commutator_atol"]


def test_verify_passive_cross_module():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h = random_hermitian(rng, 5)
        spec = hermitian_eigendecomposition(h)
        rho = passive_state(random_probabilities(rng, 5), spec)
        ok, _ = verify_passive(rho, h)
        assert ok


def test_verify_passive_degenerate_block_any_order():
    h = np.diag([0.0, 1.0, 1.0, 2.0])
    # 0.2 before 0.3 inside the degenerate block is not an inversion
    ok, _ = verify_passive(np.diag([0.4, 0.2, 0.3, 0.1]), h)
    assert ok
    # but a block member below a higher-energy population is one
    ok, _ = verify_passive(np.diag([0.4, 0.1, 0.3, 0.2]), h)
    assert not ok


def test_trajectory_samples_without_building_the_step_grid():
    # 10**15 steps per segment: the grid alone would not fit in a 47-bit
    # address space, but only the sampled points are ever computed
    path = os.path.join(os.path.dirname(__file__), "..", "problems", "simulate_half_swap.json")
    with open(path) as fh:
        sched = schedule_from_json(json.load(fh)["payload"]["schedule"])
    rho0 = np.diag([1.0, 0.0])
    result = simulate_schedule(sched, rho0=rho0, steps_per_segment=10**15)
    assert 2 <= len(result.times) <= 201
    assert np.all(np.diff(result.times) > 0)
    assert result.times[0] == 0.0 and result.times[-1] == sched.total_time
    assert len(result.state_trajectory) == len(result.times)
    with pytest.raises(ValidationError, match="steps_per_segment"):
        simulate_schedule(sched, rho0=rho0, steps_per_segment=2**60)
