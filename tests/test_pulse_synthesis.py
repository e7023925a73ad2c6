import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from qbond.errors import ValidationError
from qbond.pulse_synthesis import (
    REALIZED_AREA_RTOL,
    PulseConstraints,
    PulseSchedule,
    PulseShape,
    TransitionPulse,
    area_phase_from_column,
    givens_decompose,
    schedule,
)
from qbond.serialization import schedule_from_json, schedule_to_json

from generic_route import adjoint_pulse, trapezoid_duration, triangle_duration
from helpers import random_unitary
from serial_oracles import from_records, pulse_unitary, reck_decompose, shape_pulse, shape_pulse_serial

SYM = PulseConstraints(amplitude_max=2.0, amplitude_min=0.0, slew_max=4.0, slew_min=-4.0)


def _pulse(k, area, phase):
    return TransitionPulse(transition=(k, k + 1), area=area, phase=phase)


def test_pulse_unitary_identity_at_zero_area():
    assert np.array_equal(pulse_unitary(_pulse(1, 0.0, 0.3), 3), np.eye(3))


def test_pulse_unitary_quarter_block():
    u = pulse_unitary(_pulse(1, math.pi / 2.0, math.pi / 2.0), 2)
    assert np.abs(u - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-14


def test_pulse_unitary_matches_exponential_oracle():
    # scipy expm of the su(2) generator is the independent route; with
    # X = i sigma_x and Y = i sigma_y the closed-form block appears at
    # carrier phase pi/2 - phi
    rng = np.random.default_rng(3)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    for _ in range(25):
        c = rng.uniform(0.0, math.pi)
        phi = rng.uniform(-math.pi, math.pi)
        u_exp = expm(c * (1j * sx * math.sin(phi) - 1j * sy * math.cos(phi)))
        shifted = float((math.pi / 2.0 - phi + math.pi) % (2.0 * math.pi) - math.pi)
        u_blk = pulse_unitary(_pulse(1, c, shifted), 2)
        assert np.abs(u_exp - u_blk).max() < 1e-10


def test_pulse_unitary_is_unitary_and_nearest_neighbor():
    rng = np.random.default_rng(5)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        u = pulse_unitary(_pulse(k, rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi)), 4)
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
        mask = np.ones((4, 4), dtype=bool)
        mask[k - 1 : k + 1, k - 1 : k + 1] = False
        assert np.abs((u - np.eye(4))[mask]).max() == 0.0


def test_adjoint_pulse_inverts():
    p = _pulse(2, 0.7, 1.1)
    u = pulse_unitary(p, 4) @ pulse_unitary(adjoint_pulse(p), 4)
    assert np.abs(u - np.eye(4)).max() < 1e-14


def test_transition_pulse_validation():
    # a record is a read-out view and checks nothing; the schedule built from its columns does
    with pytest.raises(ValidationError):
        from_records([TransitionPulse(transition=(1, 2), area=-0.1, phase=0.0)], np.zeros(2))
    with pytest.raises(ValidationError, match=r"pulse 0: transition must be \(k, k\+1\) with k >= 1, got \(0, 1\)"):
        from_records([TransitionPulse(transition=(0, 1), area=0.1, phase=0.0)], np.zeros(2))
    for dipole in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match=r"dipole for transition \(1, 2\) must be finite and positive"):
            from_records([TransitionPulse(transition=(1, 2), area=0.1, phase=0.0, dipole=dipole)], np.zeros(2))


def test_fractional_transition_is_refused_on_every_route():
    # int() of the level would play (1, 2) for (1.5, 2.5)
    words = r"transition must be two integer levels, got \(1.5, 2.5\)"
    with pytest.raises(ValidationError, match=words):
        from_records([TransitionPulse(transition=(1.5, 2.5), area=0.3, phase=0.0)], [0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match=words):
        PulseSchedule([1.5], [0.3], [0.0], [1.0], np.empty((0, 2)), [0, 0], [0.0, 0.0, 0.0])
    whole = from_records([TransitionPulse(transition=(1.0, 2.0), area=0.3, phase=0.0)], [0.0, 0.0, 0.0])
    assert whole.levels.tolist() == [1] and whole.pulses[0].transition == (1, 2)


def test_area_phase_trivial_columns():
    assert area_phase_from_column(np.array([1.0, 0.0]), 1) == (0.0, 0.0)
    c, _ = area_phase_from_column(np.array([0.0, 1.0]), 1)
    assert abs(c - math.pi / 2.0) < 1e-14
    assert area_phase_from_column(np.array([0.0, 0.0]), 1) == (0.0, 0.0)


def test_area_phase_equal_weights():
    col = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c, phi = area_phase_from_column(col, 1)
    assert abs(c - math.pi / 4.0) < 1e-14
    moved = pulse_unitary(_pulse(1, c, phi), 2) @ col
    assert abs(moved[0] - 1.0) < 1e-12
    assert abs(moved[1]) < 1e-12


def test_area_phase_clears_random_columns():
    rng = np.random.default_rng(7)
    for _ in range(50):
        col = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        col /= np.linalg.norm(col)
        c, phi = area_phase_from_column(col, 1)
        pulse = _pulse(1, c, phi)
        moved = pulse_unitary(pulse, 2) @ col
        assert abs(moved[1]) < 1e-12
        # eliminate then undo restores the column
        back = pulse_unitary(adjoint_pulse(pulse), 2) @ moved
        assert np.abs(back - col).max() < 1e-12


def test_givens_identity_is_empty():
    sched = givens_decompose(np.eye(4))
    assert sched.pulses == []
    assert np.abs(sched.residual_matrix() - np.eye(4)).max() < 1e-14


def test_givens_two_pair_swap_sequence():
    target = np.zeros((4, 4))
    target[2, 0] = target[0, 2] = 1.0
    target[3, 1] = target[1, 3] = 1.0
    sched = givens_decompose(target)
    transitions = [sp.transition for sp in sched.pulses]
    assert transitions == [(2, 3), (1, 2), (3, 4), (2, 3)]
    assert np.abs(sched.reconstruct() - target).max() < 1e-10


def test_givens_random_unitaries_reconstruct():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        for _ in range(10):
            u = random_unitary(rng, d)
            sched = givens_decompose(u)
            assert len(sched.pulses) <= d * (d - 1) // 2
            for sp in sched.pulses:
                k, kp = sp.transition
                assert kp == k + 1
            assert np.abs(sched.reconstruct() - u).max() < 1e-10


def test_givens_rejects_non_unitary():
    with pytest.raises(ValidationError):
        givens_decompose(np.diag([1.0, 2.0]))


def test_reconstruct_matches_dense_pulse_product():
    # reconstruct rotates two rows per pulse; the reference multiplies the
    # dense pulse matrices and the residual diagonal R^dag
    rng = np.random.default_rng(61)
    for d in range(2, 13):
        u = random_unitary(rng, d)
        sched = givens_decompose(u)
        dense = np.eye(d, dtype=complex)
        for sp in sched.pulses:
            dense = pulse_unitary(sp, d) @ dense
        dense = dense @ np.diag(np.exp(1j * sched.residual_phases)).conj().T
        assert np.abs(sched.reconstruct() - dense).max() < 1e-13


def test_givens_d64_pulse_count_and_reconstruct():
    rng = np.random.default_rng(67)
    u = random_unitary(rng, 64)
    sched = givens_decompose(u)
    assert len(sched.pulses) == 64 * 63 // 2
    assert np.abs(sched.reconstruct() - u).max() < 1e-10


def test_non_finite_input_is_rejected():
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        givens_decompose(bad)
    with pytest.raises(ValidationError, match="finite"):
        PulseConstraints(amplitude_max=math.inf)
    with pytest.raises(ValidationError, match="finite"):
        PulseConstraints(amplitude_max=1.0, slew_min=-math.nan)


def test_pulse_shape_is_its_breakpoints():
    assert [f.name for f in dataclasses.fields(PulseShape)] == ["breakpoints"]
    shape = PulseShape(((0.0, 0.25), (1.0, 1.25), (3.0, 1.25), (4.0, 0.25)))
    assert shape.duration == 4.0
    assert shape.baseline == 0.25
    assert shape.realized_area == 0.5 + 2.0 + 0.5
    assert shape.baseline_leakage == 1.0
    empty = PulseShape(())
    assert (empty.duration, empty.baseline, empty.realized_area, empty.baseline_leakage) == (0.0, 0.0, 0.0, 0.0)
    # unshaped means no breakpoints: the default envelope, and the decomposition's
    assert _pulse(1, 0.5, 0.0).shape == empty
    plan = givens_decompose(random_unitary(np.random.default_rng(31), 4))
    assert plan.pulses and all(sp.shape == empty for sp in plan.pulses)
    assert plan.total_time == 0.0 and not plan.start_times.any()


def test_subnormal_slews_are_refused_not_shaped_to_nothing():
    # 1 / slew_max + 1 / |slew_min| overflows to inf, which collapsed every envelope to zero
    for slew_max, slew_min in ((1e-310, -1.0), (1.0, -1e-310), (1e-310, -1e-310)):
        with pytest.raises(ValidationError, match=r"slew_max .* slew_min .* ramp factor"):
            PulseConstraints(amplitude_max=1.0, slew_max=slew_max, slew_min=slew_min)
    # a positive area whose triangle peak sqrt(2 area / ramp factor) underflows is refused, not shaped flat
    with pytest.raises(ValidationError, match=r"area 1e-300 with slew_max 1e-300 and slew_min -1e-300"):
        shape_pulse(1e-300, PulseConstraints(1.0, 0.0, 1e-300, -1e-300))
    # a slow but normal slew still shapes the area it is asked for
    shape = shape_pulse(1.0, PulseConstraints(amplitude_max=1.0, slew_max=1e-300, slew_min=-1.0))
    assert shape.duration > 0.0
    assert abs(shape.realized_area - 1.0) <= 1e-9


def test_shape_pulse_zero_area():
    shape = shape_pulse(0.0, SYM)
    assert shape.duration == 0.0
    assert shape.realized_area == 0.0


def test_shape_pulse_triangle_boundary():
    # area 1 with M = 2, R = 4: peak sqrt(2 * 1 / (1/4 + 1/4)) = 2 = M exactly
    shape = shape_pulse(1.0, PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0))
    assert abs(shape.duration - 1.0) < 1e-12
    amps = [a for _, a in shape.breakpoints]
    assert abs(max(amps) - 2.0) < 1e-12
    assert abs(shape.realized_area - 1.0) < 1e-9


def test_shape_pulse_trapezoid():
    shape = shape_pulse(10.0, PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0))
    assert abs(shape.duration - 5.5) < 1e-12
    assert abs(shape.realized_area - 10.0) < 1e-9
    assert len(shape.breakpoints) == 4


def test_shape_pulse_closed_form_helpers():
    assert abs(triangle_duration(1.0, 4.0) - 1.0) < 1e-14
    assert abs(trapezoid_duration(10.0, 2.0, 4.0) - 5.5) < 1e-14


def test_shape_pulse_respects_bounds_pointwise():
    rng = np.random.default_rng(13)
    for _ in range(50):
        area = rng.uniform(1e-3, 10.0)
        m = rng.uniform(0.1, 5.0)
        r_up = rng.uniform(0.1, 8.0)
        r_dn = rng.uniform(0.1, 8.0)
        cons = PulseConstraints(amplitude_max=m, slew_max=r_up, slew_min=-r_dn)
        shape = shape_pulse(area, cons)
        ts = np.array([t for t, _ in shape.breakpoints])
        amps = np.array([a for _, a in shape.breakpoints])
        assert amps.min() >= -1e-12
        assert amps.max() <= m + 1e-12
        slopes = np.diff(amps) / np.diff(ts)
        assert slopes.max() <= r_up + 1e-9
        assert slopes.min() >= -r_dn - 1e-9
        assert abs(shape.realized_area - area) <= 1e-9 * area


def test_shape_pulse_asymmetric_slew_duration():
    area, m, r_up, r_dn = 0.5, 10.0, 2.0, 6.0
    shape = shape_pulse(area, PulseConstraints(amplitude_max=m, slew_max=r_up, slew_min=-r_dn))
    ramp = 1.0 / r_up + 1.0 / r_dn
    peak = math.sqrt(2.0 * area / ramp)
    assert abs(shape.duration - (peak / r_up + peak / r_dn)) < 1e-12


def test_shape_pulse_baseline_accounting():
    cons = PulseConstraints(amplitude_max=1.0, amplitude_min=0.2, slew_max=1.0, slew_min=-1.0)
    shape = shape_pulse(0.1, cons)
    assert shape.baseline == 0.2
    # area is measured above the floor; the floor contribution is reported
    assert abs(shape.realized_area - 0.1) < 1e-9 * 0.1
    assert abs(shape.baseline_leakage - 0.2 * shape.duration) < 1e-12
    amps = [a for _, a in shape.breakpoints]
    assert min(amps) >= 0.2 - 1e-12


def test_shape_pulse_rejects_zero_headroom():
    with pytest.raises(ValidationError):
        shape_pulse(1.0, PulseConstraints(amplitude_max=0.5, amplitude_min=0.5))


def test_shape_minimality_against_competitors():
    # any feasible envelope with the same area has a duration at least as
    # long: competitor peaks m' <= sqrt(area R) give duration
    # 2 m'/R + (area - m'^2/R)/m' which is minimized by the returned shape
    rng = np.random.default_rng(17)
    for _ in range(200):
        area = rng.uniform(1e-2, 10.0)
        m = rng.uniform(0.1, 5.0)
        r = rng.uniform(0.1, 8.0)
        shape = shape_pulse(area, PulseConstraints(amplitude_max=m, slew_max=r, slew_min=-r))
        cap = min(m, math.sqrt(area * r))
        for frac in rng.uniform(0.05, 1.0, size=5):
            peak = cap * frac
            plateau = max(0.0, (area - peak * peak / r) / peak)
            competitor = 2.0 * peak / r + plateau
            assert competitor >= shape.duration - 1e-12


def test_schedule_identity_has_zero_time():
    sched = schedule(np.eye(3), SYM)
    assert sched.total_time == 0.0
    assert sched.pulses == []


def test_schedule_total_time_is_sum_of_closed_forms():
    rng = np.random.default_rng(19)
    for _ in range(10):
        u = random_unitary(rng, 4)
        sched = schedule(u, SYM)
        total = 0.0
        for sp in sched.pulses:
            area = sp.area  # dipole defaults to 1
            peak = math.sqrt(area * SYM.slew_max)
            if peak <= SYM.amplitude_max:
                total += triangle_duration(area, SYM.slew_max)
            else:
                total += trapezoid_duration(area, SYM.amplitude_max, SYM.slew_max)
        assert abs(sched.total_time - total) < 1e-12
        assert np.abs(sched.reconstruct() - u).max() < 1e-9


def test_schedule_benchmark_hardware_scale():
    # amplitude cap 0.02, slew 2e6 (0.1 GHz modulation of a 20 mW drive),
    # dipole 1e11: four pulses, every duration on the nanosecond scale
    target = np.zeros((4, 4))
    target[2, 0] = target[0, 2] = 1.0
    target[3, 1] = target[1, 3] = 1.0
    cons = PulseConstraints(amplitude_max=0.02, slew_max=2.0e6, slew_min=-2.0e6)
    sched = schedule(target, cons, dipoles=1.0e11)
    assert len(sched.pulses) == 4
    for sp in sched.pulses:
        assert 1e-10 < sp.shape.duration < 1e-7


def test_schedule_per_transition_tables():
    target = np.zeros((4, 4))
    target[2, 0] = target[0, 2] = 1.0
    target[3, 1] = target[1, 3] = 1.0
    constraints = {
        1: PulseConstraints(amplitude_max=1.0, slew_max=2.0, slew_min=-2.0),
        2: PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0),
        3: PulseConstraints(amplitude_max=0.5, slew_max=1.0, slew_min=-1.0),
    }
    dipoles = {1: 2.0, 2: 1.0, 3: 0.5}
    sched = schedule(target, constraints, dipoles=dipoles)
    for sp in sched.pulses:
        k = sp.transition[0]
        envelope_area = sp.area / dipoles[k]
        assert abs(sp.shape.realized_area - envelope_area) <= 1e-9 * envelope_area
        amps = [a for _, a in sp.shape.breakpoints]
        assert max(amps) <= constraints[k].amplitude_max + 1e-12


def test_total_time_is_derived_from_the_shapes():
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 5)
    assert givens_decompose(u).total_time == 0.0
    sched = schedule(u, SYM, dipoles=0.8)
    total = 0.0
    for sp in sched.pulses:
        total += sp.shape.duration
    assert sched.total_time == total
    assert "total_time" not in {f.name for f in dataclasses.fields(sched)}


def _structured_targets():
    """Targets whose decomposition skips eliminations: exact zeros and phases only."""
    rng = np.random.default_rng(71)
    yield np.eye(6)
    yield np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, 7)))
    for d in (2, 5, 8, 16):
        yield np.eye(d)[rng.permutation(d)]
    for d in (3, 6, 12, 19):
        yield np.diag(np.exp(1j * rng.uniform(-math.pi, math.pi, d)))[rng.permutation(d)]
    yield np.eye(8)[::-1]
    block = np.zeros((9, 9), dtype=complex)
    block[:4, :4] = random_unitary(rng, 4)
    block[4:6, 4:6] = random_unitary(rng, 2)
    block[6:, 6:] = random_unitary(rng, 3)
    yield block
    shuffled = np.eye(9)[rng.permutation(9)]
    yield shuffled @ block @ shuffled.T


def _haar_targets():
    rng = np.random.default_rng(73)
    for d in list(range(1, 17)) + [32, 64]:
        yield random_unitary(rng, d)


@pytest.mark.parametrize("family", [_haar_targets, _structured_targets])
def test_wavefront_matches_serial_reck_loop(family):
    for target in family():
        sched = givens_decompose(target)
        pulses, residual = reck_decompose(target)
        assert [sp.transition for sp in sched.pulses] == [t for t, _, _ in pulses]
        if pulses:
            got = np.array([(sp.area, sp.phase) for sp in sched.pulses])
            want = np.array([(a, p) for _, a, p in pulses])
            assert np.abs(got - want).max() <= 1e-12
        assert np.abs(sched.residual_phases - residual).max() <= 1e-12


def test_structured_targets_skip_eliminations_and_reconstruct():
    skipped = 0
    for target in _structured_targets():
        sched = givens_decompose(target)
        d = target.shape[0]
        skipped += d * (d - 1) // 2 - len(sched.pulses)
        assert np.abs(sched.reconstruct() - target).max() < 1e-10
    assert skipped > 100


def test_reconstruct_layers_any_pulse_order():
    # random and shuffled Givens trains, far from Reck order, against the
    # dense product of pulse_unitary matrices times R^dag
    rng = np.random.default_rng(79)
    for d in (2, 3, 6, 11):
        train = givens_decompose(random_unitary(rng, d)).pulses
        shuffled = [train[i] for i in rng.permutation(len(train))]
        random_train = [
            _pulse(int(k), rng.uniform(0.0, math.pi), rng.uniform(-math.pi, math.pi))
            for k in rng.integers(1, d, size=3 * d)
        ]
        for pulses in (shuffled, random_train):
            sched = from_records(pulses, rng.uniform(-math.pi, math.pi, d))
            dense = np.eye(d, dtype=complex)
            for sp in sched.pulses:
                dense = pulse_unitary(sp, d) @ dense
            dense = dense @ sched.residual_matrix().conj().T
            assert np.abs(sched.reconstruct() - dense).max() < 1e-13


def test_reconstruct_rejects_transition_beyond_dimension():
    inside = _pulse(1, 0.4, 0.2)
    outside = _pulse(3, 0.4, 0.2)
    # refused when built, so no schedule that reconstruct meets drives a level past d
    with pytest.raises(ValidationError, match="exceeds dimension 3"):
        from_records([inside, outside, inside], np.zeros(3)).reconstruct()


def test_wavefront_does_not_depend_on_memory_layout():
    # transposes are F-ordered, reversed rows have negative strides; the decomposition
    # must not depend on memory layout
    rng = np.random.default_rng(83)
    for d in range(3, 9):
        u = random_unitary(rng, d)
        for target in (u.T, u.conj().T, u[::-1], u.T[::-1, ::-1]):
            assert not target.flags.c_contiguous
            sched = givens_decompose(target)
            pulses, residual = reck_decompose(np.ascontiguousarray(target))
            assert [sp.transition for sp in sched.pulses] == [t for t, _, _ in pulses]
            got = np.array([(sp.area, sp.phase) for sp in sched.pulses])
            want = np.array([(a, p) for _, a, p in pulses])
            assert np.abs(got - want).max() <= 1e-12
            assert np.abs(sched.residual_phases - residual).max() <= 1e-12
            assert np.abs(schedule(target, SYM).reconstruct() - target).max() < 1e-10


def test_signed_zero_entries_give_the_same_schedule():
    # a lower entry that is zero to roundoff has angle 0, so the sign of a zero
    # (here on the (1 2)(3 4) permutation) does not reach any pulse phase
    plus = np.eye(4)[[1, 0, 3, 2]]
    signed = []
    for i, j in zip(*np.nonzero(plus == 0.0)):
        minus = plus.copy()
        minus[i, j] = -0.0
        signed.append(minus)
    signed.append(np.where(plus == 0.0, -0.0, plus))
    want = givens_decompose(plus)
    assert np.abs(want.reconstruct() - plus).max() <= 1e-12
    for minus in signed:
        got = givens_decompose(minus)
        assert [(sp.transition, sp.area, sp.phase) for sp in got.pulses] == [
            (sp.transition, sp.area, sp.phase) for sp in want.pulses
        ]
        assert np.array_equal(got.residual_phases, want.residual_phases)
        assert np.abs(got.reconstruct() - minus).max() <= 1e-12


def test_envelope_whose_peak_the_baseline_absorbs_is_refused():
    # 1.0 + 1.25e-20 == 1.0: the serial closed forms give a flat envelope that realizes nothing
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    limits = PulseConstraints(2.0, 1.0, 1.0, -1.0)
    flat = shape_pulse_serial(math.pi / 2 / 1e40, limits)
    assert flat.realized_area == 0.0 and {a for _, a in flat.breakpoints} == {1.0}
    with pytest.raises(ValidationError, match=r"transition \(1, 2\): the envelope for area .* realizes 0.0"):
        schedule(x, limits, dipoles=1e40)
    with pytest.raises(ValidationError, match="REALIZED_AREA_RTOL"):
        shape_pulse(math.pi / 2 / 1e40, limits)
    # a small area well above the rounding of the baseline still shapes
    shape = shape_pulse(1e-13, PulseConstraints(1.0, 0.05, 1.0, -1.0))
    assert abs(shape.realized_area - 1e-13) <= REALIZED_AREA_RTOL * 1e-13


def test_envelope_of_non_finite_duration_is_refused_naming_its_cause():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for limits, dipoles in ((PulseConstraints(1e-320), 1.0), (PulseConstraints(1.0), 1e-320)):
        with pytest.raises(ValidationError, match=r"transition \(1, 2\): area .* dipole .* amplitude_max .* non-finite duration"):
            schedule(x, limits, dipoles=dipoles)


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
COLUMNS = ("levels", "areas", "phases", "dipoles", "breakpoints", "offsets", "residual_phases")


def test_schedule_columns_are_read_only_so_the_clock_stays_true():
    sched = schedule(SWAP, PulseConstraints(1.0))
    total = sched.total_time
    with pytest.raises(ValueError):
        sched.breakpoints[-1, 0] = 99.0
    assert sched.total_time == total == sched.durations[-1]
    assert schedule_to_json(schedule_from_json(schedule_to_json(sched))) == schedule_to_json(sched)
    columns = [getattr(sched, name).copy() for name in COLUMNS]
    built = PulseSchedule(*columns)
    for s in (sched, schedule_from_json(schedule_to_json(sched)), built, givens_decompose(SWAP)):
        for name in COLUMNS:
            with pytest.raises(ValueError):
                getattr(s, name)[-1] = 0
    # the caller's own arrays are copied, not frozen
    assert all(column.flags.writeable for column in columns)
    columns[2][0] += 1.0
    assert built.phases[0] == sched.phases[0] != columns[2][0]


def _set_column(name, index, value):
    def edit(columns):
        columns[name][index] = value
    return edit


def _decrease_offsets(columns):
    columns["offsets"][1] = columns["offsets"][2] + 1


def _drop_a_phase(columns):
    columns["phases"] = columns["phases"][:-1]


def _three_wide_table(columns):
    columns["breakpoints"] = np.zeros((len(columns["breakpoints"]), 3))


def _no_residual_phases(columns):
    columns["residual_phases"] = np.zeros(0)


# each structural rule of the columns, and the empty residual_phases, with the message schedule_from_json gives
STRUCTURE = [
    pytest.param(
        _set_column("offsets", 0, 1), "schedule: offsets must start at 0, got 1", id="offsets-not-starting-at-0"
    ),
    pytest.param(_decrease_offsets, "schedule: offsets must not decrease, got 7 then 6", id="decreasing-offsets"),
    pytest.param(
        _set_column("offsets", -1, 10),
        "schedule: offsets must end at 9, the breakpoint row count, got 10",
        id="offsets-end-off-the-row-count",
    ),
    pytest.param(
        _drop_a_phase,
        "schedule: levels, areas, phases and dipoles must have one entry per pulse, got lengths [3, 3, 2, 3]",
        id="column-length-mismatch",
    ),
    pytest.param(
        _three_wide_table,
        "schedule: breakpoints must be an (N, 2) table of (t, amplitude) rows, got shape (9, 3)",
        id="breakpoints-3-wide",
    ),
    pytest.param(
        _set_column("levels", 1, 1.5), "pulse 1: transition must be two integer levels, got (1.5, 2.5)", id="level-1.5"
    ),
    pytest.param(
        _set_column("levels", 1, 2.0**53),
        "pulse 1: transition must be two integer levels, got (9007199254740992.0, 9007199254740992.0)",
        id="level-2**53",
    ),
    pytest.param(
        _no_residual_phases,
        "schedule: residual_phases is empty; it holds one phase per level",
        id="empty-residual-phases",
    ),
]


@pytest.mark.parametrize("edit, message", STRUCTURE)
def test_column_constructor_refuses_each_structural_fault(edit, message):
    sched = schedule(random_unitary(np.random.default_rng(2401), 3), PulseConstraints(1.0))
    assert sched.levels.tolist() == [1, 2, 1] and sched.offsets.tolist() == [0, 3, 6, 9]
    columns = {name: getattr(sched, name).astype(float) for name in COLUMNS}
    edit(columns)
    with pytest.raises(ValidationError) as built:
        PulseSchedule(**columns)
    assert str(built.value) == message
    if columns["breakpoints"].shape[1] == 2:  # the reader holds the table flat, so it meets every other fault
        doc = {"format": 2, **{name: column.ravel().tolist() for name, column in columns.items()}}
        with pytest.raises(ValidationError) as read:
            schedule_from_json(doc)
        assert str(read.value) == message


def _nan_phase(pulse, residual):
    return dataclasses.replace(pulse, phase=math.nan), residual


def _nan_breakpoint_time(pulse, residual):
    first, (_, a1), *rest = pulse.shape.breakpoints
    shape = PulseShape((first, (math.nan, a1), *rest))
    return dataclasses.replace(pulse, shape=shape), residual


def _infinite_breakpoint_amplitude(pulse, residual):
    first, (t1, _), *rest = pulse.shape.breakpoints
    shape = PulseShape((first, (t1, math.inf), *rest))
    return dataclasses.replace(pulse, shape=shape), residual


def _nan_residual_phase(pulse, residual):
    return pulse, [math.nan, 0.0]


@pytest.mark.parametrize(
    "edit, words",
    [
        pytest.param(_nan_phase, ["pulse 0", "phase"], id="nan-phase"),
        pytest.param(_nan_breakpoint_time, ["pulse 0", "breakpoints"], id="nan-breakpoint-time"),
        pytest.param(_infinite_breakpoint_amplitude, ["pulse 0", "breakpoints"], id="inf-breakpoint-amplitude"),
        pytest.param(_nan_residual_phase, ["residual_phases"], id="nan-residual-phase"),
    ],
)
def test_schedule_with_a_non_finite_value_is_refused_when_built(edit, words):
    swap = schedule(SWAP, PulseConstraints(1.0))
    pulse, residual = edit(swap.pulses[0], swap.residual_phases)
    with pytest.raises(ValidationError) as refused:
        from_records([pulse], residual)
    assert all(w in str(refused.value) for w in words), refused.value
