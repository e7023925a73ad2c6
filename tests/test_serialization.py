import json

import numpy as np
import pytest

from qbond.binding import binding_energy
from qbond.errors import ValidationError
from qbond.propagation import _segments, simulate_schedule
from qbond.pulse_synthesis import PulseConstraints, schedule
from qbond.serialization import (
    binding_report_to_json,
    csv_table,
    envelope_csv,
    matrix_from_json,
    matrix_to_json,
    require_keys,
    schedule_from_json,
    schedule_to_json,
    trajectory_csv,
    well_levels_csv,
)

from generic_route import amplitude_at
from helpers import random_density, random_hermitian, random_unitary
from serial_oracles import trajectory_csv_rows


def test_require_keys_strictness():
    require_keys({"a": 1, "b": 2}, {"a", "b"})
    require_keys({"a": 1}, {"a"}, optional={"b"})
    with pytest.raises(ValidationError, match="missing"):
        require_keys({"a": 1}, {"a", "b"})
    with pytest.raises(ValidationError, match="unknown"):
        require_keys({"a": 1, "c": 2}, {"a"})
    with pytest.raises(ValidationError):
        require_keys([1, 2], {"a"})


def test_matrix_round_trip_is_bit_exact():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 4) + 1j * 0.0
    doc = matrix_to_json(m)
    # through an actual JSON string, as the CLI does
    again = matrix_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(again, m)


def test_matrix_from_json_validation():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})


def test_binding_report_json_fields():
    rng = np.random.default_rng(5)
    rho0 = random_density(rng, 3)
    h_free = random_hermitian(rng, 3)
    report = binding_energy(rho0, h_free, np.zeros((3, 3)))
    doc = binding_report_to_json(report)
    assert set(doc) == {
        "delta_u_be",
        "initial_energy",
        "final_energy",
        "assignment",
        "passive_state",
        "optimal_unitary",
    }
    assert doc["delta_u_be"] == report.delta_u_be
    back = matrix_from_json(doc["passive_state"])
    assert np.array_equal(back, report.passive_state)


def test_schedule_round_trip():
    rng = np.random.default_rng(7)
    u = random_unitary(rng, 3)
    sched = schedule(u, PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0))
    doc = json.loads(json.dumps(schedule_to_json(sched)))
    again = schedule_from_json(doc)
    assert len(again.pulses) == len(sched.pulses)
    for a, b in zip(again.pulses, sched.pulses):
        assert a.transition == b.transition
        assert a.area == b.area
        assert a.phase == b.phase
        assert a.shape.breakpoints == b.shape.breakpoints
        assert abs(a.shape.realized_area - b.shape.realized_area) <= 1e-12 * max(
            1.0, b.shape.realized_area
        )
    assert np.array_equal(again.residual_phases, sched.residual_phases)
    assert again.total_time == sched.total_time
    assert np.abs(again.reconstruct() - u).max() < 1e-10


def test_schedule_round_trip_keeps_recorded_dipoles():
    rng = np.random.default_rng(73)
    u = random_unitary(rng, 4)
    dipoles = {k: float(rng.uniform(0.5, 2.0)) for k in range(1, 4)}
    sched = schedule(u, PulseConstraints(amplitude_max=1.0), dipoles=dipoles)
    again = schedule_from_json(json.loads(json.dumps(schedule_to_json(sched))))
    recorded = [dipoles[sp.transition[0]] for sp in sched.pulses]
    assert [sp.dipole for sp in sched.pulses] == recorded
    assert [sp.dipole for sp in again.pulses] == recorded


def _two_pulse_doc():
    return {
        "format": 2,
        "levels": [1, 1],
        "areas": [0.5, 0.5],
        "phases": [0.0, 0.0],
        "offsets": [0, 3, 6],
        "breakpoints": [0.0, 0.0, 1.0, 1.0, 2.0, 0.0] * 2,
        "residual_phases": [0.0, 0.0],
    }


def test_schedule_from_json_rejects_bad_dipole():
    for bad in (0.0, -1.0, float("nan"), float("inf"), "2", True):
        doc = dict(_two_pulse_doc(), dipoles=[1.0, bad])
        with pytest.raises(ValidationError, match="pulse 1: dipole"):
            schedule_from_json(doc)


def test_schedule_from_json_checks_the_duration_of_a_pulse_without_breakpoints():
    # pulse 1 owns no rows: it takes no time, and its end is not stored to disagree with
    doc = dict(_two_pulse_doc(), offsets=[0, 3, 3], breakpoints=[0.0, 0.0, 1.0, 1.0, 2.0, 0.0])
    sched = schedule_from_json(doc)
    assert sched.pulses[1].shape.breakpoints == ()
    assert sched.durations.tolist() == [2.0, 0.0]
    assert sched.start_times.tolist() == [0.0, 2.0] and sched.total_time == 2.0


def test_schedule_from_json_clock_follows_the_breakpoints_not_the_stored_duration():
    # no duration or total_time is stored: the clock reads each pulse's last breakpoint time,
    # and a document that states either is refused rather than trusted
    sched = schedule_from_json(_two_pulse_doc())
    assert sched.start_times.tolist() == [0.0, 2.0] and sched.total_time == 4.0
    for key, value in (("total_time", 4.0), ("durations", [2.0, 2.0])):
        with pytest.raises(ValidationError, match=f"unknown keys \\['{key}'\\]"):
            schedule_from_json(dict(_two_pulse_doc(), **{key: value}))


def test_schedule_from_json_refuses_a_level_without_a_float_successor():
    # past 2**53 a float level k has no k + 1 to name
    with pytest.raises(ValidationError, match="pulse 0: transition must be two integer levels"):
        schedule_from_json(dict(_two_pulse_doc(), levels=[1e300, 1]))


def test_schedule_document_is_seven_flat_columns():
    sched = schedule(random_unitary(np.random.default_rng(29), 5), PulseConstraints(amplitude_max=1.0))
    doc = schedule_to_json(sched)
    assert list(doc) == ["format", "levels", "areas", "phases", "dipoles", "offsets", "breakpoints", "residual_phases"]
    assert doc["format"] == 2
    assert all(type(x) in (int, float) for key in list(doc)[1:] for x in doc[key])
    again = schedule_from_json(json.loads(json.dumps(doc)))
    for name in ("levels", "areas", "phases", "dipoles", "breakpoints", "offsets", "residual_phases"):
        assert np.array_equal(getattr(again, name), getattr(sched, name))
        assert getattr(again, name).dtype == getattr(sched, name).dtype


def _envelope_rows(sched):
    lines = envelope_csv(sched).strip().split("\n")
    assert lines[0] == "time,amplitude,transition"
    return [(float(t), float(amp), label) for t, amp, label in (line.split(",") for line in lines[1:])]


def test_envelope_csv_has_one_row_per_breakpoint():
    rng = np.random.default_rng(19)
    sched = schedule(random_unitary(rng, 5), PulseConstraints(amplitude_max=0.7, slew_max=3.0, slew_min=-2.0))
    rows = _envelope_rows(sched)
    assert len(rows) == sum(len(sp.shape.breakpoints) for sp in sched.pulses)
    offset, i = 0.0, 0
    for sp in sched.pulses:
        for t, amp in sp.shape.breakpoints:
            assert rows[i] == (offset + t, amp, "{}-{}".format(*sp.transition))
            i += 1
        offset += sp.shape.duration


def test_envelope_csv_rows_draw_the_sampled_polyline():
    # interpolating the rows at the 50-per-segment sample times the table
    # once held gives back the envelope itself
    rng = np.random.default_rng(23)
    sched = schedule(random_unitary(rng, 4), PulseConstraints(amplitude_max=1.0, amplitude_min=0.1))
    rows = _envelope_rows(sched)
    offset, i = 0.0, 0
    for sp in sched.pulses:
        shape = sp.shape
        mine = rows[i : i + len(shape.breakpoints)]
        i += len(shape.breakpoints)
        knots = [t for t, _ in shape.breakpoints]
        for a, b in zip(knots[:-1], knots[1:]):
            for t in np.linspace(a, b, 50, endpoint=False):
                drawn = np.interp(offset + t, [r[0] for r in mine], [r[1] for r in mine])
                assert abs(drawn - amplitude_at(shape, t)) <= 1e-12
        offset += shape.duration


def _sequential_clock(sched):
    """Each pulse's start and the end of the train, durations added one after another from 0.0."""
    starts, t = [], 0.0
    for sp in sched.pulses:
        starts.append(t)
        if sp.shape.breakpoints:
            t += sp.shape.duration
    return starts, t


def _clock_schedules():
    rng = np.random.default_rng(47)
    limits = PulseConstraints(amplitude_max=1.0, amplitude_min=0.05, slew_max=2.0, slew_min=-3.0)
    for d in range(2, 41):
        yield schedule(random_unitary(rng, d), limits)
    # hand-edited schedule.json: one pulse in the middle loses its envelope
    doc = schedule_to_json(schedule(random_unitary(rng, 6), limits))
    lo, hi = doc["offsets"][4:6]
    del doc["breakpoints"][2 * lo : 2 * hi]
    doc["offsets"][5:] = [x - (hi - lo) for x in doc["offsets"][5:]]
    yield schedule_from_json(doc)


def test_every_reader_of_the_schedule_clock_sees_the_same_times():
    for sched in _clock_schedules():
        starts, end = _sequential_clock(sched)
        assert [t.hex() for t in sched.start_times.tolist()] == [t.hex() for t in starts]
        assert sched.total_time.hex() == end.hex()
        # envelope.csv: every breakpoint at its pulse's start plus its local time
        want = [
            repr(start + t)
            for start, sp in zip(sched.start_times.tolist(), sched.pulses)
            if sp.shape.breakpoints
            for t, _ in sp.shape.breakpoints
        ]
        lines = envelope_csv(sched).strip().split("\n")[1:]
        assert [line.split(",")[0] for line in lines] == want
        if any(not sp.shape.breakpoints for sp in sched.pulses):
            with pytest.raises(ValidationError, match="unshaped"):
                _segments(sched, None)
            continue
        # playback: every segment runs between two of those breakpoint times
        bounds = [
            (start + t0, start + t1)
            for start, sp in zip(sched.start_times.tolist(), sched.pulses)
            for (t0, _), (t1, _) in zip(sp.shape.breakpoints[:-1], sp.shape.breakpoints[1:])
            if t1 > t0
        ]
        segs = _segments(sched, None)
        assert np.array_equal(segs.t_lo, [lo for lo, _ in bounds])
        assert np.array_equal(segs.t_hi, [hi for _, hi in bounds])


def test_well_levels_csv_layout():
    rows = [
        {"n": 1, "E_eV": 4.5, "kind": "bound", "P": None, "tau_s": None},
        {"n": 2, "E_eV": 71.0, "kind": "tunneling", "P": 0.5, "tau_s": 1.2e-17},
    ]
    text = well_levels_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "n,E_eV,kind,P,tau_s"
    assert lines[1].startswith("1,4.5,bound,,")
    assert "0.5" in lines[2] and "1.2e-17" in lines[2]


def test_csv_table_cells():
    rows = [("a", None, 3, 0.1, np.float64(2.5), float("inf")), (None, "", -1, 1e-300, np.float64(-0.0), 0.0)]
    text = csv_table(["s", "none", "int", "float", "np", "inf"], rows)
    assert text == "s,none,int,float,np,inf\na,,3,0.1,2.5,inf\n,,-1,1e-300,-0.0,0.0\n"


def test_trajectory_csv_layout():
    times = np.array([0.0, 1.0])
    states = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    energies = np.array([0.25, 0.75])
    text = trajectory_csv(times, states, energies)
    lines = text.strip().split("\n")
    assert lines[0] == "t,U_energy,purity,pop_1,pop_2"
    first = lines[1].split(",")
    assert float(first[1]) == 0.25
    assert float(first[2]) == 1.0
    second = lines[2].split(",")
    assert float(second[2]) == 0.5


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 32])
def test_trajectory_csv_matches_row_by_row_oracle(d):
    rng = np.random.default_rng(900 + d)
    sched = schedule(random_unitary(rng, d), PulseConstraints(amplitude_max=1.0))
    played = simulate_schedule(sched, rho0=random_density(rng, d))
    n = 201
    random_stack = np.array([random_density(rng, d, rank=1 + k % d) for k in range(n)])
    trajectories = [
        (played.times, played.state_trajectory, played.energy_trajectory),
        (np.sort(rng.uniform(0.0, 3.0, n)), list(random_stack), rng.standard_normal(n) * 1e-9),
    ]
    for times, states, energies in trajectories:
        expected = trajectory_csv_rows(times, states, energies)
        assert expected.count("\n") == len(times) + 1
        assert trajectory_csv(times, states, energies) == expected
        assert trajectory_csv(times, np.array(states), energies) == expected
        assert trajectory_csv(list(times), states, list(energies)) == expected


def test_trajectory_csv_of_no_samples_is_the_header():
    assert trajectory_csv([], [], []) == trajectory_csv_rows([], [], []) == "t,U_energy,purity\n"
