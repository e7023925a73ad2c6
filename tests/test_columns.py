"""The column route against the record route it replaced.

A PulseSchedule is shaped, encoded and decoded a column at a time; the
oracles in serial_oracles.py do the same work one pulse record at a time.
The two must give the same bytes, the same records and the same errors.
"""

import json
import math

import numpy as np
import pytest

from qbond.errors import ValidationError
from qbond.pulse_synthesis import PulseConstraints, PulseSchedule, schedule, shape_pulse
from qbond.serialization import envelope_csv, schedule_from_json, schedule_to_json

from helpers import random_unitary
from serial_oracles import (
    envelope_csv_records,
    schedule_from_json_records,
    schedule_serial,
    schedule_to_json_records,
    shape_pulse_serial,
)

FLOOR = PulseConstraints(amplitude_max=1.3, amplitude_min=0.05, slew_max=2.0, slew_min=-3.0)


def _hardware(rng, d, variant):
    """(constraints, dipoles) for one of three set-ups: floor and per-transition dipoles,
    a per-transition constraints mapping with a scalar dipole, or the defaults."""
    if variant == 0:
        return FLOOR, {k: float(rng.uniform(0.5, 2.0)) for k in range(1, d)}
    if variant == 1:
        limits = {
            k: PulseConstraints(
                amplitude_max=float(rng.uniform(0.2, 2.0)),
                amplitude_min=float(rng.choice([0.0, 0.05])),
                slew_max=float(rng.uniform(0.5, 4.0)),
                slew_min=-float(rng.uniform(0.5, 4.0)),
            )
            for k in range(1, d)
        }
        return limits, 1.3
    return PulseConstraints(amplitude_max=1.0), None


def _cases():
    rng = np.random.default_rng(1901)
    for d in list(range(2, 13)) + [32, 64]:
        for variant in (0, 1, 2) if d <= 12 else (0, 1):
            constraints, dipoles = _hardware(rng, d, variant)
            yield d, random_unitary(rng, d), constraints, dipoles


@pytest.mark.parametrize("d, target, constraints, dipoles", list(_cases()))
def test_column_route_gives_the_record_route_bytes(d, target, constraints, dipoles):
    got = schedule(target, constraints, dipoles=dipoles)
    want = schedule_serial(target, constraints, dipoles=dipoles)
    assert got.pulses == want.pulses
    text = json.dumps(schedule_to_json(got))
    assert text == json.dumps(schedule_to_json_records(want))
    assert envelope_csv(got) == envelope_csv_records(want)
    # both decoders on the same text
    again, oracle = schedule_from_json(json.loads(text)), schedule_from_json_records(json.loads(text))
    assert again.pulses == oracle.pulses == want.pulses
    assert np.array_equal(again.residual_phases, oracle.residual_phases)
    assert again.total_time == oracle.total_time == got.total_time
    assert json.dumps(schedule_to_json(again)) == text


def test_shape_pulse_gives_the_serial_closed_forms():
    rng = np.random.default_rng(1903)
    for _ in range(300):
        limits = PulseConstraints(
            amplitude_max=float(rng.uniform(0.01, 10.0)),
            amplitude_min=float(rng.choice([0.0, 0.005])),
            slew_max=float(rng.uniform(0.01, 10.0)),
            slew_min=-float(rng.uniform(0.01, 10.0)),
        )
        area = float(rng.choice([0.0, 10.0 ** rng.uniform(-6, 4)]))
        assert shape_pulse(area, limits) == shape_pulse_serial(area, limits)


def _doc():
    sched = schedule(random_unitary(np.random.default_rng(1905), 3), FLOOR, dipoles={1: 0.8, 2: 1.4})
    return json.loads(json.dumps(schedule_to_json(sched)))


def _set(key, value):
    def edit(pulse):
        pulse[key] = value
    return edit


def _ragged_row(pulse):
    pulse["breakpoints"][1] = [1.0]


def _stretched(pulse):
    pulse["duration"] *= 1.5


def _early_start(pulse):
    pulse["breakpoints"][0][0] = -1.0


def _backwards(pulse):
    # a middle breakpoint past the last one; the duration still matches
    pulse["breakpoints"][1][0] = 2.0 * pulse["duration"]


# (fault, whether the new message adds a "pulse n: " prefix to the record's)
FAULTS = [
    pytest.param(_set("area", True), False, id="bool-area"),
    pytest.param(_set("phase", math.nan), False, id="nan-phase"),
    pytest.param(_set("area", 2**1100), False, id="int-past-the-float-range"),
    pytest.param(_set("breakpoints", [[0.0, 0.05], [1.0, "x"], [2.0, 0.05]]), False, id="string-breakpoint"),
    pytest.param(_set("transition", [2, 4]), True, id="transition-2-4"),
    pytest.param(_set("transition", [1.5, 2.5]), False, id="fractional-transition"),
    pytest.param(_set("area", 4.0), True, id="area-4"),
    pytest.param(_set("dipole", 0), True, id="dipole-0"),
    pytest.param(_ragged_row, False, id="ragged-breakpoint-row"),
    pytest.param(_stretched, False, id="duration-mismatch"),
    pytest.param(_set("extra", 1.0), False, id="unknown-key"),
    # the schedule's own rules: the records oracle meets them in PulseSchedule(...), which names the pulse
    pytest.param(_set("transition", [3, 4]), False, id="transition-3-4-at-d-3"),
    pytest.param(_backwards, False, id="decreasing-breakpoint-times"),
    pytest.param(_early_start, False, id="first-breakpoint-at-minus-1"),
]


@pytest.mark.parametrize("edit, prefixed", FAULTS)
def test_both_decoders_give_the_same_message_for_one_fault(edit, prefixed):
    doc = _doc()
    edit(doc["pulses"][1])
    with pytest.raises(ValidationError) as old:
        schedule_from_json_records(doc)
    with pytest.raises(ValidationError) as new:
        schedule_from_json(doc)
    assert str(new.value) == ("pulse 1: " if prefixed else "") + str(old.value)
    assert "pulse 1" in str(new.value)


def test_pulses_are_records_built_on_read():
    sched = schedule(random_unitary(np.random.default_rng(1907), 4), FLOOR)
    pulses = sched.pulses
    assert pulses == sched.pulses and pulses is not sched.pulses
    assert all(type(p) is tuple and len(p) == 2 for sp in pulses for p in sp.shape.breakpoints)
    pulses.pop()
    assert len(sched.pulses) == len(pulses) + 1
    rebuilt = PulseSchedule(pulses=sched.pulses, residual_phases=sched.residual_phases)
    assert json.dumps(schedule_to_json(rebuilt)) == json.dumps(schedule_to_json(sched))
    # the clock is built once and read-only
    with pytest.raises(ValueError):
        sched.start_times[0] = 1.0
    assert sched.total_time == sum(sched.durations.tolist())
