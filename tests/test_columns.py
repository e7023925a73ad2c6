"""The column route against the record route it replaced.

A PulseSchedule is shaped, encoded and decoded a column at a time; the
oracles in serial_oracles.py do the same work one pulse record at a time.
The two must give the same bytes, the same records and the same errors.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from qbond.cli import main
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


def _set(key, value, n=1):
    def edit(doc):
        doc[key][n] = value
    return edit


def _row(doc, i):
    """Index in the flat breakpoints of pulse 1's row i (its time; its amplitude is next)."""
    return 2 * (doc["offsets"][1] + i)


def _ragged_row(doc):
    # pulse 1's first row loses its amplitude
    del doc["breakpoints"][_row(doc, 0) + 1]


def _early_start(doc):
    doc["breakpoints"][_row(doc, 0)] = -1.0


def _backwards(doc):
    # pulse 1's second breakpoint time past its last one
    doc["breakpoints"][_row(doc, 1)] = 2.0 * doc["breakpoints"][2 * doc["offsets"][2] - 2]


def _per_pulse_document(doc):
    doc.clear()
    doc.update(
        pulses=[
            {"transition": [1, 2], "area": 0.5, "phase": 0.0, "breakpoints": [[0.0, 0.0], [2.0, 0.0]], "duration": 2.0}
        ],
        residual_phases=[0.0, 0.0],
        total_time=2.0,
    )


def _shift_offset(i, delta):
    def edit(doc):
        doc["offsets"][i] += delta
    return edit


def _decreasing_offsets(doc):
    doc["offsets"][1] = doc["offsets"][2] + 1


# (fault, whether the new message adds a "pulse n: " prefix to the record's, a word the message must hold)
FAULTS = [
    pytest.param(_set("areas", True), False, "pulse 1", id="bool-area"),
    pytest.param(_set("phases", math.nan), False, "pulse 1", id="nan-phase"),
    pytest.param(_set("areas", 2**1100), False, "pulse 1", id="int-past-the-float-range"),
    pytest.param(_set("levels", "2"), False, "pulse 1: level", id="string-level"),
    pytest.param(_set("breakpoints", "x", 3), False, "breakpoints", id="string-breakpoint"),
    pytest.param(_set("offsets", True, 2), False, "offsets", id="bool-offset"),
    pytest.param(_set("residual_phases", math.nan, 0), False, "residual_phases", id="nan-residual-phase"),
    pytest.param(_set("levels", 1.5), True, "pulse 1", id="fractional-transition"),
    pytest.param(_set("areas", 4.0), True, "pulse 1", id="area-4"),
    pytest.param(_set("dipoles", 0), True, "pulse 1", id="dipole-0"),
    pytest.param(_ragged_row, False, "breakpoints", id="ragged-breakpoint-row"),
    pytest.param(lambda doc: doc["breakpoints"].append(0.0), False, "breakpoints", id="odd-length-breakpoints"),
    pytest.param(lambda doc: doc.update(extra=1.0), False, "extra", id="unknown-key"),
    pytest.param(lambda doc: doc.update(levels=2), False, "levels", id="levels-not-a-list"),
    pytest.param(lambda doc: doc["phases"].pop(), False, "phases", id="column-length-mismatch"),
    pytest.param(lambda doc: doc["offsets"].pop(), False, "offsets", id="offsets-one-short"),
    pytest.param(_set("offsets", 1, 0), False, "offsets", id="offsets-not-starting-at-0"),
    pytest.param(_decreasing_offsets, False, "offsets", id="decreasing-offsets"),
    pytest.param(_shift_offset(-1, 1), False, "offsets", id="offsets-end-off-the-row-count"),
    pytest.param(_shift_offset(1, 0.5), False, "offsets", id="fractional-offset"),
    pytest.param(_per_pulse_document, False, "format 2", id="format-1-document"),
    pytest.param(lambda doc: doc.update(format=3), False, "format 2", id="format-3"),
    pytest.param(lambda doc: doc.update(format=2.0), False, "format 2", id="float-format"),
    # the schedule's own rules: the records oracle meets them in PulseSchedule(...), which names the pulse
    pytest.param(_set("levels", 3), False, "pulse 1", id="transition-3-4-at-d-3"),
    pytest.param(_backwards, False, "pulse 1", id="decreasing-breakpoint-times"),
    pytest.param(_early_start, False, "pulse 1", id="first-breakpoint-at-minus-1"),
]


@pytest.mark.parametrize("edit, prefixed, named", FAULTS)
def test_both_decoders_give_the_same_message_for_one_fault(edit, prefixed, named):
    doc = _doc()
    edit(doc)
    with pytest.raises(ValidationError) as old:
        schedule_from_json_records(doc)
    with pytest.raises(ValidationError) as new:
        schedule_from_json(doc)
    assert str(new.value) == ("pulse 1: " if prefixed else "") + str(old.value)
    assert named in str(new.value)


@pytest.mark.parametrize("edit, prefixed, named", FAULTS)
def test_each_fault_exits_2_through_the_cli_naming_it(tmp_path, capsys, edit, prefixed, named):
    doc = _doc()
    edit(doc)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps({"mode": "simulate", "payload": {"schedule": doc}}))
    assert main(["simulate", "--in", str(problem), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


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


@pytest.mark.parametrize(
    "copy_of", [copy.deepcopy, copy.copy, lambda s: pickle.loads(pickle.dumps(s))], ids=["deepcopy", "copy", "pickle"]
)
def test_copies_keep_equal_read_only_columns(copy_of):
    sched = schedule(random_unitary(np.random.default_rng(1909), 5), FLOOR)
    sched.total_time  # a cached clock is not carried over, only the columns
    twin = copy_of(sched)
    for name in ("levels", "areas", "phases", "dipoles", "breakpoints", "offsets", "residual_phases"):
        column = getattr(twin, name)
        assert np.array_equal(column, getattr(sched, name)) and column.dtype == getattr(sched, name).dtype
        assert not column.flags.writeable
    with pytest.raises(ValueError):
        twin.breakpoints[-1, 0] = 99.0
    assert twin.total_time == sched.total_time and not twin.start_times.flags.writeable
