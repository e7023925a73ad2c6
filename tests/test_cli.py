import csv
import json
import math
import os

import numpy as np
import pytest

import qbond.binding
import qbond.serialization
from qbond.cli import build_parser, main
from qbond.operators import HERMITIAN_ATOL
from qbond.propagation import TRAJECTORY_BUDGET_BYTES, TRAJECTORY_SAMPLES
from qbond.serialization import matrix_to_json, schedule_to_json

from helpers import early_pulse_schedule

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def _run(args, tmp_path, name="out"):
    outdir = str(tmp_path / name)
    code = main(args + ["--out", outdir])
    return code, outdir


def test_binding_product_ground(tmp_path):
    problem = os.path.join(PROBLEMS, "binding_product_ground.json")
    code, outdir = _run(["binding", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "binding_report.json")) as fh:
        doc = json.load(fh)
    assert abs(doc["delta_u_be"]) < 1e-12


def test_binding_singlet(tmp_path):
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    code, outdir = _run(["binding", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "binding_report.json")) as fh:
        doc = json.load(fh)
    assert abs(doc["delta_u_be"] - (-0.5)) < 1e-12


def test_jc_report(tmp_path):
    problem = os.path.join(PROBLEMS, "jc_detuned.json")
    code, outdir = _run(["jc", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "jc_report.json")) as fh:
        doc = json.load(fh)
    assert abs(doc["binding"]["delta_u_be"] - (-0.9)) < 1e-10
    assert doc["flight"]["dissociates"] is True
    energies = [row["energy"] for row in doc["dressed"]]
    assert energies == sorted(energies)


def test_well_report(tmp_path):
    problem = os.path.join(PROBLEMS, "well_standard.json")
    code, outdir = _run(["well", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "well_report.json")) as fh:
        doc = json.load(fh)
    assert doc["level_count"] == 4
    assert doc["tunneling_count"] == 1
    published = [4.2, 18.9, 42.0, 72.3]
    for row, ref in zip(doc["levels"], published):
        assert abs(row["energy_eV"] - ref) / ref < 0.15
    with open(os.path.join(outdir, "well_levels.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "n,E_eV,kind,P,tau_s"
    assert len(lines) == 5


def _wide_well(tmp_path, width_nm):
    problem = {
        "mode": "well",
        "payload": {
            "a": {"value": width_nm, "unit": "nm"},
            "b": {"value": width_nm + 0.05, "unit": "nm"},
            "v0": {"value": 10.0, "unit": "eV"},
            "v0_prime": {"value": 5.0, "unit": "eV"},
        },
    }
    f = tmp_path / "wide.json"
    f.write_text(json.dumps(problem))
    return str(f)


def test_wide_well_reports_every_level(tmp_path):
    code, outdir = _run(["well", "--in", _wide_well(tmp_path, 3000.0), "--format", "json"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "well_report.json")) as fh:
        doc = json.load(fh)
    assert doc["level_count"] == 15471


def test_well_past_level_budget_exits_2(tmp_path, capsys):
    # 1 m at 10 eV holds about 5e9 levels
    code, outdir = _run(["well", "--in", _wide_well(tmp_path, 1e9)], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "MAX_LEVELS" in err and "Traceback" not in err
    assert not os.path.exists(os.path.join(outdir, "well_levels.csv"))


def test_synth_then_simulate_chain(tmp_path):
    problem = os.path.join(PROBLEMS, "synth_two_pair_swap.json")
    code, outdir = _run(["synth", "--in", problem], tmp_path, "synth")
    assert code == 0
    with open(os.path.join(outdir, "schedule.json")) as fh:
        sched_doc = json.load(fh)
    assert sched_doc["format"] == 2 and sched_doc["levels"] == [2, 1, 3, 2]
    ends = [sched_doc["breakpoints"][2 * hi - 2] for hi in sched_doc["offsets"][1:]]
    assert all(1e-10 < t < 1e-7 for t in ends)

    with open(problem) as fh:
        target = json.load(fh)["payload"]["target"]
    sim_problem = {
        "mode": "simulate",
        "payload": {"schedule": sched_doc, "target": target},
    }
    sim_file = tmp_path / "sim.json"
    sim_file.write_text(json.dumps(sim_problem))
    code, outdir = _run(["simulate", "--in", str(sim_file)], tmp_path, "sim")
    assert code == 0
    with open(os.path.join(outdir, "simulate_report.json")) as fh:
        report = json.load(fh)
    assert report["fidelity_to_target"] >= 1.0 - 1e-6
    assert report["unitarity_drift"] < 1e-9


def test_simulate_bundled_example(tmp_path):
    problem = os.path.join(PROBLEMS, "simulate_half_swap.json")
    code, outdir = _run(["simulate", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "simulate_report.json")) as fh:
        report = json.load(fh)
    assert report["fidelity_to_target"] >= 1.0 - 1e-6
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0].startswith("t,U_energy,purity,pop_1")
    last = lines[-1].split(",")
    # ground population fully transferred by the half swap
    assert abs(float(last[3])) < 1e-6
    assert abs(float(last[4]) - 1.0) < 1e-6


def test_simulate_bad_step_count_is_validation_error(tmp_path, capsys):
    with open(os.path.join(PROBLEMS, "simulate_half_swap.json")) as fh:
        problem = json.load(fh)
    for steps in (0, -1, 2.5):
        problem["payload"]["steps_per_segment"] = steps
        f = tmp_path / "p.json"
        f.write_text(json.dumps(problem))
        code = main(["simulate", "--in", str(f), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "steps_per_segment" in capsys.readouterr().err


def test_envelope_csv_samples_every_pulse(tmp_path):
    problem = os.path.join(PROBLEMS, "synth_two_pair_swap.json")
    code, outdir = _run(["synth", "--in", problem], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "envelope.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "time,amplitude,transition"
    seen = {line.split(",")[2] for line in lines[1:]}
    assert seen == {"2-3", "1-2", "3-4"}
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(times, times[1:]))


def test_mode_mismatch_is_validation_error(tmp_path):
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    code = main(["jc", "--in", problem, "--out", str(tmp_path)])
    assert code == 2


def test_bad_json_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["binding", "--in", str(bad), "--out", str(tmp_path)])
    assert code == 2


def test_missing_file_is_validation_error(tmp_path):
    code = main(["binding", "--in", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert code == 2


def test_unknown_payload_key_rejected(tmp_path):
    problem = {
        "mode": "jc",
        "payload": {"omega_a": 1.0, "omega_b": 2.0, "g": 0.1, "initial": "-", "bogus": 1},
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    code = main(["jc", "--in", str(f), "--out", str(tmp_path)])
    assert code == 2


def test_unphysical_input_is_validation_error(tmp_path):
    # trace != 1 density matrix must be refused
    problem = {
        "mode": "binding",
        "payload": {
            "rho0": {"dim": 2, "re": [[0.7, 0.0], [0.0, 0.7]], "im": [[0, 0], [0, 0]]},
            "h_free": {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]},
            "h_int": {"dim": 2, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        },
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    code = main(["binding", "--in", str(f), "--out", str(tmp_path)])
    assert code == 2


def test_non_finite_input_is_validation_error(tmp_path, capsys):
    nan = float("nan")
    problem = {
        "mode": "binding",
        "payload": {
            "rho0": {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0, 0], [0, 0]]},
            "h_free": {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]},
            "h_int": {"dim": 2, "re": [[0.0, nan], [nan, 0.0]], "im": [[0, 0], [0, 0]]},
        },
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    code, outdir = _run(["binding", "--in", str(f)], tmp_path)
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(outdir, "binding_report.json"))


def test_outputs_are_deterministic(tmp_path):
    problem = os.path.join(PROBLEMS, "well_standard.json")
    _, out1 = _run(["well", "--in", problem], tmp_path, "one")
    _, out2 = _run(["well", "--in", problem], tmp_path, "two")
    for name in ("well_report.json", "well_levels.csv"):
        with open(os.path.join(out1, name)) as fh:
            a = fh.read()
        with open(os.path.join(out2, name)) as fh:
            b = fh.read()
        assert a == b


def test_csv_format_flag_adds_level_table(tmp_path):
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    code, outdir = _run(["binding", "--in", problem, "--format", "csv"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "binding_levels.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "level,energy,population"
    pops = [float(line.split(",")[2]) for line in lines[1:]]
    assert abs(sum(pops) - 1.0) < 1e-9
    # passive ordering: nonincreasing populations up the ladder
    assert all(b <= a + 1e-12 for a, b in zip(pops, pops[1:]))


def test_tol_flag_loosens_validation(tmp_path):
    # slightly imperfect hermiticity: rejected by default, accepted with --tol
    eps = 1e-9
    problem = {
        "mode": "binding",
        "payload": {
            "rho0": {"dim": 2, "re": [[1.0, eps], [0.0, 0.0]], "im": [[0, 0], [0, 0]]},
            "h_free": {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]},
            "h_int": {"dim": 2, "re": [[0, 0], [0, 0]], "im": [[0, 0], [0, 0]]},
        },
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    assert main(["binding", "--in", str(f), "--out", str(tmp_path / "a")]) == 2
    assert main(["binding", "--in", str(f), "--out", str(tmp_path / "b"), "--tol", "1e-6"]) == 0


def _edited(name, edit):
    with open(os.path.join(PROBLEMS, name)) as fh:
        problem = json.load(fh)
    edit(problem["payload"])
    return problem


def _set_pulse(column, value):
    def edit(payload):
        payload["schedule"][column][0] = value
    return edit


def _drop_target_nan_phase(payload):
    del payload["target"]
    payload["schedule"]["phases"][0] = float("nan")


@pytest.mark.parametrize(
    "name, edit, field",
    [
        pytest.param("simulate_half_swap.json", _set_pulse("areas", "abc"), "area", id="area-string"),
        pytest.param("simulate_half_swap.json", _set_pulse("phases", None), "phase", id="phase-null"),
        pytest.param("simulate_half_swap.json", _drop_target_nan_phase, "phase", id="phase-nan"),
        pytest.param(
            "binding_singlet.json",
            lambda p: p["h_int"]["re"][0].__setitem__(0, "x"),
            "h_int",
            id="matrix-entry-string",
        ),
        pytest.param(
            "synth_two_pair_swap.json",
            lambda p: p["constraints"].update(amplitude_max="big"),
            "amplitude_max",
            id="constraint-string",
        ),
        pytest.param(
            "synth_two_pair_swap.json",
            lambda p: p.update(dipoles={"x": 1.0}),
            "dipoles",
            id="dipoles-key",
        ),
        pytest.param(
            "simulate_half_swap.json",
            lambda p: p["schedule"].update(total_time=99.0),
            "total_time",
            id="total-time-off-the-durations",
        ),
    ],
)
def test_bad_number_in_problem_file_exits_2_naming_the_field(tmp_path, capsys, name, edit, field):
    problem = _edited(name, edit)
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main([problem["mode"], "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "mode, name",
    [
        ("jc", "jc_detuned.json"),
        ("well", "well_standard.json"),
        ("synth", "synth_two_pair_swap.json"),
        ("simulate", "simulate_half_swap.json"),
    ],
)
def test_tol_flag_is_refused_where_nothing_reads_it(tmp_path, mode, name):
    problem = os.path.join(PROBLEMS, name)
    with pytest.raises(SystemExit) as exc:
        main([mode, "--in", problem, "--out", str(tmp_path), "--tol", "1e-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-6", "abc"])
def test_binding_tol_must_be_finite_and_positive(tmp_path, capsys, tol):
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    with pytest.raises(SystemExit) as exc:
        main(["binding", "--in", problem, "--out", str(tmp_path / "out"), f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_qbond_tol_environment_variable_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("QBOND_TOL", "abc")
    problem = os.path.join(PROBLEMS, "well_standard.json")
    assert main(["well", "--in", problem, "--out", str(tmp_path)]) == 0


def test_cached_parser_carries_no_state_between_calls(tmp_path, monkeypatch, capsys):
    seen = []
    original = qbond.binding.binding_energy

    def recording(*args, **kwargs):
        seen.append(kwargs["atol"])
        return original(*args, **kwargs)

    monkeypatch.setattr(qbond.binding, "binding_energy", recording)
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    assert main(["binding", "--in", problem, "--out", str(tmp_path / "a"), "--tol", "1e-6", "--format", "csv"]) == 0
    assert main(["binding", "--in", problem, "--out", str(tmp_path / "b")]) == 0
    assert seen == [1e-6, HERMITIAN_ATOL]
    assert sorted(os.listdir(tmp_path / "b")) == ["binding_report.json"]
    for bad in (["binding", "--in", problem, "--tol", "nan"], ["binding", "--format", "csv"], []):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["binding", "--in", problem, "--out", str(tmp_path / "c")]) == 0
    assert seen[-1] == HERMITIAN_ATOL
    assert capsys.readouterr().out == os.path.join(str(tmp_path / "c"), "binding_report.json") + "\n"
    assert build_parser() is build_parser()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_report_value_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, value):
    original = qbond.serialization.binding_report_to_json
    monkeypatch.setattr(
        qbond.serialization, "binding_report_to_json", lambda report: {**original(report), "delta_u_be": value}
    )
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    outdir = tmp_path / "out"
    assert main(["binding", "--in", problem, "--out", str(outdir), "--format", "csv"]) == 3
    err = capsys.readouterr().err
    assert "binding_report.json" in err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_trajectory_past_memory_budget_exits_3(tmp_path, capsys):
    # the smallest d whose three (201, d, d) complex stacks exceed the budget
    d = math.isqrt(TRAJECTORY_BUDGET_BYTES // (3 * TRAJECTORY_SAMPLES * 16)) + 1

    def widen(payload):
        del payload["target"]
        payload["schedule"]["residual_phases"] = [0.0] * d
        zeros = [[0.0] * d for _ in range(d)]
        payload["rho0"] = {"dim": d, "re": [[float(i == j == 0) for j in range(d)] for i in range(d)], "im": zeros}

    f = tmp_path / "p.json"
    f.write_text(json.dumps(_edited("simulate_half_swap.json", widen)))
    outdir = tmp_path / "out"
    assert main(["simulate", "--in", str(f), "--out", str(outdir), "--format", "csv"]) == 3
    err = capsys.readouterr().err
    assert "TRAJECTORY_BUDGET_BYTES" in err
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("sub", ["", "x"], ids=["out_is_a_file", "out_under_a_file"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, sub):
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    outdir = os.path.join(str(blocker), sub) if sub else str(blocker)
    problem = os.path.join(PROBLEMS, "binding_singlet.json")
    assert main(["binding", "--in", problem, "--out", outdir]) == 2
    err = capsys.readouterr().err
    assert outdir in err
    assert "Traceback" not in err
    assert blocker.read_text() == "kept\n"


def _table(outdir, name):
    with open(os.path.join(outdir, name), newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", ["binding_singlet.json", "binding_product_ground.json"])
def test_binding_levels_csv_parses_back_to_its_report(tmp_path, name):
    problem = os.path.join(PROBLEMS, name)
    code, outdir = _run(["binding", "--in", problem, "--format", "csv"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "binding_report.json")) as fh:
        passive = json.load(fh)["passive_state"]["re"]
    with open(problem) as fh:
        h_free = json.load(fh)["payload"]["h_free"]["re"]
    rows = _table(outdir, "binding_levels.csv")
    # both bundled h_free are diagonal, so the levels are its sorted diagonal
    assert [int(r["level"]) for r in rows] == list(range(1, len(h_free) + 1))
    assert [float(r["energy"]) for r in rows] == sorted(h_free[k][k] for k in range(len(h_free)))
    assert [float(r["population"]) for r in rows] == [passive[k][k] for k in range(len(passive))]


def test_jc_levels_csv_parses_back_to_its_report(tmp_path):
    problem = os.path.join(PROBLEMS, "jc_detuned.json")
    code, outdir = _run(["jc", "--in", problem, "--format", "csv"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "jc_report.json")) as fh:
        dressed = json.load(fh)["dressed"]
    rows = _table(outdir, "jc_levels.csv")
    assert [(r["label"], float(r["energy"])) for r in rows] == [(x["label"], x["energy"]) for x in dressed]


def _well_50nm(tmp_path):
    f = tmp_path / "well_50nm.json"
    problem = _edited("well_standard.json", lambda p: p.update(b={"value": 50, "unit": "nm"}))
    f.write_text(json.dumps(problem))
    return str(f)


@pytest.mark.parametrize("wide", [False, True], ids=["standard", "b_50nm"])
def test_well_levels_csv_parses_back_to_its_report(tmp_path, wide):
    problem = _well_50nm(tmp_path) if wide else os.path.join(PROBLEMS, "well_standard.json")
    code, outdir = _run(["well", "--in", problem, "--format", "json"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "well_report.json")) as fh:
        levels = json.load(fh)["levels"]
    rows = _table(outdir, "well_levels.csv")
    assert len(rows) == len(levels)
    for row, level in zip(rows, levels):
        assert int(row["n"]) == level["n"]
        assert float(row["E_eV"]) == level["energy_eV"]
        assert row["kind"] == level["kind"]
        assert (float(row["P"]) if row["P"] else None) == level["transmission"]
        # an infinite time has no strict-JSON value, so the report holds null
        tau = float(row["tau_s"]) if row["tau_s"] else None
        assert (None if tau == math.inf else tau) == level["tunneling_time_s"]


def test_well_level_that_never_escapes_has_an_infinite_time(tmp_path):
    # at b = 50 nm the tunneling level's transmission underflows to 0
    problem = _well_50nm(tmp_path)
    code, outdir = _run(["well", "--in", problem, "--format", "json"], tmp_path)
    assert code == 0
    with open(os.path.join(outdir, "well_levels.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[4].startswith("4,") and lines[4].endswith(",tunneling,0.0,inf")
    with open(os.path.join(outdir, "well_report.json")) as fh:
        level = json.load(fh)["levels"][3]
    assert level["transmission"] == 0.0 and level["tunneling_time_s"] is None


def _target_3x3(payload):
    payload["target"] = {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}


def _no_residual_phases(payload):
    payload["schedule"]["residual_phases"] = []


def _early_pulse(payload):
    # pulse 1's envelope moved 1 earlier in the document
    del payload["rho0"]
    sched, target = early_pulse_schedule(0.0)
    doc = schedule_to_json(sched)
    lo, hi = doc["offsets"][1:3]
    for i in range(2 * lo, 2 * hi, 2):
        doc["breakpoints"][i] -= 1.0
    payload["schedule"] = doc
    payload["target"] = matrix_to_json(target)


@pytest.mark.parametrize(
    "edit, words",
    [
        pytest.param(_target_3x3, ["target", "dimension 2"], id="target-of-another-dimension"),
        pytest.param(_no_residual_phases, ["residual_phases"], id="empty-residual-phases"),
        pytest.param(_early_pulse, ["pulse 1", "breakpoint"], id="envelope-before-its-pulse"),
    ],
)
def test_malformed_simulate_schedule_exits_2_naming_it(tmp_path, capsys, edit, words):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(_edited("simulate_half_swap.json", edit)))
    outdir = tmp_path / "out"
    assert main(["simulate", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_jc_flight_angle_past_the_float_range_exits_3(tmp_path, capsys):
    f = tmp_path / "p.json"
    problem = _edited("jc_detuned.json", lambda p: p.update(path_length=1e300, velocity=1e-10))
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["jc", "--in", str(f), "--out", str(outdir)]) == 3
    err = capsys.readouterr().err
    assert "flight angle overflows" in err and "Traceback" not in err
    assert not outdir.exists()


def test_synth_with_subnormal_slews_exits_2_naming_both(tmp_path, capsys):
    problem = {
        "mode": "synth",
        "payload": {
            "target": {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
            "constraints": {"amplitude_max": 1.0, "slew_max": 1e-310, "slew_min": -1e-310},
        },
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["synth", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "slew_max" in err and "slew_min" in err and "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("unit", [[], {}, ["eV"]], ids=["list", "object", "list-of-unit"])
def test_well_unit_that_is_not_a_string_exits_2(tmp_path, capsys, unit):
    problem = _edited("well_standard.json", lambda p: p["v0"].update(unit=unit))
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["well", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "v0: unknown unit" in err and "Traceback" not in err
    assert not outdir.exists()


def test_synth_with_an_envelope_that_underflows_exits_2(tmp_path, capsys):
    # slews of 1e-300 shape the area pi / 2 / 1e300 into a triangle whose peak underflows to 0
    problem = {
        "mode": "synth",
        "payload": {
            "target": {"dim": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]},
            "constraints": {"amplitude_max": 1.0, "slew_max": 1e-300, "slew_min": -1e-300},
            "dipoles": 1e300,
        },
    }
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["synth", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "underflows" in err and "Traceback" not in err
    assert not outdir.exists()


HOSTILE = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e-320, 0, -1, 2**63, True, None, "x", [], {}, [1.0]]
_DROP = object()


def _leaves(node, path=()):
    """Paths to the scalar leaves of a payload; of a list of lists (matrix rows, breakpoints) only the first."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        rows = node[:1] if node and all(isinstance(x, list) for x in node) else node
        for i, child in enumerate(rows):
            yield from _leaves(child, path + (i,))
    else:
        yield path


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_cli_sweep_exits_0_2_or_3_and_writes_only_standard_json(tmp_path, capsys):
    # every payload leaf of every bundled problem, replaced by each hostile value or dropped
    crashes, bad_codes = [], []
    f, outdir = tmp_path / "p.json", tmp_path / "out"
    for name in sorted(os.listdir(PROBLEMS)):
        with open(os.path.join(PROBLEMS, name)) as fh:
            problem = json.load(fh)
        for path in _leaves(problem["payload"]):
            for value in HOSTILE + [_DROP]:
                doc = json.loads(json.dumps(problem))
                *head, last = path
                parent = doc["payload"]
                for key in head:
                    parent = parent[key]
                if value is _DROP:
                    del parent[last]
                else:
                    parent[last] = value
                f.write_text(json.dumps(doc))
                case = (name, path, "drop" if value is _DROP else value)
                try:
                    code = main([doc["mode"], "--in", str(f), "--out", str(outdir)])
                except Exception as exc:  # collected, so one run reports every escape
                    crashes.append((case, repr(exc)))
                    continue
                if code not in (0, 2, 3):
                    bad_codes.append((case, code))
                if outdir.exists():
                    for out in outdir.iterdir():
                        if out.suffix == ".json":
                            json.loads(out.read_text(), parse_constant=_refuse_constant)
                        out.unlink()
                capsys.readouterr()
    assert not crashes, crashes[:5]
    assert not bad_codes, bad_codes[:5]


def test_simulate_with_a_target_that_is_not_unitary_exits_2(tmp_path, capsys):
    # an entry of 1e308 used to give a fidelity near 9e291
    problem = _edited("simulate_half_swap.json", lambda p: p["target"]["im"][0].__setitem__(0, 1e308))
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["simulate", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert "target: matrix is not unitary" in err and "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize(
    "edit, words",
    [
        pytest.param(
            lambda p: p["constraints"].update(amplitude_max=1e-320),
            ["amplitude_max 1e-320", "non-finite duration"],
            id="tiny-amplitude-max",
        ),
        pytest.param(lambda p: p.update(dipoles=1e-320), ["dipole 1e-320", "non-finite duration"], id="tiny-dipole"),
        pytest.param(
            lambda p: p.update(
                constraints={"amplitude_max": 2.0, "amplitude_min": 1.0, "slew_max": 1.0, "slew_min": -1.0},
                dipoles=1e40,
            ),
            ["realizes 0.0", "baseline 1.0"],
            id="peak-absorbed-by-the-baseline",
        ),
    ],
)
def test_synth_envelope_that_cannot_be_played_exits_2_naming_it(tmp_path, capsys, edit, words):
    # a tiny cap or dipole made an infinite duration (exit 3 on writing); a huge dipole a flat envelope (exit 0)
    problem = _edited("synth_two_pair_swap.json", edit)
    f = tmp_path / "p.json"
    f.write_text(json.dumps(problem))
    outdir = tmp_path / "out"
    assert main(["synth", "--in", str(f), "--out", str(outdir)]) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words) and "transition (" in err and "Traceback" not in err, err
    assert not outdir.exists()
