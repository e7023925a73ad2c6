"""Command-line interface.

One binary, five subcommands (binding, jc, well, synth, simulate), all
sharing the same calling shape:

    qbond <mode> --in problem.json --out outdir [--format json|csv]

plus `--tol X` (a finite Hermiticity tolerance above zero) on binding only.
The problem file is {"mode": <mode>, "payload": {...}}; the mode in the
file must match the subcommand and its numbers must be finite. Outputs are
deterministic files with fixed names. Every output of a call is encoded
before any is written, and JSON reports are strict: a non-finite number
in one writes nothing. Exit codes: 0 on success, 2 on validation errors
(bad schema, unphysical input, an output path that cannot be written), 3
on numerical failure (non-convergence, a non-finite report value, a
trajectory past its memory budget).

The argparse tree is built once per process, on the first call to main,
and reused by every later call; parse_args keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import binding as binding_mod
from . import jaynes_cummings as jc_mod
from . import pulse_synthesis as synth_mod
from . import propagation as prop_mod
from . import serialization as ser
from . import tunneling_well as well_mod
from .constants import ANGSTROM_M, ELECTRON_MASS_KG, ELECTRON_VOLT_J, NANOMETER_M, joule_to_ev
from .errors import NumericalError, ValidationError
from .operators import HERMITIAN_ATOL, hermitian_eigendecomposition

LENGTH_UNITS = {"m": 1.0, "nm": NANOMETER_M, "angstrom": ANGSTROM_M}
ENERGY_UNITS = {"J": 1.0, "eV": ELECTRON_VOLT_J}
MASS_UNITS = {"kg": 1.0, "m_e": ELECTRON_MASS_KG}


def _quantity(obj, units: dict, what: str) -> float:
    ser.require_keys(obj, {"value", "unit"}, what=what)
    unit = obj["unit"]
    if not (isinstance(unit, str) and unit in units):
        raise ValidationError(f"{what}: unknown unit {unit!r}, expected one of {sorted(units)}")
    return ser._number(obj["value"], what, "value") * units[unit]


def _load_problem(path: str, mode: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"problem file {path} is not valid JSON: {exc}") from exc
    ser.require_keys(doc, {"mode", "payload"}, what="problem file")
    if doc["mode"] != mode:
        raise ValidationError(f"problem file mode {doc['mode']!r} does not match subcommand {mode!r}")
    return doc["payload"]


def _write(outdir: str, outputs: list[tuple[str, object]]) -> list[str]:
    """Write (name, content) outputs under outdir and return their paths.

    A str is written as it is; anything else is one strict JSON document
    (indent 2, trailing newline). Every output is encoded first, so a
    document holding NaN or an infinity raises NumericalError naming it
    and nothing is written. An OSError while writing (outdir is a file, or
    under one) raises ValidationError naming the path.
    """
    texts = []
    for name, content in outputs:
        if not isinstance(content, str):
            try:
                content = json.dumps(content, indent=2, allow_nan=False) + "\n"
            except ValueError as exc:
                raise NumericalError(f"{name} not written: {exc}") from exc
        texts.append((os.path.join(outdir, name), content))
    try:
        os.makedirs(outdir, exist_ok=True)
        for path, text in texts:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write outputs to {outdir}: {exc}") from exc
    return [path for path, _ in texts]


def run_binding(payload: dict, args) -> list[tuple[str, object]]:
    ser.require_keys(payload, {"rho0", "h_free", "h_int"}, what="binding payload")
    rho0 = ser.matrix_from_json(payload["rho0"], what="rho0")
    h_free = ser.matrix_from_json(payload["h_free"], what="h_free")
    h_int = ser.matrix_from_json(payload["h_int"], what="h_int")
    report = binding_mod.binding_energy(rho0, h_free, h_int, atol=args.tol)
    outputs = [("binding_report.json", ser.binding_report_to_json(report))]
    if args.format == "csv":
        spec = hermitian_eigendecomposition(h_free)
        pops = np.real(np.diag(spec.eigenvectors.conj().T @ report.passive_state @ spec.eigenvectors))
        rows = zip(range(1, len(pops) + 1), spec.eigenvalues.tolist(), pops.tolist())
        outputs.append(("binding_levels.csv", ser.csv_table(("level", "energy", "population"), rows)))
    return outputs


def run_jc(payload: dict, args) -> list[tuple[str, object]]:
    ser.require_keys(
        payload,
        {"omega_a", "omega_b", "g", "initial"},
        optional={"path_length", "velocity"},
        what="jc payload",
    )
    params = jc_mod.JCParams(
        **{k: ser._number(payload[k], "jc payload", k) for k in ("omega_a", "omega_b", "g")}
    )
    basis = jc_mod.dressed_states(params)
    levels = list(zip(basis.labels, basis.energies.tolist()))
    report = jc_mod.jc_binding_energy(params, str(payload["initial"]))
    doc = {
        "params": {"omega_a": params.omega_a, "omega_b": params.omega_b, "g": params.g},
        "initial": payload["initial"],
        "mixing_angle": basis.mixing_angle,
        "printed_formula_mixing_angle": jc_mod.printed_mixing_angle(params),
        "dressed": [{"label": lab, "energy": e} for lab, e in levels],
        "dressed_vectors": ser.matrix_to_json(basis.vectors),
        "binding": ser.binding_report_to_json(report),
    }
    if ("path_length" in payload) != ("velocity" in payload):
        raise ValidationError("path_length and velocity must be given together")
    if "path_length" in payload:
        flight = jc_mod.flight_phase(
            params,
            ser._number(payload["path_length"], "jc payload", "path_length"),
            ser._number(payload["velocity"], "jc payload", "velocity"),
        )
        doc["flight"] = {
            "flight_time": flight.flight_time,
            "accumulated_angle": flight.accumulated_angle,
            "dissociates": flight.dissociates,
        }
    outputs = [("jc_report.json", doc)]
    if args.format == "csv":
        outputs.append(("jc_levels.csv", ser.csv_table(("label", "energy"), levels)))
    return outputs


def run_well(payload: dict, args) -> list[tuple[str, object]]:
    ser.require_keys(
        payload, {"a", "b", "v0", "v0_prime"}, optional={"mass"}, what="well payload"
    )
    geometry = well_mod.WellGeometry(
        well_width=_quantity(payload["a"], LENGTH_UNITS, "a"),
        barrier_end=_quantity(payload["b"], LENGTH_UNITS, "b"),
        barrier_height=_quantity(payload["v0"], ENERGY_UNITS, "v0"),
        plateau_height=_quantity(payload["v0_prime"], ENERGY_UNITS, "v0_prime"),
        mass=_quantity(payload["mass"], MASS_UNITS, "mass") if "mass" in payload else ELECTRON_MASS_KG,
    )
    states = well_mod.classify_levels(geometry, well_mod.bound_state_energies(geometry))
    rows = []
    for s in states:
        p = tau = None
        if s.kind == well_mod.KIND_TUNNELING:
            p = well_mod.wkb_transmission(geometry, s.energy)
            tau = well_mod.tunneling_time(geometry, s.energy, p).tunneling_time
        rows.append({"n": s.index, "E_eV": joule_to_ev(s.energy), "kind": s.kind, "P": p, "tau_s": tau})
    outputs = [("well_levels.csv", ser.well_levels_csv(rows))]
    if args.format == "json":
        doc = {
            "geometry": {
                "well_width_m": geometry.well_width,
                "barrier_end_m": geometry.barrier_end,
                "barrier_height_eV": joule_to_ev(geometry.barrier_height),
                "plateau_height_eV": joule_to_ev(geometry.plateau_height),
                "mass_kg": geometry.mass,
            },
            "level_count": len(states),
            "tunneling_count": sum(1 for s in states if s.kind == well_mod.KIND_TUNNELING),
            "levels": [
                {
                    "n": r["n"],
                    "energy_J": s.energy,
                    "energy_eV": r["E_eV"],
                    "kind": r["kind"],
                    "transmission": r["P"],
                    # strict JSON has no infinity: a level that never escapes gets a null time
                    "tunneling_time_s": None if r["tau_s"] == math.inf else r["tau_s"],
                }
                for s, r in zip(states, rows)
            ],
        }
        outputs.append(("well_report.json", doc))
    return outputs


def _constraints_from_payload(obj) -> synth_mod.PulseConstraints:
    ser.require_keys(
        obj,
        {"amplitude_max"},
        optional={"amplitude_min", "slew_max", "slew_min"},
        what="constraints",
    )
    # an absent field keeps the PulseConstraints default
    return synth_mod.PulseConstraints(**{k: ser._number(v, "constraints", k) for k, v in obj.items()})


def _dipoles_from_payload(obj):
    if not isinstance(obj, dict):
        return None if obj is None else ser._number(obj, "payload", "dipoles")
    if not all(str(k).isdecimal() for k in obj):
        raise ValidationError(f"payload: dipoles keys must be integer levels, got {list(obj)!r}")
    return {int(k): ser._number(v, "payload", "dipoles") for k, v in obj.items()}


def run_synth(payload: dict, args) -> list[tuple[str, object]]:
    ser.require_keys(payload, {"target", "constraints"}, optional={"dipoles"}, what="synth payload")
    target = ser.matrix_from_json(payload["target"], what="target")
    constraints = _constraints_from_payload(payload["constraints"])
    dipoles = _dipoles_from_payload(payload.get("dipoles"))
    sched = synth_mod.schedule(target, constraints, dipoles=dipoles)
    return [
        ("schedule.json", ser.schedule_to_json(sched)),
        ("envelope.csv", ser.envelope_csv(sched)),
    ]


def run_simulate(payload: dict, args) -> list[tuple[str, object]]:
    ser.require_keys(
        payload,
        {"schedule"},
        optional={"target", "rho0", "dipoles", "steps_per_segment"},
        what="simulate payload",
    )
    sched = ser.schedule_from_json(payload["schedule"])
    target = ser.matrix_from_json(payload["target"], what="target") if "target" in payload else None
    rho0 = ser.matrix_from_json(payload["rho0"], what="rho0") if "rho0" in payload else None
    dipoles = _dipoles_from_payload(payload.get("dipoles"))
    steps = payload.get("steps_per_segment", prop_mod.STEPS_PER_SEGMENT)
    result = prop_mod.simulate_schedule(
        sched, dipoles=dipoles, target=target, rho0=rho0, steps_per_segment=steps
    )
    u = result.final_unitary
    drift = float(np.abs(u @ u.conj().T - np.eye(sched.dimension)).max())
    doc = {
        "total_time": sched.total_time,
        "pulse_count": len(sched.pulses),
        "unitarity_drift": drift,
        "final_unitary": ser.matrix_to_json(u),
        "fidelity_to_target": result.fidelity_to_target,
    }
    outputs = [("simulate_report.json", doc)]
    if rho0 is not None and result.state_trajectory:
        table = ser.trajectory_csv(result.times, result.state_trajectory, result.energy_trajectory)
        outputs.append(("trajectory.csv", table))
    return outputs


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above zero, got {text!r}")
    return value


RUNNERS = {
    "binding": run_binding,
    "jc": run_jc,
    "well": run_well,
    "synth": run_synth,
    "simulate": run_simulate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbond",
        description="Binding energies of bipartite quantum systems and minimum-time pulse schedules.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, helptext in [
        ("binding", "binding energy and passive endpoint of a state"),
        ("jc", "dressed states and binding energy of the atom-field example"),
        ("well", "bound levels and tunneling estimates for a step well"),
        ("synth", "decompose a target unitary into shaped pulses"),
        ("simulate", "propagate a shaped schedule and report fidelity"),
    ]:
        p = sub.add_parser(mode, help=helptext)
        p.add_argument("--in", dest="infile", required=True, help="problem JSON file")
        p.add_argument("--out", dest="out", default=".", help="output directory")
        if mode == "binding":
            p.add_argument("--tol", type=_tolerance, default=HERMITIAN_ATOL, help="Hermiticity tolerance")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output flavor")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = _load_problem(args.infile, args.mode)
        written = _write(args.out, RUNNERS[args.mode](payload, args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
