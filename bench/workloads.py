"""The three seeded workloads: inputs, one timed item, and its correctness gate.

A workload is driven as a closed loop by worker.py: one caller, the next
item starting when the previous one finishes. The inputs of item i depend
only on (seed, i), so every item of a run gets fresh inputs and a run at a
fixed seed sees the same inputs in the same order. Items follow a fixed
rotation of item kinds; a run always ends on a rotation boundary, so every
run holds the same mix of kinds.

``run`` is the timed part of an item. ``check`` is the correctness gate;
it runs outside the timed part, raises CheckFailed on a wrong output and
returns the work counts that only the outputs show.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from qbond import (
    binding,
    cli,
    operators,
    propagation,
    pulse_synthesis,
    serialization,
    tunneling_well,
)
from qbond.constants import ANGSTROM_M, ELECTRON_MASS_KG, ELECTRON_VOLT_J, HBAR_JS

# amplitude cap 1 with slews of +-1: areas above 1 (over the dipole) need a
# trapezoid, smaller ones a triangle, so both envelope kinds occur
CONSTRAINTS = pulse_synthesis.PulseConstraints(amplitude_max=1.0, slew_max=1.0, slew_min=-1.0)
COUPLING_SCALE = 0.1
INFIDELITY_MAX = 1e-9
ENERGY_ATOL = 1e-9
RECONSTRUCT_ATOL = 1e-10
QUADRATURE_RTOL = 1e-8

STREAM_WARM_UP = 0
STREAM_ITEMS = 1
STREAM_FILES = 2


class CheckFailed(Exception):
    """An item's output is wrong."""


def json_text(doc) -> str:
    """Schedule document to JSON text; traced as part of the serialization layer."""
    return json.dumps(doc)


def json_parse(text: str):
    """JSON text back to a document; traced as part of the serialization layer."""
    return json.loads(text)


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def _random_hermitian(rng, d: int, scale: float) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = 0.5 * (g + g.conj().T)
    return scale * g / np.abs(np.linalg.eigvalsh(g)).max()


def _gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    p = np.exp(-beta * (w - w.min()))
    rho = (v * (p / p.sum())) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def _haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _dipoles(rng, d: int) -> dict[int, float]:
    return {k: float(rng.uniform(0.5, 2.0)) for k in range(1, d)}


@dataclass(frozen=True)
class BondSystem:
    """Bipartite system: sorted local spectra, a Hermitian coupling, a thermal rho0."""

    h_free: np.ndarray
    h_int: np.ndarray
    beta: float
    dipoles: dict
    trajectory: bool = False

    @property
    def dimension(self) -> int:
        return self.h_free.shape[0]


def bond_system(rng, levels_a: int, levels_b: int, trajectory: bool = False) -> BondSystem:
    e_a = np.sort(rng.uniform(0.0, 1.0, levels_a))
    e_b = np.sort(rng.uniform(0.0, 1.0, levels_b))
    h_free = np.kron(np.diag(e_a), np.eye(levels_b)) + np.kron(np.eye(levels_a), np.diag(e_b))
    d = levels_a * levels_b
    return BondSystem(
        h_free=h_free.astype(complex),
        h_int=_random_hermitian(rng, d, COUPLING_SCALE),
        beta=float(rng.uniform(1.0, 4.0)),
        dipoles=_dipoles(rng, d),
        trajectory=trajectory,
    )


def _bond_schedule(x: BondSystem):
    """thermal_state -> binding_energy -> schedule -> JSON text round trip."""
    rho = binding.thermal_state(x.h_free + x.h_int, x.beta)
    report = binding.binding_energy(rho, x.h_free, x.h_int)
    sched = pulse_synthesis.schedule(report.optimal_unitary, CONSTRAINTS, dipoles=x.dipoles)
    text = json_text(serialization.schedule_to_json(sched))
    return rho, report, serialization.schedule_from_json(json_parse(text))


class PipelineSmall:
    """The bond-breaking pipeline ending in a time-ordered simulation.

    Items rotate over d = 4, 6, 8, 6, 8 and every other item replays the
    state trajectory. d = 6 and d = 8 come twice per five items so that the
    median item and the tail item each fall inside one kind of item rather
    than on the boundary between two.
    """

    name = "pipeline_small"
    sizes = ((2, 2), (2, 3), (2, 4), (2, 3), (2, 4))
    rotation = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, i: int) -> BondSystem:
        a, b = self.sizes[i % len(self.sizes)]
        return bond_system(_rng(self.seed, STREAM_ITEMS, i), a, b, trajectory=i % 2 == 1)

    def warm_up(self) -> None:
        x = bond_system(_rng(self.seed, STREAM_WARM_UP, 0), 2, 2, trajectory=True)
        self.check(x, self.run(x))

    def run(self, x: BondSystem):
        rho, report, sched = _bond_schedule(x)
        result = propagation.simulate_schedule(
            sched,
            dipoles=x.dipoles,
            target=report.optimal_unitary,
            rho0=rho if x.trajectory else None,
        )
        return rho, report, sched, result

    def check(self, x: BondSystem, out) -> dict:
        rho, report, sched, result = out
        infidelity = 1.0 - result.fidelity_to_target
        if not infidelity <= INFIDELITY_MAX:
            raise CheckFailed(f"1 - fidelity = {infidelity:.3e} exceeds {INFIDELITY_MAX:.0e}")
        u = result.final_unitary @ sched.residual_matrix().conj().T
        rho_final = u @ rho @ u.conj().T
        passive, diagnostics = propagation.verify_passive(rho_final, x.h_free)
        if not passive:
            raise CheckFailed(f"final state is not passive: {diagnostics['violation']}")
        gap = abs(operators.average_energy(rho_final, x.h_free) - report.final_energy)
        if not gap <= ENERGY_ATOL:
            raise CheckFailed(f"final energy differs from the report by {gap:.3e}")
        if x.trajectory and not result.state_trajectory:
            raise CheckFailed("rho0 was given but no trajectory came back")
        return {}


class SynthWide:
    """Synthesis at d = 32, 48, 64 with no propagation."""

    name = "synth_wide"
    sizes = ((4, 8), (6, 8), (8, 8))
    rotation = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, i: int) -> BondSystem:
        a, b = self.sizes[i % len(self.sizes)]
        return bond_system(_rng(self.seed, STREAM_ITEMS, i), a, b)

    def warm_up(self) -> None:
        x = bond_system(_rng(self.seed, STREAM_WARM_UP, 0), 2, 4)
        self.check(x, self.run(x))

    def run(self, x: BondSystem):
        _, report, sched = _bond_schedule(x)
        return report, sched, sched.reconstruct()

    def check(self, x: BondSystem, out) -> dict:
        report, sched, rebuilt = out
        err = float(np.abs(rebuilt - report.optimal_unitary).max())
        if not err <= RECONSTRUCT_ATOL:
            raise CheckFailed(f"max |reconstruct - target| = {err:.3e} exceeds {RECONSTRUCT_ATOL:.0e}")
        d = x.dimension
        if len(sched.pulses) > d * (d - 1) // 2:
            raise CheckFailed(f"{len(sched.pulses)} pulses exceed d(d-1)/2 at d = {d}")
        return {}


def _matrix_doc(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist()}


def _well_levels(a_m: float, v0_j: float) -> int:
    """Level count of the hard-wall step well: branches with (n + 1/2) pi < k_max a."""
    k_max = math.sqrt(2.0 * ELECTRON_MASS_KG * v0_j) / HBAR_JS
    return int(math.floor(k_max * a_m / math.pi + 0.5))


def binding_problem(rng, k: int) -> dict:
    d = 2 + k % 7
    h_free = np.diag(np.sort(rng.uniform(0.0, 1.0, d))).astype(complex)
    h_int = _random_hermitian(rng, d, COUPLING_SCALE)
    rho0 = _gibbs(h_free + h_int, float(rng.uniform(1.0, 4.0)))
    return {"rho0": _matrix_doc(rho0), "h_free": _matrix_doc(h_free), "h_int": _matrix_doc(h_int)}


def jc_problem(rng, k: int) -> dict:
    return {
        "omega_a": float(rng.uniform(0.5, 2.0)),
        "omega_b": float(rng.uniform(0.5, 2.0)),
        "g": float(rng.uniform(0.01, 0.3)),
        "initial": str(rng.choice(["0g", "-", "+", "1e"])),
        "path_length": float(rng.uniform(1.0, 20.0)),
        "velocity": float(rng.uniform(0.5, 2.0)),
    }


def well_problem(rng, k: int) -> dict:
    """Step well with 2 + k % 7 levels: a 2-5 A, barrier 0.1-0.6 A, V0 40-120 eV."""
    while True:
        a = float(rng.uniform(2.0, 5.0))
        width = float(rng.uniform(0.1, 0.6))
        v0 = float(rng.uniform(40.0, 120.0))
        plateau = float(rng.uniform(0.3, 0.8)) * v0
        if _well_levels(a * ANGSTROM_M, v0 * ELECTRON_VOLT_J) == 2 + k % 7:
            return {
                "a": {"value": a, "unit": "angstrom"},
                "b": {"value": a + width, "unit": "angstrom"},
                "v0": {"value": v0, "unit": "eV"},
                "v0_prime": {"value": plateau, "unit": "eV"},
            }


def synth_problem(rng, k: int) -> dict:
    d = 2 + k % 7
    return {
        "target": _matrix_doc(_haar_unitary(rng, d)),
        "constraints": {"amplitude_max": 1.0, "slew_max": 1.0, "slew_min": -1.0},
        "dipoles": {str(k): v for k, v in _dipoles(rng, d).items()},
    }


def simulate_problem(rng, k: int) -> dict:
    d = 2 + k % 2
    target = _haar_unitary(rng, d)
    dipoles = _dipoles(rng, d)
    sched = pulse_synthesis.schedule(target, CONSTRAINTS, dipoles=dipoles)
    return {
        "schedule": serialization.schedule_to_json(sched),
        "target": _matrix_doc(target),
        "rho0": _matrix_doc(_gibbs(_random_hermitian(rng, d, 1.0), 1.0)),
        "dipoles": {str(k): v for k, v in dipoles.items()},
    }


PROBLEMS = {
    "binding": binding_problem,
    "jc": jc_problem,
    "well": well_problem,
    "synth": synth_problem,
    "simulate": simulate_problem,
}


def _strict_constant(name: str):
    raise CheckFailed(f"output JSON holds the non-standard constant {name}")


@dataclass(frozen=True)
class CliCall:
    mode: str
    fmt: str
    problem: str
    outdir: str
    payload: dict


class ModelsCli:
    """In-process ``qbond.cli.main`` calls on seeded problem files.

    Calls rotate over binding, jc, well, synth, simulate, well, simulate and
    alternate --format json and csv (14 calls per rotation, so each
    subcommand meets both formats). well and simulate come twice so that
    the median call is a well call and the tail is a simulate call: the
    median then follows the k-scan and the tail the fixed cost of a tiny
    propagation, instead of sitting between two cheap subcommands.
    """

    name = "models_cli"
    modes = ("binding", "jc", "well", "synth", "simulate", "well", "simulate")
    rotation = 14
    # problem files per subcommand; sizes step through the pool (d = 2..8 for
    # binding and synth, 2..3 for simulate, 2..8 well levels) so that every
    # seed holds the same mix of sizes
    pool = 14

    def __init__(self, seed: int, workdir: str):
        self.problems: dict[tuple[str, int], tuple[str, dict]] = {}
        folder = os.path.join(workdir, "problems")
        os.makedirs(folder, exist_ok=True)
        for m, (mode, make) in enumerate(PROBLEMS.items()):
            for k in range(self.pool):
                payload = make(_rng(seed, STREAM_FILES, m * self.pool + k), k)
                path = os.path.join(folder, f"{mode}_{k}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump({"mode": mode, "payload": payload}, fh)
                self.problems[mode, k] = path, payload
        self.outdir = os.path.join(workdir, "out")

    def inputs(self, i: int) -> CliCall:
        mode = self.modes[i % len(self.modes)]
        fmt = ("json", "csv")[i % 2]
        path, payload = self.problems[mode, (i // len(self.modes)) % self.pool]
        return CliCall(mode, fmt, path, os.path.join(self.outdir, f"{mode}-{fmt}"), payload)

    def warm_up(self) -> None:
        for mode in PROBLEMS:
            path, payload = self.problems[mode, 0]
            x = CliCall(mode, "json", path, os.path.join(self.outdir, "warm-up"), payload)
            self.check(x, self.run(x))

    def run(self, x: CliCall):
        argv = [x.mode, "--in", x.problem, "--out", x.outdir, "--format", x.fmt]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue(), err.getvalue()

    def check(self, x: CliCall, out) -> dict:
        code, stdout, stderr = out
        if code != 0:
            raise CheckFailed(f"qbond {x.mode} exited {code}: {stderr.strip()}")
        docs, tables, json_bytes = {}, {}, 0
        for path in stdout.splitlines():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            name = os.path.basename(path)
            if name.endswith(".json"):
                json_bytes += len(text.encode())
                docs[name] = json.loads(text, parse_constant=_strict_constant)
            else:
                tables[name] = list(csv.DictReader(io.StringIO(text)))
        if x.mode == "well":
            self._check_well(x, docs, tables)
        if x.mode == "simulate":
            fid = docs["simulate_report.json"]["fidelity_to_target"]
            if not 1.0 - fid <= INFIDELITY_MAX:
                raise CheckFailed(f"simulate: 1 - fidelity = {1.0 - fid:.3e}")
        return {"serialization.json_bytes": json_bytes}

    @staticmethod
    def _check_well(x: CliCall, docs: dict, tables: dict) -> None:
        p = x.payload
        geometry = tunneling_well.WellGeometry(
            well_width=p["a"]["value"] * ANGSTROM_M,
            barrier_end=p["b"]["value"] * ANGSTROM_M,
            barrier_height=p["v0"]["value"] * ELECTRON_VOLT_J,
            plateau_height=p["v0_prime"]["value"] * ELECTRON_VOLT_J,
        )
        if "well_report.json" in docs:
            levels = [
                (lv["energy_J"], lv["transmission"])
                for lv in docs["well_report.json"]["levels"]
                if lv["kind"] == tunneling_well.KIND_TUNNELING
            ]
        else:
            levels = [
                (float(row["E_eV"]) * ELECTRON_VOLT_J, float(row["P"]))
                for row in tables["well_levels.csv"]
                if row["kind"] == tunneling_well.KIND_TUNNELING
            ]
        for energy, closed_form in levels:
            quadrature = tunneling_well.wkb_transmission_quadrature(geometry, energy)
            rel = abs(quadrature - closed_form) / closed_form
            if not rel <= QUADRATURE_RTOL:
                raise CheckFailed(f"well: quadrature and closed form differ by {rel:.3e} at E = {energy!r} J")


WORKLOADS = {w.name: w for w in (PipelineSmall, SynthWide, ModelsCli)}
