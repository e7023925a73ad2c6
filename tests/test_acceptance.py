"""Acceptance suite: one test per shipping criterion, stated tolerances.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion (add -s to see the printed PASS lines with measured margins).
"""

import itertools
import math
import time

import numpy as np

from qbond.binding import binding_energy, passive_state
from qbond.constants import ELECTRON_MASS_KG, ELECTRON_VOLT_J, HBAR_JS, joule_to_ev
from qbond.jaynes_cummings import JCParams, detuning, dressed_states, jc_binding_energy
from qbond.operators import hermitian_eigendecomposition
from qbond.propagation import simulate_schedule, verify_passive
from qbond.pulse_synthesis import PulseConstraints, givens_decompose, shape_pulse, schedule
from qbond.tunneling_well import (
    WellGeometry,
    bound_state_energies,
    tunneling_time,
    wkb_transmission,
    wkb_transmission_quadrature,
)

from generic_route import trapezoid_duration, triangle_duration
from helpers import random_density, random_hermitian, random_probabilities, random_unitary

BENCH = WellGeometry(
    well_width=2.62e-10,
    barrier_end=2.8e-10,
    barrier_height=80.0 * ELECTRON_VOLT_J,
    plateau_height=42.0 * ELECTRON_VOLT_J,
)

SYM = PulseConstraints(amplitude_max=2.0, slew_max=4.0, slew_min=-4.0)


def test_criterion_01_passive_state_optimality():
    # 1,000 random (rho0, H_free) pairs over d in {2,3,4,6,8}: the final
    # energy equals the brute-force minimum over all d! assignments
    # within 1e-12, in under 30 s
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    dims = (2, 3, 4, 6, 8)
    perms = {d: np.array(list(itertools.permutations(range(d)))) for d in dims}
    worst = 0.0
    for d in dims:
        eye = np.zeros((d, d))
        for _ in range(200):
            rho0 = random_density(rng, d)
            h_free = random_hermitian(rng, d)
            report = binding_energy(rho0, h_free, eye)
            p = np.linalg.eigvalsh(rho0)
            eps = np.linalg.eigvalsh(h_free)
            brute = (p[perms[d]] @ eps).min()
            worst = max(worst, abs(report.final_energy - brute))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 30.0
    print(f"PASS criterion 1: worst deviation {worst:.2e}, {elapsed:.1f} s for 1000 pairs")


def test_criterion_02_rearrangement_sandwich():
    # p(desc).eps(asc) = p(asc).eps(desc) <= p.eps <= p(desc).eps(desc)
    # for 10,000 random pairs, d <= 10, within 1e-12
    rng = np.random.default_rng(102)
    worst_eq = worst_lo = worst_hi = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 11))
        p = random_probabilities(rng, d)
        eps = rng.standard_normal(d)
        p_desc, eps_asc = np.sort(p)[::-1], np.sort(eps)
        lo = p_desc @ eps_asc
        hi = p_desc @ eps_asc[::-1]
        dot = p @ eps
        worst_eq = max(worst_eq, abs(lo - np.sort(p) @ np.sort(eps)[::-1]))
        worst_lo = max(worst_lo, lo - dot)
        worst_hi = max(worst_hi, dot - hi)
    assert worst_eq < 1e-12
    assert worst_lo < 1e-12
    assert worst_hi < 1e-12
    print(f"PASS criterion 2: equality {worst_eq:.2e}, bounds slack {worst_lo:.2e}/{worst_hi:.2e}")


def test_criterion_03_two_pair_swap_pulse_sequence():
    # the displayed 4x4 involution decomposes into exactly 4 pulses on
    # (2,3),(1,2),(3,4),(2,3) in application order; reconstruction within
    # 1e-10 up to diagonal phases
    target = np.zeros((4, 4))
    target[2, 0] = target[0, 2] = 1.0
    target[3, 1] = target[1, 3] = 1.0
    sched = givens_decompose(target)
    transitions = [sp.transition for sp in sched.pulses]
    assert transitions == [(2, 3), (1, 2), (3, 4), (2, 3)]
    residue = np.abs(sched.reconstruct() - target).max()
    assert residue < 1e-10
    print(f"PASS criterion 3: sequence {transitions}, reconstruction residue {residue:.2e}")


def test_criterion_04_end_to_end_schedule_fidelity():
    # synth -> simulate on 100 random unitaries at d in {3,4,5}:
    # fidelity >= 1 - 1e-6 after residual-phase accounting, under 2 min
    rng = np.random.default_rng(104)
    t0 = time.monotonic()
    worst = 1.0
    counts = {3: 34, 4: 33, 5: 33}
    for d, n in counts.items():
        for _ in range(n):
            u = random_unitary(rng, d)
            sched = schedule(u, SYM)
            result = simulate_schedule(sched, target=u, steps_per_segment=24)
            worst = min(worst, result.fidelity_to_target)
    elapsed = time.monotonic() - t0
    assert worst >= 1.0 - 1e-6
    assert elapsed < 120.0
    print(f"PASS criterion 4: worst fidelity 1-{1.0 - worst:.2e}, {elapsed:.1f} s for 100 targets")


def _oracle_energies_ev(geometry):
    # independent route: scan the matching condition on an energy grid,
    # discard tangent-pole crossings by branch index, bisect in energy
    m, a = geometry.mass, geometry.well_width
    v0 = geometry.barrier_height

    def residue(e):
        k = math.sqrt(2.0 * m * e) / HBAR_JS
        return math.tan(k * a) + math.sqrt(e / (v0 - e))

    def branch(e):
        k = math.sqrt(2.0 * m * e) / HBAR_JS
        return math.floor(k * a / math.pi + 0.5)

    lo, hi = v0 * 1e-12, v0 * (1.0 - 1e-12)
    grid = np.linspace(lo, hi, 200_001)
    roots = []
    for e0, e1 in zip(grid[:-1], grid[1:]):
        if branch(e0) != branch(e1):
            continue  # tangent pole inside, not a root
        f0, f1 = residue(e0), residue(e1)
        if f0 == 0.0:
            roots.append(e0)
            continue
        if f0 * f1 >= 0.0:
            continue
        x0, x1 = e0, e1
        for _ in range(200):
            xm = 0.5 * (x0 + x1)
            fm = residue(xm)
            if f0 * fm <= 0.0:
                x1 = xm
            else:
                x0, f0 = xm, fm
            if (x1 - x0) <= 1e-13 * x1:
                break
        roots.append(0.5 * (x0 + x1))
    return [joule_to_ev(r) for r in roots]


def test_criterion_05_well_levels_against_oracle():
    # exactly 4 bound states; within 15% of the published values and
    # within 1e-9 relative of the independent bisection oracle
    energies = bound_state_energies(BENCH)
    assert len(energies) == 4

    published = [4.2, 18.9, 42.0, 72.3]
    got_ev = [joule_to_ev(e) for e in energies]
    for got, ref in zip(got_ev, published):
        assert abs(got - ref) / ref < 0.15

    oracle = _oracle_energies_ev(BENCH)
    assert len(oracle) == 4
    worst = max(abs(g - o) / o for g, o in zip(got_ev, oracle))
    assert worst < 1e-9
    print(f"PASS criterion 5: levels {[round(float(e), 5) for e in got_ev]} eV, oracle gap {worst:.2e}")


def test_criterion_06_wkb_against_quadrature_and_published():
    # closed form vs Simpson quadrature within 1e-9 relative on 50 random
    # geometries; published P and tau for levels 3 and 4 to a factor of 5.
    # The published chain is not exactly reproducible: with the solved
    # E3 = 41.27 eV (not the rounded 42) the strip is less transparent
    # than the published P3 = 0.15 by about 2x, and the published times
    # mix in an attempt-frequency convention the text does not pin down.
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(1.0, 5.0) * 1e-10
        geometry = WellGeometry(
            well_width=a,
            barrier_end=a + rng.uniform(0.1, 1.0) * 1e-10,
            barrier_height=rng.uniform(20.0, 100.0) * ELECTRON_VOLT_J,
            plateau_height=0.0,
            mass=ELECTRON_MASS_KG,
        )
        energy = rng.uniform(0.1, 0.95) * geometry.barrier_height
        p = wkb_transmission(geometry, energy)
        q = wkb_transmission_quadrature(geometry, energy)
        worst = max(worst, abs(p - q) / q)
    assert worst < 1e-9

    energies = bound_state_energies(BENCH)
    published = {3: (0.15, 0.65e-17), 4: (0.40, 1.31e-17)}
    factors = {}
    for n, (p_ref, tau_ref) in published.items():
        e = energies[n - 1]
        p = wkb_transmission(BENCH, e)
        tau = tunneling_time(BENCH, e, p).tunneling_time
        fp, ft = p / p_ref, tau / tau_ref
        factors[n] = (fp, ft)
        assert 0.2 <= fp <= 5.0
        assert 0.2 <= ft <= 5.0
    print(
        "PASS criterion 6: quadrature gap "
        f"{worst:.2e}; published-value factors P3 {factors[3][0]:.2f}, "
        f"tau3 {factors[3][1]:.2f}, P4 {factors[4][0]:.2f}, tau4 {factors[4][1]:.2f}"
    )


def test_criterion_07_pulse_shaping_properties():
    # 1,000 random (area, M, R): realized area within 1e-9 relative,
    # bounds hold pointwise, duration equals the closed form within
    # 1e-12, and no feasible competitor envelope is shorter
    rng = np.random.default_rng(107)
    for _ in range(1_000):
        area = rng.uniform(1e-3, 10.0)
        m = rng.uniform(0.1, 5.0)
        r = rng.uniform(0.1, 8.0)
        shape = shape_pulse(area, PulseConstraints(amplitude_max=m, slew_max=r, slew_min=-r))

        assert abs(shape.realized_area - area) <= 1e-9 * area

        ts = np.array([t for t, _ in shape.breakpoints])
        amps = np.array([a for _, a in shape.breakpoints])
        assert amps.min() >= -1e-12 and amps.max() <= m + 1e-12
        slopes = np.diff(amps) / np.diff(ts)
        assert np.abs(slopes).max() <= r + 1e-9

        if math.sqrt(area * r) <= m:
            closed = triangle_duration(area, r)
        else:
            closed = trapezoid_duration(area, m, r)
        assert abs(shape.duration - closed) <= 1e-12 * max(1.0, closed)

        cap = min(m, math.sqrt(area * r))
        for frac in rng.uniform(0.05, 1.0, size=3):
            peak = cap * frac
            competitor = 2.0 * peak / r + max(0.0, (area - peak * peak / r)) / peak
            assert competitor >= shape.duration - 1e-12
    print("PASS criterion 7: 1000 shapes exact, bounded, minimal")


def test_criterion_08_maximally_mixed_invariance():
    # I/d is a fixed point of every schedule: 20 random schedules, every
    # sampled state within 1e-10 of I/d
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        u = random_unitary(rng, d)
        sched = schedule(u, SYM)
        mixed = np.eye(d) / d
        result = simulate_schedule(
            sched, rho0=mixed, steps_per_segment=16, samples=21
        )
        for state in result.state_trajectory:
            worst = max(worst, np.abs(state - mixed).max())
    assert worst < 1e-10
    print(f"PASS criterion 8: worst drift from I/d {worst:.2e}")


def test_criterion_09_jc_consistency():
    # dressed states orthonormal within 1e-12 across a 100-point sweep;
    # binding energy of the lower dressed state matches the closed-form
    # 2x2 result within 1e-10; no coupling means no binding energy
    rng = np.random.default_rng(109)
    worst_ortho = worst_be = 0.0
    for _ in range(100):
        params = JCParams(
            omega_a=rng.uniform(0.2, 4.0),
            omega_b=rng.uniform(0.2, 4.0),
            g=rng.uniform(0.0, 0.8),
        )
        basis = dressed_states(params)
        v = basis.vectors
        worst_ortho = max(worst_ortho, np.abs(v.conj().T @ v - np.eye(4)).max())

        report = jc_binding_energy(params, "-")
        e_minus = params.omega_b / 4.0 - math.hypot(detuning(params), params.g)
        closed = -params.omega_a / 2.0 - e_minus
        worst_be = max(worst_be, abs(report.delta_u_be - closed))
    assert worst_ortho < 1e-12
    assert worst_be < 1e-10

    uncoupled = jc_binding_energy(JCParams(omega_a=1.3, omega_b=2.1, g=0.0), "0g")
    assert abs(uncoupled.delta_u_be) < 1e-12
    print(f"PASS criterion 9: orthonormality {worst_ortho:.2e}, closed-form gap {worst_be:.2e}")


def test_criterion_10_passivity_verification():
    # 10,000 trials, zero misclassifications: passive_state outputs must
    # verify, non-trivially inverted diagonal states must not
    rng = np.random.default_rng(110)
    false_rejects = false_accepts = 0
    for trial in range(5_000):
        d = int(rng.integers(2, 7))
        h = random_hermitian(rng, d)
        spec = hermitian_eigendecomposition(h)
        rho = passive_state(random_probabilities(rng, d), spec)
        ok, _ = verify_passive(rho, h)
        false_rejects += int(not ok)

    for trial in range(5_000):
        d = int(rng.integers(2, 7))
        # spread the spectrum so no accidental degeneracy masks the inversion
        eps = np.sort(rng.uniform(0.0, 1.0, size=d)) + 1e-3 * np.arange(d)
        v = random_unitary(rng, d)
        h = (v * eps) @ v.conj().T
        p = np.sort(random_probabilities(rng, d))[::-1]
        k = int(rng.integers(0, d - 1))
        if p[k] - p[k + 1] < 1e-6:
            p[k] += 1e-3  # force a real inversion gap
            p /= p.sum()
        p[[k, k + 1]] = p[[k + 1, k]]
        rho = (v * p) @ v.conj().T
        ok, _ = verify_passive(rho, h)
        false_accepts += int(ok)

    assert false_rejects == 0
    assert false_accepts == 0
    print("PASS criterion 10: 10000 trials, zero misclassifications")
