import itertools

import numpy as np
import pytest

from qbond.binding import (
    binding_energy,
    energy_bounds,
    gibbs_weights,
    optimal_unitary_pure,
    passive_state,
    thermal_final_state,
    thermal_state,
)
from qbond.errors import ValidationError
from qbond.operators import hermitian_eigendecomposition, validate_density_matrix

from helpers import random_density, random_hermitian, random_probabilities


def test_passive_state_sorts_populations():
    spec = hermitian_eigendecomposition(np.diag([0.0, 1.0, 2.0]))
    rho = passive_state(np.array([0.2, 0.5, 0.3]), spec)
    assert np.allclose(np.diag(rho).real, [0.5, 0.3, 0.2])
    assert np.abs(rho - np.diag(np.diag(rho))).max() < 1e-14


def test_passive_state_uniform_is_maximally_mixed():
    rng = np.random.default_rng(2)
    spec = hermitian_eigendecomposition(random_hermitian(rng, 5))
    rho = passive_state(np.full(5, 0.2), spec)
    assert np.abs(rho - np.eye(5) / 5.0).max() < 1e-12


def test_passive_state_beats_all_permutations_d6():
    # brute-force enumeration of all 720 assignments is the oracle
    rng = np.random.default_rng(7)
    perms = np.array(list(itertools.permutations(range(6))))
    for _ in range(50):
        p = random_probabilities(rng, 6)
        spec = hermitian_eigendecomposition(random_hermitian(rng, 6))
        rho = passive_state(p, spec)
        energy = np.trace(rho @ spec.reconstruct()).real
        best = (p[perms] @ spec.eigenvalues).min()
        assert abs(energy - best) < 1e-12


def test_passive_state_rejects_bad_probabilities():
    spec = hermitian_eigendecomposition(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError):
        passive_state(np.array([0.7, 0.7]), spec)


def test_energy_bounds_small_cases():
    lo, hi = energy_bounds(np.array([0.5, 0.3, 0.2]), np.array([1.0, 2.0, 3.0]))
    assert abs(lo - 1.7) < 1e-14 and abs(hi - 2.3) < 1e-14
    lo, hi = energy_bounds(np.array([0.4, 0.6]), np.array([2.0, 2.0]))
    assert abs(lo - 2.0) < 1e-14 and abs(hi - 2.0) < 1e-14
    lo, hi = energy_bounds(np.array([1.0, 0.0]), np.array([0.0, 5.0]))
    assert abs(lo - 0.0) < 1e-14 and abs(hi - 5.0) < 1e-14


def test_energy_bounds_enumeration_oracle():
    rng = np.random.default_rng(13)
    perms = np.array(list(itertools.permutations(range(5))))
    for _ in range(30):
        p = random_probabilities(rng, 5)
        eps = rng.standard_normal(5)
        lo, hi = energy_bounds(p, eps)
        values = p[perms] @ eps
        assert abs(lo - values.min()) < 1e-12
        assert abs(hi - values.max()) < 1e-12


def test_rearrangement_equality():
    # p(desc) . eps(asc) equals p(asc) . eps(desc)
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = random_probabilities(rng, 6)
        eps = rng.standard_normal(6)
        lhs = np.sort(p)[::-1] @ np.sort(eps)
        rhs = np.sort(p) @ np.sort(eps)[::-1]
        assert abs(lhs - rhs) < 1e-12


def test_binding_energy_ground_state_no_interaction():
    h_free = np.diag([0.0, 1.0, 1.0, 2.0])
    rho0 = np.zeros((4, 4))
    rho0[0, 0] = 1.0
    report = binding_energy(rho0, h_free, np.zeros((4, 4)))
    assert abs(report.delta_u_be) < 1e-12


def test_binding_energy_singlet():
    # two qubits with exchange coupling J; the singlet releases 1 - J
    J = 0.5
    h_local = np.diag([0.0, 1.0])
    h_free = np.kron(h_local, np.eye(2)) + np.kron(np.eye(2), h_local)
    h_int = np.zeros((4, 4))
    h_int[1, 2] = h_int[2, 1] = J
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    report = binding_energy(np.outer(psi, psi), h_free, h_int)
    assert abs(report.initial_energy - (1.0 - J)) < 1e-12
    assert abs(report.final_energy) < 1e-12
    assert abs(report.delta_u_be - (J - 1.0)) < 1e-12


def test_binding_energy_never_beaten_by_assignments():
    rng = np.random.default_rng(23)
    perms = np.array(list(itertools.permutations(range(4))))
    for _ in range(25):
        rho0 = random_density(rng, 4)
        h_free = random_hermitian(rng, 4)
        h_int = random_hermitian(rng, 4)
        report = binding_energy(rho0, h_free, h_int)
        p = np.linalg.eigvalsh(rho0)
        eps = np.linalg.eigvalsh(h_free)
        candidates = p[perms] @ eps - report.initial_energy
        assert report.delta_u_be <= candidates.min() + 1e-12


def test_binding_report_invariants():
    rng = np.random.default_rng(29)
    for _ in range(10):
        rho0 = random_density(rng, 4)
        h_free = random_hermitian(rng, 4)
        h_int = random_hermitian(rng, 4)
        report = binding_energy(rho0, h_free, h_int)
        assert abs(report.final_energy - report.initial_energy - report.delta_u_be) < 1e-10
        comm = report.passive_state @ h_free - h_free @ report.passive_state
        assert np.abs(comm).max() < 1e-10
        validate_density_matrix(report.passive_state)
        u = report.optimal_unitary
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10
        # the optimal unitary must actually carry rho0 to the passive state
        assert np.abs(u @ rho0 @ u.conj().T - report.passive_state).max() < 1e-8


def test_optimal_unitary_pure():
    rng = np.random.default_rng(31)
    spec = hermitian_eigendecomposition(random_hermitian(rng, 5))
    ground = spec.eigenvectors[:, 0]

    u = optimal_unitary_pure(ground, spec)
    overlap = abs(np.vdot(ground, u @ ground))
    assert abs(overlap - 1.0) < 1e-10

    psi = (spec.eigenvectors[:, 0] + spec.eigenvectors[:, 1]) / np.sqrt(2.0)
    u = optimal_unitary_pure(psi, spec)
    assert abs(abs(np.vdot(ground, u @ psi)) - 1.0) < 1e-10

    for _ in range(10):
        psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi /= np.linalg.norm(psi)
        u = optimal_unitary_pure(psi, spec)
        assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-10
        assert abs(abs(np.vdot(ground, u @ psi)) - 1.0) < 1e-10


def test_optimal_unitary_pure_rejects_unnormalized():
    spec = hermitian_eigendecomposition(np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError):
        optimal_unitary_pure(np.array([1.0, 1.0]), spec)


def test_thermal_state_limits():
    rng = np.random.default_rng(37)
    h = random_hermitian(rng, 4)
    assert np.abs(thermal_state(h, 0.0) - np.eye(4) / 4.0).max() < 1e-12

    ground = hermitian_eigendecomposition(h).eigenvectors[:, 0]
    projector = np.outer(ground, ground.conj())
    assert np.abs(thermal_state(h, np.inf) - projector).max() < 1e-12


def test_thermal_state_two_level():
    rho = thermal_state(np.diag([0.0, 1.0]), 1.0)
    z = 1.0 + np.exp(-1.0)
    assert np.abs(rho - np.diag([1.0 / z, np.exp(-1.0) / z])).max() < 1e-12


def test_gibbs_weights_reject_negative_beta():
    with pytest.raises(ValidationError):
        gibbs_weights(np.array([0.0, 1.0]), -1.0)


def test_thermal_final_state_places_dressed_weights_on_bare_levels():
    rng = np.random.default_rng(41)
    h_free = np.diag(np.sort(rng.uniform(0.0, 3.0, size=4)))
    h_int = 0.3 * random_hermitian(rng, 4)
    h_total = h_free + h_int
    beta = 1.2
    final, u = thermal_final_state(h_total, h_free, beta)

    dressed = np.sort(np.linalg.eigvalsh(h_total))
    w = np.exp(-beta * dressed)
    w /= w.sum()
    # descending dressed weights on ascending bare levels
    assert np.abs(np.diag(final).real - np.sort(w)[::-1]).max() < 1e-12
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10
    # transporting the dressed thermal state must land on the final state
    rho_dressed = thermal_state(h_total, beta)
    assert np.abs(u @ rho_dressed @ u.conj().T - final).max() < 1e-10
    # generally different from the bare-basis thermal state
    assert np.abs(final - thermal_state(h_free, beta)).max() > 1e-6


def test_binding_energy_accepts_density_at_the_tolerance_edge():
    # trace 1 + 0.95e-10 and an eigenvalue of -0.95e-10 pass the density check;
    # the clipped populations then sum to 1 + 1.9e-10, which binding_energy keeps
    eps = 0.95e-10
    rho0 = np.diag([0.5 + eps, 0.5 + eps, -eps])
    validate_density_matrix(rho0)
    report = binding_energy(rho0, np.diag([0.0, 1.0, 2.0]), np.zeros((3, 3)))
    assert abs(report.delta_u_be - 2 * eps) < 1e-15
    assert abs(np.trace(report.passive_state).real - (1.0 + 2 * eps)) < 1e-15
