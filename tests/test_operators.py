import numpy as np
import pytest

from qbond.errors import ValidationError
from qbond.operators import (
    BipartiteSplit,
    average_energy,
    correlation_term,
    hermitian_eigendecomposition,
    partial_trace,
    tensor_product,
    validate_density_matrix,
    validate_hermitian,
    validate_unitary,
)

from helpers import random_density, random_hermitian, random_unitary


def test_eigendecomposition_diagonal_input():
    spec = hermitian_eigendecomposition(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
    # permutation eigenvectors up to phase
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eigendecomposition_pauli_x():
    spec = hermitian_eigendecomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    for col, sign in zip(spec.eigenvectors.T, (-1.0, 1.0)):
        v = col / col[0]
        assert np.allclose(v, [1.0, sign], atol=1e-12)


def test_eigendecomposition_reconstructs_random_hermitian():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        spec = hermitian_eigendecomposition(h)
        assert np.abs(spec.reconstruct() - h).max() < 1e-10
        assert np.all(np.diff(spec.eigenvalues) >= -1e-14)


def test_non_hermitian_rejected_names_entry():
    bad = np.eye(3, dtype=complex)
    bad[0, 2] = 0.5
    with pytest.raises(ValidationError, match=r"\(0, 2\)|\(2, 0\)"):
        validate_hermitian(bad)


def test_tensor_product_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_free_hamiltonian_lift_is_additive():
    # energies compose as eps_ij = eps_i^A + eps_j^B through A x I + I x B
    h_a, h_b = np.diag([0.0, 1.0]), np.diag([0.0, 2.0])
    lift = tensor_product(h_a, np.eye(2)) + tensor_product(np.eye(2), h_b)
    assert np.allclose(np.diag(lift), [0.0, 2.0, 1.0, 3.0])
    split = BipartiteSplit(2, 2)
    for i in range(2):
        for j in range(2):
            gamma = split.pair_to_index(i, j)
            assert lift[gamma, gamma] == h_a[i, i] + h_b[j, j]


def test_tensor_product_bit_flip():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi00 = np.zeros(4)
    psi00[0] = 1.0
    assert np.allclose(tensor_product(sx, sx) @ psi00, np.eye(4)[:, 3])


def test_tensor_product_associative():
    rng = np.random.default_rng(3)
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    left = tensor_product(tensor_product(a, b), c)
    right = tensor_product(a, tensor_product(b, c))
    assert np.abs(left - right).max() < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho_a, rho_b = random_density(rng, 2), random_density(rng, 3)
    rho = tensor_product(rho_a, rho_b)
    split = BipartiteSplit(2, 3)
    assert np.abs(partial_trace(rho, split, keep="A") - rho_a).max() < 1e-12
    assert np.abs(partial_trace(rho, split, keep="B") - rho_b).max() < 1e-12


def test_partial_trace_bell_state():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    split = BipartiteSplit(2, 2)
    for keep in ("A", "B"):
        assert np.abs(partial_trace(rho, split, keep=keep) - np.eye(2) / 2).max() < 1e-12


def _partial_trace_by_summation(rho, split, keep):
    # independent element-by-element oracle
    da, db = split.dim_a, split.dim_b
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for k in range(da):
                for j in range(db):
                    out[i, k] += rho[i * db + j, k * db + j]
    else:
        out = np.zeros((db, db), dtype=complex)
        for j in range(db):
            for l in range(db):
                for i in range(da):
                    out[j, l] += rho[i * db + j, i * db + l]
    return out


def test_partial_trace_matches_summation_oracle():
    rng = np.random.default_rng(17)
    split = BipartiteSplit(2, 2)
    for _ in range(25):
        rho = random_density(rng, 4)
        for keep in ("A", "B"):
            got = partial_trace(rho, split, keep=keep)
            want = _partial_trace_by_summation(rho, split, keep)
            assert np.abs(got - want).max() < 1e-12
            assert abs(np.trace(got).real - 1.0) < 1e-12


def test_correlation_term_product_state_is_zero():
    rng = np.random.default_rng(23)
    rho = tensor_product(random_density(rng, 2), random_density(rng, 2))
    chi = correlation_term(rho, BipartiteSplit(2, 2))
    assert np.abs(chi).max() < 1e-12


def test_correlation_term_bell_state():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    chi = correlation_term(np.outer(psi, psi), BipartiteSplit(2, 2))
    assert np.abs(chi).max() > 0.1
    split = BipartiteSplit(2, 2)
    assert np.abs(partial_trace(chi, split, keep="A")).max() < 1e-10
    assert np.abs(partial_trace(chi, split, keep="B")).max() < 1e-10


def test_correlation_term_reassembles_state():
    rng = np.random.default_rng(29)
    split = BipartiteSplit(2, 2)
    for _ in range(10):
        rho = random_density(rng, 4)
        chi = correlation_term(rho, split)
        product = tensor_product(
            partial_trace(rho, split, keep="A"), partial_trace(rho, split, keep="B")
        )
        assert np.abs(product + chi - rho).max() < 1e-12


def test_average_energy_diagonal():
    assert abs(average_energy(np.diag([0.5, 0.3, 0.2]), np.diag([0.0, 1.0, 2.0])) - 0.7) < 1e-14


def test_average_energy_maximally_mixed():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 5)
    got = average_energy(np.eye(5) / 5.0, h)
    assert abs(got - np.trace(h).real / 5.0) < 1e-12


def test_average_energy_double_sum_oracle():
    rng = np.random.default_rng(37)
    for _ in range(10):
        rho, h = random_density(rng, 4), random_hermitian(rng, 4)
        direct = sum(h[i, j] * rho[j, i] for i in range(4) for j in range(4))
        assert abs(average_energy(rho, h) - direct.real) < 1e-12


def test_average_energy_basis_invariance():
    rng = np.random.default_rng(41)
    rho, h = random_density(rng, 4), random_hermitian(rng, 4)
    u = random_unitary(rng, 4)
    rotated = average_energy(u @ rho @ u.conj().T, u @ h @ u.conj().T)
    assert abs(rotated - average_energy(rho, h)) < 1e-10


def test_density_validation_rejects_bad_states():
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValidationError):
        validate_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        validate_unitary(np.diag([1.0, 2.0]))


def test_unitary_validation_refuses_a_residual_that_overflows_to_nan():
    # U U^dag sums +inf and -inf here, so the residual is NaN, which no tolerance comparison accepts
    a = 1e308 * (1 + 1j)
    with pytest.raises(ValidationError, match="not unitary"):
        validate_unitary(np.array([[a, a], [a, -a]]))


def test_bipartite_index_round_trip():
    split = BipartiteSplit(3, 4)
    for i in range(3):
        for j in range(4):
            gamma = split.pair_to_index(i, j)
            assert split.index_to_pair(gamma) == (i, j)
    assert split.dim == 12
