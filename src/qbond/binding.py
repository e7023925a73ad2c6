"""Binding energy via optimal passive-state construction.

The internal energy of a state rho under H is U = Tr[H rho]. Among all
unitaries applied to rho, the lowest reachable final energy under the
uncoupled Hamiltonian H_free is obtained by placing the populations of
rho, sorted nonincreasing, on the eigenstates of H_free sorted by
nondecreasing energy (the passive state). The binding energy is

    delta_u_be = final_energy - initial_energy,

negative when energy is released by unbinding. The rearrangement
inequality gives the sandwich

    sum p_down * e_up  <=  sum p * e  <=  sum p_down * e_down

for any simultaneous ordering, which energy_bounds exposes directly.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ValidationError
from .operators import (
    HERMITIAN_ATOL,
    SpectralDecomposition,
    average_energy,
    hermitian_eigendecomposition,
    validate_density_matrix,
    validate_hermitian,
    validate_probability_vector,
)

# absolute tie tolerance when grouping degenerate energies
DEGENERACY_ATOL = 1e-12
PURE_NORM_ATOL = 1e-10


@dataclass(frozen=True)
class BindingEnergyReport:
    """Result bundle for one binding-energy computation.

    assignment[k] is the index into the initial state's spectral list
    (eigenvalues ascending) whose population is placed on free level k,
    levels ordered by nondecreasing energy. The optimal unitary maps the
    corresponding eigenvectors onto the free eigenstates, so that
    optimal_unitary rho0 optimal_unitary^dag equals passive_state.
    """

    delta_u_be: float
    initial_energy: float
    final_energy: float
    passive_state: np.ndarray
    assignment: tuple[int, ...]
    optimal_unitary: np.ndarray


def descending_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting values nonincreasing, ties kept in original order."""
    return np.argsort(-np.asarray(values), kind="stable")


def energy_bounds(populations, energies) -> tuple[float, float]:
    """Extremal average energies over all population-to-level assignments.

    Returns (lowest, highest): populations sorted nonincreasing paired
    with energies nondecreasing, respectively nonincreasing.
    """
    p = validate_probability_vector(populations)
    e = np.asarray(energies, dtype=float)
    if p.shape != e.shape:
        raise ValidationError(f"shape mismatch: populations {p.shape} vs energies {e.shape}")
    p_down = np.sort(p)[::-1]
    e_up = np.sort(e)
    lo = float(np.dot(p_down, e_up))
    hi = float(np.dot(p_down, e_up[::-1]))
    return lo, hi


def passive_state(populations, free_spectrum: SpectralDecomposition) -> np.ndarray:
    """State with the given populations arranged passively on the free spectrum.

    Populations sorted nonincreasing occupy eigenstates of nondecreasing
    energy. The result commutes with the free Hamiltonian and is the
    energy minimizer among all unitary rearrangements of the populations.
    """
    p = validate_probability_vector(populations)
    if len(p) != free_spectrum.dim:
        raise ValidationError(
            f"population count {len(p)} does not match spectrum dimension {free_spectrum.dim}"
        )
    return _spectral_sum(p[descending_order(p)], free_spectrum)


def _spectral_sum(weights: np.ndarray, spectrum: SpectralDecomposition) -> np.ndarray:
    """Sum of weights[k] |v_k><v_k| over the eigenvectors of spectrum, levels ascending."""
    v = spectrum.eigenvectors
    return (v * weights) @ v.conj().T


def binding_energy(rho0, h_free, h_int, atol: float = HERMITIAN_ATOL) -> BindingEnergyReport:
    """Binding energy of rho0 for total Hamiltonian h_free + h_int.

    Parameters
    ----------
    rho0 : initial density matrix (dressed state of the coupled system)
    h_free : uncoupled Hamiltonian governing the separated fragments
    h_int : coupling term; h_free + h_int is the Hamiltonian that sets
        the initial energy

    Returns a BindingEnergyReport. The final energy pairs the populations
    of rho0, sorted nonincreasing, with the free levels in nondecreasing
    energy; by the rearrangement inequality no other assignment of
    populations to levels gives less, so no search over assignments is
    made. The reported unitary reaches it.
    """
    rho = validate_density_matrix(rho0, hermitian_atol=atol)
    free = hermitian_eigendecomposition(h_free, atol=atol)
    coupling = np.asarray(h_int, dtype=complex)
    if coupling.shape != rho.shape or free.eigenvectors.shape != rho.shape:
        raise ValidationError(
            f"dimension mismatch: rho {rho.shape}, h_free {np.shape(h_free)}, h_int {coupling.shape}"
        )
    h_total = validate_hermitian(h_free, atol=atol) + validate_hermitian(coupling, atol=atol)

    initial = average_energy(rho, h_total)

    state = hermitian_eigendecomposition(rho, atol=atol)
    populations = np.clip(state.eigenvalues, 0.0, None)
    order = descending_order(populations)

    final = float(np.dot(populations[order], free.eigenvalues))
    # unitary sending the k-th most populated eigenvector to the k-th free level
    u_opt = free.eigenvectors @ state.eigenvectors[:, order].conj().T

    return BindingEnergyReport(
        delta_u_be=final - initial,
        initial_energy=initial,
        final_energy=final,
        passive_state=_spectral_sum(populations[order], free),
        assignment=tuple(int(k) for k in order),
        optimal_unitary=u_opt,
    )


def optimal_unitary_pure(psi0, free_spectrum: SpectralDecomposition) -> np.ndarray:
    """Unitary taking a pure state to the free ground state.

    The same assembly as binding_energy applied to |psi0><psi0|: its
    eigenvectors, sorted by nonincreasing population, are mapped onto the
    free eigenstates in order, so psi0 (population 1) lands on the lowest
    level up to a global phase.
    """
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if len(psi) != free_spectrum.dim:
        raise ValidationError(
            f"state dimension {len(psi)} does not match spectrum dimension {free_spectrum.dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > PURE_NORM_ATOL:
        raise ValidationError(f"pure state norm is {norm!r}, expected 1 within {PURE_NORM_ATOL:.1e}")
    state = hermitian_eigendecomposition(np.outer(psi, psi.conj()))
    order = descending_order(state.eigenvalues)
    return free_spectrum.eigenvectors @ state.eigenvectors[:, order].conj().T


def gibbs_weights(energies, beta: float) -> np.ndarray:
    """Normalized Boltzmann weights for energies at inverse temperature beta.

    beta = +inf is accepted as the ground-state limit; a degenerate
    ground space gets equal weights.
    """
    e = np.asarray(energies, dtype=float)
    if beta < 0:
        raise ValidationError(f"inverse temperature must be nonnegative, got {beta}")
    if math.isinf(beta):
        ground = e <= e.min() + DEGENERACY_ATOL
        w = ground.astype(float)
        return w / w.sum()
    w = np.exp(-beta * (e - e.min()))    # shift guards against overflow
    return w / w.sum()


def thermal_state(hamiltonian, beta: float) -> np.ndarray:
    """Gibbs state exp(-beta H) / Z, with beta = +inf handled as a limit."""
    spec = hermitian_eigendecomposition(hamiltonian)
    return _spectral_sum(gibbs_weights(spec.eigenvalues, beta), spec)


def thermal_final_state(h_total, h_free, beta: float):
    """Optimal unbinding endpoint for a thermal state of the coupled system.

    The dressed Gibbs weights, which are nonincreasing along the dressed
    spectrum, are placed on the bare levels in nondecreasing energy
    order. Returns (final_state, unitary) with
    unitary thermal_state(h_total, beta) unitary^dag = final_state.
    """
    dressed = hermitian_eigendecomposition(h_total)
    bare = hermitian_eigendecomposition(h_free)
    if dressed.dim != bare.dim:
        raise ValidationError("dressed and bare Hamiltonians differ in dimension")
    w = gibbs_weights(dressed.eigenvalues, beta)
    # both spectra ascend, so the weights already pair passively
    final = _spectral_sum(w, bare)
    unitary = bare.eigenvectors @ dressed.eigenvectors.conj().T
    return final, unitary
