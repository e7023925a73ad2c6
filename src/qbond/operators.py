"""Dense operator toolkit for small finite-dimensional quantum systems.

Matrices are plain complex numpy arrays. This module provides the
structural validators (hermiticity, unitarity, density matrices), tensor
products and partial traces over a bipartite split, expectation values,
and an eigensolver wrapper with frozen ordering conventions:

* eigenvalues ascending, ties kept in original (stable) order,
* composite index for a bipartite system is row major with the first
  subsystem as the slow index: gamma = i * dim_b + j (zero based).

All equality checks use the explicit absolute tolerances below; only the
Hermitian and unitary ones can be set per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10       # smallest admissible density eigenvalue
PROBABILITY_FLOOR = -1e-12      # entries above this are clamped to zero
PROBABILITY_SUM_ATOL = 1e-10
IMAG_ATOL = 1e-10               # residual imaginary part of real scalars


def as_square_matrix(matrix) -> np.ndarray:
    """Coerce to a square complex array of finite entries, rejecting anything else."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise ValidationError(f"matrix has a non-finite entry {m[i, j]} at ({i}, {j})")
    return m


def validate_hermitian(matrix, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return the matrix if Hermitian within atol, else raise naming the offending entry."""
    m = as_square_matrix(matrix)
    with np.errstate(over="ignore"):  # a deviation past the float range reads inf and fails
        dev = np.abs(m - m.conj().T)
    worst = float(dev.max()) if m.size else 0.0
    if worst > atol:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise ValidationError(
            f"matrix is not Hermitian: |H - H^dag| = {worst:.3e} at entry ({i}, {j}), "
            f"tolerance {atol:.1e}"
        )
    return m


def validate_unitary(matrix) -> np.ndarray:
    """Return the matrix if unitary within UNITARY_ATOL (max-norm of U U^dag - I)."""
    u = as_square_matrix(matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # entries near the float range overflow and fail
        resid = u @ u.conj().T - np.eye(u.shape[0])
    worst = float(np.abs(resid).max()) if u.size else 0.0
    if not worst <= UNITARY_ATOL:  # NaN fails too
        raise ValidationError(
            f"matrix is not unitary: max |U U^dag - I| = {worst:.3e}, tolerance {UNITARY_ATOL:.1e}"
        )
    return u


def validate_density_matrix(matrix, hermitian_atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    rho = validate_hermitian(matrix, atol=hermitian_atol)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValidationError(f"density matrix trace is {tr!r}, expected 1 within {TRACE_ATOL:.1e}")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < EIGENVALUE_FLOOR:
        raise ValidationError(
            f"density matrix has eigenvalue {lo:.3e} below the floor {EIGENVALUE_FLOOR:.1e}"
        )
    return rho


def validate_probability_vector(vector) -> np.ndarray:
    """Return a cleaned copy: tiny negatives clamped to zero, sum checked against 1."""
    p = np.asarray(vector, dtype=float).copy()
    if p.ndim != 1:
        raise ValidationError(f"expected a 1d probability vector, got shape {p.shape}")
    if p.min(initial=0.0) < PROBABILITY_FLOOR:
        raise ValidationError(
            f"probability entry {p.min():.3e} is below the clamping floor {PROBABILITY_FLOOR:.1e}"
        )
    p[p < 0.0] = 0.0
    total = float(p.sum())
    if abs(total - 1.0) > PROBABILITY_SUM_ATOL:
        raise ValidationError(f"probabilities sum to {total!r}, not 1 within {PROBABILITY_SUM_ATOL:.1e}")
    return p


@dataclass(frozen=True)
class BipartiteSplit:
    """Dimensions of a bipartite factorization, H = H_A tensor H_B.

    The composite basis index is gamma = i * dim_b + j for subsystem
    indices (i, j), zero based. This matches numpy.kron ordering.
    """

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValidationError(f"subsystem dimensions must be positive, got {self}")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def pair_to_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.dim_a and 0 <= j < self.dim_b):
            raise ValidationError(f"pair ({i}, {j}) out of range for {self}")
        return i * self.dim_b + j

    def index_to_pair(self, gamma: int) -> tuple[int, int]:
        if not (0 <= gamma < self.dim):
            raise ValidationError(f"index {gamma} out of range for {self}")
        return divmod(gamma, self.dim_b)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensolution of a Hermitian matrix.

    eigenvalues are real and nondecreasing; eigenvectors[:, k] is the
    orthonormal eigenvector for eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eigendecomposition(
    matrix, atol: float = HERMITIAN_ATOL
) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix.

    Backed by numpy.linalg.eigh (LAPACK), which returns eigenvalues in
    ascending order and is deterministic for identical input. Degenerate
    blocks come back as an arbitrary but fixed orthonormal choice, which
    is all the package contracts require.
    """
    h = validate_hermitian(matrix, atol=atol)
    w, v = np.linalg.eigh(h)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the package index convention (first factor slow)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(matrix, split: BipartiteSplit, keep: str) -> np.ndarray:
    """Trace out one subsystem of a square matrix on a bipartite space.

    Parameters
    ----------
    matrix : array, shape (dim_a * dim_b, dim_a * dim_b)
    split : BipartiteSplit
    keep : "A" or "B", the subsystem that survives

    Works on any square matrix of the right dimension; callers that need
    a density matrix validate separately.
    """
    m = as_square_matrix(matrix)
    if m.shape[0] != split.dim:
        raise ValidationError(
            f"matrix dimension {m.shape[0]} does not match split {split} (dim {split.dim})"
        )
    t = m.reshape(split.dim_a, split.dim_b, split.dim_a, split.dim_b)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def correlation_term(rho, split: BipartiteSplit) -> np.ndarray:
    """Correlation part chi = rho - rho_A tensor rho_B.

    Both partial traces of the result vanish identically; tests pin this.
    """
    r = as_square_matrix(rho)
    rho_a = partial_trace(r, split, "A")
    rho_b = partial_trace(r, split, "B")
    return r - tensor_product(rho_a, rho_b)


def average_energy(rho, hamiltonian) -> float:
    """Tr[H rho] as a real scalar, rejecting a large imaginary residue."""
    r = as_square_matrix(rho)
    h = as_square_matrix(hamiltonian)
    if r.shape != h.shape:
        raise ValidationError(f"shape mismatch: rho {r.shape} vs H {h.shape}")
    val = complex(np.trace(h @ r))
    if abs(val.imag) > IMAG_ATOL * max(1.0, abs(val.real)):
        raise ValidationError(f"Tr[H rho] has non-negligible imaginary part {val.imag:.3e}")
    return val.real
