"""Two-level atom coupled to a single field mode, truncated at one photon.

Basis order is {|0,g>, |0,e>, |1,g>, |1,e>} (photon number first, then
atom). In natural units (hbar = 1) the Hamiltonian is

    H = (omega_a / 2) sigma_z + (omega_b / 2) n_photons + coupling,

where the coupling acts only inside the one-excitation pair
{|0,e>, |1,g>} with off-diagonal element g:

    [[omega_a / 2,                g          ],
     [g,            omega_b / 2 - omega_a / 2]].

The one-half factor on the photon term is kept as given. Dressed states
come from exact diagonalization of that 2x2 block; eigenvalues are

    E_pm = omega_b / 4 +- sqrt(delta^2 + g^2),  delta = omega_a / 2 - omega_b / 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .binding import BindingEnergyReport, binding_energy
from .errors import NumericalError, ValidationError

# tolerance on the dissociation phase condition (radians)
ANGLE_ATOL = 1e-9

STATE_LABELS = ("0g", "-", "+", "1e")


@dataclass(frozen=True)
class JCParams:
    omega_a: float          # atomic transition frequency
    omega_b: float          # field mode frequency
    g: float                # coupling strength

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.omega_a, self.omega_b, self.g)):
            raise ValidationError(f"omega_a, omega_b and g must be finite, got {self}")
        if self.omega_a <= 0 or self.omega_b <= 0:
            raise ValidationError(f"frequencies must be positive, got {self}")
        if self.g < 0:
            raise ValidationError(f"coupling must be nonnegative, got g={self.g}")


@dataclass(frozen=True)
class DressedBasis:
    """Eigenbasis of the coupled Hamiltonian, ordered by nondecreasing energy.

    vectors[:, k] belongs to energies[k] and labels[k]. mixing_angle is
    the angle phi with |+> = cos(phi)|0,e> + sin(phi)|1,g>; it is 0 at
    g = 0 by convention (bare states returned) and pi/4 for a symmetric
    block.
    """

    mixing_angle: float
    labels: tuple[str, ...]
    energies: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class FlightReport:
    flight_time: float
    accumulated_angle: float
    dissociates: bool


def jc_hamiltonian(params: JCParams) -> np.ndarray:
    """Total Hamiltonian on the truncated four-state basis."""
    wa, wb, g = params.omega_a, params.omega_b, params.g
    h = np.diag([-wa / 2, wa / 2, wb / 2 - wa / 2, wb / 2 + wa / 2]).astype(complex)
    h[1, 2] = g
    h[2, 1] = g
    return h


def bare_energies(params: JCParams) -> np.ndarray:
    """Diagonal of the uncoupled Hamiltonian in basis order."""
    wa, wb = params.omega_a, params.omega_b
    return np.array([-wa / 2, wa / 2, wb / 2 - wa / 2, wb / 2 + wa / 2])


def detuning(params: JCParams) -> float:
    """Half energy gap of the coupling block at g = 0."""
    return params.omega_a / 2 - params.omega_b / 4


def dressed_states(params: JCParams) -> DressedBasis:
    """Exact eigenbasis of the coupled system.

    |0,g> and |1,e> are untouched by the coupling. The one-excitation
    block is diagonalized in closed form. At g = 0 the bare states are
    returned with mixing angle 0, so |+> = |0,e> and |-> = |1,g>.
    """
    wa, wb, g = params.omega_a, params.omega_b, params.g
    a = wa / 2
    b = wb / 2 - wa / 2
    e_0g = -wa / 2
    e_1e = wb / 2 + wa / 2

    if g == 0.0:
        phi = 0.0
        e_plus, e_minus = a, b
        plus = np.array([0, 1, 0, 0], dtype=complex)
        minus = np.array([0, 0, 1, 0], dtype=complex)
    else:
        mean = (a + b) / 2
        delta = (a - b) / 2
        r = math.hypot(delta, g)
        e_plus, e_minus = mean + r, mean - r
        # eigenvector of [[a, g], [g, b]] for e_plus is (g, r - delta), both >= 0
        norm = math.hypot(g, r - delta)
        c, s = g / norm, (r - delta) / norm
        phi = math.atan2(s, c)
        plus = np.array([0, c, s, 0], dtype=complex)
        minus = np.array([0, -s, c, 0], dtype=complex)

    energies = np.array([e_0g, e_minus, e_plus, e_1e])
    vectors = np.column_stack(
        [np.array([1, 0, 0, 0], dtype=complex), minus, plus, np.array([0, 0, 0, 1], dtype=complex)]
    )
    labels = ["0g", "-", "+", "1e"]

    order = np.argsort(energies, kind="stable")
    return DressedBasis(
        mixing_angle=phi,
        labels=tuple(labels[k] for k in order),
        energies=energies[order],
        vectors=vectors[:, order],
    )


def dressed_vector(params: JCParams, label: str) -> tuple[float, np.ndarray]:
    """(energy, vector) for one of the labels '0g', '-', '+', '1e'."""
    basis = dressed_states(params)
    if label not in basis.labels:
        raise ValidationError(f"unknown state label {label!r}, expected one of {STATE_LABELS}")
    k = basis.labels.index(label)
    return float(basis.energies[k]), basis.vectors[:, k]


def printed_mixing_angle(params: JCParams) -> float:
    """Mixing angle from the formula tan(phi/2) = 2 g (omega_a - omega_b).

    Comparison utility only. The formula is dimensionally inconsistent
    (the right side is not a pure number) and disagrees with the exact
    block diagonalization except by accident; nothing in this package
    uses it. Kept so the discrepancy can be inspected directly.
    """
    return 2.0 * math.atan(2.0 * params.g * (params.omega_a - params.omega_b))


def flight_phase(params: JCParams, path_length: float, velocity: float) -> FlightReport:
    """Phase accumulated between the dressed pair over a flight segment.

    The pair oscillates at Rabi frequency 2 sqrt(delta^2 + g^2) (hbar = 1).
    The molecule comes out in a bare-state mixture exactly when the
    accumulated angle is a multiple of pi; the test uses the distance to
    the nearest multiple so that an angle of exactly pi passes at double
    precision. A flight angle past the float range raises NumericalError.
    """
    if not 0 < velocity < math.inf:
        raise ValidationError(f"velocity must be finite and positive, got {velocity}")
    if not 0 <= path_length < math.inf:
        raise ValidationError(f"path length must be finite and nonnegative, got {path_length}")
    delta = detuning(params)
    rabi = 2.0 * math.hypot(delta, params.g)
    tau = path_length / velocity
    angle = rabi * tau
    if not math.isfinite(angle):
        raise NumericalError(f"the flight angle overflows: Rabi frequency {rabi} over flight time {tau}")
    rem = math.fmod(angle, math.pi)
    if rem < 0:
        rem += math.pi
    dissociates = min(rem, math.pi - rem) <= ANGLE_ATOL
    return FlightReport(flight_time=tau, accumulated_angle=angle, dissociates=dissociates)


def jc_binding_energy(params: JCParams, initial: str = "-") -> BindingEnergyReport:
    """Binding energy of a dressed or bare eigenstate of the coupled system.

    initial is one of '0g', '-', '+', '1e'. For a pure initial state the
    passive endpoint is the bare ground projector, so for instance
    delta_u_be of |-> equals e(|0,g>) - E_minus (negative when E_minus
    lies above the bare ground energy).
    """
    _, psi = dressed_vector(params, initial)
    rho0 = np.outer(psi, psi.conj())
    h_total = jc_hamiltonian(params)
    h_free = jc_hamiltonian(replace(params, g=0.0))
    return binding_energy(rho0, h_free, h_total - h_free)
