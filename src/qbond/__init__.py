"""Binding energy of bipartite quantum systems and minimum-time pulse control.

The package has three layers. `binding` computes how much energy a
state can release through unitary driving (the gap to its passive
endpoint). `pulse_synthesis` turns the optimal unitary into a sequence
of nearest-neighbor pulses with shaped envelopes under amplitude and
slew constraints. `propagation` plays the schedule back, one closed-form
rotation per envelope segment, to check that it implements the target.
`jaynes_cummings` and `tunneling_well` are worked example systems with
closed-form structure used for benchmarks.
"""

from .binding import (
    BindingEnergyReport,
    binding_energy,
    descending_order,
    energy_bounds,
    gibbs_weights,
    optimal_unitary_pure,
    passive_state,
    thermal_final_state,
    thermal_state,
)
from .errors import NumericalError, ValidationError
from .jaynes_cummings import (
    DressedBasis,
    FlightReport,
    JCParams,
    bare_energies,
    detuning,
    dressed_states,
    dressed_vector,
    flight_phase,
    jc_binding_energy,
    jc_hamiltonian,
)
from .operators import (
    BipartiteSplit,
    SpectralDecomposition,
    average_energy,
    correlation_term,
    hermitian_eigendecomposition,
    partial_trace,
    tensor_product,
    validate_density_matrix,
    validate_hermitian,
    validate_unitary,
)
from .propagation import (
    PropagationResult,
    fidelity,
    simulate_schedule,
    verify_passive,
)
from .pulse_synthesis import (
    PulseConstraints,
    PulseSchedule,
    PulseShape,
    TransitionPulse,
    area_phase_from_column,
    givens_decompose,
    pulse_unitary,
    schedule,
    shape_pulse,
)
from .tunneling_well import (
    BoundState,
    ExcitationPlan,
    TunnelingEstimate,
    WellGeometry,
    bound_state_energies,
    classify_levels,
    excitation_plan,
    tunneling_time,
    wkb_transmission,
    wkb_transmission_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "BindingEnergyReport",
    "BipartiteSplit",
    "BoundState",
    "DressedBasis",
    "ExcitationPlan",
    "FlightReport",
    "JCParams",
    "NumericalError",
    "PropagationResult",
    "PulseConstraints",
    "PulseSchedule",
    "PulseShape",
    "SpectralDecomposition",
    "TransitionPulse",
    "TunnelingEstimate",
    "ValidationError",
    "WellGeometry",
    "area_phase_from_column",
    "average_energy",
    "bare_energies",
    "binding_energy",
    "bound_state_energies",
    "classify_levels",
    "correlation_term",
    "descending_order",
    "detuning",
    "dressed_states",
    "dressed_vector",
    "energy_bounds",
    "excitation_plan",
    "fidelity",
    "flight_phase",
    "gibbs_weights",
    "givens_decompose",
    "hermitian_eigendecomposition",
    "jc_binding_energy",
    "jc_hamiltonian",
    "optimal_unitary_pure",
    "partial_trace",
    "passive_state",
    "pulse_unitary",
    "schedule",
    "shape_pulse",
    "simulate_schedule",
    "tensor_product",
    "thermal_final_state",
    "thermal_state",
    "tunneling_time",
    "validate_density_matrix",
    "validate_hermitian",
    "validate_unitary",
    "verify_passive",
    "wkb_transmission",
    "wkb_transmission_quadrature",
]
