import numpy as np
import pytest

from qbond.binding import binding_energy
from qbond.errors import NumericalError, ValidationError
from qbond.jaynes_cummings import (
    JCParams,
    bare_energies,
    detuning,
    dressed_states,
    dressed_vector,
    flight_phase,
    jc_binding_energy,
    jc_hamiltonian,
)

PARAMS = JCParams(omega_a=1.0, omega_b=2.0, g=0.1)


def test_params_validation():
    with pytest.raises(ValidationError):
        JCParams(omega_a=-1.0, omega_b=2.0, g=0.1)
    with pytest.raises(ValidationError):
        JCParams(omega_a=1.0, omega_b=2.0, g=-0.1)


@pytest.mark.parametrize("field", ["omega_a", "omega_b", "g"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_must_be_finite(field, value):
    with pytest.raises(ValidationError, match="must be finite"):
        JCParams(**{"omega_a": 1.0, "omega_b": 2.0, "g": 0.1, field: value})


@pytest.mark.parametrize(
    "path, velocity", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")), (1.0, float("inf"))]
)
def test_flight_phase_refuses_non_finite_flight(path, velocity):
    with pytest.raises(ValidationError, match="must be finite"):
        flight_phase(PARAMS, path, velocity)


@pytest.mark.parametrize(
    "params, path, velocity", [(PARAMS, 1e300, 1e-10), (JCParams(1e308, 1e308, 1e308), 1e10, 1.0)]
)
def test_flight_angle_past_the_float_range_is_a_numerical_error(params, path, velocity):
    with pytest.raises(NumericalError, match="flight angle overflows"):
        flight_phase(params, path, velocity)


def test_hamiltonian_structure():
    h = jc_hamiltonian(PARAMS)
    assert np.abs(h - h.conj().T).max() < 1e-14
    # coupling block on the one-excitation pair
    wa, wb, g = PARAMS.omega_a, PARAMS.omega_b, PARAMS.g
    block = h[1:3, 1:3]
    assert np.allclose(block, [[wa / 2.0, g], [g, wb / 2.0 - wa / 2.0]])
    assert h[0, 0] == -wa / 2.0
    assert h[3, 3] == wb / 2.0 + wa / 2.0

    bare = jc_hamiltonian(JCParams(omega_a=1.0, omega_b=2.0, g=0.0))
    assert np.abs(bare - np.diag(np.diag(bare))).max() == 0.0
    assert np.allclose(np.diag(bare).real, bare_energies(PARAMS))


def test_one_excitation_eigenvalues_closed_form():
    h = jc_hamiltonian(PARAMS)
    delta = detuning(PARAMS)
    assert abs(delta - (PARAMS.omega_a / 2.0 - PARAMS.omega_b / 4.0)) < 1e-14
    r = np.hypot(delta, PARAMS.g)
    want = np.array([PARAMS.omega_b / 4.0 - r, PARAMS.omega_b / 4.0 + r])
    got = np.sort(np.linalg.eigvalsh(h[1:3, 1:3]))
    assert np.abs(got - want).max() < 1e-12


def test_dressed_states_zero_coupling_returns_bare():
    basis = dressed_states(JCParams(omega_a=1.0, omega_b=2.0, g=0.0))
    assert basis.mixing_angle == 0.0
    # '+' reduces to |0,e> (bare index 1) and '-' to |1,g> (bare index 2)
    expect = {"0g": 0, "-": 2, "+": 1, "1e": 3}
    for label, bare_index in expect.items():
        col = basis.vectors[:, basis.labels.index(label)]
        assert np.abs(np.abs(col) - np.eye(4)[:, bare_index]).max() < 1e-14


def test_dressed_states_symmetric_block_mixes_equally():
    # resonance: omega_a/2 = omega_b/4 makes the 2x2 block symmetric
    params = JCParams(omega_a=1.0, omega_b=2.0 * 1.0, g=0.2)
    assert abs(detuning(params)) < 1e-14
    basis = dressed_states(params)
    _, plus = dressed_vector(params, "+")
    _, minus = dressed_vector(params, "-")
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(plus), [0.0, s, s, 0.0], atol=1e-12)
    assert np.allclose(np.abs(minus), [0.0, s, s, 0.0], atol=1e-12)
    assert abs(abs(np.vdot(plus, minus))) < 1e-12
    assert abs(basis.mixing_angle - np.pi / 4.0) < 1e-12


def test_dressed_states_generic_orthonormal_eigenvectors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = JCParams(
            omega_a=rng.uniform(0.5, 3.0), omega_b=rng.uniform(0.5, 3.0), g=rng.uniform(0.01, 0.5)
        )
        basis = dressed_states(params)
        v = basis.vectors
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12
        h = jc_hamiltonian(params)
        for col, energy in zip(v.T, basis.energies):
            assert np.abs(h @ col - energy * col).max() < 1e-10
        assert np.all(np.diff(basis.energies) >= -1e-12)


def test_eigenvalue_interlacing():
    rng = np.random.default_rng(5)
    for _ in range(20):
        params = JCParams(
            omega_a=rng.uniform(0.5, 3.0), omega_b=rng.uniform(0.5, 3.0), g=rng.uniform(0.01, 0.5)
        )
        h = jc_hamiltonian(params)
        block = np.diag(h[1:3, 1:3]).real
        e_minus, e_plus = np.sort(np.linalg.eigvalsh(h[1:3, 1:3]))
        assert e_minus <= block.min() + 1e-10
        assert block.max() <= e_plus + 1e-10


def test_weak_coupling_continuity():
    base = dressed_states(JCParams(omega_a=1.0, omega_b=3.0, g=0.0))
    weak = dressed_states(JCParams(omega_a=1.0, omega_b=3.0, g=1e-4))
    assert np.abs(weak.energies - base.energies).max() < 1e-6


def test_flight_phase_cases():
    # zero path: n = 0 multiple
    report = flight_phase(PARAMS, 0.0, 2.0)
    assert report.flight_time == 0.0 and report.accumulated_angle == 0.0
    assert report.dissociates

    # pick the velocity that lands exactly on pi
    delta = detuning(PARAMS)
    omega = 2.0 * np.hypot(delta, PARAMS.g)
    path = 1.0
    v_pi = omega * path / np.pi
    assert flight_phase(PARAMS, path, v_pi).dissociates
    # half rotation does not dissociate
    assert not flight_phase(PARAMS, path, 2.0 * v_pi).dissociates

    with pytest.raises(ValidationError):
        flight_phase(PARAMS, 1.0, 0.0)


def test_binding_energy_unexcited_uncoupled_is_zero():
    report = jc_binding_energy(JCParams(omega_a=1.0, omega_b=2.0, g=0.0), "0g")
    assert abs(report.delta_u_be) < 1e-12


def test_binding_energy_lower_dressed_state():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = JCParams(
            omega_a=rng.uniform(0.5, 3.0), omega_b=rng.uniform(0.5, 3.0), g=rng.uniform(0.01, 0.5)
        )
        report = jc_binding_energy(params, "-")
        delta = detuning(params)
        e_minus = params.omega_b / 4.0 - np.hypot(delta, params.g)
        ground = -params.omega_a / 2.0
        assert abs(report.delta_u_be - (ground - e_minus)) < 1e-10


def test_binding_energy_upper_dressed_state_passive_endpoint():
    report = jc_binding_energy(PARAMS, "+")
    h_free = jc_hamiltonian(JCParams(omega_a=PARAMS.omega_a, omega_b=PARAMS.omega_b, g=0.0))
    comm = report.passive_state @ h_free - h_free @ report.passive_state
    assert np.abs(comm).max() < 1e-10
    # pure initial state passivates to the bare ground projector
    assert abs(report.passive_state[0, 0].real - 1.0) < 1e-10


def test_module_consistency_with_raw_binding():
    h_free = jc_hamiltonian(JCParams(omega_a=PARAMS.omega_a, omega_b=PARAMS.omega_b, g=0.0))
    h_int = jc_hamiltonian(PARAMS) - h_free
    for label in ("+", "-"):
        _, psi = dressed_vector(PARAMS, label)
        raw = binding_energy(np.outer(psi, psi.conj()), h_free, h_int)
        wrapped = jc_binding_energy(PARAMS, label)
        assert abs(raw.delta_u_be - wrapped.delta_u_be) < 1e-12


def test_unknown_initial_label_rejected():
    with pytest.raises(ValidationError):
        jc_binding_energy(PARAMS, "bogus")
