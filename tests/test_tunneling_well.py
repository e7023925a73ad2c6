import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbond.constants import ELECTRON_MASS_KG, ELECTRON_VOLT_J, HBAR_JS, joule_to_ev
from qbond.errors import ValidationError
from qbond.tunneling_well import (
    ENERGY_RTOL,
    KIND_BOUND,
    KIND_TUNNELING,
    KIND_UNBOUNDED,
    MAX_LEVELS,
    BoundState,
    WellGeometry,
    bound_state_energies,
    classify_levels,
    excitation_plan,
    tunneling_time,
    wkb_transmission,
    wkb_transmission_quadrature,
)

from test_acceptance import _oracle_energies_ev

# published benchmark geometry: a = 2.62 A, b = 2.8 A, V0 = 80 eV, V0' = 42 eV
BENCH = WellGeometry(
    well_width=2.62e-10,
    barrier_end=2.8e-10,
    barrier_height=80.0 * ELECTRON_VOLT_J,
    plateau_height=42.0 * ELECTRON_VOLT_J,
)


def test_geometry_validation():
    with pytest.raises(ValidationError):
        WellGeometry(well_width=-1e-10, barrier_end=2e-10, barrier_height=1e-18, plateau_height=0.0)
    with pytest.raises(ValidationError):
        WellGeometry(well_width=2e-10, barrier_end=1e-10, barrier_height=1e-18, plateau_height=0.0)
    with pytest.raises(ValidationError):
        # plateau above the barrier makes no sense
        WellGeometry(well_width=1e-10, barrier_end=2e-10, barrier_height=1e-19, plateau_height=1e-18)


@pytest.mark.parametrize(
    "field", ["well_width", "barrier_end", "barrier_height", "plateau_height", "mass"]
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_geometry_rejects_non_finite_fields(field, bad):
    fields = dict(
        well_width=1e-10, barrier_end=2e-10, barrier_height=1e-18, plateau_height=0.0, mass=ELECTRON_MASS_KG
    )
    fields[field] = bad
    with pytest.raises(ValidationError, match="finite"):
        WellGeometry(**fields)


def _branch_count(geometry):
    k_max = math.sqrt(2.0 * geometry.mass * geometry.barrier_height) / HBAR_JS
    return math.floor(k_max * geometry.well_width / math.pi + 0.5)


@pytest.mark.parametrize("width_nm, count", [(50, 258), (500, 2578), (3000, 15471)])
def test_wide_wells_keep_every_level(width_nm, count):
    # one level per tangent branch below k_max, however many branches there are
    a = width_nm * 1e-9
    geometry = WellGeometry(
        well_width=a,
        barrier_end=a + 0.05e-9,
        barrier_height=10.0 * ELECTRON_VOLT_J,
        plateau_height=5.0 * ELECTRON_VOLT_J,
    )
    energies = bound_state_energies(geometry)
    assert len(energies) == _branch_count(geometry) == count
    assert np.all(np.diff(energies) > 0.0)
    assert 0.0 < energies[0] and energies[-1] < geometry.barrier_height


def test_branch_starting_at_barrier_top_holds_no_level():
    # k_max a on a tangent pole: the top branch opens at V0 itself, where no level lies
    v0 = 10.0 * ELECTRON_VOLT_J
    k_max = math.sqrt(2.0 * ELECTRON_MASS_KG * v0) / HBAR_JS
    for n in (1, 2, 7, 40, 333):
        a = (n - 0.5) * math.pi / k_max
        for width in (np.nextafter(a, 0.0), a, np.nextafter(a, 1.0)):
            geometry = WellGeometry(well_width=width, barrier_end=2.0 * width, barrier_height=v0, plateau_height=0.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                energies = bound_state_energies(geometry)
            assert len(energies) in (n - 1, n)
            assert np.all(np.diff(energies) > 0.0)
            assert np.all((0.0 < energies) & (energies < v0))


def test_level_count_is_capped_at_max_levels():
    v0 = 10.0 * ELECTRON_VOLT_J
    k_max = math.sqrt(2.0 * ELECTRON_MASS_KG * v0) / HBAR_JS
    at_cap = (MAX_LEVELS - 0.25) * math.pi / k_max
    geometry = WellGeometry(well_width=at_cap, barrier_end=2.0 * at_cap, barrier_height=v0, plateau_height=0.0)
    assert len(bound_state_energies(geometry)) == MAX_LEVELS
    past_cap = (MAX_LEVELS + 0.75) * math.pi / k_max
    geometry = WellGeometry(well_width=past_cap, barrier_end=2.0 * past_cap, barrier_height=v0, plateau_height=0.0)
    with pytest.raises(ValidationError, match="MAX_LEVELS"):
        bound_state_energies(geometry)
    # a 1 m well at 10 eV holds about 5e9 levels
    geometry = WellGeometry(well_width=1.0, barrier_end=1.1, barrier_height=v0, plateau_height=0.0)
    with pytest.raises(ValidationError, match="MAX_LEVELS"):
        bound_state_energies(geometry)
    # an overflowing wave number is refused the same way
    huge = WellGeometry(well_width=1.0, barrier_end=2.0, barrier_height=1e300, plateau_height=0.0, mass=1e300)
    with pytest.raises(ValidationError, match="MAX_LEVELS"):
        bound_state_energies(huge)


def test_levels_match_bisection_oracle_on_random_geometries():
    rng = np.random.default_rng(61)
    for _ in range(5):
        a = rng.uniform(2.0, 5.0) * 1e-10
        geometry = WellGeometry(
            well_width=a,
            barrier_end=a + rng.uniform(0.1, 1.0) * 1e-10,
            barrier_height=rng.uniform(40.0, 120.0) * ELECTRON_VOLT_J,
            plateau_height=0.0,
        )
        got = [joule_to_ev(e) for e in bound_state_energies(geometry)]
        oracle = _oracle_energies_ev(geometry)
        assert len(got) == len(oracle) == _branch_count(geometry)
        assert max(abs(g - o) / o for g, o in zip(got, oracle)) < 1e-9


def _residue(geometry, energy):
    # tan(k a) + sqrt(E / (V0 - E)); +inf at and above the barrier top
    if energy >= geometry.barrier_height:
        return math.inf
    k = math.sqrt(2.0 * geometry.mass * energy) / HBAR_JS
    return math.tan(k * geometry.well_width) + math.sqrt(energy / (geometry.barrier_height - energy))


@settings(max_examples=60, deadline=None)
@given(
    width=st.floats(1e-10, 1e-7),
    barrier=st.floats(1e-11, 1e-9),
    v0_ev=st.floats(0.5, 200.0),
    plateau_share=st.floats(0.0, 0.99),
    mass_me=st.floats(0.05, 5.0),
)
def test_levels_follow_branch_structure(width, barrier, v0_ev, plateau_share, mass_me):
    geometry = WellGeometry(
        well_width=width,
        barrier_end=width + barrier,
        barrier_height=v0_ev * ELECTRON_VOLT_J,
        plateau_height=plateau_share * v0_ev * ELECTRON_VOLT_J,
        mass=mass_me * ELECTRON_MASS_KG,
    )
    energies = bound_state_energies(geometry)
    assert len(energies) == _branch_count(geometry)
    assert np.all(np.diff(energies) > 0.0)
    assert np.all((0.0 < energies) & (energies < geometry.barrier_height))
    for e in energies:
        assert _residue(geometry, e * (1.0 - ENERGY_RTOL)) < 0.0 < _residue(geometry, e * (1.0 + ENERGY_RTOL))


def test_deep_well_approaches_infinite_well_levels():
    # with a very tall barrier the low levels sit within 1% of n^2 pi^2 hbar^2 / (2 m a^2)
    a = 3.0e-10
    geometry = WellGeometry(
        well_width=a,
        barrier_end=a + 5e-10,
        barrier_height=5.0e4 * ELECTRON_VOLT_J,
        plateau_height=0.0,
    )
    energies = bound_state_energies(geometry)
    assert len(energies) >= 3
    for n in (1, 2, 3):
        e_inf = (n * math.pi * HBAR_JS / a) ** 2 / (2.0 * ELECTRON_MASS_KG)
        assert abs(energies[n - 1] - e_inf) / e_inf < 0.01


def test_benchmark_well_has_four_levels_near_published_values():
    energies = bound_state_energies(BENCH)
    assert len(energies) == 4
    published_ev = [4.2, 18.9, 42.0, 72.3]
    for e, ref in zip(energies, published_ev):
        assert abs(joule_to_ev(e) - ref) / ref < 0.15
    assert all(b > a for a, b in zip(energies, energies[1:]))


def test_roots_satisfy_matching_condition():
    # tan(k a) = -sqrt(E / (V0 - E)) at every root
    for e in bound_state_energies(BENCH):
        k = math.sqrt(2.0 * BENCH.mass * e) / HBAR_JS
        lhs = math.tan(k * BENCH.well_width)
        rhs = -math.sqrt(e / (BENCH.barrier_height - e))
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs))


def test_classification_thresholds():
    v0 = 10.0 * ELECTRON_VOLT_J
    vp = 4.0 * ELECTRON_VOLT_J
    geometry = WellGeometry(
        well_width=3e-10, barrier_end=4e-10, barrier_height=v0, plateau_height=vp
    )
    energies = [0.5 * vp, vp, 0.5 * (vp + v0), 0.999 * v0, v0, 2.0 * v0]
    kinds = [s.kind for s in classify_levels(geometry, energies)]
    assert kinds == [
        KIND_BOUND,
        KIND_TUNNELING,  # window is closed at the plateau
        KIND_TUNNELING,
        KIND_TUNNELING,
        KIND_UNBOUNDED,  # and open at the barrier top
        KIND_UNBOUNDED,
    ]


def test_benchmark_classification():
    states = classify_levels(BENCH, bound_state_energies(BENCH))
    kinds = [s.kind for s in states]
    # the solved third level lands just below the 42 eV plateau, so only
    # the top level tunnels; the published table calls both 3 and 4
    # tunneling because it rounds E3 up to the plateau exactly
    assert kinds == [KIND_BOUND, KIND_BOUND, KIND_BOUND, KIND_TUNNELING]
    assert [s.index for s in states] == [1, 2, 3, 4]


def test_wkb_closed_form_matches_quadrature():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(1.0, 5.0) * 1e-10
        geometry = WellGeometry(
            well_width=a,
            barrier_end=a + rng.uniform(0.1, 1.0) * 1e-10,
            barrier_height=rng.uniform(20.0, 100.0) * ELECTRON_VOLT_J,
            plateau_height=0.0,
        )
        energy = rng.uniform(0.1, 0.95) * geometry.barrier_height
        p_closed = wkb_transmission(geometry, energy)
        p_quad = wkb_transmission_quadrature(geometry, energy)
        assert abs(p_closed - p_quad) <= 1e-9 * p_quad


def test_wkb_monotone_in_energy():
    energies = np.linspace(0.1, 0.9, 9) * BENCH.barrier_height
    probs = [wkb_transmission(BENCH, e) for e in energies]
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_wkb_domain_checks():
    with pytest.raises(ValidationError):
        wkb_transmission(BENCH, 1.5 * BENCH.barrier_height)
    with pytest.raises(ValidationError):
        wkb_transmission(BENCH, -1.0)


def test_tunneling_time_model():
    e = 71.0 * ELECTRON_VOLT_J
    v = math.sqrt(2.0 * e / BENCH.mass)
    crossing = 2.0 * BENCH.barrier_width / v

    full = tunneling_time(BENCH, e, 1.0)
    assert abs(full.crossing_time - crossing) < 1e-25
    assert abs(full.tunneling_time - crossing) < 1e-25

    half = tunneling_time(BENCH, e, 0.5)
    assert abs(half.tunneling_time - 2.0 * crossing) < 1e-25

    assert math.isinf(tunneling_time(BENCH, e, 0.0).tunneling_time)
    with pytest.raises(ValidationError):
        tunneling_time(BENCH, e, 1.5)
    with pytest.raises(ValidationError):
        tunneling_time(BENCH, -e, 0.5)


def _four_level_states(kinds):
    energies = [1.0, 2.0, 3.0, 4.0]
    return [
        BoundState(index=n, energy=e, kind=k)
        for n, (e, k) in enumerate(zip(energies, kinds), start=1)
    ]


def test_excitation_plan_two_pair_swap():
    states = _four_level_states([KIND_BOUND, KIND_BOUND, KIND_TUNNELING, KIND_TUNNELING])
    plan = excitation_plan(np.array([0.7, 0.3, 0.0, 0.0]), states)
    assert plan.sources == (1, 2)
    assert plan.targets == (3, 4)
    assert not plan.multi_step
    expected = np.zeros((4, 4))
    expected[2, 0] = expected[0, 2] = 1.0
    expected[3, 1] = expected[1, 3] = 1.0
    assert np.array_equal(plan.unitary, expected)
    # disjoint sources and targets give an involution
    assert np.array_equal(plan.unitary @ plan.unitary, np.eye(4))


def test_excitation_plan_orders_largest_population_lowest_target():
    states = _four_level_states([KIND_BOUND, KIND_BOUND, KIND_TUNNELING, KIND_TUNNELING])
    plan = excitation_plan(np.array([0.3, 0.7, 0.0, 0.0]), states)
    # level 2 holds the larger population, so it claims the lower tunneling level
    assert plan.sources == (2, 1)
    assert plan.targets == (3, 4)
    final = plan.unitary @ np.array([0.3, 0.7, 0.0, 0.0])
    assert np.allclose(final, [0.0, 0.0, 0.7, 0.3])


def test_excitation_plan_multi_step_when_targets_scarce():
    states = _four_level_states([KIND_BOUND, KIND_BOUND, KIND_BOUND, KIND_TUNNELING])
    plan = excitation_plan(np.array([0.6, 0.4, 0.0, 0.0]), states)
    assert plan.multi_step
    assert 4 in plan.targets


def test_excitation_plan_requires_tunneling_level():
    states = _four_level_states([KIND_BOUND, KIND_BOUND, KIND_BOUND, KIND_BOUND])
    with pytest.raises(ValidationError):
        excitation_plan(np.array([1.0, 0.0, 0.0, 0.0]), states)
