"""Bound levels, tunneling probabilities and escape times for a step well.

Geometry (one dimensional, hard wall at x = 0):

    V(x) = 0                for 0 <= x < a      (well interior)
           barrier_height   for a <= x < b      (finite barrier)
           plateau_height   for x >= b          (outer plateau)

Levels below the plateau are bound for good; levels between the plateau
and the barrier top can escape by tunneling through the strip [a, b].
Bound levels solve

    tan(sqrt(2 m E) a / hbar) = -sqrt(E / (V0 - E)),   0 < E < V0,

with V0 the barrier height. In the wave number k = sqrt(2 m E) / hbar
the residue tan(k a) + k / sqrt(k_max^2 - k^2), with k_max the wave
number at V0, rises strictly from -inf on every tangent branch
k a in ((n - 1/2) pi, (n + 1/2) pi). Branch 0 is positive throughout,
so branch n >= 1 below k_max holds exactly one level and there are
floor(k_max a / pi + 1/2) of them. The solver bisects all branch
brackets at once.

All energies and lengths are SI internally; electronvolt conversion
happens at the interface layer.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .constants import ELECTRON_MASS_KG, HBAR_JS
from .errors import NumericalError, ValidationError
from .operators import validate_probability_vector

ENERGY_RTOL = 1e-12
QUADRATURE_RTOL = 1e-10
MAX_DOUBLINGS = 26              # Simpson interval doublings before giving up
POPULATION_ATOL = 1e-12
MAX_LEVELS = 100_000           # one bisection bracket per level is held in memory

KIND_BOUND = "bound"
KIND_TUNNELING = "tunneling"
KIND_UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class WellGeometry:
    """Step-well geometry in SI units.

    well_width: inner region size a (m)
    barrier_end: outer barrier coordinate b (m), barrier occupies [a, b)
    barrier_height: V0 (J)
    plateau_height: V0' (J), potential beyond the barrier
    """

    well_width: float
    barrier_end: float
    barrier_height: float
    plateau_height: float
    mass: float = ELECTRON_MASS_KG

    def __post_init__(self):
        fields = (self.well_width, self.barrier_end, self.barrier_height, self.plateau_height, self.mass)
        if not all(math.isfinite(x) for x in fields):
            raise ValidationError(f"well geometry must be finite, got {fields}")
        if not (0 < self.well_width < self.barrier_end):
            raise ValidationError(
                f"need 0 < well_width < barrier_end, got {self.well_width}, {self.barrier_end}"
            )
        if self.barrier_height <= 0:
            raise ValidationError(f"barrier height must be positive, got {self.barrier_height}")
        if not (0 <= self.plateau_height < self.barrier_height):
            raise ValidationError(
                "plateau height must satisfy 0 <= plateau < barrier, got "
                f"{self.plateau_height} vs {self.barrier_height}"
            )
        if self.mass <= 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")

    @property
    def barrier_width(self) -> float:
        return self.barrier_end - self.well_width


@dataclass(frozen=True)
class BoundState:
    index: int        # 1-based, energies ascending
    energy: float     # J
    kind: str         # bound | tunneling | unbounded


@dataclass(frozen=True)
class TunnelingEstimate:
    probability: float
    crossing_time: float     # seconds, 2 * barrier_width / velocity
    tunneling_time: float    # seconds, crossing_time / probability


def bound_state_energies(geometry: WellGeometry) -> np.ndarray:
    """All solutions of the level condition in (0, barrier_height), ascending (J).

    Level n >= 1 is the single root on tangent branch n, bracketed by
    k in ((n - 1/2) pi / a, min((n + 1/2) pi / a, k_max)) with the open
    ends nudged inward. All brackets are bisected together until each
    energy is converged to ENERGY_RTOL in relative terms; a top level
    that rounds to barrier_height is left out. Raises ValidationError when
    the level count exceeds MAX_LEVELS.
    """
    a = geometry.well_width
    k_max = math.sqrt(2.0 * geometry.mass * geometry.barrier_height) / HBAR_JS
    count = k_max * a / math.pi + 0.5       # the level count is its floor
    if not count < MAX_LEVELS + 1:
        raise ValidationError(
            f"the well holds about {count:.4g} levels, more than MAX_LEVELS = {MAX_LEVELS}; "
            "narrow the well or lower the barrier"
        )
    n = np.arange(1, math.floor(count) + 1, dtype=float)
    hi = np.nextafter(np.minimum((n + 0.5) * math.pi / a, k_max), 0.0)
    # a top branch opening at k_max to rounding collapses onto hi, so k stays below k_max
    lo = np.minimum(np.nextafter((n - 0.5) * math.pi / a, math.inf), hi)
    # energy scales as k^2, so halve the k tolerance
    while np.any(hi - lo > 0.5 * ENERGY_RTOL * 0.5 * (lo + hi)):
        mid = 0.5 * (lo + hi)
        # tan(k a) + sqrt(E / (V0 - E)), negative next to lo and positive next to hi;
        # the square root is taken in k so it stays finite right up to k_max
        below = np.tan(mid * a) + mid / np.sqrt((k_max - mid) * (k_max + mid)) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    energies = (HBAR_JS * 0.5 * (lo + hi)) ** 2 / (2.0 * geometry.mass)
    # on such a branch the top level may round to V0 itself, outside (0, V0)
    return energies[energies < geometry.barrier_height]


def classify_levels(geometry: WellGeometry, energies) -> list[BoundState]:
    """Label each level bound, tunneling or unbounded.

    Thresholds are exact: bound strictly below the plateau, tunneling on
    the closed interval [plateau, barrier), unbounded at or above the
    barrier top.
    """
    out = []
    for n, e in enumerate(np.sort(np.asarray(energies, dtype=float)), start=1):
        if e < geometry.plateau_height:
            kind = KIND_BOUND
        elif e < geometry.barrier_height:
            kind = KIND_TUNNELING
        else:
            kind = KIND_UNBOUNDED
        out.append(BoundState(index=n, energy=float(e), kind=kind))
    return out


def wkb_transmission(geometry: WellGeometry, energy: float) -> float:
    """Closed-form tunneling probability through the rectangular strip.

        P = exp(-2 sqrt(2 m (V0 - E)) (b - a) / hbar)

    Defined for any energy below the barrier top. Whether a level
    actually escapes depends on its classification (only levels above
    the plateau see free space beyond the strip); that call is left to
    the caller so the formula stays usable for comparisons.
    """
    _require_below_barrier(geometry, energy)
    exponent = (
        2.0
        * math.sqrt(2.0 * geometry.mass * (geometry.barrier_height - energy))
        * geometry.barrier_width
        / HBAR_JS
    )
    return min(1.0, math.exp(-exponent))


def barrier_action_quadrature(potential, x_lo: float, x_hi: float, energy: float, mass: float) -> float:
    """Integral of sqrt(2 m (V(x) - E)) over [x_lo, x_hi] by composite Simpson.

    The interval count doubles until the result changes by less than
    QUADRATURE_RTOL in relative terms. Regions where V < E contribute
    zero, so piecewise barriers with classically allowed gaps integrate
    correctly.
    """
    if x_hi <= x_lo:
        raise ValidationError(f"need x_lo < x_hi, got {x_lo}, {x_hi}")

    def integrand(x):
        return np.sqrt(np.maximum(2.0 * mass * (np.vectorize(potential)(x) - energy), 0.0))

    previous = None
    n = 8
    for _ in range(MAX_DOUBLINGS):
        xs = np.linspace(x_lo, x_hi, n + 1)
        ys = integrand(xs)
        h = (x_hi - x_lo) / n
        total = (h / 3.0) * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
        if previous is not None and abs(total - previous) <= QUADRATURE_RTOL * max(abs(total), 1e-300):
            return float(total)
        previous = total
        n *= 2
    raise NumericalError(f"Simpson quadrature missed rtol={QUADRATURE_RTOL} in {MAX_DOUBLINGS} doublings")


def wkb_transmission_quadrature(geometry: WellGeometry, energy: float) -> float:
    """Quadrature route to the same transmission; serves as an independent check."""
    _require_below_barrier(geometry, energy)
    action = barrier_action_quadrature(
        lambda x: geometry.barrier_height,
        geometry.well_width,
        geometry.barrier_end,
        energy,
        geometry.mass,
    )
    return min(1.0, math.exp(-2.0 * action / HBAR_JS))


def _require_below_barrier(geometry: WellGeometry, energy: float) -> None:
    if not (0.0 < energy < geometry.barrier_height):
        states = classify_levels(geometry, [energy])
        raise ValidationError(
            f"energy {energy!r} J is outside (0, {geometry.barrier_height!r}) J "
            f"where the strip formula applies; it classifies as {states[0].kind}"
        )


def tunneling_time(geometry: WellGeometry, energy: float, probability: float) -> TunnelingEstimate:
    """Escape-time estimate from the attempt-frequency picture.

    The level traverses the barrier strip at v = sqrt(2 E / m); one
    attempt takes 2 (b - a) / v (out and back) and succeeds with the
    given probability, so the expected escape time is the crossing time
    divided by the probability. A vanishing probability yields an
    infinite time rather than an error.
    """
    if energy <= 0:
        raise ValidationError(f"energy must be positive, got {energy}")
    if not (0.0 <= probability <= 1.0):
        raise ValidationError(f"probability must lie in [0, 1], got {probability}")
    velocity = math.sqrt(2.0 * energy / geometry.mass)
    crossing = 2.0 * geometry.barrier_width / velocity
    escape = math.inf if probability == 0.0 else crossing / probability
    return TunnelingEstimate(probability=probability, crossing_time=crossing, tunneling_time=escape)


@dataclass(frozen=True)
class ExcitationPlan:
    """Permutation plan moving trapped population onto tunneling levels.

    The unitary is the permutation matrix obtained by applying the
    transpositions (sources[i], targets[i]) in order (1-based level
    indices). When every populated level fits onto a free tunneling level
    the pairs are disjoint and the permutation is an involution, matching
    the two-pair swap form. multi_step is set when there are fewer free
    tunneling levels than populated non-tunneling levels; the overflow
    populations are then staged on the uppermost non-tunneling levels and
    at least one more round is needed after the tunneling levels drain.
    """

    sources: tuple[int, ...]
    targets: tuple[int, ...]
    unitary: np.ndarray
    multi_step: bool


def excitation_plan(initial_populations, states: list[BoundState]) -> ExcitationPlan:
    """Choose which populations to promote onto which tunneling levels.

    initial_populations[i] belongs to states[i] (levels ascending, no
    coherences). The largest population goes to the lowest free tunneling
    level, the next to the next, which minimizes the excitation energy
    spent. Populations already sitting on tunneling levels stay put.
    """
    p = validate_probability_vector(initial_populations)
    if len(p) != len(states):
        raise ValidationError(
            f"population count {len(p)} does not match level count {len(states)}"
        )
    order = [s.index for s in states]
    if order != sorted(order) or any(
        states[i].energy > states[i + 1].energy for i in range(len(states) - 1)
    ):
        raise ValidationError("states must be ordered by ascending energy")

    d = len(states)
    tunneling = [s.index for s in states if s.kind == KIND_TUNNELING]
    if not tunneling:
        raise ValidationError(
            "no tunneling level exists; narrow the barrier or lower the plateau "
            "so at least one level falls in the tunneling window"
        )

    populated = {states[i].index for i in range(d) if p[i] > POPULATION_ATOL}
    trapped = [
        idx
        for idx in sorted(populated, key=lambda idx: (-p[idx - 1], idx))
        if states[idx - 1].kind != KIND_TUNNELING
    ]

    unitary = np.eye(d)
    if not trapped:
        return ExcitationPlan(sources=(), targets=(), unitary=unitary, multi_step=False)

    free_tunneling = [idx for idx in tunneling if idx not in populated]
    multi_step = len(trapped) > len(free_tunneling)

    sources: list[int] = []
    targets: list[int] = []
    promoted = trapped[: len(free_tunneling)]
    for src, tgt in zip(promoted, free_tunneling):
        sources.append(src)
        targets.append(tgt)

    if multi_step:
        # stage the leftovers on the highest trap levels so the next round
        # can lift them once the tunneling levels drain
        leftovers = trapped[len(free_tunneling):]
        staging = [
            s.index
            for s in reversed(states)
            if s.kind != KIND_TUNNELING and s.index not in targets
        ]
        for src, tgt in zip(leftovers, staging):
            if src == tgt:
                continue
            sources.append(src)
            targets.append(tgt)

    for src, tgt in zip(sources, targets):
        unitary[[src - 1, tgt - 1]] = unitary[[tgt - 1, src - 1]]

    return ExcitationPlan(
        sources=tuple(sources), targets=tuple(targets), unitary=unitary, multi_step=multi_step
    )
