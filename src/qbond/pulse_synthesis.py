"""Decompose a target unitary into nearest-neighbor pulses and shape them.

A resonant pulse of area C and carrier phase phi on the level pair
(k, k+1) realizes the block

    [[cos C,                i exp(+i phi) sin C],
     [i exp(-i phi) sin C,  cos C             ]]

embedded in the identity (rows and columns k, k+1, levels 1-based). The
area is the dipole-weighted envelope integral, C = D_k * integral A(t) dt
measured above the envelope baseline, so a full population swap is
C = pi / 2. _blocks builds an (m, 2, 2) stack of these blocks from arrays
of areas and phases; it is the only code that writes the block. Its
callers (pulse_unitary, the decomposition, reconstruct and schedule
playback) left-multiply (m, 2, n) stacks of disjoint row pairs with it, so
one numpy product applies a whole layer of pulses.

Decomposition walks columns of the target from last to first (Reck
order). Within a column the nonzero entries above the diagonal position
are chained downward: the entry on row k is rotated into row k+1, so the
column mass accumulates on the diagonal. Eliminations on disjoint row
pairs commute, so they run as a wavefront of 2d - 3 batched layers that
gives the serial loop's result. Running these eliminations W_1 .. W_K
leaves a diagonal unitary Lambda,

    W_K ... W_1 U = Lambda,

and the physical schedule applies the adjoint pulses in reverse order,
U = W_1^dag ... W_K^dag Lambda. The adjoint of a block pulse is the same
block with phase shifted by pi, so every schedule entry is again a plain
(transition, area, phase) pulse. Lambda is free evolution; its angles are
returned as residual phases rather than synthesized.

Shaping turns each area into a minimum-duration piecewise-linear envelope
under amplitude and slew bounds: a triangle when the required peak stays
below the cap, otherwise a trapezoid riding at the cap. An envelope
(PulseShape) is its breakpoints and nothing else: its duration, baseline
and realized area are read off them, and an unshaped pulse has none. Each
shaped pulse records the dipole D_k it was shaped for. Pulses play back
to back: PulseSchedule.start_times and total_time read one running sum of
the durations, the one clock that places pulses in time.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ValidationError
from .operators import as_square_matrix, validate_unitary

# column entries at or below this magnitude are treated as already eliminated
ELIMINATION_ATOL = 1e-13
DIAGONAL_ATOL = 1e-10


def _wrap_angle(angle):
    """Map to (-pi, pi], elementwise for arrays."""
    a = np.fmod(np.add(angle, math.pi), 2.0 * math.pi)
    return np.where(a <= 0.0, a + 2.0 * math.pi, a) - math.pi


@dataclass(frozen=True)
class TransitionPulse:
    """Resonant pulse on one nearest-neighbor transition.

    transition is the 1-based level pair (k, k+1); area is the rotation
    coefficient C in [0, pi); phase is the carrier phase in (-pi, pi].
    """

    transition: tuple[int, int]
    area: float
    phase: float

    def __post_init__(self):
        k, k1 = self.transition
        if k1 != k + 1 or k < 1:
            raise ValidationError(f"transition must be (k, k+1) with k >= 1, got {self.transition}")
        if not (0.0 <= self.area < math.pi):
            raise ValidationError(f"area must lie in [0, pi), got {self.area}")


@dataclass(frozen=True)
class PulseConstraints:
    """Hardware envelope limits.

    amplitude_max / amplitude_min bound the envelope (amplitude_min is the
    modulator extinction floor, treated as the baseline); slew_max > 0 and
    slew_min < 0 bound the signed envelope rate of change; all are finite.
    """

    amplitude_max: float
    amplitude_min: float = 0.0
    slew_max: float = 1.0
    slew_min: float = -1.0

    def __post_init__(self):
        fields = (self.amplitude_max, self.amplitude_min, self.slew_max, self.slew_min)
        if not all(math.isfinite(x) for x in fields):
            raise ValidationError(f"pulse constraints must be finite, got {fields}")
        if not (0.0 <= self.amplitude_min <= self.amplitude_max):
            raise ValidationError(
                f"need 0 <= amplitude_min <= amplitude_max, got {self.amplitude_min}, {self.amplitude_max}"
            )
        if self.slew_max <= 0.0 or self.slew_min >= 0.0:
            raise ValidationError(
                f"need slew_min < 0 < slew_max, got {self.slew_min}, {self.slew_max}"
            )
        # shape_pulse's ramp factor; a subnormal slew overflows it and every envelope would collapse to zero
        if not math.isfinite(1.0 / self.slew_max - 1.0 / self.slew_min):
            raise ValidationError(
                f"slew_max {self.slew_max} and slew_min {self.slew_min} are too close to 0: "
                "the ramp factor 1/slew_max + 1/|slew_min| overflows"
            )

    @property
    def headroom(self) -> float:
        return self.amplitude_max - self.amplitude_min


@dataclass(frozen=True)
class PulseShape:
    """Piecewise-linear envelope, breakpoints ((t, amplitude), ...), and nothing else.

    Amplitudes are absolute; the first and last breakpoints sit on the
    baseline. Everything else is read off the breakpoints: duration is the
    last breakpoint time, realized_area the integral of the envelope above
    the baseline (the quantity the rotation area is proportional to), and
    baseline_leakage the baseline contribution (baseline times duration),
    which leaks into the drive without being compensated. An envelope with
    no breakpoints is an unshaped pulse: it takes no time on the schedule
    clock, and playback refuses it.
    """

    breakpoints: tuple[tuple[float, float], ...]

    @property
    def duration(self) -> float:
        points = self.breakpoints
        return points[-1][0] if points else 0.0

    @property
    def baseline(self) -> float:
        return self.breakpoints[0][1] if self.breakpoints else 0.0

    @property
    def realized_area(self) -> float:
        base, points = self.baseline, self.breakpoints
        pieces = zip(points[:-1], points[1:])
        return sum((0.5 * ((a0 - base) + (a1 - base)) * (t1 - t0) for (t0, a0), (t1, a1) in pieces), 0.0)

    @property
    def baseline_leakage(self) -> float:
        return self.baseline * self.duration


@dataclass(frozen=True)
class ScheduledPulse:
    """A pulse, its envelope (PulseShape(()) when unshaped) and the dipole D_k the envelope was shaped for."""

    pulse: TransitionPulse
    shape: PulseShape = PulseShape(())
    dipole: float = 1.0

    def __post_init__(self):
        _dipole(None, self.pulse.transition[0], self.dipole)


@dataclass
class PulseSchedule:
    """Ordered pulse train plus the diagonal left over by the decomposition.

    pulses are in application order (pulses[0] acts first). residual_phases
    holds angles theta with R = diag(exp(i theta)); the defining identity is

        (product of pulse unitaries, leftmost = last applied) @ R^dag = target.
    """

    pulses: list[ScheduledPulse]
    residual_phases: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.residual_phases)

    def _clock(self) -> np.ndarray:
        """The one schedule clock: 0.0, then the durations added one after another (a sequential np.cumsum)."""
        return np.cumsum([0.0] + [sp.shape.duration for sp in self.pulses])

    @property
    def start_times(self) -> np.ndarray:
        """When each pulse starts: back to back from t = 0, an unshaped pulse taking no time.

        The head of the schedule clock; playback and envelope.csv read it.
        """
        return self._clock()[:-1]

    @property
    def total_time(self) -> float:
        """End of the last pulse: the schedule clock's last entry, 0.0 when none is shaped."""
        return float(self._clock()[-1])

    def residual_matrix(self) -> np.ndarray:
        return np.diag(np.exp(1j * np.asarray(self.residual_phases)))

    def reconstruct(self) -> np.ndarray:
        """Product of the pulse unitaries, then R^dag, rotated layer by layer.

        Each pulse joins the first layer after every earlier pulse on one of
        its two levels (as soon as possible), so pulses of one layer share no
        level, commute, and rotate their row pairs in one batched product.
        Any pulse order works; a transition beyond the dimension raises.
        """
        d = self.dimension
        rows = _row_pairs([sp.pulse.transition[0] for sp in self.pulses], d)
        blocks = _blocks([sp.pulse.area for sp in self.pulses], [sp.pulse.phase for sp in self.pulses])
        free = [0] * d
        layers: list[list[int]] = []
        for i, (lo, hi) in enumerate(rows.tolist()):
            t = max(free[lo], free[hi])
            free[lo] = free[hi] = t + 1
            if t == len(layers):
                layers.append([])
            layers[t].append(i)
        u = np.eye(d, dtype=complex)
        for layer in layers:
            pairs = rows[layer]
            u[pairs] = blocks[layer] @ u[pairs]
        # u @ R^dag: scale column j by exp(-i theta_j)
        return u * np.exp(-1j * np.asarray(self.residual_phases))


def _blocks(areas, phases) -> np.ndarray:
    """Pulse blocks for arrays of areas and carrier phases, shape (m, 2, 2).

    Each block is [[c, i e^{i phi} s], [i e^{-i phi} s, c]] with c, s the
    cosine and sine of the area; this is the only code that writes it.
    Callers left-multiply an (m, 2, n) stack of disjoint row pairs with it.
    """
    areas = np.asarray(areas, dtype=float)
    c = np.cos(areas)
    e = 1j * np.exp(1j * np.asarray(phases, dtype=float)) * np.sin(areas)
    blocks = np.empty(areas.shape + (2, 2), dtype=complex)
    blocks[..., 0, 0] = c
    blocks[..., 0, 1] = e
    blocks[..., 1, 0] = -e.conj()
    blocks[..., 1, 1] = c
    return blocks


def _row_pairs(ks, dimension: int) -> np.ndarray:
    """Zero-based rows (k - 1, k) of the level pairs (k, k+1), shape (m, 2)."""
    ks = np.asarray(ks, dtype=int).reshape(-1)
    if ks.size and ks.max() >= dimension:
        k = int(ks.max())
        raise ValidationError(f"transition ({k}, {k + 1}) exceeds dimension {dimension}")
    return np.stack([ks - 1, ks], axis=-1)


def pulse_unitary(pulse: TransitionPulse, dimension: int) -> np.ndarray:
    """Embed the closed-form pulse block into the identity."""
    u = np.eye(dimension, dtype=complex)
    pairs = _row_pairs(pulse.transition[0], dimension)
    u[pairs] = _blocks([pulse.area], [pulse.phase]) @ u[pairs]
    return u


def area_phase_from_column(column, k: int) -> tuple[float, float]:
    """Pulse angles that clear a column entry into its upper neighbor.

    Given column entries a_k = r_k exp(i alpha_k) at rows k and k+1
    (1-based), returns (C, phi) such that the pulse on (k, k+1) sends the
    row k+1 entry to zero, accumulating the weight on row k with its
    phase preserved. Conventions: C = atan2(r_{k+1}, r_k) in [0, pi/2]
    (identity when row k+1 is already empty, a full swap when row k is
    empty), phase branch folded so C stays nonnegative.
    """
    col = np.asarray(column, dtype=complex).reshape(-1)
    if not (1 <= k < len(col)):
        raise ValidationError(f"row index {k} has no neighbor k+1 in a column of length {len(col)}")
    upper, lower = col[k - 1], col[k]
    r_up, r_lo = abs(upper), abs(lower)
    if r_lo <= ELIMINATION_ATOL:
        return 0.0, 0.0
    area = math.atan2(r_lo, r_up)
    phase = float(_wrap_angle(np.angle(upper) - np.angle(lower) - math.pi / 2))
    return area, phase


def givens_decompose(target) -> PulseSchedule:
    """Exact pulse-train decomposition of a target unitary.

    Returns a PulseSchedule with areas and phases only (shapes unset).
    The identity reconstructed from it matches the target to roundoff;
    the trailing diagonal is reported through residual_phases. Pulse
    count is at most d (d - 1) / 2.

    The eliminations run as a wavefront: elimination (col, row), which
    clears entry (row, col) into row + 1 (1-based), goes in layer
    t = row + 2 (d - col). Within a layer the rows step by 2 and the
    columns by 1, so its row pairs are disjoint and one batched product
    rotates them all. Every row still meets its rotations in Reck order
    (columns last to first, rows top down within a column), so 2 d - 3
    batched steps do the work of the serial loop. A lower entry at or below
    ELIMINATION_ATOL counts as angle 0, so neither the sign of a zero nor
    roundoff noise reaches a phase.
    """
    u = validate_unitary(as_square_matrix(target))
    d = u.shape[0]
    work = u.astype(complex)
    n = d * (d - 1) // 2
    wave = np.empty((4, n))  # row, column, area and phase of each elimination, wavefront order
    done = 0
    for t in range(1, 2 * d - 2):
        rows = np.arange(max(t - 2 * d + 4, 2 - t % 2), min(t, 2 * d - 2 - t) + 1, 2)
        cols = d - (t - rows) // 2
        # splitting the row axis gives a view in any memory layout
        pairs = work[rows[0] - 1 : rows[-1] + 1].reshape(len(rows), 2, d)
        # pair j's entries sit in column cols[0] + j
        upper = pairs[:, 0, cols[0] - 1 :].diagonal()
        lower = pairs[:, 1, cols[0] - 1 :].diagonal()
        r_up = np.abs(upper)
        # entries at or below ELIMINATION_ATOL are already eliminated; their rows stay untouched,
        # since even an identity block can flip the sign of a zero whose angle sets a later phase
        live = r_up > ELIMINATION_ATOL
        r_lo = np.abs(lower)
        area = np.arctan2(r_up, r_lo) * live
        lower_angle = np.where(r_lo > ELIMINATION_ATOL, np.angle(lower), 0.0)
        phase = _wrap_angle(np.angle(upper) - lower_angle + math.pi / 2)
        pairs[live] = _blocks(area[live], phase[live]) @ pairs[live]
        wave[:, done : done + len(rows)] = rows, cols, area, phase
        done += len(rows)

    off_diag = work - np.diag(np.diag(work))
    worst = float(np.abs(off_diag).max()) if d > 1 else 0.0
    if worst > DIAGONAL_ATOL:
        raise ValidationError(
            f"elimination left off-diagonal residue {worst:.3e}; target is not unitary enough"
        )
    diagonal = np.diag(work)
    # residual_phases = Lambda^dag, stored as angles
    residual = -np.angle(diagonal)

    # Reck order: columns last to first, rows top down; a kept elimination has area > 0
    rows, _, areas, phases = wave[:, np.lexsort((wave[0], -wave[1]))]
    keep = np.flatnonzero(areas > 0.0)[::-1]
    # the schedule applies the adjoint eliminations in reverse: same area, phase shifted by pi
    pulses = [
        ScheduledPulse(pulse=TransitionPulse(transition=(k, k + 1), area=a, phase=p))
        for k, a, p in zip(
            rows[keep].astype(int).tolist(),
            areas[keep].tolist(),
            _wrap_angle(phases[keep] + math.pi).tolist(),
        )
    ]
    return PulseSchedule(pulses=pulses, residual_phases=residual)


def shape_pulse(area_required: float, constraints: PulseConstraints) -> PulseShape:
    """Minimum-duration envelope realizing the required area above baseline.

    A triangular ramp up and down is optimal while the implied peak stays
    under the amplitude cap; beyond that the envelope saturates at the
    cap and holds a plateau (trapezoid). With symmetric slews R the
    closed forms are duration = 2 sqrt(area / R) for the triangle and
    duration = M / R + area / M at cap M for the trapezoid; asymmetric
    slews generalize through the combined ramp factor
    S = 1 / slew_up + 1 / slew_down.
    """
    if area_required < 0.0:
        raise ValidationError(f"area must be nonnegative, got {area_required}")
    if area_required == 0.0:
        return PulseShape(())

    cap = constraints.headroom
    if cap <= 0.0:
        raise ValidationError(
            f"no amplitude headroom above the baseline ({constraints.amplitude_min} vs "
            f"{constraints.amplitude_max}); the requested area {area_required} is infeasible"
        )
    rate_up = constraints.slew_max
    rate_down = -constraints.slew_min
    ramp_factor = 1.0 / rate_up + 1.0 / rate_down

    base = constraints.amplitude_min
    peak = math.sqrt(2.0 * area_required / ramp_factor)
    if peak <= cap:
        rise = peak / rate_up
        fall = peak / rate_down
        duration = rise + fall
        points = ((0.0, base), (rise, base + peak), (duration, base))
    else:
        rise = cap / rate_up
        fall = cap / rate_down
        # plateau length from area = cap^2 * ramp_factor / 2 + cap * plateau
        plateau = (area_required - 0.5 * cap * cap * ramp_factor) / cap
        duration = rise + plateau + fall
        points = (
            (0.0, base),
            (rise, base + cap),
            (rise + plateau, base + cap),
            (duration, base),
        )
    return PulseShape(points)


def schedule(target, constraints, dipoles=None) -> PulseSchedule:
    """Full synthesis: decompose the target, then shape every pulse.

    Parameters
    ----------
    target : unitary to realize
    constraints : PulseConstraints, or a mapping from the lower level k of
        each transition to its own PulseConstraints
    dipoles : transition dipole weights D_k (rotation per unit envelope
        area). A scalar applies everywhere; a mapping is keyed by the
        lower level k. Defaults to 1.0.

    The envelope of pulse m must integrate to C_m / D_k above baseline;
    each ScheduledPulse records the D_k it was shaped for.
    """
    plan = givens_decompose(target)
    shaped: list[ScheduledPulse] = []
    for sp in plan.pulses:
        k = sp.pulse.transition[0]
        d_k = _dipole(dipoles, k)
        limits = _lookup(constraints, k, what="constraints")
        if limits is None:
            raise ValidationError(f"no constraints provided for transition ({k}, {k + 1})")
        shape = shape_pulse(sp.pulse.area / d_k, limits)
        shaped.append(ScheduledPulse(pulse=sp.pulse, shape=shape, dipole=d_k))
    return PulseSchedule(pulses=shaped, residual_phases=plan.residual_phases)


def _lookup(table, key: int, what: str):
    """Scalar, mapping or None resolution for per-transition parameters."""
    if table is None:
        return None
    if isinstance(table, PulseConstraints):
        return table
    if isinstance(table, (int, float)):
        return float(table)
    try:
        return table[key]
    except (KeyError, IndexError, TypeError):
        raise ValidationError(f"no {what} entry for transition lower level {key}") from None


def _dipole(dipoles, k: int, recorded: float = 1.0) -> float:
    """D_k for transition (k, k+1): from explicit dipoles when given, else the recorded value."""
    d_k = recorded if dipoles is None else float(_lookup(dipoles, k, what="dipole"))
    if not (math.isfinite(d_k) and d_k > 0.0):
        raise ValidationError(
            f"dipole for transition ({k}, {k + 1}) must be finite and positive, got {d_k}"
        )
    return d_k
