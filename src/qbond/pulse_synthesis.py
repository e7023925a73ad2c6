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
below the cap, otherwise a trapezoid riding at the cap. schedule shapes
every pulse of a train in one numpy pass (_shape), looking up the dipole
and the constraints once per transition, and refuses an envelope whose
breakpoints do not realize C / D_k within REALIZED_AREA_RTOL.

A PulseSchedule holds the train as read-only columns, with envelopes as
rows of one breakpoint table; TransitionPulse and PulseShape records are a
view built on read and a way to build a schedule by hand. Pulses play back
to back on one clock, built once per schedule. Every rule of a schedule is
stated once, in PulseSchedule._check, which runs where a schedule enters
the library: PulseSchedule(...) and serialization.schedule_from_json.
givens_decompose and schedule build valid columns and skip it.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
from itertools import accumulate, chain
import math
import numbers

import numpy as np

from .errors import ValidationError
from .operators import as_square_matrix, validate_unitary

# column entries at or below this magnitude are treated as already eliminated
ELIMINATION_ATOL = 1e-13
DIAGONAL_ATOL = 1e-10
# a shaped envelope's realized area may differ from area / dipole by this much, relatively
REALIZED_AREA_RTOL = 1e-6


def _wrap_angle(angle):
    """Map to (-pi, pi], elementwise for arrays."""
    a = np.fmod(np.add(angle, math.pi), 2.0 * math.pi)
    return np.where(a <= 0.0, a + 2.0 * math.pi, a) - math.pi


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
        # a subnormal slew overflows the ramp factor and every envelope would collapse to zero
        if not math.isfinite(self.ramp_factor):
            raise ValidationError(
                f"slew_max {self.slew_max} and slew_min {self.slew_min} are too close to 0: "
                "the ramp factor 1/slew_max + 1/|slew_min| overflows"
            )

    @property
    def headroom(self) -> float:
        return self.amplitude_max - self.amplitude_min

    @property
    def ramp_factor(self) -> float:
        """S = 1 / slew_max + 1 / |slew_min|: ramping up to a peak p and back down covers area S p^2 / 2."""
        return 1.0 / self.slew_max - 1.0 / self.slew_min

    def _row(self) -> tuple:
        """The limits as _shape reads them, one row per pulse."""
        return (self.amplitude_max, self.amplitude_min, self.slew_max, self.slew_min, self.headroom, self.ramp_factor)


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
class TransitionPulse:
    """Resonant pulse on one nearest-neighbor transition, and the envelope that plays it.

    transition is the 1-based level pair (k, k+1); area is the rotation
    coefficient C in [0, pi); phase is the carrier phase in (-pi, pi];
    shape is the envelope (PulseShape(()) when unshaped) and dipole the
    D_k it was shaped for.
    """

    transition: tuple[int, int]
    area: float
    phase: float
    shape: PulseShape = PulseShape(())
    dipole: float = 1.0

    def __post_init__(self):
        k, k1 = self.transition
        if not all(isinstance(x, numbers.Integral) or float(x).is_integer() for x in (k, k1)):
            raise ValidationError(f"transition must be two integer levels, got {self.transition}")
        if k1 != k + 1 or k < 1:
            raise ValidationError(f"transition must be (k, k+1) with k >= 1, got {self.transition}")
        if not (0.0 <= self.area < math.pi):
            raise ValidationError(f"area must lie in [0, pi), got {self.area}")
        _dipole(None, k, self.dipole)


@dataclass(init=False, eq=False)
class PulseSchedule:
    """Ordered pulse train plus the diagonal left over by the decomposition, held as columns.

    Pulse i (in application order, pulse 0 acts first) drives the level
    pair (levels[i], levels[i] + 1) with rotation area areas[i], carrier
    phase phases[i] and dipole dipoles[i]. Its envelope is rows offsets[i]
    to offsets[i + 1] of breakpoints, an (N, 2) table of (t, amplitude)
    rows; an unshaped pulse owns no rows. residual_phases holds angles
    theta with R = diag(exp(i theta)); the defining identity is

        (product of pulse unitaries, leftmost = last applied) @ R^dag = target.

    PulseSchedule(pulses, residual_phases) builds checked columns from
    TransitionPulse records, and pulses gives them back as records. The
    columns are read-only; durations, start_times and total_time are read off them.
    """

    levels: np.ndarray
    areas: np.ndarray
    phases: np.ndarray
    dipoles: np.ndarray
    breakpoints: np.ndarray
    offsets: np.ndarray
    residual_phases: np.ndarray

    def __init__(self, pulses, residual_phases):
        pulses = list(pulses)
        shapes = [sp.shape.breakpoints for sp in pulses]
        self._set(
            [sp.transition[0] for sp in pulses],
            [sp.area for sp in pulses],
            [sp.phase for sp in pulses],
            [sp.dipole for sp in pulses],
            list(chain.from_iterable(shapes)),
            np.fromiter(accumulate(map(len, shapes), initial=0), dtype=int, count=len(shapes) + 1),
            np.array(residual_phases, dtype=float),  # a copy, so the caller's array stays writable
        )
        self._check()

    @classmethod
    def _from_columns(cls, levels, areas, phases, dipoles, breakpoints, offsets, residual_phases):
        """Unchecked, and the arrays become read-only: for columns valid by construction."""
        sched = cls.__new__(cls)
        sched._set(levels, areas, phases, dipoles, breakpoints, offsets, residual_phases)
        return sched

    def __reduce__(self):
        """Copies and pickles rebuild through _from_columns, so their columns are read-only too."""
        return PulseSchedule._from_columns, (
            self.levels, self.areas, self.phases, self.dipoles, self.breakpoints, self.offsets, self.residual_phases
        )

    def _set(self, levels, areas, phases, dipoles, breakpoints, offsets, residual_phases):
        self.levels = np.asarray(levels, dtype=int)
        self.areas = np.asarray(areas, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.dipoles = np.asarray(dipoles, dtype=float)
        self.breakpoints = np.asarray(breakpoints, dtype=float).reshape(-1, 2)
        self.offsets = np.asarray(offsets, dtype=int)
        self.residual_phases = np.asarray(residual_phases, dtype=float)
        # the seven columns just set, read-only so a checked schedule and its cached clock stay true
        for column in vars(self).values():
            column.setflags(write=False)

    def _check(self) -> None:
        """Refuse a schedule that breaks a rule, naming the first pulse that does.

        residual_phases is non-empty (its length is d) and finite; per pulse 1 <= k < d, an area in [0, pi),
        a finite dipole > 0, a finite phase, and finite breakpoints whose times start at 0 or later (else the
        envelope reaches into the pulse before) and never decrease. Only a fault builds a message.
        """
        d, residual, points = self.dimension, self.residual_phases, self.breakpoints
        if not d:
            raise ValidationError("schedule: residual_phases is empty; it holds one phase per level")
        # each row's least time: the row before it, or 0 for the first row of its pulse
        least = np.concatenate(([0.0], points[:, 0]))
        least[self.offsets[:-1]] = 0.0
        rows = points[:, 0] >= least[:-1]
        ok = (self.levels >= 1) & (self.levels < d) & (self.areas >= 0.0) & (self.areas < math.pi)
        ok &= (self.dipoles > 0.0) & (self.dipoles < math.inf) & np.isfinite(self.phases)
        if ok.all() and rows.all() and np.isfinite(points).all() and np.isfinite(residual).all():
            return
        rows &= np.isfinite(points).all(axis=1)
        ok[np.repeat(np.arange(len(ok)), np.diff(self.offsets))[~rows]] = False
        if ok.all():
            raise ValidationError(f"schedule: residual_phases must be finite, got {residual.tolist()}")
        n = int(ok.argmin())
        k, area, phase, dipole = (x[n].item() for x in (self.levels, self.areas, self.phases, self.dipoles))
        points = points[self.offsets[n] : self.offsets[n + 1]].tolist()
        try:
            _row_pairs(k, d)
            TransitionPulse((k, k + 1), area, phase, dipole=dipole)  # the record's rules: k >= 1, area, dipole
            if not math.isfinite(phase):
                raise ValidationError(f"phase must be finite, got {phase}")
            if not np.isfinite(points).all():
                raise ValidationError(f"breakpoints must be finite, got {points}")
            if points[0][0] < 0.0:
                raise ValidationError(f"breakpoint times must start at 0 or later, got {points[0][0]}")
            t0, t1 = next((t0, t1) for (t0, _), (t1, _) in zip(points, points[1:]) if t1 < t0)
            raise ValidationError(f"breakpoint times must not decrease, got {t0} then {t1}")
        except ValidationError as exc:
            raise ValidationError(f"pulse {n}: {exc}") from None

    @property
    def pulses(self) -> list[TransitionPulse]:
        """The pulses as TransitionPulse records, a new list on every read.

        PulseSchedule(pulses, residual_phases) makes a schedule of edited records.
        """
        points = list(map(tuple, self.breakpoints.tolist()))
        bounds = self.offsets.tolist()
        columns = (self.levels.tolist(), self.areas.tolist(), self.phases.tolist(), self.dipoles.tolist())
        return [
            TransitionPulse((k, k + 1), area, phase, PulseShape(tuple(points[lo:hi])), dipole)
            for k, area, phase, dipole, lo, hi in zip(*columns, bounds, bounds[1:])
        ]

    @property
    def dimension(self) -> int:
        return len(self.residual_phases)

    @functools.cached_property
    def durations(self) -> np.ndarray:
        """Each pulse's last breakpoint time, 0.0 for a pulse with no breakpoints (read-only)."""
        ends = np.concatenate(([0.0], self.breakpoints[:, 0]))[self.offsets[1:]]
        durations = np.where(self.offsets[1:] > self.offsets[:-1], ends, 0.0)
        durations.flags.writeable = False
        return durations

    @functools.cached_property
    def _clock(self) -> np.ndarray:
        """The one schedule clock: 0.0, then the durations added one after another (a sequential np.cumsum).

        It is built once per schedule and is read-only.
        """
        clock = np.concatenate(([0.0], self.durations)).cumsum()
        clock.flags.writeable = False
        return clock

    @property
    def start_times(self) -> np.ndarray:
        """When each pulse starts: back to back from t = 0, an unshaped pulse taking no time.

        The head of the schedule clock; playback and envelope.csv read it.
        """
        return self._clock[:-1]

    @property
    def total_time(self) -> float:
        """End of the last pulse: the schedule clock's last entry, 0.0 when none is shaped."""
        return float(self._clock[-1])

    def residual_matrix(self) -> np.ndarray:
        return np.diag(np.exp(1j * self.residual_phases))

    def reconstruct(self) -> np.ndarray:
        """Product of the pulse unitaries, then R^dag, rotated layer by layer.

        Each pulse joins the first layer after every earlier pulse on one of
        its two levels (as soon as possible), so pulses of one layer share no
        level, commute, and rotate their row pairs in one batched product.
        Any pulse order works.
        """
        d = self.dimension
        rows = _row_pairs(self.levels, d)
        blocks = _blocks(self.areas, self.phases)
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
        return u * np.exp(-1j * self.residual_phases)


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
    return PulseSchedule._from_columns(
        rows[keep],
        areas[keep],
        _wrap_angle(phases[keep] + math.pi),
        np.ones(len(keep)),
        np.empty((0, 2)),
        np.zeros(len(keep) + 1, dtype=int),
        residual,
    )


def _shape(areas, dipoles, limits, levels=None) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-duration envelopes of many pulses at once: (breakpoints, offsets) as PulseSchedule holds them.

    Per pulse: the rotation area C, the dipole D, the limits as the rows of
    PulseConstraints._row and, optionally, the lower level that names it in
    errors. The envelope realizes C / D above its baseline; np.where picks
    the triangle or trapezoid closed form elementwise, with the arithmetic
    of a pulse-by-pulse loop, so the breakpoints are that loop's. Area 0
    gets no breakpoints. The first pulse whose breakpoints realize an area
    off C / D by more than REALIZED_AREA_RTOL is refused (negative area, no
    headroom, a peak that underflows or is lost against the baseline, a
    duration that is not finite).
    """
    amplitude_max, base, rate_up, slew_min, cap, ramp_factor = limits
    with np.errstate(all="ignore"):  # out-of-range values are refused below, by name
        area = areas / dipoles
        peak = np.sqrt(2.0 * area / ramp_factor)
        triangle = peak <= cap
        top = np.where(triangle, peak, cap)
        rise = top / rate_up
        # plateau length from area = cap^2 * ramp_factor / 2 + cap * plateau; a triangle has none
        plateau = np.where(triangle, 0.0, (area - 0.5 * cap * cap * ramp_factor) / cap)
        fall_start = rise + plateau
        duration = fall_start + top / -slew_min
        high = base + top
        # read off the breakpoints: height above the baseline times the mean of the bottom and top lengths
        realized = 0.5 * (high - base) * (duration + (fall_start - rise))
        fits = np.abs(realized - area) <= REALIZED_AREA_RTOL * area
    if not fits.all():
        _refuse(int(fits.argmin()), areas, dipoles, limits, levels, area, peak, duration, realized)
    points = np.empty((len(area), 4, 2))
    times, amps = points.transpose(2, 1, 0)
    times[0], times[1], times[2], times[3] = 0.0, rise, fall_start, duration
    amps[0] = amps[3] = base
    amps[1] = amps[2] = high
    kept = np.repeat((area != 0.0)[:, None], 4, axis=1)
    kept[:, 2] &= ~triangle
    offsets = np.zeros(len(area) + 1, dtype=int)
    kept.sum(axis=1).cumsum(out=offsets[1:])
    return points[kept], offsets


def _refuse(i, areas, dipoles, limits, levels, area, peak, duration, realized):
    """Raise the first of _shape's refusals that pulse i meets, in the order shape_pulse checks them."""
    amplitude_max, amplitude_min, slew_max, slew_min, cap, _ = (float(x[i]) for x in limits)
    c, d_k, a = float(areas[i]), float(dipoles[i]), float(area[i])
    where = "" if levels is None else f"transition ({levels[i]}, {levels[i] + 1}): "
    if a < 0.0:
        raise ValidationError(f"area must be nonnegative, got {a}")
    if cap <= 0.0:
        raise ValidationError(
            f"no amplitude headroom above the baseline ({amplitude_min} vs "
            f"{amplitude_max}); the requested area {a} is infeasible"
        )
    if not peak[i] > 0.0:
        raise ValidationError(
            f"area {a} with slew_max {slew_max} and slew_min "
            f"{slew_min}: the triangle peak sqrt(2 area / ramp factor) underflows to 0"
        )
    if not math.isfinite(duration[i]):
        raise ValidationError(
            f"{where}area {c} at dipole {d_k} and amplitude_max {amplitude_max} "
            f"needs an envelope of non-finite duration {float(duration[i])}"
        )
    raise ValidationError(
        f"{where}the envelope for area {c} at dipole {d_k} realizes {float(realized[i])} above its "
        f"baseline {amplitude_min}, not area / dipole = {a}: the relative error is over "
        f"REALIZED_AREA_RTOL = {REALIZED_AREA_RTOL:g}, the peak lost to rounding against the baseline"
    )


def shape_pulse(area_required: float, constraints: PulseConstraints) -> PulseShape:
    """Minimum-duration envelope realizing the required area above baseline.

    A triangular ramp up and down is optimal while the implied peak stays
    under the amplitude cap; beyond that the envelope saturates at the
    cap and holds a plateau (trapezoid). With symmetric slews R the
    closed forms are duration = 2 sqrt(area / R) for the triangle and
    duration = M / R + area / M at cap M for the trapezoid; asymmetric
    slews generalize through the combined ramp factor
    S = 1 / slew_up + 1 / slew_down. One pulse through the shaper that
    schedule runs on every pulse at once, with the same refusals.
    """
    limits = np.array(constraints._row(), dtype=float)[:, None]
    points, _ = _shape(np.array([float(area_required)]), np.ones(1), limits)
    return PulseShape(tuple(map(tuple, points.tolist())))


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
    each pulse records the D_k it was shaped for. The dipole and the
    constraints are looked up once per transition, and every envelope is
    shaped in one pass.
    """
    plan = givens_decompose(target)

    def hardware(k: int) -> tuple:
        d_k = _dipole(dipoles, k)
        limits = _lookup(constraints, k, what="constraints")
        if limits is None:
            raise ValidationError(f"no constraints provided for transition ({k}, {k + 1})")
        return (d_k, *limits._row())

    d_k, *limits = _by_transition(plan.levels, hardware, width=7).T
    points, offsets = _shape(plan.areas, d_k, limits, plan.levels)
    return PulseSchedule._from_columns(
        plan.levels, plan.areas, plan.phases, d_k, points, offsets, plan.residual_phases
    )


def _by_transition(levels: np.ndarray, lookup, width: int) -> np.ndarray:
    """lookup(k) for each pulse's lower level k, shape (pulses, width).

    lookup is called once per distinct k, in the order the pulses first use it.
    """
    distinct = dict.fromkeys(levels.tolist())
    table = np.zeros((max(distinct, default=0) + 1, width))
    for k in distinct:
        table[k] = lookup(k)
    return table[levels]


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
