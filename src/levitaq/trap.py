"""Translational dynamics of a charged particle in a needle-electrode trap.

The drive is modeled as an ideal oscillating quadrupole parametrized by the
peak-to-peak voltage, an efficiency factor absorbing electrode geometry, and
the needle half-distance:

    E(r, t) = (eta * V_ac / z0^2) * cos(Omega t) * (x/2, y/2, -z)

which reproduces the axial secular frequency

    omega_z = |Q| * V_ac * eta / (sqrt(2) * m * Omega * z0^2)

and the standard single-parameter drive strength q = 2*sqrt(2)*omega_z/Omega.
The q = 0.908 instability threshold is not hard-coded into the integrator; a
monodromy-matrix analysis of the parametric equation recovers it and serves
as the stability oracle for the simulation-level operations.

All three integrators here -- the Floquet monodromy, the trajectory and the
frequency ramp -- solve a linear ODE with time-dependent stiffness, so they
share one closed-form RK4 step: six entries map (u, u') and a constant
acceleration f at its start to (u, u') at its end.  Each entry is a
polynomial of degree at most two in the stiffness at the start, midpoint
and end of the step, so one coefficient table over the seven monomials of
those three samples, built once per call, gives all entries of a block of
steps as one matrix product; without a force the two affine entries are
left out.  The entries are kept as arrays over the steps, so products of
steps are elementwise over long contiguous arrays.  The end of one step is
the start of the next, so n steps sample the stiffness at 2n + 1 half-step
points.  Trajectories and ramps need the state after every step, and both
run through one block propagator: per block of _BLOCK steps the caller
writes its stiffness samples into a monomial buffer reused for the whole
call, one matrix product forms the entries into a reused entry buffer, a
scan in chunks of _WIDTH steps gives the state after every step in work
linear in the step count, and the run stops after the block in which a
coordinate first crosses the escape radius.  The trajectory adds only its
sampling rule, the ramp only its chirped drive phase.  The monodromy
needs only the product of its steps, taken pairwise; the Mathieu
coefficient is even, so it carries the two fundamental solutions over half
a period only, and its drive cosines depend on the step count alone, so
they are built once per count.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .core import CONSTANTS, Particle, particle_mass
from .errors import ConvergenceError, PhysicsError, UntrappedParticleError

# Single-parameter stability limit of the cosine-driven oscillator
# u'' + (a - 2 q cos 2 tau) u = 0 on the a = 0 axis.
STABILITY_Q_MAX = 0.908

ESCAPE_RADIUS_FACTOR = 100.0  # escape flagged at |coordinate| > 100 * z0
MIN_STEPS_PER_DRIVE_PERIOD = 200
_BLOCK = 16384  # RK4 steps whose transfer entries are built and scanned at once
_WIDTH = 8  # steps per chunk of the state scan
_FLOQUET_RTOL = 1e-9  # relative change of the monodromy trace counted as converged
_FLOQUET_MAX_STEPS = 1 << 20  # steps per period beyond which convergence is given up
# Requests above these bounds are rejected before anything is allocated; both
# sit over 100 times above the defaults (at most 6.4e5 ramp steps and 8e4
# stored samples).
_MAX_STEPS = 10 ** 8  # steps of one trajectory, tilt or ramp integration
_MAX_SAMPLES = 10 ** 7  # stored samples of one trajectory or tilt run


@dataclass(frozen=True)
class TrapConfig:
    """Drive and static parameters of the needle trap.

    v_ac is the peak-to-peak drive voltage (V), drive_freq the angular drive
    frequency Omega (rad/s), z0 the needle half-distance (m), eta the
    dimensionless efficiency factor relative to an ideal hyperbolic
    quadrupole, xi the static-potential curvature (V/m^2) used by the
    instability-based charge inference, and damping_gamma a linear drag rate
    (1/s) standing in for gas collisions.
    """

    v_ac: float
    drive_freq: float
    z0: float
    eta: float = 0.2
    xi: float = 2.0e6
    damping_gamma: float = 0.0

    def __post_init__(self):
        if not (self.v_ac > 0.0):
            raise ValueError("v_ac must be > 0")
        if not (self.drive_freq > 0.0):
            raise ValueError("drive_freq must be > 0")
        if not (self.z0 > 0.0):
            raise ValueError("z0 must be > 0")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must be in (0, 1]")
        if not (self.xi > 0.0):
            raise ValueError("xi must be > 0")
        if self.damping_gamma < 0.0:
            raise ValueError("damping_gamma must be >= 0")


@dataclass(frozen=True)
class LaserConfig:
    """Probe beam parameters for the momentum-transfer force estimate."""

    power: float              # W
    reflection_coeff: float   # Fresnel coefficient at normal incidence
    half_aperture: float      # rad, half-angle subtended by the focusing lens

    def __post_init__(self):
        if self.power < 0.0:
            raise ValueError("power must be >= 0")
        if not (0.0 <= self.reflection_coeff <= 1.0):
            raise ValueError("reflection_coeff must be in [0, 1]")
        if not (0.0 < self.half_aperture < math.pi / 2.0):
            raise ValueError("half_aperture must be in (0, pi/2)")


@dataclass
class Trajectory:
    """Sampled center-of-mass motion; arrays share one strictly increasing time grid."""

    t: np.ndarray           # (n,), s
    positions: np.ndarray   # (n, 3), m
    velocities: np.ndarray  # (n, 3), m/s
    escaped: bool = False
    escape_time: Optional[float] = None

    def __post_init__(self):
        if not (self.t.shape[0] == self.positions.shape[0] == self.velocities.shape[0]):
            raise ValueError("trajectory arrays must have equal length")
        if self.t.size > 1 and not np.all(np.diff(self.t) > 0.0):
            raise ValueError("time grid must be strictly increasing")
        for arr in (self.t, self.positions, self.velocities):
            arr.setflags(write=False)


def secular_frequency(trap: TrapConfig, p: Particle) -> float:
    """Axial pseudo-potential angular frequency omega_z (rad/s).

    omega_z = sqrt(2) |Q| kappa / (m Omega) with kappa the drive curvature,
    the same as |Q| V_ac eta / (sqrt(2) m Omega z0^2).
    """
    if p.total_charge == 0.0:
        raise UntrappedParticleError("uncharged particle is untrapped")
    wz = math.sqrt(2.0) * abs(p.total_charge) * drive_curvature(trap) / particle_mass(p) \
        / trap.drive_freq
    if not (0.0 < wz < math.inf):
        raise ValueError(f"secular frequency {wz:g} rad/s must be finite and > 0")
    return wz


def mathieu_q(trap: TrapConfig, p: Particle) -> float:
    """Dimensionless axial drive-strength parameter q = 2*sqrt(2)*omega_z/Omega."""
    q = 2.0 * math.sqrt(2.0) * secular_frequency(trap, p) / trap.drive_freq
    if not math.isfinite(q):  # float division overflows to inf without an error
        raise ValueError(f"Mathieu q = {q} is not finite")
    return q


def charge_to_mass_from_instability(omega_unstable: float, xi: float) -> float:
    """|Q|/m (C/kg) from the drive frequency at which the motion destabilizes.

    |Q|/m = q_max * Omega_unstable^2 / (4 * xi) with q_max = 0.908.
    """
    if not (omega_unstable > 0.0):
        raise ValueError("omega_unstable must be > 0")
    if not (xi > 0.0):
        raise ValueError("xi must be > 0")
    ratio = STABILITY_Q_MAX * omega_unstable ** 2 / (4.0 * xi)
    if not math.isfinite(ratio):
        raise ValueError(f"charge-to-mass ratio {ratio} is not finite")
    return ratio


def drive_curvature(trap: TrapConfig) -> float:
    """Quadrupole curvature amplitude eta*V_ac/(2*z0^2) of the drive potential (V/m^2).

    Feeding this value as ``xi`` into charge_to_mass_from_instability makes
    the instability inference exactly consistent with the drive model used by
    the integrator; an independently simulated static curvature (TrapConfig.xi)
    will generally differ.
    """
    z0_sq = trap.z0 * trap.z0  # ** raises on overflow; z0 below about 1e-162 underflows to 0
    curvature = trap.eta * trap.v_ac / (2.0 * z0_sq) if z0_sq > 0.0 else math.inf
    if not (0.0 < curvature < math.inf):
        raise ValueError(f"drive curvature eta * V_ac / (2 z0^2) = {curvature:g} V/m^2 "
                         f"must be finite and > 0")
    return curvature


def _drive_stiffness(trap: TrapConfig, p: Particle) -> float:
    """Signed drive stiffness amplitude 2 Q kappa / m (1/s^2), kappa the drive
    curvature: the axial stiffness per unit mass at the drive's crest; the
    radial one is minus half of it."""
    m = particle_mass(p)
    if p.total_charge == 0.0:
        raise UntrappedParticleError("uncharged particle is untrapped")
    stiffness = 2.0 * p.total_charge * drive_curvature(trap) / m
    if not (0.0 < abs(stiffness) < math.inf):
        raise ValueError(f"drive stiffness 2 Q kappa / m = {stiffness:g} 1/s^2 must be "
                         f"finite and nonzero")
    return stiffness


@dataclass(frozen=True)
class FloquetResult:
    stable: bool
    trace: float  # trace of the one-period monodromy matrix


# The monomials (1, k0, kh, k1, k0 kh, k0 k1, kh k1) of the stiffness at the
# start, midpoint and end of a step, over which every RK4 transfer entry is a
# polynomial; _DEGREE holds their degrees in k.
_DEGREE = np.array([0, 1, 1, 1, 2, 2, 2])


def _rk4_table(gamma: float, h: float, forced: bool) -> np.ndarray:
    """Coefficients of the RK4 transfer entries of u'' = -k(t) u - gamma u' + f
    over the stiffness monomials, one row per entry.

    The rows are m00, m01, m02, m10, m11, m12, or without ``forced`` the
    homogeneous m00, m01, m10, m11: a step maps (u, u') at its start to
    u = m00 u + m01 u' + m02 f and u' = m10 u + m11 u' + m12 f at its end,
    for a constant acceleration f.  Composing the four RK4 stages
    symbolically leaves each entry a polynomial in (k0, kh, k1) of degree at
    most two, whose coefficients depend only on g = gamma h and h.
    """
    g = gamma * h
    h2, h3, h4 = h * h, h ** 3, h ** 4
    drift = h * (1.0 - g / 2.0 + g * g / 6.0 - g ** 3 / 24.0)  # u' -> u and f -> u'
    table = np.array([
        [1.0, -h2 * (g * g - 2.0 * g + 4.0) / 24.0, h2 * (g - 4.0) / 12.0, 0.0,
         h4 / 24.0, 0.0, 0.0],
        [drift, 0.0, h3 * (g - 2.0) / 12.0, 0.0, 0.0, 0.0, 0.0],
        [h2 * (g * g - 4.0 * g + 12.0) / 24.0, 0.0, -h4 / 24.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, h * (g ** 3 - 2.0 * g * g + 4.0 * g - 4.0) / 24.0,
         -h * (g * g - 4.0 * g + 8.0) / 12.0, -h / 6.0,
         -h3 * (g - 2.0) / 24.0, -g * h3 / 24.0, h3 / 12.0],
        [1.0 - g + g * g / 2.0 - g ** 3 / 6.0 + g ** 4 / 24.0, 0.0,
         -h2 * (g * g - 3.0 * g + 4.0) / 12.0, -h2 * (g * g - 2.0 * g + 4.0) / 24.0,
         0.0, 0.0, h4 / 24.0],
        [drift, 0.0, h3 * (g - 2.0) / 24.0, h3 * (g - 2.0) / 24.0, 0.0, 0.0, 0.0],
    ])
    return table if forced else table[[0, 1, 3, 4]]


def _monomials(k0, kh, k1) -> np.ndarray:
    """The stiffness monomials, stacked on a new first axis."""
    m = np.empty((7,) + np.shape(k0))
    m[1], m[2], m[3] = k0, kh, k1
    return _fill_monomials(m)


def _fill_monomials(m: np.ndarray) -> np.ndarray:
    """Fill in the monomials around rows 1, 2 and 3 of m, which hold k0, kh and k1."""
    m[0] = 1.0
    np.multiply(m[1], m[2], out=m[4])
    np.multiply(m[1], m[3], out=m[5])
    np.multiply(m[2], m[3], out=m[6])
    return m


def _scan(m, u0, v0, f=None):
    """Prefix products of the step matrices m within chunks of _WIDTH steps,
    and the states entering the chunks, from (u0, v0).

    m is the (2, cols, n) array of the n step matrices' entries, rows (u, u')
    and columns (u, u', f) as _rk4_table orders them (the affine column
    c = 2 is read only with f); u0, v0 and the constant accelerations f
    (None: no forcing) are k columns that share those steps.  Returns p,
    axes (position within the chunk, row, column, chunk), whose position j
    holds the product of the chunk's steps 0 .. j (identity steps pad the
    last chunk), and the (cols, k, chunk) (u, u', f) entering each chunk.
    One pass over the positions forms every chunk's prefix products,
    elementwise over the chunks; the states entering the chunks come from
    the same scan over the chunk totals.
    """
    cols = 2 if f is None else 3  # the affine column carries f
    n, k = m.shape[-1], len(u0)
    full, rest = divmod(n, _WIDTH)
    chunks = -(-n // _WIDTH)
    p = np.empty((_WIDTH, 2, cols, chunks))
    prod = np.empty((2, 2, cols, chunks))  # one step of the scan
    entry = np.empty((cols, k, chunks))
    in_order = p.transpose(1, 2, 3, 0)  # rows, columns, then the steps in order
    in_order[:, :, :full] = m[:, :cols, :full * _WIDTH].reshape(2, cols, full, _WIDTH)
    if rest:  # identity steps fill the last chunk, so no uninitialized value enters a product
        in_order[:, :, -1, :rest] = m[:, :cols, full * _WIDTH:]
        p[rest:, :, :, -1] = np.eye(2, cols)
    for j in range(1, _WIDTH):
        np.multiply(p[j, :, :2, None], p[j - 1, None], out=prod)
        if f is not None:
            prod[:, 0, 2] += p[j, :, 2]
        np.add(prod[:, 0], prod[:, 1], out=p[j])

    entry[0, :, 0], entry[1, :, 0] = u0, v0
    if f is not None:
        entry[2] = f[:, None]
    if chunks > 1:  # the states after each chunk but the last
        entry[:2, :, 1:] = _states(p[-1, :, :, :-1], u0, v0, f).transpose(1, 2, 0)
    return p, entry


def _states(m, u0, v0, f=None) -> np.ndarray:
    """(u, u') after every step of the transfer entries m, from (u0, v0):
    an (n, 2, k) array; the arguments are _scan's.  One product applies
    each chunk's prefixes to its entry state."""
    p, entry = _scan(m, u0, v0, f)
    states = np.einsum("jrsc,skc->cjrk", p, entry)  # chunk, position, row, column
    return states.reshape(-1, 2, len(u0))[:m.shape[-1]]


def _propagate(tables, groups, stiffness, state, accel, n_steps: int, esc: float):
    """(u, u') after every step of n_steps RK4 steps from ``state``, block by block.

    state is the (2, c) array of (u, u') in c columns, accel their constant
    accelerations (None: no forcing), and ``groups`` are column slices that
    share one stiffness each: tables stacks one _rk4_table per group, in
    group order.  stiffness(k, n, out) writes the stiffness at the starts,
    midpoints and ends of steps k .. k + n - 1 into out's three rows.
    Yields (k, block, escaped) per block of at most _BLOCK steps, block row
    i the (2, c) state after step k + 1 + i; the first block in which some
    |u| exceeds esc ends at that step, is flagged escaped and is the last.
    The monomial and entry buffers are reused by every block of the call.
    """
    size = min(_BLOCK, n_steps)
    mono, entries = np.empty(7 * size), np.empty(len(tables) * size)
    for k in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - k)
        m = mono[:7 * n].reshape(7, n)
        stiffness(k, n, m[1:4])
        transfer = np.matmul(tables, _fill_monomials(m),
                             out=entries[:len(tables) * n].reshape(-1, n))
        transfer = transfer.reshape(len(groups), 2, -1, n)
        with np.errstate(over="ignore", invalid="ignore"):  # only kept states must be finite
            block = [_states(t, *state[:, cols], None if accel is None else accel[cols])
                     for t, cols in zip(transfer, groups)]
            block = block[0] if len(block) == 1 else np.concatenate(block, axis=2)
        u = np.abs(block[:, 0]).ravel()
        if not u.max() <= esc:  # an escape, or a nan that may follow one
            out = np.flatnonzero(u > esc)
            if out.size:
                yield k, block[:out[0] // state.shape[1] + 1], True
                return
        yield k, block, False
        state = block[-1].copy()  # a copy, so that the block is freed


def _product(m) -> np.ndarray:
    """The 2x2 product of a power-of-two count of step matrices, the last on
    the left, multiplied pairwise; m is the (2, 2, n) array of their entries."""
    while m.shape[-1] > 1:
        prod = m[:, :, None, 1::2] * m[None, :, :, 0::2]  # each later step times the one before
        m = prod[:, 0] + prod[:, 1]
    return m[..., 0]


@functools.lru_cache(maxsize=16)  # at most 16 blocks of 2 _BLOCK + 1 floats, 4.2 MB
def _drive_cosines(n: int, k: int) -> np.ndarray:
    """cos 2 tau at the ends and midpoints of steps k .. k + _BLOCK of the n
    steps per period pi (read-only; the monodromy reuses it for every (a, q))."""
    h = math.pi / n
    tau = np.arange(2 * k, 2 * min(k + _BLOCK, n // 2) + 1) * (0.5 * h)
    cos = np.cos(2.0 * tau)
    cos.setflags(write=False)
    return cos


def floquet_stability(a: float, q: float) -> FloquetResult:
    """Stability of u'' + (a - 2 q cos 2 tau) u = 0 from its monodromy matrix.

    Integrates the two fundamental solutions y1 (y1(0) = 1, y1'(0) = 0) and
    y2 (y2(0) = 0, y2'(0) = 1) with a fixed-step RK4 scheme of n steps per
    drive period, doubling n until the monodromy trace is converged.  The
    coefficient is even in tau, so the trace over the period pi is
    2 (y1 y2' + y1' y2) at tau = pi / 2, and only half the period is
    integrated.  |trace| <= 2 means stable.
    """
    if not (math.isfinite(a) and math.isfinite(q)):
        raise ValueError("a and q must be finite")

    def trace_for(n: int) -> float:
        basis = np.eye(2)  # columns: the two fundamental solutions
        table = _rk4_table(0.0, math.pi / n, forced=False)
        for k in range(0, n // 2, _BLOCK):
            c = a - 2.0 * q * _drive_cosines(n, k)  # at the step ends and midpoints
            m = table @ _monomials(c[0:-1:2], c[1::2], c[2::2])
            basis = _product(m.reshape(2, 2, -1)) @ basis
        (y1, y2), (dy1, dy2) = basis
        return float(2.0 * (y1 * dy2 + dy1 * y2))

    n = 1024
    prev = trace_for(n)
    while True:
        n *= 2
        cur = trace_for(n)
        if abs(cur - prev) <= _FLOQUET_RTOL * max(1.0, abs(cur)):
            return FloquetResult(stable=abs(cur) <= 2.0, trace=cur)
        if n > _FLOQUET_MAX_STEPS:
            raise ConvergenceError(
                f"monodromy trace not converged: n={n}, "
                f"last traces {prev:.6e} -> {cur:.6e}")
        prev = cur


def find_stability_boundary(a: float = 0.0, q_min: float = 0.0, q_max: float = 1.5,
                            tol: float = 1e-4) -> float:
    """Locate the single stable->unstable transition in q over (q_min, q_max).

    A bracketed root search on the monodromy's continuous |trace| - 2, which
    is <= 0 where the motion is stable.  Beyond the edge |trace| grows
    exponentially, so the steps interpolate sign(f) log(1 + |f|) of it,
    f = |trace| - 2: Illinois steps (regula falsi that halves the value at
    an end held for two steps in a row), and a bisection in place of a step
    that would leave the bracket or whenever the bracket is over half as
    wide as two steps before.  Returns the midpoint of a bracket at most ``tol`` wide that
    holds the transition, or of two adjacent floats when ``tol`` is below
    the floating-point resolution of q.
    """
    if not (q_max > q_min >= 0.0):
        raise ValueError("need q_max > q_min >= 0")
    if not (tol > 0.0):
        raise ValueError("tol must be > 0")

    def excess(q: float) -> float:
        f = abs(floquet_stability(a, q).trace) - 2.0
        return math.copysign(math.log1p(abs(f)), f)

    lo, hi = q_min, q_max
    f_lo, f_hi = excess(lo if lo > 0.0 else 1e-6), excess(hi)
    if f_lo > 0.0:
        raise PhysicsError("lower end of the scan range is already unstable")
    if f_hi <= 0.0:
        raise PhysicsError("upper end of the scan range is still stable")
    widths = [math.inf, math.inf]  # the bracket's width two steps and one step before
    moved = 0  # the end that the last step moved: -1 lo, 1 hi
    while hi - lo > tol:
        q = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < q < hi or hi - lo > 0.5 * widths[0]:
            q = 0.5 * (lo + hi)
            if not lo < q < hi:  # adjacent floats: the bracket cannot shrink
                break
        widths = [widths[1], hi - lo]
        f = excess(q)
        if f <= 0.0:
            lo, f_lo = q, f
            if moved == -1:  # hi held twice
                f_hi *= 0.5
            moved = -1
        else:
            hi, f_hi = q, f
            if moved == 1:  # lo held twice
                f_lo *= 0.5
            moved = 1
    return 0.5 * (lo + hi)


def _fixed_step_count(t_end: float, dt: float, drive_freq: float, store_every: int) -> int:
    """Step count of a fixed-step run to ``t_end`` that resolves the drive.

    Rejects dt outside (0, 2 pi / (200 Omega)], a non-finite or non-positive
    t_end, store_every < 1, and runs beyond _MAX_STEPS steps or _MAX_SAMPLES
    stored samples.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")
    dt_max = 2.0 * math.pi / (MIN_STEPS_PER_DRIVE_PERIOD * drive_freq)
    if dt > dt_max:
        raise ValueError(f"dt too large: {dt:g} s exceeds drive-resolution limit {dt_max:g} s")
    if not (0.0 < t_end < math.inf):
        raise ValueError("t_end must be finite and > 0")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    steps = t_end / dt
    if steps > _MAX_STEPS:
        raise ValueError(f"t_end / dt = {steps:.3g} steps exceeds the limit of {_MAX_STEPS:.0e}")
    if steps / store_every > _MAX_SAMPLES:
        raise ValueError(f"{steps / store_every:.3g} stored samples exceed the limit of "
                         f"{_MAX_SAMPLES:.0e}; raise store_every")
    return max(1, int(round(steps)))


def integrate_motion(trap: TrapConfig, p: Particle,
                     forces: Optional[Sequence[Sequence[float]]] = None,
                     t_end: float = 0.01, dt: float = 1e-6,
                     x0: Sequence[float] = (0.0, 0.0, 0.0),
                     v0: Sequence[float] = (0.0, 0.0, 0.0),
                     store_every: int = 1) -> Trajectory:
    """Integrate m r'' = Q E(r, t) - m gamma r' + F_ext with fixed-step RK4.

    ``forces`` is a list of constant external force vectors (N).  Integration
    stops early with the escape flag set once any coordinate exceeds
    100 * z0.  Requires 0 < dt <= 2 pi / (200 Omega) so the drive is resolved,
    and at most 1e8 steps and 1e7 stored samples.  Raises
    UntrappedParticleError for an uncharged particle, and FloatingPointError
    when the motion leaves the floating-point range before it escapes.
    """
    n_steps = _fixed_step_count(t_end, dt, trap.drive_freq, store_every)
    cd = _drive_stiffness(trap, p)
    om = trap.drive_freq
    esc = ESCAPE_RADIUS_FACTOR * trap.z0

    accel = None if forces is None else \
        np.asarray(forces, dtype=float).reshape(-1, 3).sum(axis=0) / particle_mass(p)
    # the z stiffness is k = cd cos(Omega t), the radial x and y share -k/2, and
    # an entry's monomial of degree d scales by (-1/2)^d: one monomial array
    # gives the radial and the axial entries
    table = _rk4_table(trap.damping_gamma, dt, forced=accel is not None)
    tables = np.concatenate([table * (-0.5) ** _DEGREE, table])

    def stiffness(k, n, out):  # the z stiffness at the step ends and midpoints
        c = cd * np.cos(om * (np.arange(2 * k, 2 * (k + n) + 1) * (0.5 * dt)))
        out[0], out[1], out[2] = c[0:-1:2], c[1::2], c[2::2]

    # axes: sample, (position, velocity), (x, y, z); a sample every store_every
    # steps, at the last step and at an escape
    steps = np.zeros(1 + -(-n_steps // store_every), dtype=np.int64)
    states = np.empty(steps.shape + (2, 3))
    states[0] = state = np.array([x0, v0], dtype=float)
    stored = 1
    escape_step = None

    for k, block, escaped in _propagate(tables, (slice(0, 2), slice(2, 3)), stiffness,
                                        state, accel, n_steps, esc):
        # block row i is step k + 1 + i; store the steps on the store_every grid
        # before the block's last step, then that step if it is on the grid,
        # the run's last step or an escape
        last = len(block) - 1
        first = -(k + 1) % store_every
        start = stored
        stored += len(range(first, last, store_every))
        steps[start:stored] = np.arange(k + 1 + first, k + 1 + last, store_every)
        states[start:stored] = block[first:last:store_every]
        if escaped or k + 1 + last == n_steps or (k + 1 + last) % store_every == 0:
            steps[stored], states[stored] = k + 1 + last, block[last]
            stored += 1
        if not np.all(np.isfinite(states[start:stored])):
            raise FloatingPointError("the motion overflowed before it crossed the escape radius")
        if escaped:
            escape_step = k + 1 + last

    return Trajectory(t=steps[:stored] * dt, positions=states[:stored, 0],
                      velocities=states[:stored, 1], escaped=escape_step is not None,
                      escape_time=None if escape_step is None else escape_step * dt)


def frequency_ramp_instability(trap: TrapConfig, p: Particle,
                               omega_start: float, omega_end: float,
                               ramp_rate: float, dt: Optional[float] = None,
                               seed_displacement: Optional[float] = None) -> float:
    """Drive frequency (rad/s) at which a downward frequency ramp destabilizes the motion.

    Ramps Omega(t) = omega_start - ramp_rate * t and integrates the axial
    motion (the most confining axis, so the first to destabilize) until the
    escape threshold is crossed.  The returned frequency carries a small
    systematic lag from the finite growth time of the instability; slower
    ramps shrink it.  A warning is emitted when Omega changes by more than 1%
    per secular period.  A ramp longer than 1e8 steps, and a seed displacement
    that is 0 (the motion would stay at rest, a false stable verdict) or not
    inside the escape radius, are rejected.  An escape at a drive that the
    monodromy still finds stable (a seed whose micromotion alone reaches the
    escape radius) raises PhysicsError.
    """
    if not (omega_start > omega_end > 0.0):
        raise ValueError("need omega_start > omega_end > 0")
    if not (ramp_rate > 0.0):
        raise ValueError("ramp_rate must be > 0")
    k_acc = _drive_stiffness(trap, p)

    if dt is None:
        dt = 2.0 * math.pi / (MIN_STEPS_PER_DRIVE_PERIOD * omega_start)
    elif not (dt > 0.0):
        raise ValueError("dt must be > 0")
    elif dt > 2.0 * math.pi / (MIN_STEPS_PER_DRIVE_PERIOD * omega_start):
        raise ValueError("dt too large for the starting drive frequency")
    steps = (omega_start - omega_end) / ramp_rate / dt
    if not (steps <= _MAX_STEPS):
        raise ValueError(f"the ramp takes {steps:.3g} steps, above the limit of "
                         f"{_MAX_STEPS:.0e}; raise ramp_rate or dt")
    esc = ESCAPE_RADIUS_FACTOR * trap.z0
    if seed_displacement is None:
        seed_displacement = 0.5 * trap.z0
    elif not 0.0 < abs(seed_displacement) < esc:  # 0 stays at rest; esc escapes at once
        raise ValueError(f"seed displacement {seed_displacement:g} m must be nonzero and lie "
                         f"inside the escape radius {esc:g} m")

    wz0 = secular_frequency(replace(trap, drive_freq=omega_start), p)
    t_sec = 2.0 * math.pi / wz0
    if ramp_rate * t_sec > 0.01 * omega_start:
        warnings.warn("ramp changes the drive by more than 1% per secular period; "
                      "the detected instability frequency will lag", stacklevel=2)

    def stiffness(k, n, out):
        # the drive phase at the start of step j, the left sum over steps
        # 0 .. j - 1: dt j (omega_start - ramp_rate dt (j - 1) / 2); the end
        # of step j is the start of step j + 1, and the midpoint adds
        # dt / 2 (omega_start - ramp_rate dt j)
        j = np.arange(k, k + n + 1.0)
        dtj = j * dt
        phase = dtj * (omega_start - (j - 1.0) * (ramp_rate * dt) / 2.0)
        mid = np.cos((omega_start - dtj[:n] * ramp_rate) * (0.5 * dt) + phase[:n])
        drive = np.cos(phase, out=phase)
        np.multiply(drive[:n], k_acc, out=out[0])
        np.multiply(mid, k_acc, out=out[1])
        np.multiply(drive[1:], k_acc, out=out[2])

    table = _rk4_table(trap.damping_gamma, dt, forced=False)
    for k, block, escaped in _propagate(table, (slice(0, 1),), stiffness,
                                        np.array([[seed_displacement], [0.0]]), None,
                                        math.ceil(steps), esc):
        if escaped:
            omega = float(omega_start - ramp_rate * ((k + len(block)) * dt))
            q = mathieu_q(replace(trap, drive_freq=omega), p)
            if floquet_stability(0.0, q).stable:  # carried out by the seed, not the drive
                raise PhysicsError(f"the motion crossed the escape radius at q = {q:.4g}, "
                                   f"where the drive is still stable")
            return omega

    raise PhysicsError("stable over full ramp: no instability detected")


def radiation_pressure_force(laser: LaserConfig) -> float:
    """Axial momentum-transfer force (N): (2 R P / c) * sinc(theta_m)."""
    th = laser.half_aperture
    sinc = math.sin(th) / th
    return 2.0 * laser.reflection_coeff * laser.power / CONSTANTS.speed_of_light * sinc


def equilibrium_displacement(force: float, p: Particle, omega_x: float) -> float:
    """Static displacement F / (m * omega_x^2) of a harmonically confined particle."""
    if not (omega_x > 0.0):
        raise ValueError("omega_x must be > 0")
    stiffness = particle_mass(p) * (omega_x * omega_x)  # ** raises on overflow
    if not (0.0 < stiffness < math.inf):
        raise ValueError(f"stiffness m * omega_x^2 = {stiffness:g} N/m must be finite and > 0")
    return force / stiffness
