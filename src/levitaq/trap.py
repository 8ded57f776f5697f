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
share one closed-form RK4 step: six entries, polynomials in the stiffness
at the start, midpoint and end of the step, map (u, u') and a constant
acceleration f at its start to (u, u') at its end.  The entries are kept as
six arrays over the steps, so products of steps are elementwise over long
contiguous arrays.  The end of one step is the start of the next, so n
steps sample the stiffness at 2n + 1 half-step points.  Trajectories and
ramps need the state after every step: a scan in chunks of _WIDTH steps
gives it for a block of _BLOCK steps in work linear in the step count, and
they check for escape per block.  The monodromy needs only the product of
its steps, taken pairwise; the Mathieu coefficient is even, so it carries
the two fundamental solutions over half a period only.
"""

from __future__ import annotations

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


def _rk4_transfer(k0, kh, k1, gamma: float, h: float):
    """Per-step RK4 transfer entries of u'' = -k(t) u - gamma u' + f.

    k0, kh and k1 hold the stiffness at the start, midpoint and end of each
    step.  Returns the six entry arrays as rows ((m00, m01, m02),
    (m10, m11, m12)): step i maps (u, u') at its start to
    u = m00 u + m01 u' + m02 f and u' = m10 u + m11 u' + m12 f at its end,
    for a constant acceleration f.  Composing the four RK4 stages
    symbolically leaves each entry a polynomial in (k0, kh, k1) of degree at
    most two, whose coefficients depend only on g = gamma h and h.
    """
    g = gamma * h
    h2, h3, h4 = h * h, h ** 3, h ** 4
    drift = h * (1.0 - g / 2.0 + g * g / 6.0 - g ** 3 / 24.0)  # u' -> u and f -> u'
    m00 = 1.0 + kh * (h2 * (g - 4.0) / 12.0) \
        + k0 * (kh * (h4 / 24.0) - h2 * (g * g - 2.0 * g + 4.0) / 24.0)
    m01 = drift + kh * (h3 * (g - 2.0) / 12.0)
    m02 = h2 * (g * g - 4.0 * g + 12.0) / 24.0 - kh * (h4 / 24.0)
    m10 = k0 * (h * (g ** 3 - 2.0 * g * g + 4.0 * g - 4.0) / 24.0
                - kh * (h3 * (g - 2.0) / 24.0) - k1 * (g * h3 / 24.0)) \
        + kh * (k1 * (h3 / 12.0) - h * (g * g - 4.0 * g + 8.0) / 12.0) - k1 * (h / 6.0)
    m11 = (1.0 - g + g * g / 2.0 - g ** 3 / 6.0 + g ** 4 / 24.0) \
        - k1 * (h2 * (g * g - 2.0 * g + 4.0) / 24.0) \
        + kh * (k1 * (h4 / 24.0) - h2 * (g * g - 3.0 * g + 4.0) / 12.0)
    m12 = drift + (kh + k1) * (h3 * (g - 2.0) / 24.0)
    return (m00, m01, m02), (m10, m11, m12)


def _states(m, u0, v0, f=None) -> np.ndarray:
    """(u, u') after every step of the transfer entries m, from (u0, v0).

    m[r][c] holds entry (r, c) of the n step matrices, as _rk4_transfer
    returns them (the affine column c = 2 is read only with f); u0, v0 and the
    constant accelerations f (None: no forcing) are k columns that share
    those steps.  Returns an (n, 2, k) array: u and u' after each step.  The
    steps are cut into chunks of _WIDTH: one pass over the positions within
    a chunk forms every chunk's prefix products, elementwise over the
    chunks; the states entering the chunks come from the same scan over the
    chunk totals; and one product applies each chunk's prefixes to its
    entry state.
    """
    cols = 2 if f is None else 3  # the affine column carries f
    n = len(m[0][0])
    chunks = -(-n // _WIDTH)
    full, rest = divmod(n, _WIDTH)
    # axes: position within the chunk, matrix row, matrix column, chunk
    p = np.empty((_WIDTH, 2, cols, chunks))
    in_order = p.transpose(1, 2, 3, 0)  # rows, columns, then the steps in order
    for r in range(2):
        for c in range(cols):
            in_order[r, c, :full] = m[r][c][:full * _WIDTH].reshape(full, _WIDTH)
            in_order[r, c, full:, :rest] = m[r][c][full * _WIDTH:]
    if rest:  # identity steps fill the last chunk, so no uninitialized value enters a product
        p[rest:, :, :, -1] = np.eye(2, cols)
    prod = np.empty((2, 2, cols, chunks))
    for j in range(1, _WIDTH):
        np.multiply(p[j, :, :2, None], p[j - 1, None], out=prod)
        if f is not None:
            prod[:, 0, 2] += p[j, :, 2]
        np.add(prod[:, 0], prod[:, 1], out=p[j])

    entry = np.empty((cols, len(u0), chunks))  # (u, u', f) entering each chunk
    entry[0, :, 0], entry[1, :, 0] = u0, v0
    if f is not None:
        entry[2] = f[:, None]
    if chunks > 1:
        states = _states(p[-1, :, :, :-1], u0, v0, f)  # after each chunk but the last
        entry[:2, :, 1:] = states.transpose(1, 2, 0)
    states = np.einsum("jrsc,skc->cjrk", p, entry)  # chunk, position, row, column
    return states.reshape(chunks * _WIDTH, 2, len(u0))[:n]


def _product(m) -> np.ndarray:
    """The 2x2 product of a power-of-two count of step matrices, the last on
    the left, multiplied pairwise.

    m[r][c] holds entry (r, c) of the step matrices; the affine column is
    not read.
    """
    a = np.stack([row[:2] for row in m])  # rows, columns, step
    while a.shape[-1] > 1:
        prod = a[:, :, None, 1::2] * a[None, :, :, 0::2]  # each later step times the one before
        a = prod[:, 0] + prod[:, 1]
    return a[..., 0]


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
        h = math.pi / n
        basis = np.eye(2)  # columns: the two fundamental solutions
        for k in range(0, n // 2, _BLOCK):
            tau = np.arange(2 * k, 2 * min(k + _BLOCK, n // 2) + 1) * (0.5 * h)
            c = a - 2.0 * q * np.cos(2.0 * tau)  # at the step ends and midpoints
            basis = _product(_rk4_transfer(c[0:-1:2], c[1::2], c[2::2], 0.0, h)) @ basis
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
    """Locate the single stable->unstable transition in q over (q_min, q_max) by bisection.

    Bisects until the bracket is at most ``tol`` wide, or one ulp wide when
    ``tol`` is below the floating-point resolution of q.
    """
    if not (q_max > q_min >= 0.0):
        raise ValueError("need q_max > q_min >= 0")
    if not (tol > 0.0):
        raise ValueError("tol must be > 0")
    lo, hi = q_min, q_max
    if not floquet_stability(a, lo if lo > 0.0 else 1e-6).stable:
        raise PhysicsError("lower end of the scan range is already unstable")
    if floquet_stability(a, hi).stable:
        raise PhysicsError("upper end of the scan range is still stable")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: the bracket cannot shrink
            break
        if floquet_stability(a, mid).stable:
            lo = mid
        else:
            hi = mid
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
    # axes: sample, (position, velocity), (x, y, z); a sample every store_every
    # steps, at the last step and at an escape
    steps = np.zeros(1 + -(-n_steps // store_every), dtype=np.int64)
    states = np.empty(steps.shape + (2, 3))
    states[0] = state = np.array([x0, v0], dtype=float)
    stored = 1
    escape_step = None

    for k in range(0, n_steps, _BLOCK):
        n = min(_BLOCK, n_steps - k)
        # the z stiffness at the step ends and midpoints; x and y share the radial -c/2
        c = cd * np.cos(om * (np.arange(2 * k, 2 * (k + n) + 1) * (0.5 * dt)))
        parts = []
        for scale, cols in ((-0.5, slice(0, 2)), (1.0, slice(2, 3))):
            transfer = _rk4_transfer(scale * c[0:-1:2], scale * c[1::2], scale * c[2::2],
                                     trap.damping_gamma, dt)
            with np.errstate(over="ignore", invalid="ignore"):  # only kept states must be finite
                parts.append(_states(transfer, *state[:, cols],
                                     None if accel is None else accel[cols]))
        block = np.concatenate(parts, axis=2)
        step = np.arange(k + 1, k + 1 + n)
        keep = (step % store_every == 0) | (step == n_steps)
        out = np.flatnonzero(np.any(np.abs(block[:, 0]) > esc, axis=1))
        if out.size:  # store the samples up to the first escaping step, and that step
            escape_step = int(step[out[0]])
            keep[out[0]] = True
            keep[out[0] + 1:] = False
        kept = block[keep]
        if not np.all(np.isfinite(kept)):
            raise FloatingPointError("the motion overflowed before it crossed the escape radius")
        steps[stored:stored + len(kept)] = step[keep]
        states[stored:stored + len(kept)] = kept
        stored += len(kept)
        if escape_step is not None:
            break
        state = block[-1].copy()  # a copy, so that the block is freed

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
    not inside the escape radius, are rejected.  An escape at a drive that the
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
    elif not abs(seed_displacement) < esc:  # it would escape on the first step
        raise ValueError(f"seed displacement {seed_displacement:g} m must lie inside the "
                         f"escape radius {esc:g} m")

    wz0 = secular_frequency(replace(trap, drive_freq=omega_start), p)
    t_sec = 2.0 * math.pi / wz0
    if ramp_rate * t_sec > 0.01 * omega_start:
        warnings.warn("ramp changes the drive by more than 1% per secular period; "
                      "the detected instability frequency will lag", stacklevel=2)

    state = np.array([[seed_displacement], [0.0]])  # rows (u, u'), one column
    n_steps = math.ceil(steps)

    for k in range(0, n_steps, _BLOCK):
        j = np.arange(k, min(k + _BLOCK, n_steps) + 1)  # the block's steps and the next
        # left-sum drive phase accumulated over steps 0 .. j-1, the phase at the
        # start of step j; the end of step j is the start of step j + 1
        phase = dt * j * (omega_start - ramp_rate * dt * (j - 1) / 2.0)
        mid = phase[:-1] + 0.5 * dt * (omega_start - ramp_rate * (j[:-1] * dt))
        k_ends, k_mid = k_acc * np.cos(phase), k_acc * np.cos(mid)
        transfer = _rk4_transfer(k_ends[:-1], k_mid, k_ends[1:], trap.damping_gamma, dt)
        states = _states(transfer, state[0], state[1])
        out = np.flatnonzero(np.abs(states[:, 0, 0]) > esc)
        if out.size:
            omega = float(omega_start - ramp_rate * ((j[out[0]] + 1) * dt))
            q = mathieu_q(replace(trap, drive_freq=omega), p)
            if floquet_stability(0.0, q).stable:  # carried out by the seed, not the drive
                raise PhysicsError(f"the motion crossed the escape radius at q = {q:.4g}, "
                                   f"where the drive is still stable")
            return omega
        state = states[-1]

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
