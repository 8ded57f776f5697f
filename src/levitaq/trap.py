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
share one propagator: each fixed RK4 step is a 3x3 transfer matrix on
(u, u', f), built elementwise for a block of steps at once, and a chunked
scan whose work is linear in the step count gives the state after every
step of the block.  The monodromy carries the two fundamental solutions over
one period; trajectories and ramps check for escape per block.
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
_BLOCK = 4096  # RK4 steps whose transfer matrices are built and composed at once
_STAGES = np.array([[0.0], [0.5], [1.0]])  # step fractions where RK4 samples the stiffness
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
    """Axial pseudo-potential angular frequency omega_z (rad/s)."""
    if p.total_charge == 0.0:
        raise UntrappedParticleError("uncharged particle is untrapped")
    m = particle_mass(p)
    return (abs(p.total_charge) * trap.v_ac * trap.eta
            / (math.sqrt(2.0) * m * trap.drive_freq * trap.z0 ** 2))


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
    return trap.eta * trap.v_ac / (2.0 * trap.z0 ** 2)


@dataclass(frozen=True)
class FloquetResult:
    stable: bool
    trace: float  # trace of the one-period monodromy matrix


def _rk4_transfer(k0, kh, k1, gamma: float, h: float) -> np.ndarray:
    """Per-step RK4 transfer matrices of u'' = -k(t) u - gamma u' + f.

    k0, kh and k1 hold the stiffness at the start, midpoint and end of each
    step.  Matrix i maps (u, u', f) at the start of step i to its end; the
    constant acceleration f rides along as the affine column.  Every stage
    matrix I + c S of the scheme has bottom row (0, 0, 1), so each stage is
    carried as its top two rows, computed elementwise over the steps.
    """
    eye = np.eye(3).reshape((3, 3) + (1,) * k0.ndim)  # row, column, then the step axes

    def b_times(k, x0, x1):
        # top rows of [[0, 1, 0], [-k, -gamma, 1], [0, 0, 0]] @ [x0; x1; (0, 0, 1)]
        return x1, -k * x0 - gamma * x1 + eye[2]

    def stage(k, s, c):
        return b_times(k, eye[0] + c * s[0], eye[1] + c * s[1])

    s1 = b_times(k0, eye[0], eye[1])
    s2 = stage(kh, s1, 0.5 * h)
    s3 = stage(kh, s2, 0.5 * h)
    s4 = stage(k1, s3, h)
    m = np.empty(k0.shape + (3, 3))
    for row in range(2):
        top = eye[row] + h / 6.0 * (s1[row] + 2.0 * s2[row] + 2.0 * s3[row] + s4[row])
        m[..., row, :] = np.moveaxis(top, 0, -1)
    m[..., 2, :] = (0.0, 0.0, 1.0)
    return m


def _propagate(m: np.ndarray, state: np.ndarray) -> np.ndarray:
    """States m[i] @ ... @ m[0] @ state after every step i, in O(n) work.

    m holds n step matrices along its first axis, followed by batch axes that
    match the leading axes of state (shape (..., 3, k)).  The steps are cut
    into about sqrt(n) chunks of equal width: one pass over the positions
    within a chunk forms every chunk's prefix products at once, one mat-vec
    per chunk carries the state from chunk to chunk, and one batched matmul
    applies each chunk's prefixes to the state entering it.
    """
    n = len(m)
    width = math.isqrt(n - 1) + 1
    chunks = -(-n // width)
    if chunks * width > n:  # pad the last chunk with identity steps
        m = np.concatenate([m, np.broadcast_to(np.eye(3), (chunks * width - n,) + m.shape[1:])])
    # axes: chunk, batch axes, position within the chunk, matrix rows and columns
    m = np.moveaxis(m.reshape((chunks, width) + m.shape[1:]), 1, -3)
    prefix = np.empty(m.shape)
    prefix[..., 0, :, :] = m[..., 0, :, :]
    for j in range(1, width):
        np.matmul(m[..., j, :, :], prefix[..., j - 1, :, :], out=prefix[..., j, :, :])
    entry = [state]
    for i in range(chunks - 1):
        entry.append(prefix[i, ..., -1, :, :] @ entry[-1])
    # a chunk's prefixes, stacked into one (width * 3, 3) matrix, times its entry state
    out = prefix.reshape(prefix.shape[:-3] + (-1, 3)) @ np.stack(entry)
    out = np.moveaxis(out.reshape(m.shape[:-1] + state.shape[-1:]), -3, 1)
    return out.reshape((chunks * width,) + out.shape[2:])[:n]


def floquet_stability(a: float, q: float) -> FloquetResult:
    """Stability of u'' + (a - 2 q cos 2 tau) u = 0 from its monodromy matrix.

    Integrates the two fundamental solutions over one drive period
    (tau in [0, pi]) with a fixed-step RK4 scheme, doubling the step count
    until the monodromy trace is converged.  |trace| <= 2 means stable.
    """
    if not (math.isfinite(a) and math.isfinite(q)):
        raise ValueError("a and q must be finite")

    def trace_for(n: int) -> float:
        h = math.pi / n
        basis = np.eye(3)[:, :2]  # the two fundamental solutions; no forcing
        for k in range(0, n, _BLOCK):
            tau = np.arange(k, min(k + _BLOCK, n)) * h
            c = a - 2.0 * q * np.cos(2.0 * (tau + _STAGES * h))
            basis = _propagate(_rk4_transfer(*c, 0.0, h), basis)[-1]
        return float(basis[0, 0] + basis[1, 1])

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
    and at most 1e8 steps and 1e7 stored samples.  Raises FloatingPointError
    when the motion leaves the floating-point range before it escapes.
    """
    n_steps = _fixed_step_count(t_end, dt, trap.drive_freq, store_every)
    m = particle_mass(p)
    cd = p.total_charge * trap.eta * trap.v_ac / (m * trap.z0 ** 2)  # drive accel / m
    om = trap.drive_freq
    esc = ESCAPE_RADIUS_FACTOR * trap.z0

    # rows (position, velocity, external acceleration), columns (x, y, z)
    state = np.zeros((3, 3))
    state[0], state[1] = x0, v0
    if forces is not None:
        state[2] = np.asarray(forces, dtype=float).reshape(-1, 3).sum(axis=0) / m
    steps_kept, states_kept = [np.zeros(1, dtype=np.int64)], [state[None, :2]]
    escape_step = None

    for k in range(0, n_steps, _BLOCK):
        t = np.arange(k, min(k + _BLOCK, n_steps)) * dt
        c = cd * np.cos(om * (t + _STAGES * dt))
        # the x and y axes share the radial stiffness -c/2, z (taken twice) has stiffness c
        transfer = _rk4_transfer(*(c[..., None] * (-0.5, 1.0)), trap.damping_gamma, dt)
        with np.errstate(over="ignore", invalid="ignore"):  # only kept states must be finite
            prop = _propagate(transfer, np.stack([state[:, :2], state[:, [2, 2]]]))
        states = np.concatenate([prop[:, 0], prop[:, 1, :, :1]], axis=2)
        step = np.arange(k + 1, k + 1 + len(t))
        keep = (step % store_every == 0) | (step == n_steps)
        out = np.flatnonzero(np.any(np.abs(states[:, 0]) > esc, axis=1))
        if out.size:  # store the samples up to the first escaping step, and that step
            escape_step = int(step[out[0]])
            keep[out[0]] = True
            keep[out[0] + 1:] = False
        kept = states[keep, :2]
        if not np.all(np.isfinite(kept)):
            raise FloatingPointError("the motion overflowed before it crossed the escape radius")
        steps_kept.append(step[keep])
        states_kept.append(kept)
        if escape_step is not None:
            break
        state = states[-1]

    states = np.concatenate(states_kept)
    return Trajectory(t=np.concatenate(steps_kept) * dt, positions=states[:, 0],
                      velocities=states[:, 1], escaped=escape_step is not None,
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
    not inside the escape radius, are rejected.
    """
    if not (omega_start > omega_end > 0.0):
        raise ValueError("need omega_start > omega_end > 0")
    if not (ramp_rate > 0.0):
        raise ValueError("ramp_rate must be > 0")
    if p.total_charge == 0.0:
        raise UntrappedParticleError("uncharged particle is untrapped")

    m = particle_mass(p)
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

    k_acc = p.total_charge * trap.eta * trap.v_ac / (m * trap.z0 ** 2)
    state = np.array([[seed_displacement], [0.0], [0.0]])
    n_steps = math.ceil(steps)

    for k in range(0, n_steps, _BLOCK):
        j = np.arange(k, min(k + _BLOCK, n_steps))
        om_t = omega_start - ramp_rate * (j * dt)
        # left-sum drive phase accumulated over steps 0 .. j-1
        phase = dt * j * (omega_start - ramp_rate * dt * (j - 1) / 2.0)
        c = k_acc * np.cos(phase + _STAGES * (om_t * dt))
        states = _propagate(_rk4_transfer(*c, trap.damping_gamma, dt), state)
        out = np.flatnonzero(np.abs(states[:, 0, 0]) > esc)
        if out.size:
            return float(omega_start - ramp_rate * ((j[out[0]] + 1) * dt))
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
