"""Angular confinement of a charged ellipsoid about one transverse axis.

The tilt angle alpha between the ellipsoid long axis and the trap axis obeys
the parametrically driven pendulum equation

    alpha'' - sqrt(2) * omega_alpha * Omega * cos(Omega t) * sin(2 alpha) / 2 = 0

whose small-angle limit about alpha = 0 (or pi/2) is the same cosine-driven
oscillator as the center-of-mass motion, with drive strength
q_alpha = 2*sqrt(2)*omega_alpha/Omega and a harmonic pseudo-potential of
angular frequency omega_alpha.

omega_alpha is a direct model input here: the closing relation tying it to
the center-of-mass confinement, the moment of inertia, and the surface shape
factor is not established.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Particle
from .errors import ConvergenceError, SolverError
from .spectral import dominant_frequency
from .trap import _fixed_step_count, floquet_stability

_SHAPE_MAX_REFINEMENTS = 7  # grid doublings of the surface quadrature
_SHAPE_RTOL = 1e-8  # relative change between refinements counted as converged


@dataclass(frozen=True)
class AngularState:
    """Tilt angle (rad, unwrapped) and its rate (rad/s)."""

    alpha: float
    alpha_dot: float


@dataclass(frozen=True)
class AngularTrapParams:
    omega_alpha: float  # rad/s, angular pseudo-potential frequency, >= 0
    drive_freq: float   # rad/s

    def __post_init__(self):
        if self.omega_alpha < 0.0:
            raise ValueError("omega_alpha must be >= 0")
        if not (self.drive_freq > 0.0):
            raise ValueError("drive_freq must be > 0")


@dataclass
class AngleTrajectory:
    """Sampled tilt-angle motion; alpha is stored unwrapped."""

    t: np.ndarray
    alpha: np.ndarray
    alpha_dot: np.ndarray
    drive_freq: float
    escaped: bool = False
    escape_time: Optional[float] = None

    def __post_init__(self):
        if not (self.t.shape == self.alpha.shape == self.alpha_dot.shape):
            raise ValueError("angle trajectory arrays must have equal length")
        for arr in (self.t, self.alpha, self.alpha_dot):
            arr.setflags(write=False)


def shape_factor(p: Particle) -> float:
    """Surface shape factor S_I = (3/S) * integral of (z^2 - x^2) over the surface (m^2).

    Computed in the body frame (semi-axis c along z) by a tensor-product rule:
    Gauss-Legendre in u = cos(polar angle) and a uniform periodic rule in the
    azimuth, refined until the result changes by less than 1e-8 relative to
    its magnitude.  Vanishes for a sphere; positive for a prolate body
    with its long axis along z; scales as length^2.
    """
    a, b, c = p.semi_axes

    def evaluate(nu: int, nth: int) -> float:
        u, wu = np.polynomial.legendre.leggauss(nu)
        th = np.linspace(0.0, 2.0 * math.pi, nth, endpoint=False)
        cth2 = np.cos(th) ** 2
        sth2 = np.sin(th) ** 2
        one_m_u2 = (1.0 - u * u)[:, None]
        u2 = (u * u)[:, None]
        # |r_phi x r_theta| expressed in u: the ellipsoid area element
        g = np.sqrt(b * b * c * c * one_m_u2 * cth2[None, :]
                    + a * a * c * c * one_m_u2 * sth2[None, :]
                    + a * a * b * b * u2)
        integrand = c * c * u2 - a * a * one_m_u2 * cth2[None, :]
        w_th = 2.0 * math.pi / nth
        area = float(wu @ g.sum(axis=1)) * w_th
        second = float(wu @ (integrand * g).sum(axis=1)) * w_th
        return 3.0 * second / area

    scale = max(a, b, c) ** 2
    nu, nth = 16, 32
    prev = evaluate(nu, nth)
    for _ in range(_SHAPE_MAX_REFINEMENTS):
        nu *= 2
        nth *= 2
        cur = evaluate(nu, nth)
        # absolute floor keeps the sphere's exact zero from stalling the test
        if abs(cur - prev) <= _SHAPE_RTOL * max(abs(cur), 1e-3 * scale):
            return cur
        prev = cur
    raise ConvergenceError(
        f"surface quadrature not converged after {_SHAPE_MAX_REFINEMENTS} refinements "
        f"(last grids {nu}x{nth}, last change {abs(cur - prev):.3e} m^2)")


def integrate_angle(params: AngularTrapParams, initial: AngularState,
                    t_end: float, dt: float, store_every: int = 1) -> AngleTrajectory:
    """Integrate the driven tilt equation with fixed-step RK4.

    Flags "angular escape" (and stops) when a run started near the alpha = 0
    fixed point grows past pi/2.  Requires 0 < dt <= 2 pi / (200 Omega), and
    at most 1e8 steps and 1e7 stored samples.
    """
    om = params.drive_freq
    n_steps = _fixed_step_count(t_end, dt, om, store_every)
    k = math.sqrt(2.0) * params.omega_alpha * om  # drive torque coefficient
    near_zero_start = abs(initial.alpha) < math.pi / 4.0

    al, ad = initial.alpha, initial.alpha_dot
    ts = [0.0]
    als = [al]
    ads = [ad]
    escaped = False
    escape_time = None
    cos, sin = math.cos, math.sin

    for i in range(n_steps):
        t = i * dt
        c0 = k * cos(om * t)
        ch = k * cos(om * (t + 0.5 * dt))
        c1 = k * cos(om * (t + dt))

        a1 = 0.5 * c0 * sin(2.0 * al)
        al2, ad2 = al + 0.5 * dt * ad, ad + 0.5 * dt * a1
        a2 = 0.5 * ch * sin(2.0 * al2)
        al3, ad3 = al + 0.5 * dt * ad2, ad + 0.5 * dt * a2
        a3 = 0.5 * ch * sin(2.0 * al3)
        al4, ad4 = al + dt * ad3, ad + dt * a3
        a4 = 0.5 * c1 * sin(2.0 * al4)

        al += dt / 6.0 * (ad + 2.0 * ad2 + 2.0 * ad3 + ad4)
        ad += dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)

        t_next = (i + 1) * dt
        if (i + 1) % store_every == 0 or i == n_steps - 1:
            ts.append(t_next)
            als.append(al)
            ads.append(ad)
        if near_zero_start and abs(al) > math.pi / 2.0:
            escaped = True
            escape_time = t_next
            if ts[-1] != t_next:
                ts.append(t_next)
                als.append(al)
                ads.append(ad)
            break

    return AngleTrajectory(t=np.array(ts), alpha=np.array(als),
                           alpha_dot=np.array(ads), drive_freq=om,
                           escaped=escaped, escape_time=escape_time)


def libration_frequency(traj: AngleTrajectory) -> float:
    """Angular frequency (rad/s) of the dominant sub-drive peak of alpha(t).

    The trajectory should span at least ten libration periods for a reliable
    estimate (a shorter span only earns a warning).  A last sample off the
    stored grid (a step count that store_every does not divide) is left out.
    A SolverError is raised for an escaped run, which does not librate, for
    fewer than 16 samples, and when no secular peak stands out below half
    the drive frequency.
    """
    if traj.escaped:
        raise SolverError("the tilt escaped: no libration to measure")
    t, alpha = traj.t, traj.alpha
    if t.size > 2 and not math.isclose(t[-1] - t[-2], t[1] - t[0], rel_tol=1e-9):
        t, alpha = t[:-1], alpha[:-1]
    if t.size < 16:
        raise SolverError(f"{t.size} samples are too few to measure a libration")
    f_max = traj.drive_freq / (2.0 * 2.0 * math.pi)  # Hz, half the drive
    try:
        w = dominant_frequency(t, alpha, f_max)
    except SolverError as exc:
        raise SolverError("no secular libration detected") from exc
    span = float(t[-1] - t[0])
    if w * span / (2.0 * math.pi) < 10.0:
        warnings.warn("trajectory spans fewer than ten libration periods; "
                      "the frequency estimate may be coarse", stacklevel=2)
    return w


@dataclass(frozen=True)
class AngularStabilityResult:
    stable: bool
    q_alpha: float


def angular_stability(params: AngularTrapParams) -> AngularStabilityResult:
    """Small-angle stability about alpha = 0 via the shared monodromy oracle."""
    q_alpha = 2.0 * math.sqrt(2.0) * params.omega_alpha / params.drive_freq
    return AngularStabilityResult(stable=floquet_stability(0.0, q_alpha).stable,
                                  q_alpha=q_alpha)
