"""Reference computations made apart from levitaq.

Every correctness check of the benchmark compares a levitaq output with a
value computed here from the physics (closed forms, scipy.special Mathieu
characteristic values, numpy FFTs), never with a stored copy of levitaq's
own output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

E_CHARGE = 1.602176634e-19
GAMMA_HZ_PER_G = 2.8e6
D_ZFS_HZ = 2.87e9
SPEED_OF_LIGHT = 299792458.0
NV_AXES = np.array([[1.0, 1.0, 1.0], [-1.0, 1.0, 1.0],
                    [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])


def _signed_permutations() -> np.ndarray:
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return np.array(mats)


SIGNED_PERMUTATIONS = _signed_permutations()  # (48, 3, 3)


# ---- trap dynamics -------------------------------------------------------

def sphere_mass(diameter: float, density: float) -> float:
    """m = rho * pi * d^3 / 6."""
    return density * math.pi * diameter ** 3 / 6.0


def secular_hz(charge_c: float, mass: float, v_ac: float, eta: float,
               drive_hz: float, z0: float) -> float:
    """Axial secular frequency |Q| V eta / (sqrt(2) m Omega z0^2), in Hz."""
    om = 2.0 * math.pi * drive_hz
    return abs(charge_c) * v_ac * eta / (math.sqrt(2.0) * mass * om * z0 ** 2) / (2.0 * math.pi)


def mathieu_q(charge_c: float, mass: float, v_ac: float, eta: float,
              drive_hz: float, z0: float) -> float:
    """q = 2 sqrt(2) omega_z / Omega."""
    return 2.0 * math.sqrt(2.0) * secular_hz(charge_c, mass, v_ac, eta, drive_hz, z0) / drive_hz


def first_region_edges(q: float) -> tuple[float, float]:
    """(a0(q), b1(q)): u'' + (a - 2q cos 2t) u = 0 is stable in the first
    region exactly for a0(q) < a < b1(q)."""
    return float(mathieu_a(0, q)), float(mathieu_b(1, q))


def boundary_q(a: float) -> float:
    """q > 0 where the upper first-region edge b1(q) crosses a (0 <= a < 1)."""
    return brentq(lambda q: mathieu_b(1, q) - a, 1e-6, 3.0, xtol=1e-12)


def fft_peak_hz(t: np.ndarray, x: np.ndarray, f_max: float) -> float:
    """Strongest spectral line of x(t) below f_max, from a zero-padded
    Hann-windowed FFT refined by a parabola through the three top bins."""
    dt = float(t[1] - t[0])
    xs = (x - x.mean()) * np.hanning(x.size)
    n = 8 * x.size
    amp = np.abs(np.fft.rfft(xs, n))
    freqs = np.fft.rfftfreq(n, dt)
    band = np.flatnonzero((freqs > 0.0) & (freqs < f_max))
    i = int(band[np.argmax(amp[band])])
    la, lb, lc = amp[i - 1], amp[i], amp[i + 1]
    shift = 0.5 * (la - lc) / (la - 2.0 * lb + lc)
    return float(freqs[i] + shift * (freqs[1] - freqs[0]))


# ---- radiation pressure ----------------------------------------------------

def radiation_force(power: float, reflection: float, half_aperture: float) -> float:
    """2 R P / c * sin(theta) / theta."""
    return 2.0 * reflection * power / SPEED_OF_LIGHT * math.sin(half_aperture) / half_aperture


# ---- spin resonance ----------------------------------------------------------

def unit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta) * math.sin(phi), math.sin(theta) * math.sin(phi),
                     math.cos(phi)])


def dips_hz(bhat: np.ndarray, b_gauss: float) -> np.ndarray:
    """The eight dips D +- gamma B |n_i . b_hat|, ascending."""
    s = GAMMA_HZ_PER_G * b_gauss * np.abs(NV_AXES @ bhat)
    return np.sort(np.concatenate([D_ZFS_HZ - s, D_ZFS_HZ + s]))


def lorentzian_spectrum(grid: np.ndarray, dips: np.ndarray, hwhm: float,
                        contrast: float) -> np.ndarray:
    """1 - sum_i c g^2 / ((f - f_i)^2 + g^2)."""
    diff = grid[None, :] - dips[:, None]
    return 1.0 - contrast * np.sum(hwhm * hwhm / (diff * diff + hwhm * hwhm), axis=0)


def lorentzian_area(dips: np.ndarray, hwhm: float, contrast: float,
                    lo: float, hi: float) -> float:
    """Closed-form dip area on [lo, hi]: c g (atan((hi-f)/g) - atan((lo-f)/g))
    per line, i.e. pi c g minus the tails that fall outside the grid."""
    return float(np.sum(contrast * hwhm * (np.arctan((hi - dips) / hwhm)
                                           - np.arctan((lo - dips) / hwhm))))


def sweep(bhat: np.ndarray, axis: np.ndarray, b_gauss: float) -> tuple[np.ndarray, np.ndarray]:
    """Shift centre and half range of each defect axis for a crystal spinning
    about ``axis``: b(psi) = (n.b) n + cos(psi) (b - (n.b) n) + sin(psi) n x b."""
    par = float(axis @ bhat) * (NV_AXES @ axis)
    c = NV_AXES @ bhat - par
    s = NV_AXES @ np.cross(axis, bhat)
    gb = GAMMA_HZ_PER_G * b_gauss
    return gb * par, gb * np.hypot(c, s)


def broadened_area(bhat: np.ndarray, axis: np.ndarray, b_gauss: float, hwhm: float,
                   contrast: float, lo: float, hi: float, n_nodes: int = 4096) -> float:
    """Dip area on [lo, hi] of the rotation-averaged spectrum: the closed-form
    Lorentzian area averaged over the arcsine law of each line's offset
    (delta = delta_max sin u, u uniform, midpoint nodes)."""
    centers, ranges = sweep(bhat, axis, b_gauss)
    u = (np.arange(n_nodes) + 0.5) / n_nodes * math.pi - 0.5 * math.pi
    lines_c = np.concatenate([D_ZFS_HZ + centers, D_ZFS_HZ - centers])
    lines_r = np.concatenate([ranges, ranges])
    offsets = (lines_c[:, None] + lines_r[:, None] * np.sin(u)[None, :]).ravel()
    return lorentzian_area(offsets, hwhm, contrast, lo, hi) / n_nodes


def class_distance_deg(bhat: np.ndarray, other: np.ndarray) -> float:
    """Smallest angle between ``other`` and any of the 48 signed permutations
    of ``bhat``: 0 when both give the same eight-dip set."""
    cos = (SIGNED_PERMUTATIONS @ bhat) @ other
    return math.degrees(math.acos(min(1.0, float(np.max(cos)))))


def in_reported_class(bhat: np.ndarray, members_deg, tol_deg: float) -> bool:
    """True when ``bhat`` lies within tol of a (theta, phi) class member."""
    for th, ph in members_deg:
        c = float(unit_vector(math.radians(th), math.radians(ph)) @ bhat)
        if math.degrees(math.acos(min(1.0, c))) <= tol_deg:
            return True
    return False


def hausdorff_hz(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from any point of one dip set to the nearest of the other."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
