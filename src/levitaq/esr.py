"""Forward models of ensemble spin-resonance spectra of a levitated crystal.

Dip positions follow from the projections of the magnetic field onto the
four defect axes: axis i contributes a resonance pair at
D +- gamma_e * (x_i . B_hat) * B around the zero-field splitting D.  The
axis vectors are unnormalized, with norm sqrt(3) (see levitaq.core.nv_axes).

For a crystal spinning about a fixed axis, each projection sweeps
sinusoidally, so the time-averaged line is the static Lorentzian convolved
with the arcsine density

    P_d(delta) = 1 / (pi * sqrt(delta_max^2 - delta^2)),   |delta| < delta_max

This average has a closed form.  The Lorentzian is
g^2 / ((f - c)^2 + g^2) = -g * Im[1 / z] with z = f - c + i g, and the
arcsine average of 1 / (z - delta) over |delta| < delta_max is
1 / (sqrt(z - delta_max) * sqrt(z + delta_max)) with principal square roots,
the branch that decays as 1 / z for large |z| in the upper half plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CONSTANTS, nv_axes
from .errors import PhysicsError, SolverError

_MAX_GRID_POINTS = 10 ** 7  # points of one frequency grid


@dataclass(frozen=True)
class FieldOrientation:
    """Magnetic field magnitude (gauss) and direction in the crystal frame.

    The unit direction is (cos(theta) sin(phi), sin(theta) sin(phi), cos(phi))
    with azimuthal angle theta (wrapped into [0, 2 pi)) and polar angle
    phi in [0, pi].
    """

    b_gauss: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.b_gauss) and self.b_gauss >= 0.0):
            raise ValueError("b_gauss must be finite and >= 0")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not (0.0 <= self.phi <= math.pi):
            raise ValueError("phi must be in [0, pi]")
        object.__setattr__(self, "theta", self.theta % (2.0 * math.pi))

    def unit_vector(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        sp, cp = math.sin(self.phi), math.cos(self.phi)
        return np.array([ct * sp, st * sp, cp])


@dataclass(frozen=True)
class LineModel:
    """Lorentzian line shape: half width at half maximum (Hz) and per-line contrast."""

    hwhm: float = 10e6
    contrast_per_line: float = 0.03

    def __post_init__(self):
        if not (self.hwhm > 0.0):
            raise ValueError("hwhm must be > 0")
        if not (0.0 < self.contrast_per_line < 1.0):
            raise ValueError("contrast_per_line must be in (0, 1)")


def uniform_steps(df: np.ndarray) -> bool:
    """Whether the steps ``df`` of an ascending grid agree within 1e-6 relative."""
    return bool(np.allclose(df, df[0], rtol=1e-6, atol=0.0))


@dataclass
class Spectrum:
    """Normalized photoluminescence contrast on a uniform ascending grid.

    Values are 1 off resonance and dip below 1 on resonance; the invariant
    is values in (0, 1.05].
    """

    frequencies: np.ndarray  # Hz
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape or f.size < 2:
            raise ValueError("frequencies and values must be equal-length 1-d arrays")
        df = np.diff(f)
        if not np.all(df > 0.0):
            raise ValueError("frequency grid must be strictly ascending")
        if not uniform_steps(df):
            raise ValueError("frequency grid must be uniform")
        if not (np.all(v > 0.0) and np.all(v <= 1.05)):
            raise ValueError("values must lie in (0, 1.05]")
        f.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    @property
    def grid_step(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


@dataclass(frozen=True)
class ZeemanShifts:
    """Signed field projections and the resulting dip positions.

    ``projections`` are the dimensionless x_i . B_hat values (one per axis,
    fixed axis order), ``shifts_hz`` the signed frequency shifts
    gamma_e * projection * B, and ``dip_frequencies_hz`` the eight dip
    positions D +- |shift|, sorted ascending.
    """

    projections: np.ndarray
    shifts_hz: np.ndarray
    dip_frequencies_hz: np.ndarray


def _check_linear_zeeman(b_gauss: float, max_shift_hz: float):
    """Raise PhysicsError unless the lowest line D - max shift stays above
    0 Hz, where the linear Zeeman model of this module ends: 1025 G along a
    cube axis, about 592 G along a defect axis."""
    low = CONSTANTS.zero_field_splitting_hz - max_shift_hz
    if not low > 0.0:
        limit = CONSTANTS.zero_field_splitting_hz / (max_shift_hz / b_gauss)
        raise PhysicsError(f"a {b_gauss:g} G field puts the lowest line at {low:.6g} Hz; "
                           f"the linear Zeeman model holds below {limit:.6g} G in this "
                           "direction")


def zeeman_shifts(field: FieldOrientation) -> ZeemanShifts:
    """Resonance shifts of the four axis families for a static field.

    Raises PhysicsError for a field that takes a line to or below 0 Hz."""
    proj = nv_axes() @ field.unit_vector()
    shifts = CONSTANTS.gamma_e_hz_per_gauss * field.b_gauss * proj
    _check_linear_zeeman(field.b_gauss, float(np.max(np.abs(shifts))))
    d = CONSTANTS.zero_field_splitting_hz
    dips = np.sort(np.concatenate([d - np.abs(shifts), d + np.abs(shifts)]))
    for arr in (proj, shifts, dips):
        arr.setflags(write=False)
    return ZeemanShifts(projections=proj, shifts_hz=shifts, dip_frequencies_hz=dips)


def uniform_grid(f_min: float, f_max: float, n_points: int) -> np.ndarray:
    if not (f_max > f_min) or not 2 <= n_points <= _MAX_GRID_POINTS:
        raise ValueError(f"need f_max > f_min and 2 to {_MAX_GRID_POINTS:.0e} points")
    return np.linspace(f_min, f_max, n_points)


def _check_coverage(grid: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    uncovered = [(float(lo), float(hi)) for lo, hi in zip(lows, highs)
                 if lo < grid[0] or hi > grid[-1]]
    if uncovered:
        raise ValueError(
            "grid does not cover all lines within five half-widths; "
            f"uncovered spans (Hz): {uncovered}")


def _check_total_contrast(n_lines: int, model: LineModel):
    if n_lines * model.contrast_per_line > 1.0:
        raise ValueError("total modeled contrast exceeds 1; lower contrast_per_line")


def synth_spectrum(dips_hz, model: LineModel, grid_hz) -> Spectrum:
    """Render Lorentzian dips onto a grid: value(f) = 1 - sum_i c * G^2/((f-f_i)^2 + G^2).

    The grid must cover every dip within five half-widths.
    """
    dips = np.atleast_1d(np.asarray(dips_hz, dtype=float))
    grid = np.asarray(grid_hz, dtype=float)
    g = model.hwhm
    _check_total_contrast(dips.size, model)
    _check_coverage(grid, dips - 5.0 * g, dips + 5.0 * g)

    values = np.ones_like(grid)
    for f0 in dips:
        values -= model.contrast_per_line * g * g / ((grid - f0) ** 2 + g * g)
    values = np.clip(values, 1e-9, 1.05)
    return Spectrum(frequencies=grid, values=values)


def sweep_amplitudes(field: FieldOrientation, rotation_axis) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis sinusoidal sweep of the shift under crystal rotation.

    For a crystal spinning about ``rotation_axis`` (unit vector, crystal
    frame) in a fixed field, the shift of axis i is
    gamma*B*(A_i + E_i cos(psi - psi_i)) in rotation angle psi.  Returns
    (centers_hz, half_ranges_hz) = (gamma*B*A, gamma*B*E), one entry per axis.
    """
    n = np.asarray(rotation_axis, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-6:
        raise ValueError("rotation_axis must be unit-norm")
    axes = nv_axes()
    bhat = field.unit_vector()
    a_par = (n @ bhat) * (axes @ n)
    c_cos = axes @ bhat - a_par
    c_sin = axes @ np.cross(n, bhat)
    gb = CONSTANTS.gamma_e_hz_per_gauss * field.b_gauss
    return gb * a_par, gb * np.hypot(c_cos, c_sin)


def rotation_broadened_spectrum(field: FieldOrientation, rotation_axis,
                                model: LineModel, grid_hz, n_cells: int = 400) -> Spectrum:
    """Rotation-averaged spectrum: each line convolved with its arcsine density.

    Each of the eight lines, at center c with sweep half range delta_max,
    takes from the baseline 1 its Lorentzian averaged exactly over the sweep,

        contrast * g * -Im[1 / (sqrt(z - delta_max) * sqrt(z + delta_max))],
        z = f - c + i g,

    with numpy's principal square roots (branch cut on the negative real
    axis).  Since Im z = g > 0, this is the branch that decays as 1 / z, so
    each line keeps the static dip area, and a zero sweep range gives the
    static Lorentzian.  Raises PhysicsError for a field whose sweep takes a
    line to or below 0 Hz.

    ``n_cells`` is unused; it is kept because the benchmark's tracer reads it
    by name from the bound arguments of this function.
    """
    grid = np.asarray(grid_hz, dtype=float)
    centers, half_ranges = sweep_amplitudes(field, rotation_axis)
    _check_linear_zeeman(field.b_gauss, float(np.max(np.abs(centers) + half_ranges)))
    d = CONSTANTS.zero_field_splitting_hz
    g = model.hwhm
    _check_total_contrast(8, model)

    line_centers = np.concatenate([d + centers, d - centers])
    line_ranges = np.concatenate([half_ranges, half_ranges])
    _check_coverage(grid, line_centers - line_ranges - 5.0 * g,
                    line_centers + line_ranges + 5.0 * g)

    values = np.ones_like(grid)
    for c0, dmax in zip(line_centers, line_ranges):
        z = (grid - c0) + 1j * g
        values += model.contrast_per_line * g * np.imag(
            1.0 / (np.sqrt(z - dmax) * np.sqrt(z + dmax)))
    values = np.clip(values, 1e-9, 1.05)
    return Spectrum(frequencies=grid, values=values)


def extremal_field_estimate(spectrum: Spectrum, threshold: float) -> float:
    """Field magnitude (gauss) from the outermost resonance extent of a spectrum.

    Finds the outermost grid frequencies at which the dip depth 1 - value
    exceeds ``threshold`` and converts the larger one-sided extent from the
    zero-field splitting D to a field via B = extent / (gamma_e * p_max),
    where p_max is the largest axis projection reached during the rotation
    (the axis norm sqrt(3), when the sweep passes through alignment).
    Extents not exceeding 20 MHz are rejected as bare central-dip structure
    rather than resolved field splitting.
    """
    if not (threshold > 0.0):
        raise ValueError("threshold must be > 0")
    d = CONSTANTS.zero_field_splitting_hz
    depth = 1.0 - spectrum.values
    above = np.flatnonzero(depth > threshold)
    if above.size == 0:
        raise SolverError("no resonance detected: no dip exceeds the threshold")
    f = spectrum.frequencies
    extent = max(float(f[above[-1]] - d), float(d - f[above[0]]))
    if extent <= 2.0e7:
        raise SolverError("no resonance detected beyond the central dip width")
    return extent / (CONSTANTS.gamma_e_hz_per_gauss * math.sqrt(3.0))
