"""Inverse problems on spin-resonance spectra: dip detection, orientation and
field recovery, degeneracy enumeration, and two-spectrum rotation analysis.

The recovered orientation is only defined up to the symmetry group of the
four defect axes: any signed permutation of the crystal-frame coordinates
maps the axis set onto itself up to sign and therefore leaves the eight-dip
spectrum unchanged.  Solvers report one representative and enumerate the
class; ties between exact-fit class members are broken deterministically by
smallest azimuthal angle, then smallest polar angle.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .core import CONSTANTS, nv_axes
from .errors import SolverError
from .esr import FieldOrientation, Spectrum

_TIE_ROUND_HZ = 1.0  # residuals equal within 1 Hz count as tied
_N_THETA, _N_PHI = 24, 12  # multi-start grid of solve_general
_N_REFINE = 6  # best-scoring starts refined by least squares
_COMPARE_B_TOLERANCE_GAUSS = 2.0  # closed-form field must match b_fixed this closely
_EXTREMAL_MATCH_TOLERANCE = 0.02  # relative change of the outermost shift


@dataclass
class PeakList:
    """Detected dip positions (Hz, ascending) and their depths (1 - value)."""

    frequencies: np.ndarray
    depths: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        d = np.asarray(self.depths, dtype=float)
        if f.shape != d.shape or f.ndim != 1:
            raise ValueError("frequencies and depths must be equal-length 1-d arrays")
        if f.size > 1 and not np.all(np.diff(f) >= 0.0):
            raise ValueError("frequencies must be sorted ascending")
        f.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "depths", d)

    def __len__(self) -> int:
        return int(self.frequencies.size)


@dataclass
class EsrSolution:
    """Recovered field orientation, with residual and its degeneracy class."""

    theta: float            # rad, in [0, 2 pi)
    phi: float              # rad, in [0, pi]
    b_gauss: float
    residual_rms_hz: float
    degeneracy_class: list[tuple[float, float]] = field(default_factory=list)
    continuous_theta: bool = False   # field along +-z: theta is unconstrained
    method: str = "general"

    def __post_init__(self):
        if self.residual_rms_hz < 0.0:
            raise ValueError("residual_rms_hz must be >= 0")
        if not self.degeneracy_class:
            self.degeneracy_class = [(self.theta, self.phi)]


def detect_peaks(spectrum: Spectrum, min_depth: float, min_separation: float) -> PeakList:
    """Locate dips: smooth, take local minima deeper than ``min_depth``, merge close ones.

    The moving-average window is a quarter of ``min_separation``; minima
    closer than ``min_separation`` are merged, keeping the deeper one.
    """
    if not (min_depth > 0.0):
        raise ValueError("min_depth must be > 0")
    if not (min_separation > 0.0):
        raise ValueError("min_separation must be > 0")
    f = spectrum.frequencies
    v = spectrum.values
    df = spectrum.grid_step

    window = max(1, int(round(min_separation / 4.0 / df)))
    if window > 1:
        pad = window // 2
        padded = np.concatenate([np.full(pad, v[0]), v, np.full(window - 1 - pad, v[-1])])
        v = np.convolve(padded, np.full(window, 1.0 / window), mode="valid")

    # leftmost point of any flat minimum plateau
    idx = [i for i in range(1, v.size - 1)
           if v[i] < v[i - 1] and v[i] <= v[i + 1]]
    idx = [i for i in idx if v[i] < 1.0 - min_depth]
    if not idx:
        raise SolverError("no dips above depth threshold")

    freqs = [float(f[i]) for i in idx]
    depths = [float(1.0 - v[i]) for i in idx]
    while len(freqs) > 1:
        gaps = np.diff(freqs)
        j = int(np.argmin(gaps))
        if gaps[j] >= min_separation:
            break
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]

    return PeakList(frequencies=np.array(freqs), depths=np.array(depths))


def _signed_permutations():
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mat = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                mat[row, col] = s
            yield mat


def _spherical_angles(bhat: np.ndarray) -> tuple[float, float]:
    phi = math.acos(min(1.0, max(-1.0, float(bhat[2]))))
    if math.sin(phi) < 1e-12:
        return 0.0, phi
    return math.atan2(float(bhat[1]), float(bhat[0])) % (2.0 * math.pi), phi


def _orientation_class(theta: float, phi: float) -> tuple[list[tuple[float, float]], bool]:
    """All (theta, phi) giving an identical dip set, via the signed coordinate
    permutations of the crystal frame, each of which preserves the set of
    |projections| onto the defect axes."""
    bhat = FieldOrientation(b_gauss=1.0, theta=theta, phi=phi).unit_vector()
    members = {}
    continuous = False
    for mat in _signed_permutations():
        b2 = mat @ bhat
        th2, ph2 = _spherical_angles(b2)
        if math.sin(ph2) < 1e-9:
            continuous = True
        members[(round(th2, 9), round(ph2, 9))] = (th2, ph2)
    # sort on rounded keys so numerical noise cannot scramble the order
    out = sorted(members.values(), key=lambda m: (round(m[0], 7), round(m[1], 7)))
    return out, continuous


def degeneracy_classes(solution: EsrSolution) -> list[tuple[float, float]]:
    """Equivalent (theta, phi) orientations producing the same eight-dip set."""
    members, _ = _orientation_class(solution.theta, solution.phi)
    return members


def equidistant_inversion(omega1_hz: float, omega2_hz: float) -> tuple[float, float, float]:
    """Closed-form (theta, phi, B) from the two outermost equally spaced shifts.

    Four equally spaced positive-side shifts force tan(theta) = 2; with
    r = omega1/omega2 the polar angle follows from
    tan(phi) = (r - 1) / (0.5 sin(theta) (3 - r)) and the field from
    B = omega1 / (gamma_e (1.5 sin(theta) sin(phi) + cos(phi))).
    Valid for omega1 >= omega2 > 0 and r < 3 (all projections positive).
    """
    if not (omega1_hz >= omega2_hz > 0.0):
        raise ValueError("need omega1 >= omega2 > 0")
    r = omega1_hz / omega2_hz
    if r >= 3.0:
        raise ValueError("shift ratio >= 3 is outside the closed-form domain")
    theta = math.atan(2.0)
    phi = math.atan((r - 1.0) / (0.5 * math.sin(theta) * (3.0 - r)))
    b = omega1_hz / (CONSTANTS.gamma_e_hz_per_gauss
                     * (1.5 * math.sin(theta) * math.sin(phi) + math.cos(phi)))
    return theta, phi, b


def _shift_magnitudes(peaks: PeakList) -> np.ndarray:
    """Observed shift magnitudes |f - D|, ascending."""
    return np.sort(np.abs(peaks.frequencies - CONSTANTS.zero_field_splitting_hz))


def _axis_magnitudes(theta: float, phi: float, b_gauss: float) -> np.ndarray:
    """Model shift magnitudes |gamma_e B (x_i . B_hat)| of the four axes."""
    bhat = np.array([math.cos(theta) * math.sin(phi),
                     math.sin(theta) * math.sin(phi), math.cos(phi)])
    return np.abs(CONSTANTS.gamma_e_hz_per_gauss * b_gauss * (nv_axes() @ bhat))


def _shift_residuals(m_obs: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Residual vectors of sorted observed magnitudes ``m_obs`` (n,) against
    model axis magnitudes ``mags`` (..., 4).

    With eight dips the model magnitudes (each axis twice) are paired with
    the observations in sorted order - the assignment-optimal matching for
    scalar shifts - and with exactly four dips one per axis the same way;
    other dip counts (degenerate or partially merged lines) get a symmetric
    nearest-match residual of length n + 4.
    """
    n = m_obs.size
    if n in (4, 8):
        return np.sort(np.repeat(mags, n // 4, axis=-1), axis=-1) - m_obs
    diff = np.abs(m_obs[:, None] - mags[..., None, :])
    return np.concatenate([diff.min(axis=-1), diff.min(axis=-2)], axis=-1)


def _equidistant_shifts(peaks: PeakList, tolerance: float) -> np.ndarray | None:
    """The four descending positive-side shifts, or None when the eight-dip
    equally-spaced pattern does not hold within ``tolerance``."""
    if len(peaks) != 8:
        return None
    d = CONSTANTS.zero_field_splitting_hz
    f = peaks.frequencies
    pos = np.sort(f[f > d] - d)[::-1]
    if pos.size != 4 or np.count_nonzero(f < d) != 4:
        return None
    spacings = -np.diff(pos)
    mean = float(spacings.mean())
    if mean > 0.0 and float(np.max(np.abs(spacings - mean))) > tolerance * mean:
        return None
    return pos


def _finish_solution(theta: float, phi: float, b_gauss: float, residual: float,
                     method: str, canonicalize: bool = False) -> EsrSolution:
    members, continuous = _orientation_class(theta, phi)
    if canonicalize and members:
        # deterministic class representative: smallest theta, then phi
        theta, phi = members[0]
    return EsrSolution(theta=theta, phi=phi, b_gauss=b_gauss,
                       residual_rms_hz=residual, degeneracy_class=members,
                       continuous_theta=continuous, method=method)


def _closed_form(peaks: PeakList,
                 spacing_tolerance: float) -> tuple[EsrSolution | None, str]:
    """The closed-form equidistant solution, or None and why it does not apply."""
    shifts = _equidistant_shifts(peaks, spacing_tolerance)
    if shifts is None:
        return None, "peaks are not an equidistant eight-dip pattern"
    try:
        theta, phi, b = equidistant_inversion(shifts[0], shifts[1])
    except ValueError as exc:
        return None, f"closed-form inversion rejected the shifts ({exc})"
    res = _shift_residuals(_shift_magnitudes(peaks), _axis_magnitudes(theta, phi, b))
    return _finish_solution(theta, phi, b, float(np.sqrt(np.mean(res ** 2))),
                            method="equidistant"), ""


def solve_equidistant(peaks: PeakList, spacing_tolerance: float = 0.05,
                      residual_threshold_hz: float = 30e6) -> EsrSolution:
    """Invert an eight-dip, equally spaced spectrum in closed form.

    Falls through to solve_general (with a warning, and with
    ``residual_threshold_hz``) when the input is not equidistant within
    ``spacing_tolerance`` of the mean spacing, has the wrong dip count, or
    sits outside the closed-form domain.
    """
    sol, reason = _closed_form(peaks, spacing_tolerance)
    if sol is None:
        warnings.warn(f"{reason}; falling back to the general solver", stacklevel=2)
        return solve_general(peaks, residual_threshold_hz=residual_threshold_hz)
    return sol


def _wrap_solution_angles(theta: float, phi: float) -> tuple[float, float]:
    phi = phi % (2.0 * math.pi)
    if phi > math.pi:
        phi = 2.0 * math.pi - phi
        theta = theta + math.pi
    return theta % (2.0 * math.pi), phi


def solve_general(peaks: PeakList, residual_threshold_hz: float = 30e6,
                  b_fixed: float | None = None) -> EsrSolution:
    """Least-squares orientation fit with multi-start over a (theta, phi) grid.

    Observed dips are reduced to shift magnitudes |f - D| and matched to the
    model axis magnitudes as in ``_shift_residuals``, so spectra whose lines
    coincide at special orientations remain solvable (the orientation is
    then pinned only up to the matching family).  The coarse 24 x 12 start
    grid is scored with a closed-form field estimate, the six best starts
    are refined, and the result is reported as the degeneracy-class
    representative with smallest theta, then phi.  Raises when the best
    residual exceeds ``residual_threshold_hz``.
    """
    n = len(peaks)
    if n < 1:
        raise ValueError("need at least one dip to constrain the orientation")
    m_obs = _shift_magnitudes(peaks)

    # coarse scoring over the start grid, vectorized
    th = np.linspace(0.0, 2.0 * math.pi, _N_THETA, endpoint=False)
    ph = np.linspace(0.0, math.pi, _N_PHI)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    bhats = np.stack([np.cos(tt) * np.sin(pp), np.sin(tt) * np.sin(pp),
                      np.cos(pp)], axis=-1).reshape(-1, 3)
    v4 = np.abs(bhats @ nv_axes().T) * CONSTANTS.gamma_e_hz_per_gauss  # per gauss
    if b_fixed is not None:
        b0 = np.full(v4.shape[0], float(b_fixed))
    elif n in (4, 8):
        vm = np.sort(np.repeat(v4, n // 4, axis=1), axis=1)
        denom = np.sum(vm * vm, axis=1)
        b0 = np.where(denom > 0.0, (vm @ m_obs) / np.maximum(denom, 1e-300), 0.0)
    else:
        vmax = v4.max(axis=1)
        b0 = np.where(vmax > 0.0, m_obs[-1] / np.maximum(vmax, 1e-300), 0.0)
    scores = np.sqrt(np.mean(_shift_residuals(m_obs, v4 * b0[:, None]) ** 2, axis=1))

    if b_fixed is None:
        fun = lambda x: _shift_residuals(m_obs, _axis_magnitudes(x[0], x[1], abs(x[2])))
    else:
        fun = lambda x: _shift_residuals(m_obs, _axis_magnitudes(x[0], x[1], b_fixed))
    best = None
    for i in np.argsort(scores, kind="stable")[:_N_REFINE]:
        x0 = list(_spherical_angles(bhats[i]))
        if b_fixed is None:
            x0.append(max(float(b0[i]), 1e-6))
        fit = least_squares(fun, x0, method="lm", xtol=1e-15, ftol=1e-15,
                            gtol=1e-15, max_nfev=400)
        theta_f, phi_f = _wrap_solution_angles(fit.x[0], fit.x[1])
        b_f = float(b_fixed) if b_fixed is not None else abs(float(fit.x[2]))
        rms = float(np.sqrt(np.mean(fit.fun ** 2)))
        key = (round(rms / _TIE_ROUND_HZ), round(theta_f, 9), round(phi_f, 9))
        if best is None or key < best[0]:
            best = (key, theta_f, phi_f, b_f, rms)

    _, theta_b, phi_b, b_b, rms_b = best
    if rms_b > residual_threshold_hz:
        raise SolverError(
            f"no consistent orientation: best residual {rms_b:.3g} Hz exceeds "
            f"threshold {residual_threshold_hz:.3g} Hz")
    return _finish_solution(theta_b, phi_b, b_b, rms_b, method="general",
                            canonicalize=True)


@dataclass
class RotationReport:
    """Outcome of comparing two spectra of the same crystal at fixed field."""

    before: EsrSolution
    after: EsrSolution
    extremal_shift_hz: float    # change of the outermost shift magnitude
    extremal_match: bool        # outermost dips unchanged within tolerance
    merged_central_pair: bool   # the second spectrum resolves fewer dips per side


def compare_orientations(before: PeakList, after: PeakList, b_fixed: float,
                         spacing_tolerance: float = 0.05) -> RotationReport:
    """Solve two dip lists at a common field and report the implied rotation.

    Each list takes the closed-form path when it is equidistant and its
    closed-form field lies within 2 G of ``b_fixed``, and the general solver
    at ``b_fixed`` otherwise.  The outermost dips of the two spectra are
    compared (within 2 % of the first) as a diagnostic rather than enforced
    as a constraint, since an exactly preserved extreme is generally
    inconsistent with the projection model; the merged-pair flag records
    that the second spectrum resolves fewer dips on each side of the
    central frequency.  Solver failures propagate.
    """
    if not (b_fixed > 0.0):
        raise ValueError("b_fixed must be > 0")
    sols = []
    for peaks in (before, after):
        sol, _ = _closed_form(peaks, spacing_tolerance)
        if sol is None or abs(sol.b_gauss - b_fixed) > _COMPARE_B_TOLERANCE_GAUSS:
            sol = solve_general(peaks, b_fixed=b_fixed)
        sols.append(sol)
    d = CONSTANTS.zero_field_splitting_hz
    ext_before = float(np.max(np.abs(before.frequencies - d)))
    ext_after = float(np.max(np.abs(after.frequencies - d)))
    pos_before = int(np.sum(before.frequencies > d))
    pos_after = int(np.sum(after.frequencies > d))
    return RotationReport(
        before=sols[0],
        after=sols[1],
        extremal_shift_hz=ext_after - ext_before,
        extremal_match=(abs(ext_after - ext_before)
                        <= _EXTREMAL_MATCH_TOLERANCE * max(ext_before, 1.0)),
        merged_central_pair=pos_after < pos_before,
    )
