"""Inverse problems on spin-resonance spectra: dip detection, orientation and
field recovery, degeneracy enumeration, and two-spectrum rotation analysis.

The recovered orientation is only defined up to the symmetry group of the
four defect axes: any signed permutation of the crystal-frame coordinates
maps the axis set onto itself up to sign and therefore leaves the eight-dip
spectrum unchanged.  Solvers report one representative and enumerate the
class; ties between exact-fit class members are broken deterministically by
smallest azimuthal angle, then smallest polar angle.  The general solver
fits up to eight dips by an exact least-squares solve on the two cones of
field vectors that hold one member of every class, which is final at free
field; a given field adds one local refinement.
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

_COMPARE_B_TOLERANCE_GAUSS = 2.0  # closed-form field must match b_fixed this closely
_EXTREMAL_MATCH_TOLERANCE = 0.02  # relative change of the outermost shift
_FD_REL_STEP = math.sqrt(np.finfo(float).eps)  # scipy's default "2-point" relative step


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

    The moving-average window is a quarter of ``min_separation`` and may not
    span more points than the spectrum has; minima closer than
    ``min_separation`` are merged, keeping the deeper one.
    """
    if not (min_depth > 0.0):
        raise ValueError("min_depth must be > 0")
    if not (min_separation > 0.0):
        raise ValueError("min_separation must be > 0")
    f = spectrum.frequencies
    v = spectrum.values
    df = spectrum.grid_step

    window = max(1, int(round(min_separation / 4.0 / df)))
    if window > v.size:  # np.convolve would cost window * size operations
        raise ValueError(f"min_separation {min_separation:g} Hz gives a smoothing window of "
                         f"{window} points, longer than the {v.size}-point spectrum")
    if window > 1:
        pad = window // 2
        padded = np.concatenate([np.full(pad, v[0]), v, np.full(window - 1 - pad, v[-1])])
        v = np.convolve(padded, np.full(window, 1.0 / window), mode="valid")

    # leftmost point of any flat minimum plateau
    mid = v[1:-1]
    idx = np.flatnonzero((mid < v[:-2]) & (mid <= v[2:]) & (mid < 1.0 - min_depth)) + 1
    if not idx.size:
        raise SolverError("no dips above depth threshold")

    freqs = f[idx].tolist()
    depths = (1.0 - v[idx]).tolist()
    while len(freqs) > 1:
        gaps = np.diff(freqs)
        j = int(np.argmin(gaps))
        if gaps[j] >= min_separation:
            break
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]

    return PeakList(frequencies=np.array(freqs), depths=np.array(depths))


def _signed_permutation_matrices() -> np.ndarray:
    """The 48 signed permutations of the crystal-frame coordinates, (48, 3, 3)."""
    mats = np.zeros((48, 3, 3))
    pairs = itertools.product(itertools.permutations(range(3)),
                              itertools.product((1.0, -1.0), repeat=3))
    for mat, (perm, signs) in zip(mats, pairs):
        mat[range(3), perm] = signs
    return mats


_SIGNED_PERMUTATIONS = _signed_permutation_matrices()


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
    for b2 in _SIGNED_PERMUTATIONS @ bhat:
        th2, ph2 = _spherical_angles(b2)
        if math.sin(ph2) < 1e-9:
            continuous = True
        members[(round(th2, 9), round(ph2, 9))] = (th2, ph2)
    # sort on rounded keys so numerical noise cannot scramble the order
    out = sorted(members.values(), key=lambda m: (round(m[0], 7), round(m[1], 7)))
    return out, continuous


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


def _line_residuals(m_lines: np.ndarray, mags: np.ndarray) -> np.ndarray:
    """Residuals (..., 8) of the eight ascending model lines, each axis
    magnitude of ``mags`` (..., 4) twice, against ``m_lines`` (..., 8), the
    observed shift magnitude assigned to each line.

    Pairing in sorted order is the assignment-optimal matching for scalar
    shifts; fewer than eight dips assign each dip a run of consecutive lines.
    """
    return np.sort(np.repeat(mags, 2, axis=-1), axis=-1) - m_lines


def _cone_faces() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plane vz = vx + vy cuts the domain 0 <= vx <= vy <= vz of v =
    gamma_e B B_hat into two cones; on each, v = rays @ w (w >= 0) has ascending
    axis magnitudes mags @ w.  Per face (non-empty subset of a cone's rays):
    rays, mags, and the least-squares inverse (3, 8) of the eight-line design."""
    faces = []
    for cone in ([(1, 1, 2), (0, 1, 1), (0, 0, 1)], [(0, 1, 1), (1, 1, 1), (1, 1, 2)]):
        rays = np.array(cone, dtype=float).T
        mags = np.sort(np.abs(nv_axes() @ rays), axis=0)
        for face in np.array(list(itertools.product((False, True), repeat=3))[1:]):
            design = np.repeat(mags[:, face], 2, axis=0)  # full column rank
            pinv = np.zeros((3, 8))  # zero weight on the rays off the face
            pinv[face] = np.linalg.solve(design.T @ design, design.T)
            faces.append((rays, mags, pinv))
    return tuple(np.array(part) for part in zip(*faces))


_FACE_RAYS, _FACE_MAGS, _FACE_PINV = _cone_faces()


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
    res = _line_residuals(_shift_magnitudes(peaks), _axis_magnitudes(theta, phi, b))
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


def _forward_jacobian(fun, x: np.ndarray, f0: np.ndarray | None = None) -> np.ndarray:
    """Forward-difference Jacobian of ``fun`` at ``x`` with the steps of
    scipy's default "2-point" scheme: h = sqrt(eps) * sign(x) * max(1, |x|)
    with sign(0) = +1, each column divided by the representable step
    (x + h) - x.  ``f0``, when given, is ``fun(x)``."""
    if f0 is None:
        f0 = fun(x)
    h = _FD_REL_STEP * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        x1 = x.copy()
        x1[i] = x[i] + h[i]
        jac[:, i] = (fun(x1) - f0) / (x1[i] - x[i])
    return jac


def _wrap_solution_angles(theta: float, phi: float) -> tuple[float, float]:
    phi = phi % (2.0 * math.pi)
    if phi > math.pi:
        phi = 2.0 * math.pi - phi
        theta = theta + math.pi
    return theta % (2.0 * math.pi), phi


def solve_general(peaks: PeakList, residual_threshold_hz: float = 30e6,
                  b_fixed: float | None = None) -> EsrSolution:
    """Orientation fit: an exact least-squares solve, refined only at a fixed field.

    Dips become shift magnitudes |f - D|.  Each dip takes a run of
    consecutive lines of the eight ascending model lines, and four dips are
    one per axis; the cost is ``_line_residuals``.  Every split into runs is
    fitted on every cone face (``_cone_faces``) with the weights clipped at
    0, which the optimum's own face leaves exact, so the best fit is the
    global optimum at free field and is returned as it is, with the rms over
    the eight lines.  At ``b_fixed`` it starts one local Levenberg-Marquardt
    refinement over (theta, phi) with its split held.  Reports the class
    member with smallest theta, then phi; raises for more than eight dips or
    a residual above ``residual_threshold_hz``.
    """
    n = len(peaks)
    if n < 1:
        raise ValueError("need at least one dip to constrain the orientation")
    if n > 8:
        raise SolverError(f"{n} dips: the four defect axes give at most eight")
    m_obs = _shift_magnitudes(peaks)

    cuts = [(2, 4, 6)] if n == 4 else list(itertools.combinations(range(1, 8), n - 1))
    runs = np.sum(np.arange(8)[:, None] >= np.array(cuts, dtype=int)[:, None, :], axis=-1)
    lines = m_obs[runs]  # (splits, 8): the observed magnitude of each line
    w = np.maximum(np.einsum("fij,kj->kfi", _FACE_PINV, lines), 0.0)
    mags = np.einsum("fij,kfj->kfi", _FACE_MAGS, w)
    costs = np.sum(_line_residuals(lines[:, None], mags) ** 2, axis=-1)
    split, face = np.unravel_index(np.argmin(costs), costs.shape)
    v = _FACE_RAYS[face] @ w[split, face]
    v_hz = float(np.linalg.norm(v))
    theta, phi = _spherical_angles(v / v_hz) if v_hz > 0.0 else (0.0, 0.0)
    if b_fixed is None:
        b, rms = v_hz / CONSTANTS.gamma_e_hz_per_gauss, math.sqrt(costs[split, face] / 8.0)
    else:
        b = float(b_fixed)
        residuals = lambda x: _line_residuals(lines[split], _axis_magnitudes(x[0], x[1], b))
        # LM mostly asks for the Jacobian at the x it has just evaluated: reuse that residual
        last = [None, None]

        def fun(x):
            last[:] = x.copy(), residuals(x)
            return last[1]

        def jac(x):
            return _forward_jacobian(residuals, x,
                                     last[1] if np.array_equal(x, last[0]) else None)

        fit = least_squares(fun, [theta, phi], jac=jac, method="lm",
                            xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=400)
        theta, phi = _wrap_solution_angles(fit.x[0], fit.x[1])
        rms = float(np.sqrt(np.mean(fit.fun ** 2)))
    if rms > residual_threshold_hz:
        raise SolverError(
            f"no consistent orientation: best residual {rms:.3g} Hz exceeds "
            f"threshold {residual_threshold_hz:.3g} Hz")
    return _finish_solution(theta, phi, b, rms, method="general", canonicalize=True)


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
