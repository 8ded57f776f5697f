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
import operator
from dataclasses import dataclass, field

import numpy as np
# unused here; kept because the benchmark's tracer wraps solver.least_squares by
# name and its traced runs read the scipy.optimize import time of levitaq.cli
from scipy.optimize import least_squares  # noqa: F401

from .core import CONSTANTS, nv_axes
from .errors import SolverError
from .esr import Spectrum

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
        if not (f[1:] >= f[:-1]).all():
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
    values = spectrum.values
    df = spectrum.grid_step

    window = max(1, int(round(min_separation / 4.0 / df)))
    if window > values.size:  # the edge padding alone would allocate window points
        raise ValueError(f"min_separation {min_separation:g} Hz gives a smoothing window of "
                         f"{window} points, longer than the {values.size}-point spectrum")
    if window > 1:  # box average from a running sum, O(size) for any window
        # one buffer: a leading 0, the depth 1 - value (near 0 off the dips, so
        # the running sum stays small) and its edge values repeated as padding
        pad = window // 2
        total = np.empty(values.size + window)
        total[0] = 0.0
        np.subtract(1.0, values, out=total[1 + pad:1 + pad + values.size])
        total[1:1 + pad] = total[1 + pad]
        total[1 + pad + values.size:] = total[pad + values.size]
        np.cumsum(total, out=total)
        u = total[window:] - total[:-window]
        u /= window
    else:
        u = 1.0 - values

    # leftmost point of any flat maximum plateau of the depth: a rise into the
    # point and none out of it; the threshold 1 - (1 - min_depth) makes the
    # test on an unsmoothed depth exactly the value test v < 1 - min_depth
    rising = u[1:] > u[:-1]
    idx = np.flatnonzero(rising[:-1] > rising[1:]) + 1
    idx = idx[u[idx] > 1.0 - (1.0 - min_depth)]
    if not idx.size:
        raise SolverError("no dips above depth threshold")

    freqs = f[idx].tolist()
    depths = u[idx].tolist()
    while len(freqs) > 1:
        gaps = [hi - lo for lo, hi in zip(freqs, freqs[1:])]
        least = min(gaps)
        if least >= min_separation:
            break
        j = gaps.index(least)  # the first index of the least gap, as np.argmin's
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]

    return PeakList(frequencies=np.array(freqs), depths=np.array(depths))


# the 48 signed permutations of the crystal-frame coordinates, each as the
# indices into (x, -x, y, -y, z, -z) of the permuted vector's x, y and z
_SIGNED_PERMUTATIONS = tuple(tuple(2 * axis + negated for axis, negated in zip(perm, negations))
                             for perm in itertools.permutations(range(3))
                             for negations in itertools.product((0, 1), repeat=3))
_AZIMUTH_PAIRS = tuple(sorted({(ix, iy) for ix, iy, _ in _SIGNED_PERMUTATIONS}))  # 24
# per signed permutation, in that order: its index into _AZIMUTH_PAIRS and its z index
_MEMBER_INDICES = tuple((_AZIMUTH_PAIRS.index((ix, iy)), iz)
                        for ix, iy, iz in _SIGNED_PERMUTATIONS)
# the 48 members' azimuths and polar angles from the 24 and the 6 values
_MEMBER_AZIMUTHS = operator.itemgetter(*(ia for ia, _ in _MEMBER_INDICES))
_MEMBER_POLARS = operator.itemgetter(*(iz for _, iz in _MEMBER_INDICES))
_ROUNDING_REACH = 2e-7  # twice the spacing of the 7-digit keys


def _spherical_angles(bhat) -> tuple[float, float]:
    """(theta, phi) of the unit vector ``bhat``, any sequence of three floats."""
    phi = math.acos(min(1.0, max(-1.0, float(bhat[2]))))
    if math.sin(phi) < 1e-12:
        return 0.0, phi
    return math.atan2(float(bhat[1]), float(bhat[0])) % (2.0 * math.pi), phi


def _keyed(values: list[float], others: tuple[float, ...] = ()) -> list[tuple[float, float, float]]:
    """Each value with its dedupe and sort keys: ``round(v, 9)`` and
    ``round(v, 7)`` when another value, or one of ``others``, lies within
    _ROUNDING_REACH of it, and the value itself otherwise.  A value more than
    that from every other rounds to a 7-digit key no other value reaches, so
    its own value dedupes and sorts it exactly as the rounded keys would."""
    ordered = sorted([*values, *others])
    near = {v for lo, hi in zip(ordered, ordered[1:]) if hi - lo <= _ROUNDING_REACH
            for v in (lo, hi)}
    rounded = {v: _decimal_keys(v) for v in near}  # once per distinct value
    return [rounded.get(v) or (v, v, v) for v in values]


def _decimal_keys(v: float) -> tuple[float, float, float]:
    """``(v, round(v, 9), round(v, 7))`` for 0 <= v < 7, without round()'s
    decimal string.  v * 10**d lies within half an ulp (under 1e-6) of the
    exact product, so unless it falls within 1e-3 of a half integer, its
    nearest integer k is the exact product's, the digits round() keeps; and
    k / 10**d is the double nearest k * 10**-d, as round()'s conversion of
    those digits back to a double is.  Near a half integer it calls round()."""
    y9, y7 = v * 1e9, v * 1e7
    k9, k7 = round(y9), round(y7)
    return (v, k9 / 1e9 if abs(y9 - k9) < 0.499 else round(v, 9),
            k7 / 1e7 if abs(y7 - k7) < 0.499 else round(v, 7))


def _spread(values: list[float]) -> bool:
    """Whether no two of ``values`` lie within _ROUNDING_REACH of each other."""
    ordered = sorted(values)
    return all(hi - lo > _ROUNDING_REACH for lo, hi in zip(ordered, ordered[1:]))


def _orientation_class(theta: float, phi: float) -> tuple[list[tuple[float, float]], bool]:
    """All (theta, phi) giving an identical dip set, via the signed coordinate
    permutations of the crystal frame, each of which preserves the set of
    |projections| onto the defect axes.

    A member's angles are ``_spherical_angles`` of the permuted vector: its
    polar angle depends on its z alone (6 values) and its azimuth on its
    (x, y) pair (24 values), so each is computed once, in plain floats from
    the products ``FieldOrientation.unit_vector`` forms.  Members are
    deduplicated on their angles at 9 digits and ordered at 7, with rounding
    applied only to values within 2e-7 of another of their kind (a pole
    member's azimuth 0.0 counts among the azimuths); ties keep the order of
    _SIGNED_PERMUTATIONS.  With no member at a pole and every azimuth and
    every polar angle more than 2e-7 from the others of its kind, no key
    rounds and the 48 members differ, so the class is one sort of the pairs.
    The azimuth is unconstrained, and the flag set, when a member lies within
    1e-9 of a pole."""
    theta %= 2.0 * math.pi
    sin_phi = math.sin(phi)
    x, y, z = math.cos(theta) * sin_phi, math.sin(theta) * sin_phi, math.cos(phi)
    signed = (x, -x, y, -y, z, -z)
    polar = list(map(math.acos, signed))  # |c| <= 1: products of sines and cosines
    sines = [math.sin(ph) for ph in polar]
    continuous = any(s < 1e-9 for s in sines)
    pole = [s < 1e-12 for s in sines]
    azimuth = [math.atan2(signed[iy], signed[ix]) % (2.0 * math.pi)
               for ix, iy in _AZIMUTH_PAIRS]
    if not any(pole) and _spread(azimuth) and _spread(polar):
        return sorted(zip(_MEMBER_AZIMUTHS(azimuth), _MEMBER_POLARS(polar))), continuous
    azimuth = _keyed(azimuth, (0.0,) if any(pole) else ())
    polar = _keyed(polar)
    members = {}
    for ia, iz in _MEMBER_INDICES:
        th, th9, th7 = (0.0, 0.0, 0.0) if pole[iz] else azimuth[ia]
        ph, ph9, ph7 = polar[iz]
        members[th9, ph9] = ((th7, ph7), (th, ph))
    out = sorted(members.values(), key=operator.itemgetter(0))
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


def _split_runs(n: int) -> np.ndarray:
    """(splits, 8): the dip each of the eight ascending lines takes, per split
    of the lines among ``n`` dips.  Four dips are one per axis, two lines
    each; any other count takes every split into consecutive runs."""
    cuts = [(2, 4, 6)] if n == 4 else list(itertools.combinations(range(1, 8), n - 1))
    return np.sum(np.arange(8)[:, None] >= np.array(cuts, dtype=int)[:, None, :], axis=-1)


_FACE_RAYS, _FACE_MAGS, _FACE_PINV = _cone_faces()
# each face's axis magnitudes repeated to the eight ascending lines, (faces, 8, 3)
_FACE_LINES = np.repeat(_FACE_MAGS, 2, axis=1)
_RUNS = {n: _split_runs(n) for n in range(1, 9)}
for _table in (_FACE_RAYS, _FACE_MAGS, _FACE_PINV, _FACE_LINES, *_RUNS.values()):
    _table.setflags(write=False)


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
    consecutive lines of the eight ascending model lines (the splits of
    ``_RUNS``, built once), and four dips are one per axis; pairing in
    sorted order is the assignment-optimal matching for scalar shifts.  The
    cost is the squared difference of each line from its dip.  Every split
    is fitted on every cone face (``_cone_faces``) with the weights clipped
    at 0, which the optimum's own face leaves exact, so the best fit is the
    global optimum at free field; with w >= 0 the face's lines
    (``_FACE_LINES``, its axis magnitudes each taken twice) come out
    ascending, so they need no sort.  At ``b_fixed`` every such candidate is
    scaled to that field and scored again: the eight unit-field lines have
    squared norm 8 in every direction, so a split's best direction is the
    same at every field, and the best scaled candidate is the global optimum
    at that field.  The residual is the rms over the eight lines.

    The degeneracy class is that of ``_orientation_class``.  On an equally
    spaced eight-dip pattern (``_equidistant_shifts``) the reported member
    is the one nearest the closed-form angles of ``equidistant_inversion``
    (the largest cosine, in plain floats), with ``method = "equidistant"``;
    otherwise it is the first member: smallest theta, then phi.  Raises
    for a ``b_fixed`` that is not finite and > 0, more than eight dips or a
    residual above ``residual_threshold_hz``.
    """
    if b_fixed is not None and not (0.0 < b_fixed < math.inf):
        raise ValueError(f"b_fixed must be finite and > 0, got {b_fixed:g}")
    n = len(peaks)
    if n < 1:
        raise ValueError("need at least one dip to constrain the orientation")
    if n > 8:
        raise SolverError(f"{n} dips: the four defect axes give at most eight")
    m_obs = _shift_magnitudes(peaks)

    lines = m_obs[_RUNS[n]]  # (splits, 8): the observed magnitude of each line
    w = np.einsum("fij,kj->kfi", _FACE_PINV, lines)
    np.maximum(w, 0.0, out=w)
    # (splits, faces, 8): with w >= 0 and column-sorted magnitudes, ascending
    model = np.einsum("fij,kfj->kfi", _FACE_LINES, w)
    if b_fixed is not None:
        b = float(b_fixed)
        vecs = np.einsum("fij,kfj->kfi", _FACE_RAYS, w)
        norms = np.sqrt((vecs * vecs).sum(-1, keepdims=True))  # what np.linalg.norm computes
        # unit-field lines; a candidate with v = 0 takes +z, all eight of them 1
        model = (CONSTANTS.gamma_e_hz_per_gauss * b) * np.divide(
            model, norms, out=np.ones_like(model), where=norms > 0.0)
    d = model - lines[:, None]
    d *= d  # not einsum, which raises no overflow
    costs = d.sum(-1)
    split, face = divmod(int(costs.argmin()), costs.shape[1])
    v = _FACE_RAYS[face] @ w[split, face]
    v_hz = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a 1-d vector
    theta, phi = (_spherical_angles([c / v_hz for c in v.tolist()]) if v_hz > 0.0
                  else (0.0, 0.0))
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
        sin0, cos0 = math.sin(phi0), math.cos(phi0)
        cos = [math.sin(p) * sin0 * math.cos(t - theta0) + math.cos(p) * cos0
               for t, p in members]
        method, (theta, phi) = "equidistant", members[cos.index(max(cos))]
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
    f_before, f_after = before.frequencies.tolist(), after.frequencies.tolist()
    ext_before = max(abs(f - d) for f in f_before)
    ext_after = max(abs(f - d) for f in f_after)
    pos_before = sum(f > d for f in f_before)
    pos_after = sum(f > d for f in f_after)
    return RotationReport(
        before=sols[0],
        after=sols[1],
        extremal_shift_hz=ext_after - ext_before,
        extremal_match=(abs(ext_after - ext_before)
                        <= _EXTREMAL_MATCH_TOLERANCE * max(ext_before, 1.0)),
        merged_central_pair=pos_after < pos_before,
    )
