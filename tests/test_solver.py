import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levitaq import solver
from levitaq.core import CONSTANTS
from levitaq.errors import SolverError
from levitaq.esr import (FieldOrientation, LineModel, Spectrum, synth_spectrum,
                         uniform_grid, zeeman_shifts)
from levitaq.solver import (EsrSolution, PeakList, compare_orientations,
                            detect_peaks, equidistant_inversion,
                            solve_equidistant, solve_general)

D_ZFS = 2.87e9
THETA_REF = math.atan(2.0)                # 63.4349 degrees
PHI_REF = 0.6148260391344912              # 35.2269 degrees
B_REF = 83.06930964009291


def dips_for(theta, phi, b):
    return zeeman_shifts(FieldOrientation(b_gauss=b, theta=theta, phi=phi)
                         ).dip_frequencies_hz


def peaks_for(theta, phi, b):
    dips = dips_for(theta, phi, b)
    return PeakList(frequencies=dips, depths=np.full(dips.size, 0.03))


CANONICAL_PEAKS = peaks_for(THETA_REF, PHI_REF, B_REF)


def class_distance_deg(solution: EsrSolution, theta: float, phi: float) -> float:
    """Angular distance from (theta, phi) to the nearest class member."""
    return min(max(abs(math.degrees(t - theta)), abs(math.degrees(p - phi)))
               for t, p in solution.degeneracy_class)


class TestDetectPeaks:
    def _render(self, dips, hwhm=2e6, contrast=0.03, n=90001):
        grid = uniform_grid(2.4e9, 3.3e9, n)
        return synth_spectrum(dips, LineModel(hwhm=hwhm, contrast_per_line=contrast),
                              grid)

    def test_recovers_eight_dips_within_grid_step(self):
        dips = dips_for(THETA_REF, PHI_REF, B_REF)
        s = self._render(dips)
        peaks = detect_peaks(s, min_depth=0.01, min_separation=15e6)
        assert len(peaks) == 8
        np.testing.assert_allclose(peaks.frequencies, dips, atol=1.5 * s.grid_step)

    def test_close_pair_merged_to_deeper(self):
        s = self._render([D_ZFS - 3.75e6, D_ZFS + 3.75e6])
        peaks = detect_peaks(s, min_depth=0.005, min_separation=15e6)
        assert len(peaks) == 1

    def test_flat_spectrum_raises(self):
        grid = uniform_grid(2.8e9, 2.9e9, 1001)
        flat = synth_spectrum([2.85e9], LineModel(hwhm=1e6, contrast_per_line=0.001),
                              grid)
        with pytest.raises(SolverError, match="no dips"):
            detect_peaks(flat, min_depth=0.05, min_separation=10e6)

    def test_window_longer_than_spectrum_rejected(self):
        s = self._render([D_ZFS], n=1001)
        # a window of the whole grid fits, and smooths the dip away
        with pytest.raises(SolverError, match="no dips"):
            detect_peaks(s, min_depth=0.01, min_separation=4.0 * 1001 * s.grid_step)
        with pytest.raises(ValueError, match="longer than the 1001-point spectrum"):
            detect_peaks(s, min_depth=0.01, min_separation=4.0 * 1002 * s.grid_step)
        with pytest.raises(ValueError, match="smoothing window"):
            detect_peaks(s, min_depth=0.01, min_separation=1e12)

    def test_positions_invariant_under_contrast_scaling(self):
        dips = dips_for(THETA_REF, PHI_REF, B_REF)
        p1 = detect_peaks(self._render(dips, contrast=0.02), 0.005, 15e6)
        p2 = detect_peaks(self._render(dips, contrast=0.06), 0.005, 15e6)
        np.testing.assert_array_equal(p1.frequencies, p2.frequencies)


class TestEquidistantInversion:
    def test_reference_values(self):
        theta, phi, b = equidistant_inversion(0.37e9, 0.25e9)
        assert math.degrees(theta) == pytest.approx(63.434948822922, rel=1e-12)
        assert math.degrees(phi) == pytest.approx(35.226937177152, rel=1e-9)
        assert b == pytest.approx(B_REF, rel=1e-12)

    def test_equal_shifts_mean_axial_field(self):
        _, phi, _ = equidistant_inversion(0.3e9, 0.3e9)
        assert phi == pytest.approx(0.0, abs=1e-15)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            equidistant_inversion(0.2e9, 0.3e9)  # omega1 < omega2
        with pytest.raises(ValueError):
            equidistant_inversion(0.9e9, 0.2e9)  # ratio >= 3


class TestSolveEquidistant:
    def test_reference_case(self):
        sol = solve_equidistant(CANONICAL_PEAKS)
        assert sol.method == "equidistant"
        assert math.degrees(sol.theta) == pytest.approx(63.43, abs=0.01)
        assert math.degrees(sol.phi) == pytest.approx(35.23, abs=0.01)
        assert sol.b_gauss == pytest.approx(83.07, abs=0.01)
        assert sol.residual_rms_hz < 1e6

    def test_non_equidistant_input_reports_the_general_member(self):
        peaks = peaks_for(math.radians(40.0), math.radians(20.0), 50.0)
        sol = solve_equidistant(peaks)
        assert sol.method == "general"
        assert class_distance_deg(sol, math.radians(40.0), math.radians(20.0)) < 0.1

    def test_perturbed_spacing_within_tolerance_still_closed_form(self):
        dips = dips_for(THETA_REF, PHI_REF, B_REF).copy()
        dips[0] += 2e6  # 1.7% of the 120 MHz spacing
        sol = solve_equidistant(PeakList(frequencies=np.sort(dips),
                                         depths=np.full(8, 0.03)))
        assert sol.method == "equidistant"
        assert sol.residual_rms_hz < 2e6


class TestSolveGeneral:
    def test_round_trip_recovers_orientation_and_field(self):
        theta, phi, b = math.radians(40.0), math.radians(20.0), 50.0
        sol = solve_general(peaks_for(theta, phi, b))
        assert class_distance_deg(sol, theta, phi) < 1.0
        assert sol.b_gauss == pytest.approx(b, abs=1.0)
        assert sol.residual_rms_hz < 1e3

    def test_agrees_with_equidistant_solver_up_to_degeneracy(self):
        sol_eq = solve_equidistant(CANONICAL_PEAKS)
        sol_gen = solve_general(CANONICAL_PEAKS)
        assert class_distance_deg(sol_gen, sol_eq.theta, sol_eq.phi) < 0.5
        assert sol_gen.b_gauss == pytest.approx(sol_eq.b_gauss, abs=1.0)

    def test_infeasible_shifts_rejected(self):
        shifts = np.array([400e6, 390e6, 380e6, 10e6])
        # brute-force infeasibility: no orientation fits these four shifts
        ths = np.linspace(0.0, 2.0 * math.pi, 241)
        phs = np.linspace(0.0, math.pi, 121)
        tt, pp = np.meshgrid(ths, phs, indexing="ij")
        bh = np.stack([np.cos(tt) * np.sin(pp), np.sin(tt) * np.sin(pp),
                       np.cos(pp)], -1).reshape(-1, 3)
        from levitaq.core import nv_axes
        v = np.sort(np.abs(bh @ nv_axes().T) * CONSTANTS.gamma_e_hz_per_gauss, axis=1)
        m = np.sort(shifts)
        b_opt = (v @ m) / np.maximum(np.sum(v * v, axis=1), 1e-300)
        brute_min = np.sqrt(np.mean((v * b_opt[:, None] - m) ** 2, axis=1)).min()
        assert brute_min > 30e6

        peaks = PeakList(frequencies=np.sort(D_ZFS + shifts),
                         depths=np.full(4, 0.03))
        with pytest.raises(SolverError, match="no consistent orientation"):
            solve_general(peaks)

    def test_empty_peak_list_rejected(self):
        with pytest.raises(ValueError, match="at least one dip"):
            solve_general(PeakList(frequencies=np.array([]), depths=np.array([])))

    def test_fully_degenerate_two_dip_spectrum_solves_to_cube_axis(self):
        # field along a cube axis: all four projections coincide in magnitude
        dips = np.unique(np.round(dips_for(0.0, math.pi / 2.0, 40.0), 6))
        assert dips.size == 2
        sol = solve_general(PeakList(frequencies=dips,
                                     depths=np.full(2, 0.03)))
        assert sol.b_gauss == pytest.approx(40.0, abs=0.5)
        assert sol.residual_rms_hz < 1e3
        assert sol.continuous_theta  # canonical member puts the field along z

    def test_solution_invariant_under_input_reordering(self):
        dips = dips_for(math.radians(70.0), math.radians(50.0), 60.0)
        shuffled = dips[np.random.default_rng(3).permutation(8)]
        sol_a = solve_general(PeakList(frequencies=np.sort(dips),
                                       depths=np.full(8, 0.03)))
        sol_b = solve_general(PeakList(frequencies=np.sort(shuffled),
                                       depths=np.full(8, 0.03)))
        assert sol_a.theta == pytest.approx(sol_b.theta, abs=1e-9)
        assert sol_a.phi == pytest.approx(sol_b.phi, abs=1e-9)


class TestDegeneracyClasses:
    def test_class_contains_quarter_turns(self):
        sol = solve_equidistant(CANONICAL_PEAKS)
        members = sol.degeneracy_class
        assert len(members) >= 4
        for n in range(4):
            target = (THETA_REF + n * math.pi / 2.0) % (2.0 * math.pi)
            assert any(abs(t - target) < 1e-6 and abs(p - PHI_REF) < 1e-6
                       for t, p in members)

    def test_all_members_produce_identical_dip_sets(self):
        sol = solve_equidistant(CANONICAL_PEAKS)
        base = np.sort(dips_for(sol.theta, sol.phi, sol.b_gauss))
        for t, p in sol.degeneracy_class:
            np.testing.assert_allclose(np.sort(dips_for(t, p, sol.b_gauss)), base,
                                       atol=1e3)

    def test_axial_field_flags_continuous_degeneracy(self):
        peaks = peaks_for(0.0, 0.0, 50.0)
        sol = solve_general(peaks)
        assert sol.continuous_theta


class TestCompareOrientations:
    def test_reference_rotation_case(self):
        after_dips = np.unique(np.round(dips_for(0.0, PHI_REF, B_REF), 6))
        after = PeakList(frequencies=after_dips,
                         depths=np.full(after_dips.size, 0.03))
        report = compare_orientations(CANONICAL_PEAKS, after, b_fixed=B_REF)
        assert math.degrees(report.before.theta) == pytest.approx(63.43, abs=0.05)
        assert math.degrees(report.after.theta) == pytest.approx(0.0, abs=1.0)
        assert math.degrees(report.after.phi) == pytest.approx(
            math.degrees(PHI_REF), abs=1.0)
        assert report.merged_central_pair
        # the outermost dips are NOT preserved by this rotation in the model
        assert not report.extremal_match

    def test_identity_comparison(self):
        report = compare_orientations(CANONICAL_PEAKS, CANONICAL_PEAKS, b_fixed=B_REF)
        assert report.before.theta == pytest.approx(report.after.theta, abs=1e-9)
        assert report.before.phi == pytest.approx(report.after.phi, abs=1e-9)
        assert report.extremal_match
        assert not report.merged_central_pair

    def test_synthetic_pair_matches_generation_parameters(self):
        before = peaks_for(THETA_REF, PHI_REF, B_REF)
        after_dips = np.unique(np.round(dips_for(0.0, PHI_REF, B_REF), 6))
        after = PeakList(frequencies=after_dips,
                         depths=np.full(after_dips.size, 0.03))
        report = compare_orientations(before, after, b_fixed=B_REF)
        assert math.degrees(report.before.theta) == pytest.approx(63.4349, abs=1.0)
        assert math.degrees(report.before.phi) == pytest.approx(35.2269, abs=1.0)
        assert math.degrees(report.after.theta) == pytest.approx(0.0, abs=1.0)
        assert math.degrees(report.after.phi) == pytest.approx(35.2269, abs=1.0)

    def test_solver_failure_propagates(self):
        bad = PeakList(frequencies=np.sort(D_ZFS + np.array([400e6, 390e6,
                                                             380e6, 10e6])),
                       depths=np.full(4, 0.03))
        with pytest.raises(SolverError):
            compare_orientations(CANONICAL_PEAKS, bad, b_fixed=B_REF)


# ---- exact equivalence of the vectorized and precomputed solver paths -------

def _detect_peaks_by_convolution(spectrum, min_depth, min_separation):
    """detect_peaks with the box average of the values taken by np.convolve."""
    v = spectrum.values
    window = max(1, int(round(min_separation / 4.0 / spectrum.grid_step)))
    if window > 1:
        pad = window // 2
        padded = np.concatenate([np.full(pad, v[0]), v, np.full(window - 1 - pad, v[-1])])
        v = np.convolve(padded, np.full(window, 1.0 / window), mode="valid")
    mid = v[1:-1]
    idx = np.flatnonzero((mid < v[:-2]) & (mid <= v[2:]) & (mid < 1.0 - min_depth)) + 1
    freqs, depths = spectrum.frequencies[idx].tolist(), (1.0 - v[idx]).tolist()
    while len(freqs) > 1:
        gaps = np.diff(freqs)
        j = int(np.argmin(gaps))
        if gaps[j] >= min_separation:
            break
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]
    return freqs, depths


@settings(derandomize=True, max_examples=40, deadline=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True), phi=st.floats(0.0, math.pi),
       b=st.floats(5.0, 120.0), n=st.sampled_from([4001, 10001, 20001, 40001]),
       hwhm=st.floats(2e6, 12e6), min_separation=st.floats(5e6, 40e6))
def test_detect_peaks_matches_a_convolution_smoother(theta, phi, b, n, hwhm, min_separation):
    """The running-sum box average finds the dips the convolution finds, on
    rendered Lorentzian spectra, with depths equal to rounding."""
    dips = dips_for(theta, phi, b)
    grid = uniform_grid(dips[0] - 8.0 * hwhm, dips[-1] + 8.0 * hwhm, n)
    spectrum = synth_spectrum(dips, LineModel(hwhm=hwhm, contrast_per_line=0.03), grid)
    freqs, depths = _detect_peaks_by_convolution(spectrum, 0.01, min_separation)
    if not freqs:
        with pytest.raises(SolverError):
            detect_peaks(spectrum, min_depth=0.01, min_separation=min_separation)
        return
    peaks = detect_peaks(spectrum, min_depth=0.01, min_separation=min_separation)
    assert peaks.frequencies.tolist() == freqs
    np.testing.assert_allclose(peaks.depths, depths, rtol=0.0, atol=1e-12)


def _detect_peaks_padded(spectrum, min_depth, min_separation):
    """detect_peaks with the padding concatenated, the three-point extremum
    test and the merge loop's least gap taken by np.argmin."""
    u = 1.0 - spectrum.values
    window = max(1, int(round(min_separation / 4.0 / spectrum.grid_step)))
    if window > 1:
        pad = window // 2
        total = np.cumsum(np.concatenate(
            [[0.0], np.full(pad, u[0]), u, np.full(window - 1 - pad, u[-1])]))
        u = (total[window:] - total[:-window]) / window
    mid = u[1:-1]
    idx = np.flatnonzero((mid > u[:-2]) & (mid >= u[2:])
                         & (mid > 1.0 - (1.0 - min_depth))) + 1
    freqs, depths = spectrum.frequencies[idx].tolist(), u[idx].tolist()
    while len(freqs) > 1:
        gaps = np.diff(freqs)
        j = int(np.argmin(gaps))
        if gaps[j] >= min_separation:
            break
        drop = j if depths[j] < depths[j + 1] else j + 1
        del freqs[drop], depths[drop]
    return freqs, depths


@settings(derandomize=True, max_examples=80, deadline=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True), phi=st.floats(0.0, math.pi),
       b=st.floats(5.0, 150.0), n=st.integers(4001, 40001), hwhm=st.floats(2e6, 12e6),
       min_separation=st.floats(5e6, 40e6), noise=st.sampled_from([0.0, 1e-4, 1e-3]),
       seed=st.integers(0, 2 ** 16))
def test_detect_peaks_matches_the_padded_form(theta, phi, b, n, hwhm, min_separation, noise,
                                              seed):
    """The one-buffer running sum, the rise test and the plain-float merge
    give the dips and depths of the padded form bit for bit, with and
    without noise, and merge the same candidates."""
    dips = dips_for(theta, phi, b)
    grid = uniform_grid(dips[0] - 8.0 * hwhm, dips[-1] + 8.0 * hwhm, n)
    values = synth_spectrum(dips, LineModel(hwhm=hwhm, contrast_per_line=0.03), grid).values
    values = np.clip(values + np.random.default_rng(seed).normal(0.0, noise, n), 1e-9, 1.05)
    spectrum = Spectrum(frequencies=grid, values=values)
    freqs, depths = _detect_peaks_padded(spectrum, 0.01, min_separation)
    if not freqs:
        with pytest.raises(SolverError):
            detect_peaks(spectrum, min_depth=0.01, min_separation=min_separation)
        return
    peaks = detect_peaks(spectrum, min_depth=0.01, min_separation=min_separation)
    assert peaks.frequencies.tolist() == freqs
    assert peaks.depths.tolist() == depths


_LEVELS = [0.5, 0.9, 0.97, 0.98, 0.99, 1.0, 1.05]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.sampled_from(_LEVELS),
                                 st.floats(0.5, 1.05, allow_nan=False)),
                       min_size=2, max_size=60),
       min_depth=st.sampled_from([0.01, 0.02, 0.03, 0.1]))
@example(values=[1.0, 0.9, 0.9, 0.9, 1.0], min_depth=0.03)     # flat plateau
@example(values=[1.0, 0.9, 1.0, 0.9, 1.0], min_depth=0.03)     # exact tie
@example(values=[0.9, 1.0, 1.0, 0.9], min_depth=0.03)          # dips on both edges
@example(values=[1.0, 0.95, 0.9], min_depth=0.03)              # falling into the edge
@example(values=[1.0, 0.97, 1.0, 0.9, 0.9, 1.0], min_depth=0.03)  # at the depth threshold
def test_detect_peaks_matches_per_index_rule(values, min_depth):
    """Unsmoothed and unmerged (min_separation = one grid step), the dips are
    exactly the points the per-index rule picks: the leftmost point of a
    strict or flat minimum inside the grid, deeper than min_depth."""
    v = np.array(values)
    df = 1e5
    spectrum = Spectrum(frequencies=2.8e9 + df * np.arange(v.size), values=v)
    idx = [i for i in range(1, v.size - 1)
           if v[i] < v[i - 1] and v[i] <= v[i + 1] and v[i] < 1.0 - min_depth]
    if not idx:
        with pytest.raises(SolverError):
            detect_peaks(spectrum, min_depth=min_depth, min_separation=df)
        return
    peaks = detect_peaks(spectrum, min_depth=min_depth, min_separation=df)
    assert peaks.frequencies.tolist() == [float(spectrum.frequencies[i]) for i in idx]
    assert peaks.depths.tolist() == [float(1.0 - v[i]) for i in idx]


def test_dips_exactly_min_separation_apart_both_kept():
    """The merge takes gaps below min_separation only: a gap equal to it,
    exactly representable on the grid, keeps both dips; a grid step less
    merges them into the deeper one."""
    df = 1e5
    v = np.array([1.0, 0.95, 0.9, 0.95, 0.97, 0.92, 1.0])
    spectrum = Spectrum(frequencies=2.8e9 + df * np.arange(v.size), values=v)
    kept = detect_peaks(spectrum, min_depth=0.03, min_separation=3.0 * df)
    assert kept.frequencies.tolist() == [2.8e9 + 2.0 * df, 2.8e9 + 5.0 * df]
    merged = detect_peaks(spectrum, min_depth=0.03, min_separation=3.0 * df + 1.0)
    assert merged.frequencies.tolist() == [2.8e9 + 2.0 * df]


def _distinct_peaks(theta, phi, b):
    dips = np.unique(np.round(dips_for(theta, phi, b), 6))
    return PeakList(frequencies=dips, depths=np.full(dips.size, 0.03))


_SOLVE_INPUTS = {
    "eight": peaks_for(math.radians(70.0), math.radians(50.0), 60.0),
    "four": PeakList(frequencies=dips_for(math.radians(70.0), math.radians(50.0), 60.0)[4:],
                     depths=np.full(4, 0.03)),
    "merged-110-plane": _distinct_peaks(math.pi / 4.0, 1.0, 45.0),  # six dips
    "merged-cube-axis": _distinct_peaks(0.0, math.pi / 2.0, 40.0),  # two dips
}


@pytest.mark.parametrize("name", sorted(_SOLVE_INPUTS))
def test_free_field_fit_is_the_exact_solve(name, monkeypatch):
    """The cone-face solve is final at free and at a fixed field: no
    least-squares pass, for two, four, six or eight dips."""
    calls = []
    lm = solver.least_squares
    monkeypatch.setattr(solver, "least_squares",
                        lambda *a, **kw: calls.append(1) or lm(*a, **kw))
    solve_general(_SOLVE_INPUTS[name])
    solve_general(_SOLVE_INPUTS[name], b_fixed=55.0, residual_threshold_hz=math.inf)
    assert calls == []


def _fibonacci_directions(n):
    """n near-uniform unit vectors on the sphere."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * k
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=-1)


# every direction folded into 0 <= x <= y <= z, which holds one member of each class
_BRUTE_DIRECTIONS = np.sort(np.abs(_fibonacci_directions(40000)), axis=1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True), phi=st.floats(0.0, math.pi),
       b=st.floats(20.0, 120.0), n=st.integers(1, 8), scale=st.floats(0.5, 1.5),
       noise_seed=st.integers(0, 2 ** 16))
def test_fixed_field_fit_is_never_above_a_direction_brute_force(theta, phi, b, n, scale,
                                                                  noise_seed):
    """At b_fixed the fit's cost is at or below the best of 40 000 directions,
    each scored on every split of the eight lines the model allows (four dips
    take two lines each, any other count consecutive runs)."""
    from levitaq.core import nv_axes
    rng = np.random.default_rng(noise_seed)
    dips = np.sort(rng.choice(dips_for(theta, phi, b), size=n, replace=False)
                   + rng.normal(0.0, 5e6, n))
    b_fixed = scale * b
    sol = solve_general(PeakList(frequencies=dips, depths=np.full(n, 0.03)),
                        residual_threshold_hz=math.inf, b_fixed=b_fixed)

    m = np.sort(np.abs(dips - CONSTANTS.zero_field_splitting_hz))
    cuts = [(2, 4, 6)] if n == 4 else itertools.combinations(range(1, 8), n - 1)
    lines = np.array([m[np.searchsorted(np.array(c, dtype=int), np.arange(8), side="right")]
                      for c in cuts])  # (splits, 8)
    model = np.repeat(np.sort(np.abs(_BRUTE_DIRECTIONS @ nv_axes().T), axis=1), 2, axis=1)
    model *= CONSTANTS.gamma_e_hz_per_gauss * b_fixed  # (directions, 8)
    brute = (np.sum(model ** 2, axis=1)[:, None] - 2.0 * model @ lines.T
             + np.sum(lines ** 2, axis=1)).min()
    assert 8.0 * sol.residual_rms_hz ** 2 <= brute * (1.0 + 1e-9)


def test_fixed_field_fit_of_dips_at_the_zero_field_splitting():
    """Dips exactly at D fit no direction at a nonzero field: the solve reports
    +z, where every line sits gamma_e B from its dip."""
    at_d = np.full(2, CONSTANTS.zero_field_splitting_hz)
    sol = solve_general(PeakList(frequencies=at_d, depths=np.full(2, 0.03)), b_fixed=10.0)
    assert (sol.theta, sol.phi, sol.b_gauss) == (0.0, 0.0, 10.0)
    assert sol.residual_rms_hz == pytest.approx(10.0 * CONSTANTS.gamma_e_hz_per_gauss,
                                                rel=1e-12)
    assert sol.continuous_theta


@pytest.mark.parametrize("theta, phi, b, n_dips", [
    (0.0, math.pi / 2.0, 40.0, 2),   # cube axis: all four lines coincide
    (0.0, 1.0, 45.0, 4),             # xz-plane: two pairs of axes coincide
    (math.pi / 4.0, 1.0, 45.0, 6),   # 110-plane: one pair of axes coincides
])
def test_merged_lines_reproduce_the_distinct_dip_set(theta, phi, b, n_dips):
    peaks = _distinct_peaks(theta, phi, b)
    assert len(peaks) == n_dips
    sol = solve_general(peaks)
    gap = np.abs(dips_for(sol.theta, sol.phi, sol.b_gauss)[:, None] - peaks.frequencies)
    assert gap.min(axis=0).max() < 1.0  # every observed dip has a fitted line
    assert gap.min(axis=1).max() < 1.0  # every fitted line sits on an observed dip
    assert sol.residual_rms_hz < 1.0


def _orientation_class_per_matrix(theta, phi):
    """_orientation_class with each signed permutation built and applied alone."""
    bhat = FieldOrientation(b_gauss=1.0, theta=theta, phi=phi).unit_vector()
    members, continuous = {}, False
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            mat = np.zeros((3, 3))
            for row, (col, sign) in enumerate(zip(perm, signs)):
                mat[row, col] = sign
            th2, ph2 = solver._spherical_angles(mat @ bhat)
            continuous |= math.sin(ph2) < 1e-9
            members[(round(th2, 9), round(ph2, 9))] = (th2, ph2)
    out = sorted(members.values(), key=lambda m: (round(m[0], 7), round(m[1], 7)))
    return out, continuous


# azimuths and polar angles of the [100], [110] and [111] directions and of
# (1, 2, 4), whose products hold every such direction: there members coincide,
# or lie within reach of each other's rounding keys
_SPECIAL_THETAS = [k * math.pi / 4.0 for k in range(8)] + [math.atan(2.0)]
_SPECIAL_PHIS = [0.0, math.pi / 4.0, math.acos(1.0 / math.sqrt(3.0)), math.pi / 2.0,
                 math.acos(-1.0 / math.sqrt(3.0)), 3.0 * math.pi / 4.0, math.pi,
                 math.acos(4.0 / math.sqrt(21.0))]
# 1e-13 from phi = 0 or pi puts a member within the 1e-12 of a pole where its
# azimuth is fixed at 0.0
_OFFSETS = st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-8, -1e-8, 1e-7, -1e-7,
                            1.5e-7, -2e-7, 3e-7, 1e-6, -1e-6])


@settings(derandomize=True, max_examples=600, deadline=None)
@given(theta=st.one_of(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                       st.builds(lambda t, e: (t + e) % (2.0 * math.pi),
                                 st.sampled_from(_SPECIAL_THETAS), _OFFSETS)),
       phi=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi]),
                     st.builds(lambda p, e: min(math.pi, max(0.0, p + e)),
                               st.sampled_from(_SPECIAL_PHIS), _OFFSETS)))
@example(theta=0.0, phi=0.0)
@example(theta=math.pi, phi=math.pi)
@example(theta=math.atan(2.0), phi=math.pi / 2.0)
# v along (1, 2, 4): the azimuths of its (x, y) and (y, z) pairs coincide
@example(theta=math.atan(2.0), phi=math.acos(4.0 / math.sqrt(21.0)))
def test_orientation_class_matches_per_matrix_form(theta, phi):
    assert solver._orientation_class(theta, phi) == _orientation_class_per_matrix(theta, phi)


def _keyed_everywhere(values, others=()):
    """Each value with its dedupe and sort keys, rounded at 9 and 7 digits by
    round() when another value, or one of ``others``, lies within reach of it."""
    ordered = sorted([*values, *others])
    near = {v for lo, hi in zip(ordered, ordered[1:]) if hi - lo <= solver._ROUNDING_REACH
            for v in (lo, hi)}
    return [(v, round(v, 9), round(v, 7)) if v in near else (v, v, v) for v in values]


def _orientation_class_keyed(theta, phi):
    """_orientation_class with the rounding keys taken by round() and the
    dedupe dict built on every input, including those where no key rounds and
    all 48 members differ."""
    theta %= 2.0 * math.pi
    sin_phi = math.sin(phi)
    x, y, z = math.cos(theta) * sin_phi, math.sin(theta) * sin_phi, math.cos(phi)
    signed = (x, -x, y, -y, z, -z)
    polar = [math.acos(c) for c in signed]
    sines = [math.sin(p) for p in polar]
    pole = [s < 1e-12 for s in sines]
    azimuth = _keyed_everywhere([math.atan2(signed[iy], signed[ix]) % (2.0 * math.pi)
                                 for ix, iy in solver._AZIMUTH_PAIRS],
                                (0.0,) if any(pole) else ())
    polar = _keyed_everywhere(polar)
    members = {}
    for ia, iz in solver._MEMBER_INDICES:
        th, th9, th7 = (0.0, 0.0, 0.0) if pole[iz] else azimuth[ia]
        ph, ph9, ph7 = polar[iz]
        members[th9, ph9] = ((th7, ph7), (th, ph))
    out = sorted(members.values(), key=lambda m: m[0])
    return [m for _, m in out], any(s < 1e-9 for s in sines)


def _half_digits(digits):
    """Values whose product with 10**digits lies at or next to a half integer."""
    k = st.integers(0, int(2.0 * math.pi * 10 ** digits) - 1)
    return st.builds(lambda k, step: math.nextafter((k + 0.5) / 10 ** digits, math.inf * step)
                     if step else (k + 0.5) / 10 ** digits, k, st.sampled_from([-1, 0, 1]))


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(v=st.one_of(st.floats(0.0, 2.0 * math.pi), _half_digits(9), _half_digits(7),
                   st.integers(0, 6433).map(lambda j: j / 1024.0)))
@example(v=0.0)
@example(v=math.pi / 4.0)
def test_decimal_keys_equal_round(v):
    """The keys from the scaled product are round()'s at 9 and 7 digits, at
    and next to decimal half points and on dyadic values whose scaled
    product is an exact half integer."""
    assert solver._decimal_keys(v) == (v, round(v, 9), round(v, 7))


def _angles_of(v):
    return solver._spherical_angles(np.asarray(v, dtype=float) / np.linalg.norm(v))


def _class_families(rng, n):
    """(theta, phi) on the poles, the equator, the 45 degree planes x = +-y,
    x = +-z and y = +-z, along [111] and at the README default, each taken
    exactly and as the angles of a vector built in that family."""
    thetas = rng.uniform(0.0, 2.0 * math.pi, n)
    phis = rng.uniform(0.0, math.pi, n)
    a, b = rng.normal(size=(2, n))
    signs = rng.choice([-1.0, 1.0], size=(3, n))
    poles = [(t, p) for t in thetas for p in (0.0, math.pi, 1e-13, math.pi - 1e-13, 1e-9)]
    equator = [(t, math.pi / 2.0) for t in thetas]
    equator += [_angles_of((math.cos(t), math.sin(t), 0.0)) for t in thetas]
    planes = [(k * math.pi / 4.0, p) for k in (1, 3, 5, 7) for p in phis]
    planes += [_angles_of(v) for i in range(n) for v in (
        (a[i], signs[0, i] * a[i], b[i]), (a[i], b[i], signs[1, i] * a[i]),
        (b[i], a[i], signs[2, i] * a[i]))]
    axis111 = [_angles_of(s) for s in itertools.product((-1.0, 1.0), repeat=3)]
    axis111 += [(k * math.pi / 4.0, p) for k in (1, 3, 5, 7)
                for p in (math.acos(1.0 / math.sqrt(3.0)), math.acos(-1.0 / math.sqrt(3.0)))]
    default = [(math.radians(63.434948822922), math.radians(35.226937177152)),
               (THETA_REF, PHI_REF)]
    solved = solve_general(CANONICAL_PEAKS)
    default += [(solved.theta, solved.phi), *solved.degeneracy_class]
    return poles + equator + planes + axis111 + default


def test_orientation_class_matches_the_class_keyed_everywhere():
    """Skipping the rounding keys and the dedupe dict where no key rounds
    leaves every class, and its continuous flag, as building them does: on
    seeded random angles and on the families where members coincide or lie
    within reach of each other's keys."""
    rng = np.random.default_rng(28)
    angles = list(zip(rng.uniform(0.0, 2.0 * math.pi, 2000),
                      np.arccos(rng.uniform(-1.0, 1.0, 2000))))
    angles += _class_families(rng, 60)
    for theta, phi in angles:
        theta, phi = float(theta), float(phi)
        assert solver._orientation_class(theta, phi) == _orientation_class_keyed(theta, phi)


def _solve_per_call(peaks, b_fixed=None):
    """solve_general with its cost stage formed per call: cuts and runs from
    the combinations, the model lines sorted from the repeated axis
    magnitudes, np.unravel_index, np.linalg.norm, the per-matrix class and a
    numpy naming of the equidistant member."""
    n = len(peaks)
    m_obs = np.sort(np.abs(peaks.frequencies - CONSTANTS.zero_field_splitting_hz))
    cuts = [(2, 4, 6)] if n == 4 else list(itertools.combinations(range(1, 8), n - 1))
    runs = np.sum(np.arange(8)[:, None] >= np.array(cuts, dtype=int)[:, None, :], axis=-1)
    lines = m_obs[runs]
    w = np.maximum(np.einsum("fij,kj->kfi", solver._FACE_PINV, lines), 0.0)
    mags = np.einsum("fij,kfj->kfi", solver._FACE_MAGS, w)
    if b_fixed is not None:
        norms = np.linalg.norm(np.einsum("fij,kfj->kfi", solver._FACE_RAYS, w), axis=-1,
                               keepdims=True)
        mags = (CONSTANTS.gamma_e_hz_per_gauss * b_fixed) * np.divide(
            mags, norms, out=np.ones_like(mags), where=norms > 0.0)
    model = np.sort(np.repeat(mags, 2, axis=-1), axis=-1)
    costs = np.sum((model - lines[:, None]) ** 2, axis=-1)
    split, face = np.unravel_index(np.argmin(costs), costs.shape)
    v = solver._FACE_RAYS[face] @ w[split, face]
    v_hz = float(np.linalg.norm(v))
    theta, phi = solver._spherical_angles(v / v_hz) if v_hz > 0.0 else (0.0, 0.0)
    b = v_hz / CONSTANTS.gamma_e_hz_per_gauss if b_fixed is None else b_fixed
    members, continuous = _orientation_class_per_matrix(theta, phi)
    method, (theta, phi) = "general", members[0]
    shifts = solver._equidistant_shifts(peaks)
    if shifts is not None:
        theta0, phi0, _ = equidistant_inversion(*shifts)
        t, p = np.array(members).T
        cos = np.sin(p) * math.sin(phi0) * np.cos(t - theta0) + np.cos(p) * math.cos(phi0)
        method, (theta, phi) = "equidistant", members[int(np.argmax(cos))]
    return theta, phi, b, math.sqrt(costs[split, face] / 8.0), members, continuous, method


@settings(derandomize=True, max_examples=300, deadline=None)
@given(theta=st.one_of(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                       st.sampled_from(_SPECIAL_THETAS)),
       phi=st.one_of(st.floats(0.0, math.pi), st.sampled_from(_SPECIAL_PHIS)),
       b=st.floats(5.0, 150.0), n=st.integers(1, 8), merged=st.booleans(),
       noise_hz=st.sampled_from([0.0, 1e3, 1e6, 5e6]), seed=st.integers(0, 2 ** 16),
       scale=st.one_of(st.none(), st.floats(0.5, 1.5)))
@example(theta=THETA_REF, phi=PHI_REF, b=B_REF, n=8, merged=False, noise_hz=0.0, seed=0,
         scale=None)                                         # the equidistant pattern
@example(theta=math.pi / 4.0, phi=math.acos(1.0 / math.sqrt(3.0)), b=45.0, n=8,
         merged=True, noise_hz=0.0, seed=0, scale=1.0)       # [111]: two distinct dips
def test_solve_matches_the_per_call_cost_stage(theta, phi, b, n, merged, noise_hz, seed,
                                               scale):
    """The tables built once at import give every field of the solution bit
    for bit as the cost stage formed per call, at free and at fixed field,
    on 1-8 dips and on the distinct dips of merged lines."""
    rng = np.random.default_rng(seed)
    dips = dips_for(theta, phi, b)
    if merged:
        dips = np.unique(np.round(dips, -3))
    dips = np.sort(rng.choice(dips, size=min(n, dips.size), replace=False)
                   + rng.normal(0.0, noise_hz, min(n, dips.size)))
    peaks = PeakList(frequencies=dips, depths=np.full(dips.size, 0.03))
    b_fixed = None if scale is None else scale * b
    sol = solve_general(peaks, residual_threshold_hz=math.inf, b_fixed=b_fixed)
    got = (sol.theta, sol.phi, sol.b_gauss, sol.residual_rms_hz, sol.degeneracy_class,
           sol.continuous_theta, sol.method)
    assert got == _solve_per_call(peaks, b_fixed)


# ---- the exact orientation fit ------------------------------------------------

def _signed_permutations_of(v):
    return [np.array(signs) * v[list(perm)]
            for perm in itertools.permutations(range(3))
            for signs in itertools.product((1.0, -1.0), repeat=3)]


def _class_angle_deg(solution, theta, phi):
    """Angle from the solution's field direction to the nearest signed
    permutation of (theta, phi), from the chord so it stays exact near 0."""
    got = FieldOrientation(b_gauss=1.0, theta=solution.theta, phi=solution.phi).unit_vector()
    truth = FieldOrientation(b_gauss=1.0, theta=theta, phi=phi).unit_vector()
    chord = min(np.linalg.norm(got - v) for v in _signed_permutations_of(truth))
    return math.degrees(2.0 * math.asin(min(1.0, chord / 2.0)))


@pytest.mark.parametrize("theta_deg, phi_deg, b", [
    (303.24, 68.726, 80.594),  # a 10.6 MHz local minimum of the multi-start grid
    (55.815, 72.454, 59.979),
])
@pytest.mark.parametrize("fixed", [False, True])
def test_exact_fit_recovers_multistart_local_minima(theta_deg, phi_deg, b, fixed):
    theta, phi = math.radians(theta_deg), math.radians(phi_deg)
    sol = solve_general(peaks_for(theta, phi, b), b_fixed=b if fixed else None)
    assert _class_angle_deg(sol, theta, phi) < 1e-5
    assert sol.b_gauss == pytest.approx(b, rel=1e-9)
    assert sol.residual_rms_hz < 1.0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
       phi=st.floats(0.0, math.pi), b=st.floats(20.0, 120.0))
def test_exact_fit_round_trip(theta, phi, b):
    sol = solve_general(peaks_for(theta, phi, b))
    assert _class_angle_deg(sol, theta, phi) < 1e-5
    assert sol.b_gauss == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("theta_deg, phi_deg", [(303.24, 68.726), (17.0, 41.0)])
def test_solution_class_same_for_all_signed_permutations(theta_deg, phi_deg):
    base = FieldOrientation(b_gauss=1.0, theta=math.radians(theta_deg),
                            phi=math.radians(phi_deg)).unit_vector()
    sols = []
    for v in _signed_permutations_of(base):
        th, ph = solver._spherical_angles(v)
        sols.append(solve_general(peaks_for(th, ph, 70.0)))
    for sol in sols[1:]:
        assert sol.theta == pytest.approx(sols[0].theta, abs=1e-9)
        assert sol.phi == pytest.approx(sols[0].phi, abs=1e-9)
        np.testing.assert_allclose(sol.degeneracy_class, sols[0].degeneracy_class,
                                   atol=1e-9)


def test_cone_faces_reproduce_sorted_axis_magnitudes():
    """On each cone, v = rays @ w with w >= 0 has ascending axis magnitudes
    mags @ w, and every v with 0 <= vx <= vy <= vz lies in one of the cones."""
    from levitaq.core import nv_axes
    rng = np.random.default_rng(11)
    for v in np.sort(np.abs(rng.normal(size=(500, 3))), axis=1):
        face = 6 if v[2] >= v[0] + v[1] else 13  # the three-ray face of either cone
        w = np.linalg.solve(solver._FACE_RAYS[face], v)
        assert np.all(w >= -1e-12)
        np.testing.assert_allclose(solver._FACE_MAGS[face] @ w,
                                   np.sort(np.abs(nv_axes() @ v)), rtol=1e-12, atol=1e-12)
        # the face pseudo-inverse recovers w from the eight lines
        target = np.repeat(np.sort(np.abs(nv_axes() @ v)), 2)
        np.testing.assert_allclose(solver._FACE_PINV[face] @ target, w,
                                   rtol=1e-12, atol=1e-12)


def test_more_than_eight_dips_rejected():
    dips = np.sort(np.append(dips_for(math.radians(70.0), math.radians(50.0), 60.0),
                             3.1e9))
    with pytest.raises(SolverError, match="9 dips"):
        solve_general(PeakList(frequencies=dips, depths=np.full(9, 0.03)))


# ---- one solve: the closed form only names the reported member ------------------

def _peaks_deg(theta_deg, phi_deg, b):
    return peaks_for(math.radians(theta_deg), math.radians(phi_deg), b)


@pytest.mark.parametrize("before, b, after", [
    ((9.7554, 147.8098), 88.3930, (332.9355, 32.3206)),   # a near-equidistant after
    ((291.8459, 26.1005), 58.9038, (75.9467, 116.4086)),  # a near-equidistant after
])
def test_near_equidistant_compare_reports_the_exact_solve(before, b, after):
    report = compare_orientations(_peaks_deg(*before, b), _peaks_deg(*after, b), b_fixed=b)
    assert report.after.method == "equidistant"
    for sol, (theta_deg, phi_deg) in ((report.before, before), (report.after, after)):
        assert _class_angle_deg(sol, math.radians(theta_deg), math.radians(phi_deg)) < 1e-5
        assert sol.b_gauss == b
        assert sol.residual_rms_hz < 1.0


def test_fixed_field_names_the_member_the_free_fit_names():
    free = solve_equidistant(CANONICAL_PEAKS)
    fixed = solve_general(CANONICAL_PEAKS, b_fixed=B_REF)
    assert free.method == fixed.method == "equidistant"
    assert (fixed.theta, fixed.phi) == (free.theta, free.phi)
    assert fixed.b_gauss == B_REF


@pytest.mark.parametrize("b_fixed", [0.0, -5.0, math.inf, math.nan])
def test_b_fixed_must_be_finite_and_positive(b_fixed):
    with pytest.raises(ValueError, match="b_fixed must be finite and > 0"):
        solve_general(CANONICAL_PEAKS, b_fixed=b_fixed)
    with pytest.raises(ValueError, match="b_fixed must be finite and > 0"):
        compare_orientations(CANONICAL_PEAKS, CANONICAL_PEAKS, b_fixed=b_fixed)


def test_near_equidistant_solve_reports_the_exact_solve():
    theta, phi, b = math.radians(28.0927), math.radians(77.1543), 59.9598
    sol = solve_equidistant(peaks_for(theta, phi, b))
    assert sol.method == "equidistant"
    assert _class_angle_deg(sol, theta, phi) < 1e-5
    assert sol.b_gauss == pytest.approx(b, rel=1e-9)
    assert sol.residual_rms_hz < 1.0


# azimuths near tan(theta) = 2, so that many draws are equidistant within 5 %
_AZIMUTHS = st.one_of(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                      st.floats(THETA_REF - 0.03, THETA_REF + 0.03))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(theta0=_AZIMUTHS, phi0=st.floats(0.0, math.pi), theta1=_AZIMUTHS,
       phi1=st.floats(0.0, math.pi), b=st.floats(20.0, 120.0))
@example(theta0=math.radians(28.0927), phi0=math.radians(77.1543),
         theta1=math.radians(332.9355), phi1=math.radians(32.3206), b=59.9598)
def test_equidistant_and_compare_report_a_member_of_the_exact_solve(theta0, phi0, theta1,
                                                                     phi1, b):
    """solve_equidistant and compare_orientations report a member of
    solve_general's class, with its residual and field."""
    peaks = [peaks_for(theta0, phi0, b), peaks_for(theta1, phi1, b)]
    free = solve_equidistant(peaks[0])
    report = compare_orientations(*peaks, b_fixed=b)
    pairs = [(free, solve_general(peaks[0])),
             (report.before, solve_general(peaks[0], b_fixed=b)),
             (report.after, solve_general(peaks[1], b_fixed=b))]
    for sol, exact in pairs:
        assert (sol.theta, sol.phi) in exact.degeneracy_class
        assert sol.degeneracy_class == exact.degeneracy_class
        assert sol.residual_rms_hz == exact.residual_rms_hz
        assert sol.b_gauss == exact.b_gauss
