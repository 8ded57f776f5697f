import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levitaq.core import nv_axes
from levitaq.errors import PhysicsError, SolverError
from levitaq.esr import (FieldOrientation, LineModel, Spectrum,
                         extremal_field_estimate, rotation_broadened_spectrum,
                         sweep_amplitudes, synth_spectrum, uniform_grid,
                         zeeman_shifts)
from levitaq.solver import equidistant_inversion

D_ZFS = 2.87e9
GAMMA = 2.8e6

# closed-form inversion of the outermost shifts 0.37 GHz and 0.25 GHz
THETA_REF = math.atan(2.0)
PHI_REF = 0.6148260391344912   # rad, 35.226937... degrees
B_REF = 83.06930964009291      # gauss

# field along the [1,1,1] axis direction with a perpendicular rotation axis:
# the aligned-axis sweep reaches the full unnormalized projection sqrt(3)
B111 = FieldOrientation(b_gauss=20.0, theta=math.radians(45.0),
                        phi=math.acos(1.0 / math.sqrt(3.0)))
AXIS_PERP = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)


def canonical_field(b=B_REF):
    return FieldOrientation(b_gauss=b, theta=THETA_REF, phi=PHI_REF)


class TestFieldOrientation:
    def test_theta_wraps(self):
        f = FieldOrientation(b_gauss=1.0, theta=2.5 * math.pi, phi=0.3)
        assert f.theta == pytest.approx(0.5 * math.pi)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["b_gauss", "theta"])
    def test_non_finite_values_rejected(self, field, bad):
        kwargs = {"b_gauss": 1.0, "theta": 0.0, "phi": 0.3, field: bad}
        with pytest.raises(ValueError, match="finite"):
            FieldOrientation(**kwargs)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FieldOrientation(b_gauss=-1.0, theta=0.0, phi=0.3)
        with pytest.raises(ValueError):
            FieldOrientation(b_gauss=1.0, theta=0.0, phi=3.5)


class TestZeemanShifts:
    def test_zero_field_all_dips_at_zero_field_splitting(self):
        zs = zeeman_shifts(FieldOrientation(b_gauss=0.0, theta=0.0, phi=0.0))
        np.testing.assert_allclose(zs.dip_frequencies_hz, D_ZFS)

    def test_reference_orientation_gives_equally_spaced_shifts(self):
        zs = zeeman_shifts(canonical_field())
        shifts = np.sort(zs.shifts_hz)[::-1]
        np.testing.assert_allclose(shifts, [370e6, 250e6, 130e6, 10e6], rtol=1e-9)
        spacings = -np.diff(shifts)
        np.testing.assert_allclose(spacings, 120e6, rtol=1e-9)

    def test_dip_set_invariant_under_quarter_turns(self):
        base = np.sort(zeeman_shifts(canonical_field()).dip_frequencies_hz)
        for n in (1, 2, 3):
            f = FieldOrientation(b_gauss=B_REF, theta=THETA_REF + n * math.pi / 2.0,
                                 phi=PHI_REF)
            rotated = np.sort(zeeman_shifts(f).dip_frequencies_hz)
            np.testing.assert_allclose(rotated, base, atol=1e-3)

    def test_quarter_turn_invariance_at_random_orientations(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            phi = rng.uniform(0.0, math.pi)
            b = rng.uniform(5.0, 100.0)
            base = np.sort(zeeman_shifts(
                FieldOrientation(b_gauss=b, theta=theta, phi=phi)).dip_frequencies_hz)
            for n in (1, 2, 3):
                f = FieldOrientation(b_gauss=b, theta=theta + n * math.pi / 2.0,
                                     phi=phi)
                np.testing.assert_allclose(
                    np.sort(zeeman_shifts(f).dip_frequencies_hz), base, atol=1e-3)

    def test_zero_azimuth_merges_pairs(self):
        zs = zeeman_shifts(FieldOrientation(b_gauss=50.0, theta=0.0, phi=PHI_REF))
        assert np.unique(np.round(zs.dip_frequencies_hz, 3)).size == 4

    @pytest.mark.parametrize("theta, phi, limit_gauss", [
        (0.0, 0.0, D_ZFS / 2.8e6),                                     # cube axis
        (math.radians(45.0), math.acos(1.0 / math.sqrt(3.0)),
         D_ZFS / (2.8e6 * math.sqrt(3.0))),                            # defect axis
    ])
    def test_lines_at_or_below_zero_frequency_rejected(self, theta, phi, limit_gauss):
        inside = zeeman_shifts(FieldOrientation(b_gauss=0.999 * limit_gauss, theta=theta,
                                                phi=phi))
        assert inside.dip_frequencies_hz[0] > 0.0
        with pytest.raises(PhysicsError, match="linear Zeeman model holds below"):
            zeeman_shifts(FieldOrientation(b_gauss=1.001 * limit_gauss, theta=theta, phi=phi))


class TestSynthSpectrum:
    def test_single_dip_depth_and_halfwidth(self):
        model = LineModel(hwhm=5e6, contrast_per_line=0.04)
        grid = uniform_grid(D_ZFS - 50e6, D_ZFS + 50e6, 20001)
        s = synth_spectrum([D_ZFS], model, grid)
        i0 = np.argmin(np.abs(grid - D_ZFS))
        assert s.values[i0] == pytest.approx(1.0 - 0.04, abs=1e-6)
        ih = np.argmin(np.abs(grid - (D_ZFS + 5e6)))
        assert s.values[ih] == pytest.approx(1.0 - 0.02, abs=1e-6)

    def test_linear_in_contrast_for_small_dips(self):
        grid = uniform_grid(D_ZFS - 50e6, D_ZFS + 50e6, 2001)
        s1 = synth_spectrum([D_ZFS], LineModel(hwhm=5e6, contrast_per_line=0.01), grid)
        s2 = synth_spectrum([D_ZFS], LineModel(hwhm=5e6, contrast_per_line=0.02), grid)
        np.testing.assert_allclose(1.0 - s2.values, 2.0 * (1.0 - s1.values),
                                   rtol=1e-12)

    def test_narrow_grid_rejected_naming_dips(self):
        model = LineModel(hwhm=10e6, contrast_per_line=0.03)
        grid = uniform_grid(D_ZFS - 100e6, D_ZFS + 100e6, 501)
        with pytest.raises(ValueError, match="uncovered"):
            synth_spectrum([D_ZFS + 90e6], model, grid)

    def test_excessive_total_contrast_rejected(self):
        model = LineModel(hwhm=10e6, contrast_per_line=0.2)
        grid = uniform_grid(D_ZFS - 200e6, D_ZFS + 200e6, 501)
        with pytest.raises(ValueError, match="contrast"):
            synth_spectrum([D_ZFS] * 6, model, grid)

    def test_reference_case_renders_eight_minima(self):
        zs = zeeman_shifts(canonical_field())
        model = LineModel(hwhm=2e6, contrast_per_line=0.03)
        grid = uniform_grid(2.4e9, 3.3e9, 90001)
        s = synth_spectrum(zs.dip_frequencies_hz, model, grid)
        v = s.values
        minima = [i for i in range(1, v.size - 1)
                  if v[i] < v[i - 1] and v[i] <= v[i + 1] and v[i] < 0.99]
        assert len(minima) == 8


class TestSpectrumInvariants:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([3.0, 2.0, 1.0]),
                     values=np.array([1.0, 1.0, 1.0]))

    def test_non_uniform_grid_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([1.0, 2.0, 4.0]),
                     values=np.array([1.0, 1.0, 1.0]))

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([1.0, 2.0, 3.0]),
                     values=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Spectrum(frequencies=np.array([1.0, 2.0, 3.0]),
                     values=np.array([1.0, 1.2, 1.0]))


class TestSweepAmplitudes:
    def test_perpendicular_axis_centers_sweeps_on_zero(self):
        centers, ranges = sweep_amplitudes(B111, AXIS_PERP)
        np.testing.assert_allclose(centers, 0.0, atol=1e-3)
        # the axis orthogonal to the rotation axis sweeps through alignment
        assert ranges.max() == pytest.approx(
            GAMMA * B111.b_gauss * math.sqrt(3.0), rel=1e-9)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            sweep_amplitudes(B111, np.array([1.0, 0.0, 0.0]) * 2.0)


def _rotation_average(field, axis, model, grid, psis):
    """Oracle: average the static spectrum over explicit rotation angles."""
    axes = nv_axes()
    bhat = field.unit_vector()
    a_par = (axis @ bhat) * (axes @ axis)
    c_cos = axes @ bhat - a_par
    c_sin = axes @ np.cross(axis, bhat)
    gb = GAMMA * field.b_gauss
    g2 = model.hwhm ** 2
    total = np.zeros_like(grid)
    for psi in psis:
        proj = a_par + c_cos * math.cos(psi) + c_sin * math.sin(psi)
        v = np.ones_like(grid)
        for p in proj:
            for sign in (1.0, -1.0):
                f0 = D_ZFS + sign * gb * p
                v -= model.contrast_per_line * g2 / ((grid - f0) ** 2 + g2)
        total += v
    return total / len(psis)


def _cell_sum(field, axis, model, grid, n_cells=2000):
    """Reference: each line as n_cells Lorentzians at the mass centroids of
    equal-probability cells of its arcsine density.  Its error falls as
    1 / n_cells^2: about 5e-8 at 2000 cells for a 300 G aligned sweep."""
    centers, ranges = sweep_amplitudes(field, axis)
    u = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_cells + 1)
    unit_offsets = n_cells * (np.cos(u[:-1]) - np.cos(u[1:])) / math.pi
    g2 = model.hwhm ** 2
    values = np.ones_like(grid)
    for c0, dmax in zip(np.concatenate([D_ZFS + centers, D_ZFS - centers]),
                        np.concatenate([ranges, ranges])):
        d = grid[:, None] - (c0 + dmax * unit_offsets)
        values -= model.contrast_per_line / n_cells * np.sum(g2 / (d * d + g2), axis=1)
    return values


class TestRotationBroadening:
    def test_zero_sweep_reduces_to_static_spectrum(self):
        # field along +z, rotating about +z: projections never change
        field = FieldOrientation(b_gauss=40.0, theta=0.0, phi=0.0)
        model = LineModel()
        grid = uniform_grid(D_ZFS - 300e6, D_ZFS + 300e6, 4001)
        static = synth_spectrum(zeeman_shifts(field).dip_frequencies_hz, model, grid)
        broad = rotation_broadened_spectrum(field, np.array([0.0, 0.0, 1.0]),
                                            model, grid)
        np.testing.assert_allclose(broad.values, static.values, atol=1e-12)

    def test_matches_dense_rotation_average(self):
        model = LineModel()
        grid = uniform_grid(D_ZFS - 180e6, D_ZFS + 180e6, 1501)
        broad = rotation_broadened_spectrum(B111, AXIS_PERP, model, grid)
        psis = (np.arange(4096) + 0.5) * 2.0 * math.pi / 4096
        ref = _rotation_average(B111, AXIS_PERP, model, grid, psis)
        assert np.max(np.abs(broad.values - ref)) < 1e-12

    @pytest.mark.parametrize("field, axis", [
        # rotation about an NV axis: that axis's lines stay put, the rest sweep
        (FieldOrientation(b_gauss=30.0, theta=0.3, phi=0.9), np.array([1.0, 1.0, 1.0])),
        (FieldOrientation(b_gauss=60.0, theta=0.4, phi=1.1), np.array([0.3, -0.5, 0.8])),
        (FieldOrientation(b_gauss=150.0, theta=2.0, phi=0.3), np.array([0.0, 0.0, 1.0])),
    ])
    def test_matches_dense_average_for_other_axes(self, field, axis):
        axis = axis / np.linalg.norm(axis)
        model = LineModel()
        centers, ranges = sweep_amplitudes(field, axis)
        span = float(np.max(np.abs(centers) + ranges)) + 8.0 * model.hwhm
        grid = uniform_grid(D_ZFS - span, D_ZFS + span, 1501)
        broad = rotation_broadened_spectrum(field, axis, model, grid)
        psis = (np.arange(4096) + 0.5) * 2.0 * math.pi / 4096
        ref = _rotation_average(field, axis, model, grid, psis)
        assert np.max(np.abs(broad.values - ref)) < 1e-12

    @pytest.mark.parametrize("tilt", [1e-20, 1e-12])
    def test_vanishing_sweep_is_the_static_spectrum(self, tilt):
        # sweep half ranges of about 1.6e-12 Hz and 1.6e-4 Hz
        field = FieldOrientation(b_gauss=40.0, theta=0.0, phi=0.0)
        model = LineModel()
        grid = uniform_grid(D_ZFS - 300e6, D_ZFS + 300e6, 4001)
        static = synth_spectrum(zeeman_shifts(field).dip_frequencies_hz, model, grid)
        broad = rotation_broadened_spectrum(
            field, np.array([math.sin(tilt), 0.0, math.cos(tilt)]), model, grid)
        assert np.max(np.abs(broad.values - static.values)) < 1e-15

    def test_mirror_symmetric_about_the_zero_field_splitting(self):
        # the lines at D + c and D - c sweep the same half range
        field = FieldOrientation(b_gauss=60.0, theta=0.4, phi=1.1)
        axis = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)
        grid = uniform_grid(D_ZFS - 900e6, D_ZFS + 900e6, 1501)
        values = rotation_broadened_spectrum(field, axis, LineModel(), grid).values
        assert np.max(np.abs(values - values[::-1])) < 1e-13

    def test_matches_monte_carlo_average_within_noise(self):
        model = LineModel()
        grid = uniform_grid(D_ZFS - 180e6, D_ZFS + 180e6, 1501)
        broad = rotation_broadened_spectrum(B111, AXIS_PERP, model, grid)
        psis = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 2000)
        mc = _rotation_average(B111, AXIS_PERP, model, grid, psis)
        assert np.max(np.abs(broad.values - mc)) < 2e-3  # MC noise ~ 1/sqrt(n)

    def test_support_extends_to_sqrt3_extreme(self):
        model = LineModel()
        grid = uniform_grid(D_ZFS - 250e6, D_ZFS + 250e6, 5001)
        broad = rotation_broadened_spectrum(B111, AXIS_PERP, model, grid)
        edge = GAMMA * B111.b_gauss * math.sqrt(3.0)
        depth = 1.0 - broad.values
        i_edge = np.argmin(np.abs(grid - (D_ZFS + edge)))
        i_far = np.argmin(np.abs(grid - (D_ZFS + edge + 10 * model.hwhm)))
        assert depth[i_edge] > 5.0 * depth[i_far]

    def test_dip_area_preserved_by_convolution(self):
        model = LineModel()
        margin = 128.0 * model.hwhm
        edge = GAMMA * B111.b_gauss * math.sqrt(3.0)
        grid = uniform_grid(D_ZFS - edge - margin, D_ZFS + edge + margin, 4001)
        broad = rotation_broadened_spectrum(B111, AXIS_PERP, model, grid)
        area = np.trapezoid(1.0 - broad.values, grid)
        analytic = 8.0 * model.contrast_per_line * math.pi * model.hwhm
        assert area == pytest.approx(analytic, rel=0.01)

    def test_sweep_through_zero_frequency_rejected(self):
        # the sweep reaches the aligned projection sqrt(3): the limit is 591.8 G
        grid = uniform_grid(-1e8, 2.0 * D_ZFS + 1e8, 2001)
        field = lambda factor: FieldOrientation(
            b_gauss=factor * D_ZFS / (GAMMA * math.sqrt(3.0)), theta=B111.theta, phi=B111.phi)
        rotation_broadened_spectrum(field(0.999), AXIS_PERP, LineModel(), grid)
        with pytest.raises(PhysicsError, match="linear Zeeman model holds below"):
            rotation_broadened_spectrum(field(1.001), AXIS_PERP, LineModel(), grid)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(b_gauss=st.floats(5.0, 300.0), theta=st.floats(0.0, 2.0 * math.pi),
           cos_phi=st.floats(-1.0, 1.0),
           axis=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
               lambda v: math.hypot(*v) > 0.1))
    def test_matches_the_2000_cell_sum(self, b_gauss, theta, cos_phi, axis):
        field = FieldOrientation(b_gauss=b_gauss, theta=theta, phi=math.acos(cos_phi))
        axis = np.array(axis) / math.hypot(*axis)
        model = LineModel()
        centers, ranges = sweep_amplitudes(field, axis)
        span = float(np.max(np.abs(centers) + ranges)) + 8.0 * model.hwhm
        grid = uniform_grid(D_ZFS - span, D_ZFS + span, 801)
        broad = rotation_broadened_spectrum(field, axis, model, grid)
        assert np.max(np.abs(broad.values - _cell_sum(field, axis, model, grid))) < 1e-7

    def test_broadening_grows_with_field(self):
        model = LineModel()
        grid = uniform_grid(D_ZFS - 300e6, D_ZFS + 300e6, 4001)
        depths = []
        for b in (10.0, 20.0, 30.0):
            f = FieldOrientation(b_gauss=b, theta=B111.theta, phi=B111.phi)
            s = rotation_broadened_spectrum(f, AXIS_PERP, model, grid)
            depths.append(float(np.max(1.0 - s.values)))
        assert depths[0] > depths[1] > depths[2]


class TestExtremalFieldEstimate:
    def _broadened(self, b):
        f = FieldOrientation(b_gauss=b, theta=B111.theta, phi=B111.phi)
        model = LineModel()
        span = GAMMA * b * math.sqrt(3.0) + 10.0 * model.hwhm
        grid = uniform_grid(D_ZFS - span, D_ZFS + span, 6001)
        return rotation_broadened_spectrum(f, AXIS_PERP, model, grid)

    @pytest.mark.parametrize("b_true", [10.0, 30.0])
    def test_round_trip(self, b_true):
        s = self._broadened(b_true)
        threshold = 0.5 * float(np.max(1.0 - s.values))
        assert extremal_field_estimate(s, threshold) == pytest.approx(b_true, rel=0.1)

    def test_zero_field_spectrum_rejected(self):
        model = LineModel()
        grid = uniform_grid(D_ZFS - 200e6, D_ZFS + 200e6, 4001)
        s = synth_spectrum([D_ZFS] * 8, model, grid)
        threshold = 0.5 * float(np.max(1.0 - s.values))
        with pytest.raises(SolverError, match="no resonance detected"):
            extremal_field_estimate(s, threshold)

    def test_threshold_above_all_dips_rejected(self):
        s = self._broadened(30.0)
        with pytest.raises(SolverError, match="no resonance detected"):
            extremal_field_estimate(s, threshold=0.5)


def test_inversion_matches_reference_angles():
    theta, phi, b = equidistant_inversion(0.37e9, 0.25e9)
    assert theta == pytest.approx(THETA_REF, rel=1e-12)
    assert phi == pytest.approx(PHI_REF, rel=1e-9)
    assert b == pytest.approx(B_REF, rel=1e-9)
