import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levitaq
from levitaq import esr
from levitaq.core import nv_axes
from levitaq.errors import SolverError
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
        assert np.max(np.abs(broad.values - ref)) < 1e-5

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

    def test_cell_count_above_the_bound_rejected(self):
        grid = uniform_grid(D_ZFS - 180e6, D_ZFS + 180e6, 1501)
        with pytest.raises(ValueError, match="n_cells must be between 1 and 2000"):
            rotation_broadened_spectrum(B111, AXIS_PERP, LineModel(), grid,
                                        n_cells=esr._MAX_CELLS + 1)

    def test_peak_memory_at_the_cell_bound_stays_under_1_gb(self):
        # one full 8192-point pass at the bound, in a fresh interpreter
        code = ("import math, resource, numpy as np\n"
                "from levitaq import esr\n"
                "field = esr.FieldOrientation(b_gauss=20.0, theta=math.radians(45.0),"
                " phi=math.acos(1.0 / math.sqrt(3.0)))\n"
                "axis = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)\n"
                "grid = esr.uniform_grid(2.87e9 - 300e6, 2.87e9 + 300e6, 8193)\n"
                "esr.rotation_broadened_spectrum(field, axis, esr.LineModel(), grid,"
                " n_cells=esr._MAX_CELLS)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        src = str(Path(levitaq.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert int(proc.stdout) < 1024 * 1024  # kB

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
