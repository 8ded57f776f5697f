import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from levitaq.core import DIAMOND_DENSITY, Particle
from levitaq.errors import SolverError
from levitaq.rotation import (AngularState, AngularTrapParams, AngleTrajectory,
                              angular_stability, integrate_angle,
                              libration_frequency, shape_factor)

TWO_PI = 2.0 * math.pi


def ellipsoid(a, b, c):
    return Particle(semi_axes=(a, b, c), density=DIAMOND_DENSITY, total_charge=0.0)


def brute_force_shape_factor(a, b, c, n_phi=640, n_theta=1280):
    """Independent dense midpoint surface sum in the (polar, azimuth) chart."""
    phi = (np.arange(n_phi) + 0.5) * math.pi / n_phi
    th = (np.arange(n_theta) + 0.5) * 2.0 * math.pi / n_theta
    ph, tt = np.meshgrid(phi, th, indexing="ij")
    sp, cp = np.sin(ph), np.cos(ph)
    ct, st = np.cos(tt), np.sin(tt)
    ds = sp * np.sqrt((b * c * sp * ct) ** 2 + (a * c * sp * st) ** 2
                      + (a * b * cp) ** 2)
    integrand = (c * cp) ** 2 - (a * sp * ct) ** 2
    w = (math.pi / n_phi) * (2.0 * math.pi / n_theta)
    return 3.0 * np.sum(integrand * ds) * w / (np.sum(ds) * w)


class TestShapeFactor:
    def test_sphere_vanishes(self):
        p = Particle.sphere(diameter=2e-6)
        assert abs(shape_factor(p)) < 1e-10 * (1e-6) ** 2

    def test_prolate_positive_and_matches_brute_force(self):
        a, b, c = 1e-6, 1e-6, 2e-6
        s = shape_factor(ellipsoid(a, b, c))
        assert s > 0.0
        assert s == pytest.approx(brute_force_shape_factor(a, b, c), rel=1e-5)

    def test_oblate_matches_brute_force(self):
        a, b, c = 2e-6, 1.5e-6, 1e-6
        s = shape_factor(ellipsoid(a, b, c))
        assert s < 0.0
        assert s == pytest.approx(brute_force_shape_factor(a, b, c), rel=1e-5)

    def test_quadratic_scaling(self):
        k = 2.5
        s1 = shape_factor(ellipsoid(1e-6, 1.2e-6, 2e-6))
        s2 = shape_factor(ellipsoid(k * 1e-6, k * 1.2e-6, k * 2e-6))
        assert s2 == pytest.approx(k ** 2 * s1, rel=1e-8)

    def test_sign_flips_when_long_and_short_axes_swap(self):
        # a 90 degree body-frame rotation about y exchanges the x and z roles
        s = shape_factor(ellipsoid(1e-6, 1.3e-6, 2e-6))
        s_rot = shape_factor(ellipsoid(2e-6, 1.3e-6, 1e-6))
        assert s_rot == pytest.approx(-s, rel=1e-8)


class TestIntegrateAngle:
    def test_zero_state_is_fixed_point(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        traj = integrate_angle(params, AngularState(0.0, 0.0), t_end=5e-3, dt=1e-6)
        assert np.all(traj.alpha == 0.0)

    @pytest.mark.parametrize("t_end, dt, store_every, match", [
        (0.4, 1e-300, 5, "steps exceeds the limit"),   # about 4e299 steps
        (0.4, 1e-8, 1, "stored samples exceed"),       # 4e7 steps, each one stored
    ])
    def test_step_and_sample_bounds(self, t_end, dt, store_every, match):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        with pytest.raises(ValueError, match=match):
            integrate_angle(params, AngularState(0.05, 0.0), t_end=t_end, dt=dt,
                            store_every=store_every)

    def test_perpendicular_state_is_fixed_point(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        traj = integrate_angle(params, AngularState(math.pi / 2.0, 0.0),
                               t_end=5e-3, dt=1e-6)
        np.testing.assert_allclose(traj.alpha, math.pi / 2.0, rtol=0, atol=1e-9)
        assert not traj.escaped

    def test_small_angle_matches_linear_oscillator(self):
        # independent high-accuracy integration of the linearized equation
        om_alpha, om = TWO_PI * 50.0, TWO_PI * 5000.0
        params = AngularTrapParams(omega_alpha=om_alpha, drive_freq=om)
        t_end = 10.0 * TWO_PI / om  # ten drive periods
        traj = integrate_angle(params, AngularState(0.05, 0.0), t_end=t_end, dt=5e-7)

        k = math.sqrt(2.0) * om_alpha * om

        def rhs(t, y):
            return [y[1], k * math.cos(om * t) * y[0]]

        ref = solve_ivp(rhs, (0.0, t_end), [0.05, 0.0], t_eval=traj.t,
                        rtol=1e-10, atol=1e-14)
        rms_err = np.sqrt(np.mean((traj.alpha - ref.y[0]) ** 2))
        rms_amp = np.sqrt(np.mean(ref.y[0] ** 2))
        assert rms_err < 0.02 * rms_amp

    def test_bounded_libration_for_weak_drive(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        traj = integrate_angle(params, AngularState(0.05, 0.0), t_end=0.05,
                               dt=1e-6, store_every=5)
        assert not traj.escaped
        assert np.max(np.abs(traj.alpha)) < 0.2

    def test_strong_drive_escapes(self):
        om = TWO_PI * 5000.0
        om_alpha = 1.2 * om / (2.0 * math.sqrt(2.0))  # q_alpha = 1.2
        params = AngularTrapParams(omega_alpha=om_alpha, drive_freq=om)
        traj = integrate_angle(params, AngularState(0.05, 0.0), t_end=0.1, dt=1e-6)
        assert traj.escaped
        assert traj.escape_time is not None

    def test_oversized_step_rejected(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        with pytest.raises(ValueError, match="dt too large"):
            integrate_angle(params, AngularState(0.05, 0.0), t_end=1e-3, dt=1e-3)


class TestLibrationFrequency:
    def _run(self, f_alpha, t_end):
        params = AngularTrapParams(omega_alpha=TWO_PI * f_alpha,
                                   drive_freq=TWO_PI * 5000.0)
        return integrate_angle(params, AngularState(0.05, 0.0), t_end=t_end,
                               dt=1e-6, store_every=5)

    def test_recovers_configured_frequency(self):
        traj = self._run(100.0, 0.15)
        assert libration_frequency(traj) == pytest.approx(TWO_PI * 100.0, rel=0.05)

    def test_halving_the_stiffness_halves_the_frequency(self):
        w_base = libration_frequency(self._run(100.0, 0.15))
        w_half = libration_frequency(self._run(50.0, 0.25))
        assert w_half == pytest.approx(w_base / 2.0, rel=0.05)

    def test_mirror_invariance(self):
        traj = self._run(100.0, 0.15)
        mirrored = AngleTrajectory(t=traj.t.copy(), alpha=-traj.alpha,
                                   alpha_dot=-traj.alpha_dot,
                                   drive_freq=traj.drive_freq)
        assert libration_frequency(mirrored) == pytest.approx(
            libration_frequency(traj), rel=1e-9)

    def test_short_trajectory_warns(self):
        traj = self._run(100.0, 0.04)  # four libration periods
        with pytest.warns(UserWarning, match="fewer than ten"):
            libration_frequency(traj)

    def test_last_sample_off_the_stored_grid_is_left_out(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 100.0, drive_freq=TWO_PI * 5000.0)
        # 120000 steps, a sample every 7 and one at the last step
        traj = integrate_angle(params, AngularState(0.05, 0.0), t_end=0.12, dt=1e-6,
                               store_every=7)
        on_grid = AngleTrajectory(t=traj.t[:-1], alpha=traj.alpha[:-1],
                                  alpha_dot=traj.alpha_dot[:-1], drive_freq=traj.drive_freq)
        assert libration_frequency(traj) == libration_frequency(on_grid)
        assert libration_frequency(traj) == pytest.approx(TWO_PI * 100.0, rel=0.05)

    def test_too_few_samples_have_no_libration(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        traj = integrate_angle(params, AngularState(0.05, 0.0), t_end=1e-5, dt=1e-6)
        with pytest.raises(SolverError, match="11 samples are too few"):
            libration_frequency(traj)

    def test_fixed_point_has_no_libration(self):
        params = AngularTrapParams(omega_alpha=TWO_PI * 50.0, drive_freq=TWO_PI * 5000.0)
        traj = integrate_angle(params, AngularState(0.0, 0.0), t_end=0.05, dt=1e-6)
        with pytest.raises(SolverError, match="no secular libration"):
            libration_frequency(traj)


class TestAngularStability:
    def test_weak_drive_stable(self):
        res = angular_stability(AngularTrapParams(omega_alpha=TWO_PI * 50.0,
                                                  drive_freq=TWO_PI * 5000.0))
        assert res.q_alpha == pytest.approx(2.0 * math.sqrt(2.0) * 50.0 / 5000.0,
                                            rel=1e-12)
        assert res.stable

    def test_above_threshold_unstable(self):
        res = angular_stability(AngularTrapParams(omega_alpha=TWO_PI * 1700.0,
                                                  drive_freq=TWO_PI * 5000.0))
        assert res.q_alpha > 0.908
        assert not res.stable

    def test_free_rotor_marginally_stable(self):
        res = angular_stability(AngularTrapParams(omega_alpha=0.0,
                                                  drive_freq=TWO_PI * 5000.0))
        assert res.q_alpha == 0.0
        assert res.stable
