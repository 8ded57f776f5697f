import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

from levitaq import trap as trap_module
from levitaq.core import Particle, particle_mass
from levitaq.errors import PhysicsError, UntrappedParticleError
from levitaq.spectral import dominant_frequency
from levitaq.trap import (STABILITY_Q_MAX, LaserConfig, TrapConfig,
                          charge_to_mass_from_instability, drive_curvature, equilibrium_displacement,
                          find_stability_boundary, floquet_stability,
                          frequency_ramp_instability, integrate_motion, mathieu_q,
                          radiation_pressure_force, secular_frequency)

E_CHARGE = 1.602176634e-19
TWO_PI = 2.0 * math.pi

# direct evaluation of |Q| V eta / (sqrt(2) m Omega z0^2) for the reference
# configuration: Q = 5000 e, V = 4000 V, eta = 0.2, 9.6 um diamond sphere,
# Omega/2pi = 5 kHz, z0 = 50 um
SECULAR_HZ_REF = 564.7629520074679
Q_REF = 0.3194781705019306
# direct evaluation of 0.908 * Omega^2 / (4 xi) at Omega/2pi = 2 kHz, xi = 2e6
CHARGE_TO_MASS_REF = 17.923201592378273
# direct evaluation of (2 R P / c) sinc(theta_m), P = 1 mW, R = 0.2,
# theta_m = arcsin(0.77)
F_RAD_REF = 1.1690137759932107e-12
F_RAD_AXIAL_LIMIT = 1.3342563807926082e-12
# F / (m omega_x^2) at F = 1.17e-12 N, 9.6 um sphere, omega_x/2pi = 1 kHz
EQUILIBRIUM_DX_REF = 1.8226642994746176e-08


def reference_particle(charge_e=5000.0):
    return Particle.sphere(diameter=9.6e-6, density=3510.0,
                           total_charge=charge_e * E_CHARGE)


def reference_trap(v_ac=4000.0, f_drive=5000.0, z0=50e-6, eta=0.2, gamma=0.0):
    return TrapConfig(v_ac=v_ac, drive_freq=TWO_PI * f_drive, z0=z0, eta=eta,
                      damping_gamma=gamma)


class TestSecularFrequency:
    def test_reference_value(self):
        wz = secular_frequency(reference_trap(), reference_particle())
        assert wz / TWO_PI == pytest.approx(SECULAR_HZ_REF, rel=1e-12)

    def test_linear_in_voltage(self):
        p = reference_particle()
        w1 = secular_frequency(reference_trap(v_ac=2000.0), p)
        w2 = secular_frequency(reference_trap(v_ac=4000.0), p)
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)

    def test_millicoulomb_per_kg_range(self):
        # charge-to-mass ratios of order mC/kg land between 100 Hz and a few kHz
        p = reference_particle()
        m = particle_mass(p)
        for qm in (0.5e-3, 1e-3, 5e-3):
            for v_ac in (1000.0, 4000.0):
                pp = Particle.sphere(diameter=9.6e-6, density=3510.0,
                                     total_charge=qm * m)
                f = secular_frequency(reference_trap(v_ac=v_ac), pp) / TWO_PI
                assert 100.0 <= f <= 8000.0

    def test_zero_charge_rejected(self):
        with pytest.raises(UntrappedParticleError):
            secular_frequency(reference_trap(), reference_particle(charge_e=0.0))


class TestDriveStiffness:
    """The kernels take 2 Q kappa / m from one checked helper."""

    def test_zero_charge_is_untrapped_in_both_kernels(self):
        p = reference_particle(charge_e=0.0)
        with pytest.raises(UntrappedParticleError):
            integrate_motion(reference_trap(), p, t_end=1e-4, dt=1e-6)
        with pytest.raises(UntrappedParticleError):
            frequency_ramp_instability(reference_trap(), p, TWO_PI * 3100.0,
                                       TWO_PI * 2800.0, TWO_PI * 5000.0)

    def test_overflowing_stiffness_is_named(self):
        # a mass of 4.6e-316 kg leaves 2 Q kappa / m beyond the float range
        p = Particle.sphere(diameter=9.6e-6, density=1e-300, total_charge=-5000 * E_CHARGE)
        for kernel in (lambda: integrate_motion(reference_trap(), p, t_end=1e-4, dt=1e-6),
                       lambda: frequency_ramp_instability(reference_trap(), p, TWO_PI * 3100.0,
                                                          TWO_PI * 2800.0, TWO_PI * 5000.0)):
            with pytest.raises(ValueError, match="drive stiffness 2 Q kappa / m = -inf"):
                kernel()


class TestMathieuQ:
    def test_reference_value(self):
        assert mathieu_q(reference_trap(), reference_particle()) == pytest.approx(
            Q_REF, rel=1e-12)

    def test_inverse_square_in_drive(self):
        p = reference_particle()
        q1 = mathieu_q(reference_trap(f_drive=5000.0), p)
        q2 = mathieu_q(reference_trap(f_drive=10000.0), p)
        assert q2 == pytest.approx(q1 / 4.0, rel=1e-12)

    def test_overflow_to_inf_rejected(self):
        # omega_z / Omega overflows for a drive frequency near the float minimum
        with pytest.raises(ValueError, match="Mathieu q = inf is not finite"):
            mathieu_q(reference_trap(f_drive=1e-200), reference_particle())


class TestChargeToMass:
    def test_reference_value(self):
        qm = charge_to_mass_from_instability(TWO_PI * 2000.0, 2e6)
        assert qm == pytest.approx(CHARGE_TO_MASS_REF, rel=1e-12)

    def test_quadratic_in_frequency(self):
        q1 = charge_to_mass_from_instability(TWO_PI * 1000.0, 2e6)
        q2 = charge_to_mass_from_instability(TWO_PI * 3000.0, 2e6)
        assert q2 == pytest.approx(9.0 * q1, rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            charge_to_mass_from_instability(0.0, 2e6)
        with pytest.raises(ValueError):
            charge_to_mass_from_instability(1.0, 0.0)


def test_drive_curvature_matches_quadrupole_amplitude():
    trap = reference_trap()
    assert drive_curvature(trap) == pytest.approx(
        0.2 * 4000.0 / (2.0 * (50e-6) ** 2), rel=1e-12)


class TestFloquet:
    def test_known_stable_and_unstable_points(self):
        assert floquet_stability(0.0, 0.3).stable
        assert not floquet_stability(0.0, 1.2).stable

    def test_boundary_location(self):
        boundary = find_stability_boundary(0.0, 0.5, 1.2, tol=1e-4)
        assert boundary == pytest.approx(STABILITY_Q_MAX, abs=5e-3)

    def test_single_transition_on_scan(self):
        flags = [floquet_stability(0.0, q).stable for q in np.linspace(0.05, 1.45, 29)]
        transitions = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert transitions == 1
        assert flags[0] and not flags[-1]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            floquet_stability(0.0, math.inf)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        # bisecting "while hi - lo > tol" never ends for tol <= 0
        with pytest.raises(ValueError, match="tol must be > 0"):
            find_stability_boundary(0.0, 0.0, 1.5, tol=tol)

    def test_tol_below_float_resolution_stops_at_adjacent_floats(self):
        boundary = find_stability_boundary(0.0, 0.5, 1.2, tol=1e-300)
        assert boundary == pytest.approx(find_stability_boundary(0.0, 0.5, 1.2, tol=1e-4),
                                         abs=1e-4)

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.3, 0.6])
    def test_boundary_matches_mathieu_b1(self, a):
        # the first stability region ends where the characteristic value b1(q) falls to a
        q_edge = brentq(lambda q: mathieu_b(1, q) - a, 1e-6, 1.5, xtol=1e-12)
        if a == 0.0:
            assert q_edge == pytest.approx(0.9080463, abs=1e-7)
        assert find_stability_boundary(a, 0.0, 1.5, 1e-4) == pytest.approx(q_edge, abs=1e-4)

    @staticmethod
    def record_calls(monkeypatch):
        """(q, stable) of every floquet_stability call that the module makes."""
        calls = []

        def recorded(a, q):
            res = floquet_stability(a, q)
            calls.append((q, res.stable))
            return res

        monkeypatch.setattr(trap_module, "floquet_stability", recorded)
        return calls

    @pytest.mark.parametrize("a", np.linspace(0.0, 0.6, 13))
    def test_boundary_search_brackets_the_edge_in_few_calls(self, monkeypatch, a):
        # bisection took 2 + 14 calls at this tol
        calls = self.record_calls(monkeypatch)
        tol = 1e-4
        boundary = find_stability_boundary(a, 0.0, 1.5, tol)
        assert len(calls) <= 12
        lo = max(q for q, stable in calls if stable)
        hi = min(q for q, stable in calls if not stable)
        # the midpoint of a bracket at most tol wide, stable below and unstable above
        assert 0.0 < hi - lo <= tol
        assert boundary == 0.5 * (lo + hi)

    def test_boundary_search_below_float_resolution_ends_at_adjacent_floats(self, monkeypatch):
        calls = self.record_calls(monkeypatch)
        boundary = find_stability_boundary(0.0, 0.5, 1.2, tol=1e-300)
        lo = max(q for q, stable in calls if stable)
        hi = min(q for q, stable in calls if not stable)
        assert hi == np.nextafter(lo, np.inf)
        assert boundary == 0.5 * (lo + hi)

    def test_stability_flag_matches_mathieu_edges(self):
        # first stability region a0(q) < a < b1(q); the next edge, a1(q), lies above
        # every a on this grid
        checked = 0
        for a in np.linspace(-0.4, 0.8, 7):
            for q in np.linspace(0.05, 1.4, 10):
                lo, hi = mathieu_a(0, q), mathieu_b(1, q)
                if min(abs(a - lo), abs(a - hi)) < 0.02:
                    continue
                assert floquet_stability(a, q).stable == (lo < a < hi), (a, q)
                checked += 1
        assert checked > 50


class TestIntegrateMotion:
    def test_equilibrium_stays_at_rest(self):
        traj = integrate_motion(reference_trap(), reference_particle(),
                                t_end=2e-3, dt=1e-6)
        assert np.all(traj.positions == 0.0)
        assert np.all(traj.velocities == 0.0)
        assert not traj.escaped

    def test_secular_peak_matches_formula(self):
        trap = reference_trap()
        p = reference_particle()
        traj = integrate_motion(trap, p, t_end=0.08, dt=1e-6,
                                x0=(0.0, 0.0, 2e-6), store_every=4)
        assert not traj.escaped
        # bounded envelope for a stable drive
        assert np.max(np.abs(traj.positions[:, 2])) < 50 * 2e-6
        w_meas = dominant_frequency(traj.t, traj.positions[:, 2],
                                    f_max=trap.drive_freq / TWO_PI / 2.0)
        assert w_meas == pytest.approx(secular_frequency(trap, p), rel=0.05)

    def test_unstable_drive_escapes(self):
        p = reference_particle()
        # choose the drive frequency so q = 1.2
        om = math.sqrt(2.0 * abs(p.total_charge) * 4000.0 * 0.2
                       / (particle_mass(p) * 1.2 * (50e-6) ** 2))
        trap = TrapConfig(v_ac=4000.0, drive_freq=om, z0=50e-6, eta=0.2)
        traj = integrate_motion(trap, p, t_end=0.1, dt=2e-7, x0=(0.0, 0.0, 1e-6))
        assert traj.escaped
        assert traj.escape_time is not None
        assert np.max(np.abs(traj.positions[-1])) > 100 * trap.z0

    def test_damping_relaxes_to_driven_steady_state(self):
        trap = reference_trap(gamma=400.0)
        p = reference_particle()
        traj = integrate_motion(trap, p, t_end=0.05, dt=1e-6,
                                x0=(0.0, 0.0, 5e-6), store_every=2)
        assert not traj.escaped
        ke = np.sum(traj.velocities ** 2, axis=1)
        n = ke.size
        assert ke[: n // 4].mean() > 3.0 * ke[-n // 4:].mean()

    def test_constant_force_shifts_equilibrium(self):
        trap = reference_trap(gamma=800.0)
        p = reference_particle()
        force = 1e-15
        traj = integrate_motion(trap, p, forces=[(force, 0.0, 0.0)],
                                t_end=0.05, dt=1e-6)
        wx = secular_frequency(trap, p) / 2.0  # radial confinement is half the axial
        expected = force / (particle_mass(p) * wx ** 2)
        tail = traj.positions[-200:, 0]
        assert tail.mean() == pytest.approx(expected, rel=0.2)

    def test_oversized_step_rejected(self):
        with pytest.raises(ValueError, match="dt too large"):
            integrate_motion(reference_trap(), reference_particle(),
                             t_end=1e-3, dt=1e-3)

    @pytest.mark.parametrize("dt, store_every, match", [
        (1e-300, 1, "steps exceeds the limit"),   # about 1e298 steps
        (1e-9, 1, "stored samples exceed"),       # 2e7 steps, each one stored
    ])
    def test_step_and_sample_bounds(self, dt, store_every, match):
        # rejected up front: neither request allocates or steps
        with pytest.raises(ValueError, match=match):
            integrate_motion(reference_trap(), reference_particle(),
                             t_end=0.02, dt=dt, store_every=store_every)


class TestFrequencyRamp:
    def test_ramp_detects_instability_and_recovers_charge(self):
        p = reference_particle()
        trap = reference_trap()
        m = particle_mass(p)
        om_start = math.sqrt(2.0 * abs(p.total_charge) * trap.v_ac * trap.eta
                             / (m * 0.35 * trap.z0 ** 2))  # q = 0.35 at the start
        trap_start = TrapConfig(v_ac=trap.v_ac, drive_freq=om_start, z0=trap.z0,
                                eta=trap.eta)
        t_sec = TWO_PI / secular_frequency(trap_start, p)
        rate = 0.002 * om_start / t_sec  # 0.2% drive change per secular period
        om_unstable = frequency_ramp_instability(trap, p, om_start, 0.4 * om_start,
                                                 rate)
        trap_end = TrapConfig(v_ac=trap.v_ac, drive_freq=om_unstable, z0=trap.z0,
                              eta=trap.eta)
        q_end = mathieu_q(trap_end, p)
        assert q_end == pytest.approx(STABILITY_Q_MAX, rel=0.03)
        # closed loop: inferred charge-to-mass from the drive-consistent curvature
        qm = charge_to_mass_from_instability(om_unstable, drive_curvature(trap))
        assert qm == pytest.approx(abs(p.total_charge) / m, rel=0.05)
        # the inferred secular frequency at detection is around a kHz
        wz_end = secular_frequency(trap_end, p)
        assert 700.0 < wz_end / TWO_PI < 1300.0

    def test_stable_range_raises(self):
        p = reference_particle()
        trap = reference_trap()
        m = particle_mass(p)
        om_start = math.sqrt(2.0 * abs(p.total_charge) * trap.v_ac * trap.eta
                             / (m * 0.35 * trap.z0 ** 2))
        with pytest.raises(PhysicsError, match="stable over full ramp"):
            frequency_ramp_instability(trap, p, om_start, 0.93 * om_start,
                                       ramp_rate=3e4)

    @pytest.mark.parametrize("seed_factor", [100.0, -100.0, 200.0, math.nan, 0.0])
    def test_ramp_seed_outside_escape_radius_rejected(self, seed_factor):
        trap = reference_trap()
        with pytest.raises(ValueError, match="inside the escape radius"):
            frequency_ramp_instability(trap, reference_particle(), trap.drive_freq,
                                       0.5 * trap.drive_freq, ramp_rate=1e4,
                                       seed_displacement=seed_factor * trap.z0)

    def test_ramp_step_bound(self):
        # (omega_start - omega_end) / ramp_rate / dt overflows to inf steps
        trap = reference_trap()
        with pytest.raises(ValueError, match="steps, above the limit"):
            frequency_ramp_instability(trap, reference_particle(), trap.drive_freq,
                                       0.5 * trap.drive_freq, ramp_rate=1e-300)

    def test_escape_at_stable_drive_raises(self):
        # a seed whose micromotion alone carries it across the escape radius
        # while the drive is still stable (q starts at 0.32)
        p = reference_particle()
        trap = reference_trap()
        with pytest.raises(PhysicsError, match="where the drive is still stable") as info:
            frequency_ramp_instability(trap, p, trap.drive_freq, 0.4 * trap.drive_freq,
                                       ramp_rate=1e4, seed_displacement=90.0 * trap.z0)
        q = float(str(info.value).split("q = ")[1].split(",")[0])
        assert Q_REF < q < STABILITY_Q_MAX

    def test_fast_ramp_warns(self):
        p = reference_particle()
        trap = reference_trap()
        m = particle_mass(p)
        om_start = math.sqrt(2.0 * abs(p.total_charge) * trap.v_ac * trap.eta
                             / (m * 0.35 * trap.z0 ** 2))
        trap_start = TrapConfig(v_ac=trap.v_ac, drive_freq=om_start, z0=trap.z0,
                                eta=trap.eta)
        t_sec = TWO_PI / secular_frequency(trap_start, p)
        with pytest.warns(UserWarning, match="secular period"):
            frequency_ramp_instability(trap, p, om_start, 0.4 * om_start,
                                       ramp_rate=0.05 * om_start / t_sec)


def rk4_reference(stiffness, gamma, accel, x0, v0, dt, n_steps, esc):
    """Plain per-step RK4 of u'' = -stiffness(j, frac) * u - gamma * u' + accel.

    stiffness(j, frac) gives the per-axis stiffness at fraction frac of step j.
    Returns the states after steps 1 .. n, stopping at the first step where a
    coordinate exceeds esc, and that step's number (None if none escapes).
    """
    def deriv(j, frac, u, v):
        return v, -stiffness(j, frac) * u - gamma * v + accel

    u, v = np.array(x0, dtype=float), np.array(v0, dtype=float)
    us, vs = [], []
    for j in range(n_steps):
        k1u, k1v = deriv(j, 0.0, u, v)
        k2u, k2v = deriv(j, 0.5, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = deriv(j, 0.5, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = deriv(j, 1.0, u + dt * k3u, v + dt * k3v)
        u = u + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        us.append(u)
        vs.append(v)
        if np.any(np.abs(u) > esc):
            return np.array(us), np.array(vs), j + 1
    return np.array(us), np.array(vs), None


class TestPropagatorOracle:
    """The block propagator against a plain per-step RK4 loop."""

    @staticmethod
    def motion_reference(trap, p, forces, t_end, dt, x0, v0, store_every):
        m = particle_mass(p)
        cd = p.total_charge * trap.eta * trap.v_ac / (m * trap.z0 ** 2)
        axes = np.array([-0.5, -0.5, 1.0])
        accel = np.sum(forces, axis=0) / m if forces else np.zeros(3)
        n_steps = max(1, int(round(t_end / dt)))
        us, vs, escape_step = rk4_reference(
            lambda j, frac: axes * (cd * math.cos(trap.drive_freq * (j * dt + frac * dt))),
            trap.damping_gamma, accel, x0, v0, dt, n_steps,
            trap_module.ESCAPE_RADIUS_FACTOR * trap.z0)
        steps = np.arange(1, len(us) + 1)
        keep = (steps % store_every == 0) | (steps == n_steps) | (steps == escape_step)
        return (np.concatenate([[0], steps[keep]]) * dt,
                np.concatenate([[x0], us[keep]]), np.concatenate([[v0], vs[keep]]),
                escape_step)

    def assert_motion_matches(self, trap, p, t_end, dt, x0, v0=(0.0, 0.0, 0.0),
                              forces=None, store_every=1):
        traj = integrate_motion(trap, p, forces=forces, t_end=t_end, dt=dt, x0=x0, v0=v0,
                                store_every=store_every)
        t, pos, vel, escape_step = self.motion_reference(trap, p, forces, t_end, dt,
                                                         x0, v0, store_every)
        np.testing.assert_array_equal(traj.t, t)
        np.testing.assert_allclose(traj.positions, pos, rtol=0,
                                   atol=1e-12 * np.abs(pos).max())
        np.testing.assert_allclose(traj.velocities, vel, rtol=0,
                                   atol=1e-12 * np.abs(vel).max())
        assert traj.escaped == (escape_step is not None)
        assert traj.escape_time == (None if escape_step is None else escape_step * dt)
        return traj

    @pytest.mark.parametrize("n_steps,store_every", [
        (1, 1),
        (trap_module._BLOCK - 3, 1),
        (2 * trap_module._BLOCK + 13, 7),  # samples straddle both block edges
        (2 * trap_module._BLOCK + 13, trap_module._BLOCK + 5),  # a block with no sample
    ])
    def test_motion_matches_per_step_rk4(self, n_steps, store_every):
        dt = 1e-6
        self.assert_motion_matches(reference_trap(gamma=300.0), reference_particle(),
                                   t_end=n_steps * dt, dt=dt, x0=(1e-6, -2e-6, 3e-6),
                                   v0=(1e-3, 0.0, -1e-3),
                                   forces=[(1e-15, 0.0, 2e-15), (0.0, -1e-15, 0.0)],
                                   store_every=store_every)

    @pytest.mark.parametrize("axis,escape_step", [
        (2, 1),  # first step of the first block
        (0, trap_module._BLOCK),  # last step of the first block
        (1, trap_module._BLOCK + 1),  # first step of the second block
    ])
    def test_escape_step_matches_per_step_rk4(self, axis, escape_step):
        # a nearly free particle crossing 100 z0 half a step before escape_step
        trap, dt = reference_trap(), 1e-6
        v0 = np.zeros(3)
        v0[axis] = 100.0 * trap.z0 / ((escape_step - 0.5) * dt)
        traj = self.assert_motion_matches(trap, reference_particle(charge_e=1e-6),
                                          t_end=2.5 * trap_module._BLOCK * dt, dt=dt,
                                          x0=(0.0, 0.0, 0.0), v0=tuple(v0), store_every=5)
        assert traj.escape_time == escape_step * dt

    def test_unstable_drive_matches_per_step_rk4(self):
        p = reference_particle()
        om = math.sqrt(2.0 * abs(p.total_charge) * 4000.0 * 0.2
                       / (particle_mass(p) * 1.2 * (50e-6) ** 2))  # q = 1.2
        trap = TrapConfig(v_ac=4000.0, drive_freq=om, z0=50e-6, eta=0.2)
        traj = self.assert_motion_matches(trap, p, t_end=0.1, dt=3e-7,
                                          x0=(1e-6, 0.0, 1e-6), store_every=3)
        assert traj.escaped

    @staticmethod
    def ramp_reference(trap, p, omega_start, omega_end, ramp_rate, seed_displacement):
        dt = 2.0 * math.pi / (trap_module.MIN_STEPS_PER_DRIVE_PERIOD * omega_start)
        k_acc = p.total_charge * trap.eta * trap.v_ac / (particle_mass(p) * trap.z0 ** 2)

        def stiffness(j, frac):
            phase = dt * j * (omega_start - ramp_rate * dt * (j - 1) / 2.0)
            return k_acc * math.cos(phase + frac * ((omega_start - ramp_rate * (j * dt)) * dt))

        n_steps = math.ceil((omega_start - omega_end) / ramp_rate / dt)
        _, _, escape_step = rk4_reference(stiffness, trap.damping_gamma, 0.0,
                                          seed_displacement, 0.0, dt, n_steps,
                                          trap_module.ESCAPE_RADIUS_FACTOR * trap.z0)
        return omega_start - ramp_rate * (escape_step * dt), escape_step

    # a negative charge is defocused at drive phase 0, so a seed just inside
    # the escape radius leaves on the first step; that ramp starts at q = 0.95,
    # past the stability edge, since an escape where the drive is still stable
    # is rejected; ramp_steps (None: down to half the start) sets a ramp
    # shorter than one chunk of the scan
    @pytest.mark.parametrize("seed_factor,first_step,charge_e,ramp_steps",
                             [(0.5, False, 5000.0, None), (99.99, True, -5000.0, None),
                              (99.99, True, -5000.0, 5.5)],
                             ids=["0.5-False-5000.0", "99.99-True--5000.0", "short-ramp"])
    def test_ramp_matches_per_step_rk4(self, seed_factor, first_step, charge_e, ramp_steps):
        p = reference_particle(charge_e)
        trap = reference_trap(gamma=20.0)
        q_start = 0.95 if first_step else 0.75
        om_start = math.sqrt(2.0 * abs(p.total_charge) * trap.v_ac * trap.eta
                             / (particle_mass(p) * q_start * trap.z0 ** 2))
        t_sec = TWO_PI / secular_frequency(replace(trap, drive_freq=om_start), p)
        rate = 0.005 * om_start / t_sec
        om_end = 0.5 * om_start
        if ramp_steps is not None:
            dt = 2.0 * math.pi / (trap_module.MIN_STEPS_PER_DRIVE_PERIOD * om_start)
            om_end = om_start - ramp_steps * rate * dt
            assert math.ceil((om_start - om_end) / rate / dt) < trap_module._WIDTH
        seed = seed_factor * trap.z0
        om_ref, escape_step = self.ramp_reference(trap, p, om_start, om_end, rate, seed)
        assert (escape_step == 1) == first_step
        if not first_step:  # the escape lies past a block edge, off the chunk grid
            assert escape_step > trap_module._BLOCK
        om = frequency_ramp_instability(trap, p, om_start, om_end, rate,
                                        seed_displacement=seed)
        assert om == om_ref


def test_motion_stores_the_last_step_off_the_sample_grid():
    # 2 _BLOCK + 13 steps with a sample every 5: the last step is not on the grid
    n_steps, dt = 2 * trap_module._BLOCK + 13, 1e-6
    assert n_steps % 5 != 0
    traj = TestPropagatorOracle().assert_motion_matches(
        reference_trap(gamma=300.0), reference_particle(), t_end=n_steps * dt, dt=dt,
        x0=(1e-6, -2e-6, 3e-6), forces=[(1e-15, 0.0, 2e-15)], store_every=5)
    assert traj.t[-1] == n_steps * dt
    assert traj.t.size == 2 + n_steps // 5


WIDTH = trap_module._WIDTH


@pytest.mark.parametrize("n", [1, WIDTH - 1, WIDTH, WIDTH + 1, WIDTH ** 2 + 1,
                               trap_module._BLOCK])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_states_match_per_step_products(n, forced, k):
    rng = np.random.default_rng([n, forced, k])
    # step matrices on (u, u', f) with the bottom row (0, 0, 1); the
    # perturbation shrinks as 1 / n, so the norm product in the bound stays
    # of order one and a misplaced step shows far above it
    m = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    m[:, :2] += (0.1 / n) * rng.standard_normal((n, 2, 3))
    if not forced:
        m[:, :2, 2] = 0.0
    state = rng.standard_normal((3, k))
    state[2] *= forced
    out = trap_module._states(np.moveaxis(m[:, :2], 0, -1), state[0], state[1],
                              state[2] if forced else None)
    ref, s = [], state
    for step in m:
        s = step @ s
        ref.append(s[:2])
    ref = np.array(ref)
    assert out.shape == ref.shape == (n, 2, k)
    # forward error bound of a product of i + 2 factors in any association order
    bound = np.cumprod(np.abs(m).sum(axis=-1).max(axis=-1)) * np.abs(state).max()
    err = np.abs(out - ref).max(axis=(-2, -1))
    assert np.all(err <= 10.0 * np.finfo(float).eps * 3 * np.arange(2, n + 2) * bound)


def stage_transfer(k0, kh, k1, gamma, h):
    """RK4 step matrices of u'' = -k u - gamma u' + f composed from the four stage matrices."""
    eye = np.eye(3)

    def rate(k):  # d/dt of (u, u', f)
        m = np.zeros(k.shape + (3, 3))
        m[..., 0, 1] = m[..., 1, 2] = 1.0
        m[..., 1, 0] = -k
        m[..., 1, 1] = -gamma
        return m

    s1 = rate(k0)
    s2 = rate(kh) @ (eye + 0.5 * h * s1)
    s3 = rate(kh) @ (eye + 0.5 * h * s2)
    s4 = rate(k1) @ (eye + h * s3)
    return eye + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


@pytest.mark.parametrize("gamma", [0.0, 300.0])
@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("h,scale", [(1e-6, 1e9), (math.pi / 1024, 3.0)])
def test_closed_form_transfer_matches_stage_composition(gamma, batch, h, scale):
    # the trajectory scale (dt = 1 us, stiffness ~ (2 pi kHz)^2) and the Floquet scale
    k0, kh, k1 = scale * np.random.default_rng(7).standard_normal((3, 64) + batch)
    m = trap_module._monomials(k0, kh, k1).reshape(7, -1)
    out = (trap_module._rk4_table(gamma, h, True) @ m).reshape((2, 3, 64) + batch)
    ref = stage_transfer(k0, kh, k1, gamma, h)
    assert ref.shape == (64,) + batch + (3, 3)
    np.testing.assert_array_equal(ref[..., 2, :], np.broadcast_to((0.0, 0.0, 1.0), ref.shape[:-1]))
    ref = np.moveaxis(ref[..., :2, :], (-2, -1), (0, 1))  # the six entries of rows u and u'
    assert out.shape == ref.shape == (2, 3, 64) + batch
    assert np.abs(out - ref).max() <= 4.0 * np.finfo(float).eps * np.abs(ref).max()


@pytest.mark.parametrize("gamma", [0.0, 300.0])
@pytest.mark.parametrize("batch", [(), (2,)])
@pytest.mark.parametrize("h,scale", [(1e-6, 1e9), (math.pi / 1024, 3.0)])
def test_unforced_entries_are_the_forced_homogeneous_entries(gamma, batch, h, scale):
    k0, kh, k1 = scale * np.random.default_rng(8).standard_normal((3, 64) + batch)
    m = trap_module._monomials(k0, kh, k1).reshape(7, -1)
    forced = (trap_module._rk4_table(gamma, h, True) @ m).reshape((2, 3, 64) + batch)
    unforced = (trap_module._rk4_table(gamma, h, False) @ m).reshape((2, 2, 64) + batch)
    np.testing.assert_array_equal(unforced, forced[:, :2])


def full_period_trace(a, q):
    """Monodromy trace over the whole period pi with floquet_stability's doubling rule.

    Each level multiplies n stage-composed RK4 steps sampled at their own
    start, midpoint and end, pairwise with the later step on the left.
    """
    def trace_for(n):
        h = math.pi / n
        tau = np.arange(n) * h
        m = stage_transfer(*(a - 2.0 * q * np.cos(2.0 * (tau + frac * h))
                             for frac in (0.0, 0.5, 1.0)), 0.0, h)
        while len(m) > 1:  # n is a power of two
            m = m[1::2] @ m[0::2]
        return m[0, 0, 0] + m[0, 1, 1]

    n = 1024
    prev = trace_for(n)
    while True:
        n *= 2
        cur = trace_for(n)
        if abs(cur - prev) <= trap_module._FLOQUET_RTOL * max(1.0, abs(cur)):
            return cur
        prev = cur


def test_half_period_trace_matches_full_period_product():
    for a in np.linspace(-0.4, 0.8, 5):
        for q in np.linspace(0.05, 1.4, 8):
            ref = full_period_trace(a, q)
            res = floquet_stability(a, q)
            assert abs(res.trace - ref) <= 1e-12, (a, q)
            assert res.stable == (abs(ref) <= 2.0)


class TestRadiationPressure:
    def test_reference_value(self):
        laser = LaserConfig(power=1e-3, reflection_coeff=0.2,
                            half_aperture=math.asin(0.77))
        assert radiation_pressure_force(laser) == pytest.approx(F_RAD_REF, rel=1e-9)

    def test_small_aperture_limit(self):
        laser = LaserConfig(power=1e-3, reflection_coeff=0.2, half_aperture=1e-8)
        assert radiation_pressure_force(laser) == pytest.approx(
            F_RAD_AXIAL_LIMIT, rel=1e-9)

    def test_linear_in_power_and_reflectivity(self):
        th = 0.6
        f1 = radiation_pressure_force(LaserConfig(1e-3, 0.2, th))
        assert radiation_pressure_force(LaserConfig(3e-3, 0.2, th)) == pytest.approx(
            3.0 * f1, rel=1e-12)
        assert radiation_pressure_force(LaserConfig(1e-3, 0.4, th)) == pytest.approx(
            2.0 * f1, rel=1e-12)

    def test_zero_power(self):
        assert radiation_pressure_force(LaserConfig(0.0, 0.2, 0.6)) == 0.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            LaserConfig(power=-1.0, reflection_coeff=0.2, half_aperture=0.6)
        with pytest.raises(ValueError):
            LaserConfig(power=1.0, reflection_coeff=1.5, half_aperture=0.6)
        with pytest.raises(ValueError):
            LaserConfig(power=1.0, reflection_coeff=0.2, half_aperture=2.0)


class TestEquilibriumDisplacement:
    def test_reference_value(self):
        dx = equilibrium_displacement(1.17e-12, reference_particle(), TWO_PI * 1000.0)
        assert dx == pytest.approx(EQUILIBRIUM_DX_REF, rel=1e-9)

    def test_inverse_mass(self):
        small = Particle.sphere(diameter=2.8e-6, density=3510.0)
        big = Particle.sphere(diameter=9.6e-6, density=3510.0)
        ratio = equilibrium_displacement(1e-12, small, 100.0) / \
            equilibrium_displacement(1e-12, big, 100.0)
        assert ratio == pytest.approx(particle_mass(big) / particle_mass(small),
                                      rel=1e-12)

    def test_requires_positive_frequency(self):
        with pytest.raises(ValueError):
            equilibrium_displacement(1e-12, reference_particle(), 0.0)
