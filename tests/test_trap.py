import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

from levitaq.core import Particle, particle_mass
from levitaq.errors import PhysicsError, UntrappedParticleError
from levitaq.spectral import dominant_frequency
from levitaq.trap import (STABILITY_Q_MAX, LaserConfig, TrapConfig,
                          charge_to_mass_from_instability, dc_offset_displacement,
                          drive_curvature, equilibrium_displacement,
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


class TestMathieuQ:
    def test_reference_value(self):
        assert mathieu_q(reference_trap(), reference_particle()) == pytest.approx(
            Q_REF, rel=1e-12)

    def test_inverse_square_in_drive(self):
        p = reference_particle()
        q1 = mathieu_q(reference_trap(f_drive=5000.0), p)
        q2 = mathieu_q(reference_trap(f_drive=10000.0), p)
        assert q2 == pytest.approx(q1 / 4.0, rel=1e-12)


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

    @pytest.mark.parametrize("a", [0.0, 0.1, 0.3, 0.6])
    def test_boundary_matches_mathieu_b1(self, a):
        # the first stability region ends where the characteristic value b1(q) falls to a
        q_edge = brentq(lambda q: mathieu_b(1, q) - a, 1e-6, 1.5, xtol=1e-12)
        if a == 0.0:
            assert q_edge == pytest.approx(0.9080463, abs=1e-7)
        assert find_stability_boundary(a, 0.0, 1.5, 1e-4) == pytest.approx(q_edge, abs=1e-4)

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


class TestDcOffset:
    def test_sign_flips_with_charge(self):
        trap = reference_trap()
        d_pos = dc_offset_displacement(trap, reference_particle(5000.0), v_dc=10.0)
        d_neg = dc_offset_displacement(trap, reference_particle(-5000.0), v_dc=10.0)
        assert d_pos == pytest.approx(-d_neg, rel=1e-12)

    def test_negative_charge_moves_against_field(self):
        # documented convention: E_dc along +z for positive voltage
        d = dc_offset_displacement(reference_trap(), reference_particle(-5000.0),
                                   v_dc=10.0)
        assert d < 0.0

    def test_zero_voltage_zero_shift(self):
        assert dc_offset_displacement(reference_trap(), reference_particle(),
                                      v_dc=0.0) == 0.0

    def test_zero_charge_rejected(self):
        with pytest.raises(UntrappedParticleError):
            dc_offset_displacement(reference_trap(), reference_particle(0.0), 1.0)


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
