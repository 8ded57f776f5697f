import math

import numpy as np
import pytest

from levitaq.core import DIAMOND_DENSITY, Particle, nv_axes, particle_mass

# direct evaluation of rho * (4/3) * pi * r^3 for d = 9.6 um, rho = 3510 kg/m^3
MASS_9P6UM = 1.6259958690103549e-12


def ellipsoid(a, b, c, density=DIAMOND_DENSITY):
    return Particle(semi_axes=(a, b, c), density=density, total_charge=0.0)


def test_sphere_mass_reference_value():
    p = Particle.sphere(diameter=9.6e-6, density=3510.0)
    assert particle_mass(p) == pytest.approx(MASS_9P6UM, rel=1e-12)


def test_default_density_is_diamond():
    p = Particle.sphere(diameter=1e-6)
    assert p.density == DIAMOND_DENSITY


def test_degenerate_geometry_rejected():
    with pytest.raises(ValueError):
        Particle.sphere(diameter=0.0)
    with pytest.raises(ValueError):
        ellipsoid(1e-6, -1e-6, 1e-6)
    with pytest.raises(ValueError):
        Particle.sphere(diameter=1e-6, density=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["semi_axis", "density", "total_charge"])
def test_non_finite_particle_rejected(field, bad):
    kwargs = {"semi_axes": (1e-6, 1e-6, 1e-6), "density": 3510.0, "total_charge": 0.0}
    if field == "semi_axis":
        kwargs["semi_axes"] = (1e-6, bad, 1e-6)
    else:
        kwargs[field] = bad
    with pytest.raises(ValueError, match="finite"):
        Particle(**kwargs)


def test_ellipsoid_with_equal_axes_matches_sphere():
    r = 2.3e-6
    sphere = Particle.sphere(diameter=2 * r, density=3000.0)
    ell = ellipsoid(r, r, r, density=3000.0)
    assert particle_mass(ell) == pytest.approx(particle_mass(sphere), rel=1e-14)
    assert ell == sphere


def test_mass_monotone_in_geometry_and_density():
    base = ellipsoid(1e-6, 2e-6, 3e-6, density=2000.0)
    m0 = particle_mass(base)
    assert particle_mass(ellipsoid(1.5e-6, 2e-6, 3e-6, density=2000.0)) > m0
    assert particle_mass(ellipsoid(1e-6, 2.5e-6, 3e-6, density=2000.0)) > m0
    assert particle_mass(ellipsoid(1e-6, 2e-6, 3.5e-6, density=2000.0)) > m0
    assert particle_mass(ellipsoid(1e-6, 2e-6, 3e-6, density=2500.0)) > m0


def test_axes_contain_cube_diagonal_and_are_order_stable():
    axes = nv_axes()
    assert axes.shape == (4, 3)
    np.testing.assert_array_equal(axes[0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(axes, nv_axes())  # deterministic


def test_axes_norms_and_tetrahedral_angles():
    axes = nv_axes()
    np.testing.assert_allclose(np.sum(axes ** 2, axis=1), 3.0)
    unit = axes / math.sqrt(3.0)
    np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=1e-14)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(unit[i] @ unit[j]) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_axes_are_read_only():
    axes = nv_axes()
    with pytest.raises(ValueError):
        axes[0, 0] = 5.0
