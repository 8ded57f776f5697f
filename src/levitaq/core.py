"""Shared physical constants, particle geometry, and defect-axis directions.

Unit conventions used throughout the package: SI everywhere, frequencies
handled as angular rates (rad/s) inside the dynamics modules and as ordinary
Hz in the spin-resonance modules and at all file/CLI boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bulk diamond density.  The loading experiments this package models do not
# pin the density of individual particles, so this is an assumption; pass an
# explicit density when it matters.
DIAMOND_DENSITY = 3510.0  # kg/m^3


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants used by the spin-resonance and trap models."""

    gamma_e_hz_per_gauss: float = 2.8e6      # electron gyromagnetic factor
    zero_field_splitting_hz: float = 2.87e9  # spin-spin splitting of the ground triplet
    speed_of_light: float = 299792458.0      # m/s
    elementary_charge: float = 1.602176634e-19  # C


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Particle:
    """A homogeneous ellipsoidal (or spherical) charged particle.

    ``semi_axes`` are the body-frame principal semi-axes (a, b, c) in metres,
    aligned with the body x, y, z directions.  Mass is always derived from
    density and volume, never stored.
    """

    semi_axes: tuple[float, float, float]
    density: float
    total_charge: float  # C, signed

    def __post_init__(self):
        if len(self.semi_axes) != 3:
            raise ValueError("semi_axes must have exactly three entries")
        if any(not (0.0 < ax < math.inf) for ax in self.semi_axes):
            raise ValueError("all semi-axes must be finite and > 0")
        if not (0.0 < self.density < math.inf):
            raise ValueError("density must be finite and > 0")
        if not math.isfinite(self.total_charge):
            raise ValueError("total_charge must be finite")

    @classmethod
    def sphere(cls, diameter: float, density: float = DIAMOND_DENSITY,
               total_charge: float = 0.0) -> "Particle":
        if not (diameter > 0.0):
            raise ValueError("diameter must be > 0")
        r = diameter / 2.0
        return cls(semi_axes=(r, r, r), density=density, total_charge=total_charge)

    @classmethod
    def ellipsoid(cls, a: float, b: float, c: float, density: float = DIAMOND_DENSITY,
                  total_charge: float = 0.0) -> "Particle":
        return cls(semi_axes=(a, b, c), density=density, total_charge=total_charge)

    @property
    def is_sphere(self) -> bool:
        a, b, c = self.semi_axes
        return a == b == c


def particle_mass(p: Particle) -> float:
    """Mass in kg: density times ellipsoid volume (4/3)*pi*a*b*c."""
    a, b, c = p.semi_axes
    return p.density * (4.0 / 3.0) * math.pi * a * b * c


def moment_of_inertia(p: Particle) -> np.ndarray:
    """Principal moments of inertia (I_xx, I_yy, I_zz) of the solid ellipsoid.

    I_xx = m (b^2 + c^2) / 5 and cyclic permutations.
    """
    a, b, c = p.semi_axes
    m = particle_mass(p)
    return np.array([
        m * (b * b + c * c) / 5.0,
        m * (a * a + c * c) / 5.0,
        m * (a * a + b * b) / 5.0,
    ])


# The four defect symmetry axes of the diamond lattice, in the crystal cube
# frame.  Kept unnormalized (norm sqrt(3)): the projection formulas and field
# magnitudes quoted by the inverse solvers assume this convention.  Pass
# normalized=True for work calibrated against unit axis vectors.
_NV_AXES = np.array([
    [1.0, 1.0, 1.0],
    [-1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0],
    [-1.0, -1.0, 1.0],
])
_NV_AXES.setflags(write=False)


def nv_axes(normalized: bool = False) -> np.ndarray:
    """The four crystal-frame defect axis directions, fixed order, shape (4, 3)."""
    if normalized:
        out = _NV_AXES / math.sqrt(3.0)
        out.setflags(write=False)
        return out
    return _NV_AXES
