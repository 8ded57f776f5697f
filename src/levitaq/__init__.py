"""Simulation and analysis toolkit for charged microdiamonds in a needle trap.

Forward models: trap dynamics and stability, radiation-pressure forces,
angular confinement, and ensemble spin-resonance spectra.  Inverse solvers:
charge-to-mass from a drive-frequency ramp, crystal orientation and field
magnitude from resonance dip positions, and rotation detection between two
spectra.
"""

from .core import (CONSTANTS, DIAMOND_DENSITY, Particle, PhysicalConstants, nv_axes,
                   particle_mass)
from .errors import (ConfigError, ConvergenceError, PhysicsError, SolverError,
                     UntrappedParticleError)
from .esr import (FieldOrientation, LineModel, Spectrum, ZeemanShifts,
                  extremal_field_estimate, rotation_broadened_spectrum,
                  sweep_amplitudes, synth_spectrum, uniform_grid, zeeman_shifts)
from .rotation import (AngleTrajectory, AngularState, AngularTrapParams,
                       angular_stability, integrate_angle, libration_frequency,
                       shape_factor)
from .solver import (EsrSolution, PeakList, RotationReport, compare_orientations,
                     detect_peaks, equidistant_inversion, solve_equidistant,
                     solve_general)
from .spectral import dominant_frequency
from .trap import (STABILITY_Q_MAX, FloquetResult, LaserConfig, Trajectory,
                   TrapConfig, charge_to_mass_from_instability, drive_curvature,
                   equilibrium_displacement, find_stability_boundary, floquet_stability,
                   frequency_ramp_instability, integrate_motion, mathieu_q,
                   radiation_pressure_force, secular_frequency)

__version__ = "0.1.0"
