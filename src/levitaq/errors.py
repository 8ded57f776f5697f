"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 1,
PhysicsError -> 2, SolverError and ConvergenceError -> 3; an arithmetic
fault (ArithmeticError, numpy's raised float errors included) also exits 1.
"""


class ConfigError(Exception):
    """Malformed configuration, input file, or command line."""


class PhysicsError(Exception):
    """A physically meaningless request (outside the model's domain)."""


class UntrappedParticleError(PhysicsError):
    """Operations on the trapped motion of a particle with zero charge."""


class SolverError(Exception):
    """An inverse problem or detection step found no acceptable answer."""


class ConvergenceError(Exception):
    """An iterative numerical scheme failed to reach its tolerance."""
