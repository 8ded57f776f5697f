"""Every file levitaq writes or reads, in one of two text formats.

Comma-separated columns under a one-line header (``write_rows``: trajectories,
spectra, scans, dips) and ``key = value`` lines (``write_key_values`` and
``read_key_values``: configs, ``resolved.cfg``, solutions, reports and the
scalar results).  Floats are written as ``%.17g``, which round-trips, so
repeated runs are byte-identical.  Every write goes to a temporary file that
is then renamed onto the target, so a failed write leaves the old file as it was.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .esr import Spectrum, uniform_steps
from .rotation import AngleTrajectory
from .solver import EsrSolution, RotationReport
from .trap import Trajectory

TRAJECTORY_HEADER = "t,x,y,z,vx,vy,vz"
ANGLE_HEADER = "t,alpha,alpha_dot"
SPECTRUM_HEADER = "frequency_hz,contrast"
_FLOAT = "%.17g"


def _write_text(path, lines) -> None:
    """Write ``lines`` as newline-terminated text into a temporary file beside
    ``path`` and rename it onto ``path``; on any failure remove it again."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w")
    try:
        with fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def write_rows(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows, each formatted by one template."""
    template = ",".join([_FLOAT] * len(columns))
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    _write_text(path, itertools.chain([header], (template % row for row in rows)))


def _text(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    return _FLOAT % value if isinstance(value, float) else str(value)


def _key_value_lines(pairs) -> list[str]:
    return [f"{key} = {_text(value)}" for key, value in pairs]


def write_key_values(path, pairs) -> None:
    """Write ``(key, value)`` pairs as ``key = value`` lines: floats as
    ``%.17g``, booleans in lowercase, anything else as ``str``."""
    _write_text(path, _key_value_lines(pairs))


def read_key_values(path) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` at a line start or after whitespace
    starts a comment, blank lines are skipped, and a line without ``=`` or a
    repeated key is a ``ConfigError``."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    out: dict[str, str] = {}
    for line_no, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}: line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{p}: line {line_no}: duplicate key '{key}'")
        out[key] = value.strip()
    return out


def write_trajectory(path, traj: Trajectory) -> None:
    write_rows(path, TRAJECTORY_HEADER, [traj.t, *traj.positions.T, *traj.velocities.T])


def write_angle_trajectory(path, traj: AngleTrajectory) -> None:
    write_rows(path, ANGLE_HEADER, [traj.t, traj.alpha, traj.alpha_dot])


def write_spectrum(path, spectrum: Spectrum) -> None:
    write_rows(path, SPECTRUM_HEADER, [spectrum.frequencies, spectrum.values])


def ingest_spectrum(path) -> Spectrum:
    """Read a spectrum file, validating format, monotonicity, and value range.

    Non-uniform (but ascending) grids are resampled onto a uniform grid by
    linear interpolation, with a warning.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"spectrum file not found: {path}")
    raw = path.read_text().strip().splitlines()
    if not raw or raw[0].strip() != SPECTRUM_HEADER:
        raise ConfigError(f"{path}: first line must be the header '{SPECTRUM_HEADER}'")
    freqs, vals = [], []
    for row_no, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}: line {row_no}: expected two comma-separated values")
        try:
            f, v = float(parts[0]), float(parts[1])
        except ValueError:
            raise ConfigError(f"{path}: line {row_no}: non-numeric value") from None
        if not (0.0 < v <= 1.05):
            raise ConfigError(f"{path}: line {row_no}: contrast {v:g} outside (0, 1.05]")
        freqs.append(f)
        vals.append(v)
    if len(freqs) < 2:
        raise ConfigError(f"{path}: need at least two data rows")
    f = np.array(freqs)
    v = np.array(vals)
    df = np.diff(f)
    if not np.all(df > 0.0):
        bad = int(np.flatnonzero(df <= 0.0)[0]) + 3  # header + 1-based + offset
        raise ConfigError(f"{path}: line {bad}: frequencies must be strictly ascending")
    if not uniform_steps(df):
        warnings.warn(f"{path}: non-uniform frequency grid; resampling to uniform",
                      stacklevel=2)
        fu = np.linspace(f[0], f[-1], f.size)
        v = np.interp(fu, f, v)
        f = fu
    return Spectrum(frequencies=f, values=v)


def solution_lines(sol: EsrSolution, prefix: str = "") -> list[str]:
    members = "; ".join(f"({_text(math.degrees(t))}, {_text(math.degrees(p))})"
                        for t, p in sol.degeneracy_class)
    pairs = [("theta_deg", math.degrees(sol.theta)), ("phi_deg", math.degrees(sol.phi)),
             ("b_gauss", sol.b_gauss), ("residual_hz", sol.residual_rms_hz),
             ("method", sol.method), ("continuous_theta", sol.continuous_theta),
             ("degeneracy_deg", members)]
    return _key_value_lines((prefix + key, value) for key, value in pairs)


def write_solution(path, sol: EsrSolution) -> None:
    _write_text(path, solution_lines(sol))


def write_rotation_report(path, report: RotationReport) -> None:
    _write_text(path, solution_lines(report.before, prefix="before_")
                + solution_lines(report.after, prefix="after_")
                + _key_value_lines([("extremal_shift_hz", report.extremal_shift_hz),
                                    ("extremal_match", report.extremal_match),
                                    ("merged_central_pair", report.merged_central_pair)]))
