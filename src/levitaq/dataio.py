"""Every file levitaq writes or reads, in one of two text formats.

Comma-separated columns under a one-line header (``write_rows``: trajectories,
spectra, scans, dips) and ``key = value`` lines (``write_key_values`` and
``read_key_values``: configs, ``resolved.cfg``, solutions, reports and the
scalar results).  Floats are written as ``%.17g``, which round-trips, so
repeated runs are byte-identical.  Every write goes to a temporary file that
is then renamed onto the target, so a failed write leaves the old file as it was.
"""

from __future__ import annotations

import array
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
_BLOCK = 4096  # lines formatted and written at a time


def _write_text(path, lines) -> None:
    """Write ``lines`` as newline-terminated text into a temporary file beside
    ``path`` and rename it onto ``path``; on any failure remove it again.
    The text goes out in blocks of _BLOCK lines, and no lines at all make one
    empty line."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "w")
    try:
        with fh:
            lines = iter(lines)
            block = list(itertools.islice(lines, _BLOCK))
            while True:
                fh.write("\n".join(block) + "\n")
                if not (block := list(itertools.islice(lines, _BLOCK))):
                    break
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _row_lines(template: str, columns):
    """Each row of the columns formatted by ``template``, converted to Python
    floats one block of _BLOCK rows at a time."""
    n = min((c.shape[0] for c in columns), default=0)
    for start in range(0, n, _BLOCK):
        rows = zip(*(c[start:start + _BLOCK].tolist() for c in columns))
        yield from (template % row for row in rows)


def write_rows(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows, each formatted by one template."""
    columns = [np.asarray(c) for c in columns]
    template = ",".join([_FLOAT] * len(columns))
    _write_text(path, itertools.chain([header], _row_lines(template, columns)))


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
    freqs, vals = array.array("d"), array.array("d")
    header = False
    unordered = None  # the line of the first frequency not above the one before
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not header:
                if line != SPECTRUM_HEADER:
                    break
                header = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}: line {line_no}: expected two comma-separated values")
            try:
                f, v = float(parts[0]), float(parts[1])
            except ValueError:
                raise ConfigError(f"{path}: line {line_no}: non-numeric value") from None
            if not (0.0 < v <= 1.05):
                raise ConfigError(f"{path}: line {line_no}: contrast {v:g} outside (0, 1.05]")
            if unordered is None and freqs and not f > freqs[-1]:
                unordered = line_no
            freqs.append(f)
            vals.append(v)
    if not header:
        raise ConfigError(f"{path}: first line must be the header '{SPECTRUM_HEADER}'")
    if len(freqs) < 2:
        raise ConfigError(f"{path}: need at least two data rows")
    if unordered is not None:
        raise ConfigError(f"{path}: line {unordered}: frequencies must be strictly ascending")
    f = np.frombuffer(freqs)
    v = np.frombuffer(vals)
    df = np.diff(f)
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
