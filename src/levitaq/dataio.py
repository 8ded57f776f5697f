"""Columnar text formats for trajectories, spectra, and solution reports.

All files are plain comma-separated text with a one-line header, SI units,
and floats rendered with repr-faithful precision so repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_rows(path, header: str, columns) -> None:
    """Write equal-length float columns as CSV rows, each formatted by one template."""
    template = ",".join(["%.17g"] * len(columns))
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    Path(path).write_text("\n".join([header, *(template % row for row in rows)]) + "\n")


def write_trajectory(path, traj: Trajectory) -> None:
    _write_rows(path, TRAJECTORY_HEADER, [traj.t, *traj.positions.T, *traj.velocities.T])


def write_angle_trajectory(path, traj: AngleTrajectory) -> None:
    _write_rows(path, ANGLE_HEADER, [traj.t, traj.alpha, traj.alpha_dot])


def write_spectrum(path, spectrum: Spectrum) -> None:
    _write_rows(path, SPECTRUM_HEADER, [spectrum.frequencies, spectrum.values])


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


def _deg(x: float) -> float:
    return math.degrees(x)


def solution_lines(sol: EsrSolution, prefix: str = "") -> list[str]:
    lines = [
        f"{prefix}theta_deg = {_fmt(_deg(sol.theta))}",
        f"{prefix}phi_deg = {_fmt(_deg(sol.phi))}",
        f"{prefix}b_gauss = {_fmt(sol.b_gauss)}",
        f"{prefix}residual_hz = {_fmt(sol.residual_rms_hz)}",
        f"{prefix}method = {sol.method}",
        f"{prefix}continuous_theta = {str(sol.continuous_theta).lower()}",
    ]
    members = "; ".join(f"({_fmt(_deg(t))}, {_fmt(_deg(p))})"
                        for t, p in sol.degeneracy_class)
    lines.append(f"{prefix}degeneracy_deg = {members}")
    return lines


def write_solution(path, sol: EsrSolution) -> None:
    Path(path).write_text("\n".join(solution_lines(sol)) + "\n")


def write_rotation_report(path, report: RotationReport) -> None:
    lines = solution_lines(report.before, prefix="before_")
    lines += solution_lines(report.after, prefix="after_")
    lines += [
        f"extremal_shift_hz = {_fmt(report.extremal_shift_hz)}",
        f"extremal_match = {str(report.extremal_match).lower()}",
        f"merged_central_pair = {str(report.merged_central_pair).lower()}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
