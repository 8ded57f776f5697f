"""Command-line front end tying the simulation and inversion modules together.

Every subcommand reads a flat ``key = value`` config file (optional), applies
command-line overrides, validates against its known key set, and writes its
artifacts plus a ``resolved.cfg`` provenance file, itself a config that replays
the run, into a run directory that holds one subcommand's runs.  ``dataio``
writes and reads every file.  All frequencies in configs and summaries are
ordinary Hz; conversion to angular rates happens only at this boundary.

Exit codes: 0 success, 1 malformed config or input file, a file that cannot
be read or written, an arithmetic fault (subcommands compute with numpy's
float errors raised) or a run out of memory, 2 physics-domain error, 3 solver
or convergence failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio
from .core import CONSTANTS, Particle, particle_mass
from .errors import ConfigError, ConvergenceError, PhysicsError, SolverError
from .esr import (FieldOrientation, LineModel, extremal_field_estimate,
                  rotation_broadened_spectrum, sweep_amplitudes, synth_spectrum,
                  uniform_grid, zeeman_shifts)
from .rotation import (AngularState, AngularTrapParams, angular_stability,
                       integrate_angle, libration_frequency)
from .solver import compare_orientations, detect_peaks, solve_general
from .trap import (LaserConfig, TrapConfig, charge_to_mass_from_instability,
                   drive_curvature, equilibrium_displacement, find_stability_boundary,
                   floquet_stability, frequency_ramp_instability, integrate_motion,
                   mathieu_q, radiation_pressure_force, secular_frequency)

TWO_PI = 2.0 * math.pi

_REQUIRED = object()

_SPHERE_KEYS = {
    "diameter_m": (9.6e-6, float),
    "density_kg_m3": (3510.0, float),
}

_CHARGED_TRAP_KEYS = {
    **_SPHERE_KEYS,
    "charge_e": (-5000.0, float),  # signed, in elementary charges
    "v_ac_volts": (4000.0, float),
    "z0_m": (50e-6, float),
    "eta": (0.2, float),
    "damping_per_s": (0.0, float),
}

_DETECT_KEYS = {
    "min_depth": (0.01, float),
    "min_separation_hz": (15e6, float),
}

KEYSPECS: dict[str, dict] = {
    "trap-sim": {
        **_CHARGED_TRAP_KEYS,
        "drive_frequency_hz": (5000.0, float),
        "t_end_s": (0.02, float),
        "dt_s": (1e-6, float),
        "initial_x_m": (0.0, float),
        "initial_y_m": (0.0, float),
        "initial_z_m": (1e-6, float),
        "initial_vx_m_s": (0.0, float),
        "initial_vy_m_s": (0.0, float),
        "initial_vz_m_s": (0.0, float),
        "force_x_n": (0.0, float),
        "force_y_n": (0.0, float),
        "force_z_n": (0.0, float),
        "store_every": (1, int),
    },
    "stability-scan": {
        "q_min": (0.0, float),
        "q_max": (1.5, float),
        "a": (0.0, float),
        "n_scan": (31, int),
        "tol": (1e-4, float),
    },
    "ramp-infer": {
        **_CHARGED_TRAP_KEYS,
        "xi_v_m2": (2.0e6, float),
        "omega_start_hz": (4500.0, float),
        "omega_end_hz": (2000.0, float),
        "ramp_rate_hz_s": (0.0, float),       # 0 -> auto (0.2% of drive per secular period)
        "seed_displacement_m": (0.0, float),  # 0 -> auto (z0 / 2)
    },
    "radiation": {
        **_SPHERE_KEYS,
        "power_w": (1e-3, float),
        "reflection_coeff": (0.2, float),
        "half_aperture_rad": (0.8788, float),
        "omega_x_hz": (1000.0, float),
    },
    "angular-sim": {
        "omega_alpha_hz": (50.0, float),
        "drive_frequency_hz": (5000.0, float),
        "alpha0_rad": (0.05, float),
        "alpha_dot0_rad_s": (0.0, float),
        "t_end_s": (0.4, float),
        "dt_s": (1e-6, float),
        "store_every": (5, int),
    },
    "esr-forward": {
        "theta_deg": (63.434948822922, float),
        "phi_deg": (35.226937177152, float),
        "b_gauss": (83.06930964009, float),
        "hwhm_hz": (10e6, float),
        "contrast": (0.03, float),
        "grid_min_hz": (0.0, float),   # 0 -> auto from the dip span
        "grid_max_hz": (0.0, float),
        "grid_points": (40001, int),
    },
    "esr-broadened": {
        "theta_deg": (45.0, float),
        "phi_deg": (54.735610317245, float),
        "b_gauss": (30.0, float),
        "rot_axis_x": (0.7071067811865476, float),
        "rot_axis_y": (-0.7071067811865476, float),
        "rot_axis_z": (0.0, float),
        "hwhm_hz": (10e6, float),
        "contrast": (0.03, float),
        "grid_min_hz": (0.0, float),
        "grid_max_hz": (0.0, float),
        "grid_points": (40001, int),
        "threshold": (0.0, float),     # 0 -> auto (half the maximum dip depth)
    },
    "esr-solve": {
        "input": (_REQUIRED, str),
        **_DETECT_KEYS,
        "residual_threshold_hz": (30e6, float),
        "b_fixed_gauss": (0.0, float),  # 0 -> field is a free fit parameter
    },
    "esr-compare": {
        "input_before": (_REQUIRED, str),
        "input_after": (_REQUIRED, str),
        "b_gauss": (_REQUIRED, float),
        **_DETECT_KEYS,
    },
}


_NEGATIVE_NUMBER = re.compile(r"-\.?\d[\d.]*([eE][-+]?\d+)?")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for physics errors
        raise ConfigError(message)


def _attach_negative_values(argv) -> list[str]:
    """Pass ``--key -1e-6`` on as ``--key=-1e-6``: argparse takes a dash-led
    value that is not a plain negative decimal for an option."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_NUMBER.fullmatch(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _resolve(subcommand: str, file_values: dict[str, str],
             flag_values: dict[str, str]) -> dict:
    keyspec = KEYSPECS[subcommand]
    for key in file_values:
        if key not in keyspec:
            raise ConfigError(f"unknown config key '{key}' for subcommand '{subcommand}'")
    merged: dict = {}
    for key, (default, typ) in keyspec.items():
        raw = flag_values.get(key)
        if raw is None:
            raw = file_values.get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' for subcommand '{subcommand}'")
            merged[key] = default
            continue
        try:
            merged[key] = typ(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"key '{key}': cannot parse '{raw}' as {typ.__name__}") from None
        if typ is float and not math.isfinite(merged[key]):
            raise ConfigError(f"key '{key}': value must be finite, got '{raw}'")
    return merged


def _particle(cfg: dict) -> Particle:
    charge = cfg["charge_e"] * CONSTANTS.elementary_charge
    return Particle.sphere(diameter=cfg["diameter_m"], density=cfg["density_kg_m3"],
                           total_charge=charge)


def _trap(cfg: dict, drive_hz: float) -> TrapConfig:
    """The needle trap driven at ``drive_hz``, with the default static curvature."""
    return TrapConfig(v_ac=cfg["v_ac_volts"], drive_freq=TWO_PI * drive_hz,
                      z0=cfg["z0_m"], eta=cfg["eta"], damping_gamma=cfg["damping_per_s"])


def _field(cfg: dict) -> FieldOrientation:
    return FieldOrientation(b_gauss=cfg["b_gauss"], theta=math.radians(cfg["theta_deg"]),
                            phi=math.radians(cfg["phi_deg"]))


def _auto_grid(cfg: dict, lo: float, hi: float) -> np.ndarray:
    return uniform_grid(cfg["grid_min_hz"] or lo, cfg["grid_max_hz"] or hi, cfg["grid_points"])


def _run_trap_sim(cfg: dict, run_dir: Path) -> str:
    p = _particle(cfg)
    trap = _trap(cfg, cfg["drive_frequency_hz"])
    force = (cfg["force_x_n"], cfg["force_y_n"], cfg["force_z_n"])
    traj = integrate_motion(
        trap, p, forces=[force], t_end=cfg["t_end_s"], dt=cfg["dt_s"],
        x0=(cfg["initial_x_m"], cfg["initial_y_m"], cfg["initial_z_m"]),
        v0=(cfg["initial_vx_m_s"], cfg["initial_vy_m_s"], cfg["initial_vz_m_s"]),
        store_every=cfg["store_every"])
    dataio.write_trajectory(run_dir / "trajectory.csv", traj)
    wz = secular_frequency(trap, p)
    return (f"trap-sim: q={mathieu_q(trap, p):.4f} secular_hz={wz / TWO_PI:.6g} "
            f"escaped={str(traj.escaped).lower()} samples={traj.t.size}")


def _run_stability_scan(cfg: dict, run_dir: Path) -> str:
    if not 1 <= cfg["n_scan"] <= 10 ** 4:  # one Floquet evaluation per point
        raise ValueError("n_scan must be between 1 and 1e4")
    # the boundary search validates the range and tol before the scan runs
    boundary = find_stability_boundary(cfg["a"], cfg["q_min"], cfg["q_max"], cfg["tol"])
    qs = np.linspace(cfg["q_min"], cfg["q_max"], cfg["n_scan"])
    scan = [floquet_stability(cfg["a"], float(q)) for q in qs]
    dataio.write_rows(run_dir / "scan.csv", "q,trace,stable",
                      [qs, [r.trace for r in scan], [int(r.stable) for r in scan]])
    dataio.write_key_values(run_dir / "boundary.txt", [("q_boundary", boundary)])
    return f"stability-scan: q_boundary={boundary:.5f} n_scan={cfg['n_scan']}"


def _run_ramp_infer(cfg: dict, run_dir: Path) -> str:
    p = _particle(cfg)
    # the ramp sets the drive frequency; the trap starts at omega_start
    trap = replace(_trap(cfg, cfg["omega_start_hz"]), xi=cfg["xi_v_m2"])
    om_start = trap.drive_freq
    om_end = TWO_PI * cfg["omega_end_hz"]
    if cfg["ramp_rate_hz_s"]:
        rate = TWO_PI * cfg["ramp_rate_hz_s"]
    else:
        t_sec = TWO_PI / secular_frequency(trap, p)
        rate = 0.002 * om_start / t_sec
    seed = cfg["seed_displacement_m"] or None
    om_unstable = frequency_ramp_instability(trap, p, om_start, om_end, rate,
                                             seed_displacement=seed)
    qm_drive = charge_to_mass_from_instability(om_unstable, drive_curvature(trap))
    qm_xi = charge_to_mass_from_instability(om_unstable, trap.xi)
    true_qm = abs(p.total_charge) / particle_mass(p)
    dataio.write_key_values(run_dir / "ramp.txt", [
        ("omega_unstable_hz", om_unstable / TWO_PI), ("charge_to_mass_c_kg", qm_drive),
        ("charge_to_mass_xi_c_kg", qm_xi), ("configured_charge_to_mass_c_kg", true_qm)])
    return (f"ramp-infer: omega_unstable_hz={om_unstable / TWO_PI:.6g} "
            f"charge_to_mass_c_kg={qm_drive:.6g}")


def _run_radiation(cfg: dict, run_dir: Path) -> str:
    p = Particle.sphere(diameter=cfg["diameter_m"], density=cfg["density_kg_m3"])
    laser = LaserConfig(power=cfg["power_w"], reflection_coeff=cfg["reflection_coeff"],
                        half_aperture=cfg["half_aperture_rad"])
    force = radiation_pressure_force(laser)
    dx = equilibrium_displacement(force, p, TWO_PI * cfg["omega_x_hz"])
    dataio.write_key_values(run_dir / "radiation.txt",
                            [("force_n", force), ("displacement_m", dx)])
    return f"radiation: force_n={force:.6g} displacement_m={dx:.6g}"


def _run_angular_sim(cfg: dict, run_dir: Path) -> str:
    params = AngularTrapParams(omega_alpha=TWO_PI * cfg["omega_alpha_hz"],
                               drive_freq=TWO_PI * cfg["drive_frequency_hz"])
    traj = integrate_angle(params, AngularState(cfg["alpha0_rad"], cfg["alpha_dot0_rad_s"]),
                           t_end=cfg["t_end_s"], dt=cfg["dt_s"],
                           store_every=cfg["store_every"])
    dataio.write_angle_trajectory(run_dir / "angle.csv", traj)
    stability = angular_stability(params)
    try:
        lib_hz = libration_frequency(traj) / TWO_PI
        lib_text = f"{lib_hz:.6g}"
    except SolverError:
        lib_text = "nan"
    return (f"angular-sim: q_alpha={stability.q_alpha:.4f} "
            f"stable={str(stability.stable).lower()} libration_hz={lib_text} "
            f"escaped={str(traj.escaped).lower()}")


def _run_esr_forward(cfg: dict, run_dir: Path) -> str:
    field = _field(cfg)
    model = LineModel(hwhm=cfg["hwhm_hz"], contrast_per_line=cfg["contrast"])
    shifts = zeeman_shifts(field)
    dips = shifts.dip_frequencies_hz
    grid = _auto_grid(cfg, dips[0] - 8.0 * model.hwhm, dips[-1] + 8.0 * model.hwhm)
    spectrum = synth_spectrum(dips, model, grid)
    dataio.write_spectrum(run_dir / "spectrum.csv", spectrum)
    dataio.write_rows(run_dir / "dips.csv", "dip_frequency_hz", [dips])
    return (f"esr-forward: n_dips={dips.size} dip_min_hz={dips[0]:.6g} "
            f"dip_max_hz={dips[-1]:.6g} points={grid.size}")


def _run_esr_broadened(cfg: dict, run_dir: Path) -> str:
    field = _field(cfg)
    model = LineModel(hwhm=cfg["hwhm_hz"], contrast_per_line=cfg["contrast"])
    axis = np.array([cfg["rot_axis_x"], cfg["rot_axis_y"], cfg["rot_axis_z"]])
    norm = math.hypot(*axis)  # no overflow or underflow in the squares
    if norm == 0.0:
        raise ConfigError("rot_axis_x/y/z must not all be zero")
    axis = axis / norm
    centers, ranges = sweep_amplitudes(field, axis)
    d = CONSTANTS.zero_field_splitting_hz
    span = float(np.max(np.abs(centers) + ranges))
    grid = _auto_grid(cfg, d - span - 8.0 * model.hwhm, d + span + 8.0 * model.hwhm)
    spectrum = rotation_broadened_spectrum(field, axis, model, grid)
    dataio.write_spectrum(run_dir / "spectrum.csv", spectrum)
    depth_max = float(np.max(1.0 - spectrum.values))
    b_text = "nan"
    if cfg["threshold"] or depth_max > 0.0:  # the auto threshold needs a dip
        try:
            b_est = extremal_field_estimate(spectrum, cfg["threshold"] or 0.5 * depth_max)
            b_text = f"{b_est:.6g}"
        except SolverError:
            pass
    return (f"esr-broadened: max_depth={depth_max:.4g} b_estimate_gauss={b_text} "
            f"points={grid.size}")


def _detected_peaks(cfg: dict, path: str):
    spectrum = dataio.ingest_spectrum(path)
    return detect_peaks(spectrum, min_depth=cfg["min_depth"],
                        min_separation=cfg["min_separation_hz"])


def _run_esr_solve(cfg: dict, run_dir: Path) -> str:
    peaks = _detected_peaks(cfg, cfg["input"])
    sol = solve_general(peaks, residual_threshold_hz=cfg["residual_threshold_hz"],
                        b_fixed=cfg["b_fixed_gauss"] or None)
    dataio.write_solution(run_dir / "solution.txt", sol)
    return (f"esr-solve: theta_deg={math.degrees(sol.theta):.2f} "
            f"phi_deg={math.degrees(sol.phi):.2f} b_gauss={sol.b_gauss:.2f} "
            f"residual_hz={sol.residual_rms_hz:.4g} method={sol.method} "
            f"n_peaks={len(peaks)}")


def _run_esr_compare(cfg: dict, run_dir: Path) -> str:
    before = _detected_peaks(cfg, cfg["input_before"])
    after = _detected_peaks(cfg, cfg["input_after"])
    report = compare_orientations(before, after, b_fixed=cfg["b_gauss"])
    dataio.write_rotation_report(run_dir / "report.txt", report)
    return (f"esr-compare: theta_before_deg={math.degrees(report.before.theta):.2f} "
            f"phi_before_deg={math.degrees(report.before.phi):.2f} "
            f"theta_after_deg={math.degrees(report.after.theta):.2f} "
            f"phi_after_deg={math.degrees(report.after.phi):.2f} "
            f"merged_central_pair={str(report.merged_central_pair).lower()} "
            f"extremal_match={str(report.extremal_match).lower()}")


_RUNNERS = {
    "trap-sim": _run_trap_sim,
    "stability-scan": _run_stability_scan,
    "ramp-infer": _run_ramp_infer,
    "radiation": _run_radiation,
    "angular-sim": _run_angular_sim,
    "esr-forward": _run_esr_forward,
    "esr-broadened": _run_esr_broadened,
    "esr-solve": _run_esr_solve,
    "esr-compare": _run_esr_compare,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="levitaq",
                     description="Needle-trap levitation and spin-resonance toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keyspec in KEYSPECS.items():
        sp = sub.add_parser(name, description=f"run the {name} pipeline")
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--out", help="run-directory root (default $LEVITAQ_OUT_DIR or ./runs)")
        sp.add_argument("--name", help="run-directory name (default: subcommand)")
        for key in keyspec:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, metavar="V")
    return parser


def _faulting_function(exc: ArithmeticError) -> str:
    """The innermost public module-level levitaq function on the traceback."""
    name = "run"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        code, scope = frame.f_code, frame.f_globals
        if (scope.get("__package__") == __package__ and not code.co_name.startswith("_")
                and getattr(scope.get(code.co_name), "__code__", None) is code):
            name = code.co_name
    return name


def run(argv=None) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _build_parser().parse_args(
            _attach_negative_values(sys.argv[1:] if argv is None else argv))
        sub = args.subcommand
        file_values = dataio.read_key_values(args.config) if args.config else {}
        if (written_for := file_values.pop("subcommand", sub)) != sub:
            raise ConfigError(f"{args.config} is a '{written_for}' config, not '{sub}'")
        flag_values = {k: getattr(args, k) for k in KEYSPECS[sub]
                       if getattr(args, k, None) is not None}
        cfg = _resolve(sub, file_values, flag_values)

        root = args.out or os.environ.get("LEVITAQ_OUT_DIR") or "runs"
        run_dir = Path(root) / (args.name or sub)
        resolved = run_dir / "resolved.cfg"
        owner = (dataio.read_key_values(resolved).get("subcommand")
                 if resolved.is_file() else sub)
        if owner != sub:  # a run directory holds one subcommand's artifacts
            raise ConfigError(f"{run_dir} holds a '{owner}' run; choose another --name")
        run_dir.mkdir(parents=True, exist_ok=True)
        dataio.write_key_values(resolved, [("subcommand", sub), *sorted(cfg.items())])

        with np.errstate(over="raise", divide="raise", invalid="raise"):
            summary = _RUNNERS[sub](cfg, run_dir)
        print(f"{summary} out={run_dir}")
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # numpy's text names the operation, not the input
        print(f"error: {_faulting_function(exc)}: arithmetic fault; an input leaves the "
              "floating-point range", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a bare MemoryError has no text
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ConvergenceError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    # one stderr line per warning, in the form of the error lines
    warnings.formatwarning = lambda message, *args, **kwargs: f"warning: {message}\n"
    sys.exit(run())


if __name__ == "__main__":
    main()
