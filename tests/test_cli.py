import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levitaq
from levitaq import cli
from levitaq.cli import run
from levitaq.dataio import read_key_values

TWO_PI = 2.0 * math.pi


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# arithmetic faults whose message names the derived quantity
_NAMED_FAULTS = {
    ("radiation", "--density-kg-m3", "5e-324"): "particle mass 0 kg must be finite and > 0",
    ("radiation", "--omega-x-hz", "1e300"): "stiffness m * omega_x^2 = inf N/m must be finite and > 0",
    ("trap-sim", "--drive-frequency-hz", "1e-200"): "Mathieu q = inf is not finite",
    ("ramp-infer", "--seed-displacement-m", "0.01"): "inside the escape radius 0.005 m",
    ("trap-sim", "--z0-m", "1e200"): "drive curvature eta * V_ac / (2 z0^2) = 0 V/m^2",
    ("trap-sim", "--z0-m", "1e-200"): "drive curvature eta * V_ac / (2 z0^2) = inf V/m^2",
    ("ramp-infer", "--z0-m", "1e-200"): "drive curvature eta * V_ac / (2 z0^2) = inf V/m^2",
    ("trap-sim", "--density-kg-m3", "1e-300"):
        "drive stiffness 2 Q kappa / m = -inf 1/s^2 must be finite and nonzero",
}

DEFAULT_SPECTRUM = "<the esr-forward default spectrum>"

# arithmetic faults named by the innermost public levitaq function they reach
_FAULTING_FUNCTIONS = {
    ("ramp-infer", "--charge-e", "1e9"): "floquet_stability",
    ("ramp-infer", "--v-ac-volts", "1e9"): "floquet_stability",
    ("stability-scan", "--q-max", "1e6"): "floquet_stability",
    ("angular-sim", "--omega-alpha-hz", "1e9"): "floquet_stability",
    ("esr-forward", "--hwhm-hz", "1e-300"): "synth_spectrum",
    ("trap-sim", "--force-x-n", "1e300"): "integrate_motion",
    ("ramp-infer", "--damping-per-s", "1e300"): "frequency_ramp_instability",
    ("esr-solve", "--input", DEFAULT_SPECTRUM, "--b-fixed-gauss", "1e300"): "solve_general",
}


class TestConfigHandling:
    def test_missing_config_file_exits_1_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code, _, err = run_cli(capsys, "radiation", "--config", str(missing),
                               "--out", str(tmp_path))
        assert code == 1
        assert str(missing) in err

    def test_unknown_config_key_exits_1_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        code, _, err = run_cli(capsys, "radiation", "--config", str(cfg),
                               "--out", str(tmp_path))
        assert code == 1
        assert "bogus_key" in err

    def test_unparseable_value_exits_1_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("power_w = lots\n")
        code, _, err = run_cli(capsys, "radiation", "--config", str(cfg),
                               "--out", str(tmp_path))
        assert code == 1
        assert "power_w" in err

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("power_w = 1e-3\n")
        code, out, _ = run_cli(capsys, "radiation", "--config", str(cfg),
                               "--power-w", "2e-3", "--out", str(tmp_path))
        assert code == 0
        resolved = (tmp_path / "radiation" / "resolved.cfg").read_text()
        assert "power_w = 0.002" in resolved

    def test_missing_required_key_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "esr-solve", "--out", str(tmp_path))
        assert code == 1
        assert "input" in err

    def test_env_var_sets_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEVITAQ_OUT_DIR", str(tmp_path / "envroot"))
        code, out, _ = run_cli(capsys, "radiation")
        assert code == 0
        assert (tmp_path / "envroot" / "radiation" / "radiation.txt").is_file()


class TestPhysicsAndSolverExitCodes:
    def test_uncharged_particle_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "trap-sim", "--charge-e", "0",
                               "--t-end-s", "1e-4", "--out", str(tmp_path))
        assert code == 2

    def test_scan_range_without_boundary_exits_2(self, tmp_path, capsys):
        # stability analysis requested over a range that never destabilizes
        code, _, err = run_cli(capsys, "stability-scan", "--q-min", "0",
                               "--q-max", "0.5", "--n-scan", "3",
                               "--out", str(tmp_path))
        assert code == 2
        assert "stable" in err

    @pytest.mark.parametrize("seed_m", ["0.004", "0.003"])
    def test_ramp_escape_at_stable_drive_exits_2(self, tmp_path, capsys, seed_m):
        # the seed's micromotion reaches the 5 mm escape radius before the drive
        # is unstable; reporting that drive would misstate the charge-to-mass ratio
        code, out, err = run_cli(capsys, "ramp-infer", "--seed-displacement-m", seed_m,
                                 "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "where the drive is still stable" in err and "at q = 0." in err

    @pytest.mark.parametrize("argv, lowest_hz", [
        (("esr-forward", "--b-gauss", "2000"), "-6.03822e+09"),
        (("esr-forward", "--b-gauss", "1000"), "-1.58411e+09"),
        (("esr-broadened", "--b-gauss", "2000"), "-6.82948e+09"),
        (("esr-forward", "--b-gauss", "1030", "--theta-deg", "0", "--phi-deg", "0"),
         "-1.4e+07"),
    ])
    def test_field_beyond_the_linear_zeeman_model_exits_2(self, tmp_path, capsys, argv,
                                                          lowest_hz):
        # a line at or below 0 Hz: the model's D - gamma_e B |x_i . B_hat| has no meaning
        code, out, err = run_cli(capsys, *argv, "--grid-points", "2001",
                                 "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"physics error: a {argv[2]} G field puts the lowest line "
                              f"at {lowest_hz} Hz; the linear Zeeman model holds below")

    @pytest.mark.parametrize("argv", [
        ("esr-forward", "--b-gauss", "1024", "--theta-deg", "0", "--phi-deg", "0"),  # < 1025 G
        ("esr-forward", "--b-gauss", "591", "--theta-deg", "45",
         "--phi-deg", "54.735610317245"),                     # along [111], < 591.78 G
        ("esr-broadened", "--b-gauss", "591"),  # sweeps through [111]
    ])
    def test_field_just_inside_the_linear_zeeman_model_exits_0(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--grid-points", "2001",
                                 "--out", str(tmp_path))
        assert code == 0, err
        assert err == ""

    def test_flat_spectrum_solver_failure_exits_3(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        f = np.linspace(2.8e9, 2.9e9, 101)
        lines = ["frequency_hz,contrast"] + [f"{x:.17g},1.0" for x in f]
        flat.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "esr-solve", "--input", str(flat),
                               "--out", str(tmp_path))
        assert code == 3

    def test_nine_dip_spectrum_exits_3(self, tmp_path, capsys):
        # nine resolved dips, where the four defect axes give at most eight
        dips = np.array([2.70e9, 2.74e9, 2.79e9, 2.83e9, 2.91e9, 2.95e9, 3.00e9,
                         3.04e9, 3.10e9])
        f = np.linspace(2.6e9, 3.2e9, 12001)
        values = 1.0 - np.sum(0.03 * 4e12 / ((f[:, None] - dips) ** 2 + 4e12), axis=1)
        spectrum = tmp_path / "nine.csv"
        spectrum.write_text("frequency_hz,contrast\n"
                            + "\n".join(f"{x:.17g},{y:.17g}" for x, y in zip(f, values))
                            + "\n")
        code, out, err = run_cli(capsys, "esr-solve", "--input", str(spectrum),
                                 "--out", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "9 dips" in err

    def test_malformed_spectrum_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("frequency_hz,contrast\n3.0,1.0\n2.0,1.0\n")
        code, _, err = run_cli(capsys, "esr-solve", "--input", str(bad),
                               "--out", str(tmp_path))
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("trap-sim", "--dt-s", "0"),
        ("trap-sim", "--t-end-s", "inf"),
        ("trap-sim", "--charge-e", "nan"),
        ("angular-sim", "--dt-s", "0"),
        ("radiation", "--seed", "0"),  # the key no longer exists
        ("esr-broadened", "--n-cells", "0"),  # nor this one, below and above
        ("esr-broadened", "--n-cells", "2001"),  # its former bounds 1 and 2000
        # keys that changed no output and were removed
        ("trap-sim", "--xi-v-m2", "1e6"),
        ("ramp-infer", "--drive-frequency-hz", "5000"),
        ("radiation", "--charge-e", "-5000"),
        # bisection that cannot end, and an empty scan
        ("stability-scan", "--tol", "0"),
        ("stability-scan", "--tol", "-1"),
        ("stability-scan", "--n-scan", "0"),
        # sizes far above the scan and grid bounds
        ("stability-scan", "--n-scan", "100000000"),
        ("esr-forward", "--grid-points", "1000000000"),
        # step counts far above the integrator bounds
        ("trap-sim", "--dt-s", "1e-300"),
        ("angular-sim", "--dt-s", "1e-300"),
        ("ramp-infer", "--ramp-rate-hz-s", "1e-300"),
        # arithmetic faults: division by zero, overflow and non-finite results
        ("ramp-infer", "--diameter-m", "1e300"),
        ("trap-sim", "--diameter-m", "1e-300", "--charge-e", "5e-324"),
        ("radiation", "--density-kg-m3", "5e-324"),
        ("radiation", "--omega-x-hz", "1e300"),
        ("trap-sim", "--density-kg-m3", "1e-300", "--diameter-m", "0.5", "--v-ac-volts", "2"),
        ("ramp-infer", "--xi-v-m2", "5e-324"),
        # a q that overflows to inf, and a ramp seed outside the escape radius
        ("trap-sim", "--drive-frequency-hz", "1e-200"),
        ("ramp-infer", "--seed-displacement-m", "0.01"),
        # z0^2 that overflows or underflows in the drive curvature
        ("trap-sim", "--z0-m", "1e200"),
        ("trap-sim", "--z0-m", "1e-200"),
        ("ramp-infer", "--z0-m", "1e-200"),
        # a drive stiffness 2 Q kappa / m beyond the float range
        ("trap-sim", "--density-kg-m3", "1e-300"),
        # overflows deep in a kernel, named by the function they reach
        *_FAULTING_FUNCTIONS,
    ])
    def test_malformed_numeric_input_exits_1_with_one_line(self, tmp_path, capsys,
                                                           forward_spectra, argv):
        args = [str(forward_spectra[0]) if a == DEFAULT_SPECTRUM else a for a in argv]
        code, out, err = run_cli(capsys, *args, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert "encountered" not in err
        assert _NAMED_FAULTS.get(argv, "") in err
        if argv in _FAULTING_FUNCTIONS:
            assert err == (f"error: {_FAULTING_FUNCTIONS[argv]}: arithmetic fault; "
                           "an input leaves the floating-point range\n")

    def test_warning_prints_one_line_before_the_error(self, tmp_path):
        src = str(Path(levitaq.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "levitaq.cli", "ramp-infer",
                               "--ramp-rate-hz-s", "1e6", "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: ramp changes the drive by more than 1%")
        assert lines[1].startswith("physics error: ")

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(cfg, run_dir):
            raise MemoryError
        monkeypatch.setitem(cli._RUNNERS, "radiation", out_of_memory)
        code, out, err = run_cli(capsys, "radiation", "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == "error: out of memory\n"

    def test_escaped_tilt_run_exits_0_without_libration(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "angular-sim", "--omega-alpha-hz", "5000",
                                 "--out", str(tmp_path))
        assert code == 0, err
        assert "escaped=true" in out
        assert "libration_hz=nan" in out

    @pytest.mark.parametrize("x, y", [("1e300", "-0.7071067811865476"), ("1e-300", "0")])
    def test_rotation_axis_normalised_without_leaving_the_float_range(self, tmp_path, capsys,
                                                                      x, y):
        common = ["esr-broadened", "--grid-points", "2001", "--out", str(tmp_path)]
        code, _, err = run_cli(capsys, *common, "--rot-axis-x", x, "--rot-axis-y", y)
        assert code == 0, err
        code, _, err = run_cli(capsys, *common, "--rot-axis-y", "0", "--name", "unit")
        assert code == 0, err
        assert ((tmp_path / "esr-broadened" / "spectrum.csv").read_bytes()
                == (tmp_path / "unit" / "spectrum.csv").read_bytes())

    @pytest.mark.parametrize("sub", ["esr-solve", "esr-compare"])
    def test_smoothing_window_longer_than_spectrum_exits_1(self, tmp_path, capsys,
                                                           forward_spectra, sub):
        before, after = forward_spectra
        inputs = (["--input", str(before)] if sub == "esr-solve" else
                  ["--input-before", str(before), "--input-after", str(after),
                   "--b-gauss", "83.06930964009"])
        code, out, err = run_cli(capsys, sub, *inputs, "--min-separation-hz", "1e12",
                                 "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "smoothing window" in err

    def test_escape_past_the_float_range_still_exits_0(self, tmp_path, capsys):
        # q ~ 800: the block that crosses the escape radius overflows after it
        code, out, err = run_cli(capsys, "trap-sim", "--v-ac-volts", "1e7",
                                 "--out", str(tmp_path))
        assert code == 0, err
        assert "escaped=true" in out
        traj = np.loadtxt(tmp_path / "trap-sim" / "trajectory.csv", delimiter=",",
                          skiprows=1)
        assert np.all(np.isfinite(traj))

    def test_unwritable_output_root_exits_1_with_one_line(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "radiation", "--out", str(blocker / "x"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_negative_exponent_value_parses(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "trap-sim", "--initial-z-m", "-1e-6",
                               "--t-end-s", "1e-4", "--out", str(tmp_path))
        assert code == 0, err
        resolved = (tmp_path / "trap-sim" / "resolved.cfg").read_text().splitlines()
        kv = dict(line.split(" = ") for line in resolved)
        assert float(kv["initial_z_m"]) == -1e-6


class TestPipelines:
    def test_radiation_summary(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "radiation", "--out", str(tmp_path))
        assert code == 0
        assert "force_n=" in out
        text = (tmp_path / "radiation" / "radiation.txt").read_text()
        force = float(text.splitlines()[0].split("=")[1])
        assert force == pytest.approx(1.169e-12, rel=1e-3)

    def test_trap_sim_writes_trajectory(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "trap-sim", "--t-end-s", "2e-3",
                               "--store-every", "4", "--out", str(tmp_path))
        assert code == 0
        assert "q=0.3195" in out
        lines = (tmp_path / "trap-sim" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x,y,z,vx,vy,vz"
        assert len(lines) > 100

    def test_stability_scan_reports_boundary(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "stability-scan", "--q-min", "0",
                               "--q-max", "1.5", "--n-scan", "7",
                               "--out", str(tmp_path))
        assert code == 0
        boundary = float(out.split("q_boundary=")[1].split()[0])
        assert boundary == pytest.approx(0.908, abs=0.005)
        scan = (tmp_path / "stability-scan" / "scan.csv").read_text().splitlines()
        assert scan[0] == "q,trace,stable"
        assert len(scan) == 8

    def test_angular_sim_reports_libration(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "angular-sim", "--t-end-s", "0.12",
                               "--omega-alpha-hz", "100", "--out", str(tmp_path))
        assert code == 0
        lib = float(out.split("libration_hz=")[1].split()[0])
        assert lib == pytest.approx(100.0, rel=0.05)
        assert (tmp_path / "angular-sim" / "angle.csv").is_file()

    def test_ramp_infer_writes_inference(self, tmp_path, capsys):
        # deliberately fast ramp: exercises the wiring, not the accuracy
        with pytest.warns(UserWarning, match="secular period"):
            code, out, _ = run_cli(capsys, "ramp-infer",
                                   "--ramp-rate-hz-s", "30000",
                                   "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "ramp-infer" / "ramp.txt").read_text()
        assert "omega_unstable_hz" in text
        assert "charge_to_mass_c_kg" in text
        om = float(out.split("omega_unstable_hz=")[1].split()[0])
        assert 2000.0 < om < 4500.0

    def test_esr_forward_then_solve_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "esr-forward", "--out", str(tmp_path),
                               "--name", "fwd")
        assert code == 0
        spectrum = tmp_path / "fwd" / "spectrum.csv"
        assert spectrum.is_file()
        code, out, _ = run_cli(capsys, "esr-solve", "--input", str(spectrum),
                               "--out", str(tmp_path), "--name", "solve")
        assert code == 0
        # the exact solve's member nearest the closed form; detect_peaks puts
        # the inner pair (20 MHz apart at 10 MHz HWHM) 0.98 MHz inside the
        # true lines, so it sits 0.1 deg from the generating orientation
        assert "theta_deg=63.39" in out
        assert "phi_deg=35.33" in out
        assert "b_gauss=83.06" in out
        assert "residual_hz=2.475e+05" in out
        solution = (tmp_path / "solve" / "solution.txt").read_text()
        assert "method = equidistant" in solution

    def test_fixed_field_names_the_free_fit_member(self, tmp_path, capsys, forward_spectra):
        # the README default spectrum at the field that generated it
        for name, extra in (("free", []), ("fixed", ["--b-fixed-gauss", "83.06930964009"])):
            code, out, err = run_cli(capsys, "esr-solve", "--input", str(forward_spectra[0]),
                                     *extra, "--out", str(tmp_path), "--name", name)
            assert code == 0 and err == ""
            assert "theta_deg=63.39 phi_deg=35.33" in out and "method=equidistant" in out

    def test_esr_forward_solve_round_trip_generic_orientation(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "esr-forward", "--theta-deg", "40",
                             "--phi-deg", "20", "--b-gauss", "50",
                             "--hwhm-hz", "3e6",
                             "--out", str(tmp_path), "--name", "fwd2")
        assert code == 0
        code, out, _ = run_cli(capsys, "esr-solve",
                               "--input", str(tmp_path / "fwd2" / "spectrum.csv"),
                               "--min-separation-hz", "8e6",
                               "--out", str(tmp_path), "--name", "solve2")
        assert code == 0
        b = float(out.split("b_gauss=")[1].split()[0])
        assert b == pytest.approx(50.0, abs=1.0)

    def test_esr_broadened_estimates_field(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "esr-broadened", "--b-gauss", "30",
                               "--out", str(tmp_path))
        assert code == 0
        b_est = float(out.split("b_estimate_gauss=")[1].split()[0])
        assert b_est == pytest.approx(30.0, rel=0.1)

    def test_esr_broadened_with_explicit_threshold(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "esr-broadened", "--b-gauss", "30",
                               "--threshold", "0.004", "--out", str(tmp_path))
        assert code == 0
        b_est = float(out.split("b_estimate_gauss=")[1].split()[0])
        assert b_est == pytest.approx(30.0, rel=0.15)

    def test_config_file_with_comments_and_blanks(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("# probe beam\n\npower_w = 2e-3  # watts\n"
                       "reflection_coeff = 0.1\n")
        code, out, _ = run_cli(capsys, "radiation", "--config", str(cfg),
                               "--out", str(tmp_path))
        assert code == 0
        resolved = (tmp_path / "radiation" / "resolved.cfg").read_text()
        assert "power_w = 0.002" in resolved
        assert "reflection_coeff = 0.1" in resolved

    def test_esr_solve_with_fixed_field(self, tmp_path, capsys):
        # merged-pair spectrum solved at a pinned field magnitude
        code, _, _ = run_cli(capsys, "esr-forward", "--theta-deg", "0",
                             "--out", str(tmp_path), "--name", "fwd")
        assert code == 0
        code, out, _ = run_cli(capsys, "esr-solve",
                               "--input", str(tmp_path / "fwd" / "spectrum.csv"),
                               "--b-fixed-gauss", "83.0693",
                               "--out", str(tmp_path), "--name", "solve")
        assert code == 0
        assert "theta_deg=0.00" in out
        assert "b_gauss=83.07" in out

    def test_esr_compare_end_to_end(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "esr-forward", "--out", str(tmp_path),
                             "--name", "before")
        assert code == 0
        code, _, _ = run_cli(capsys, "esr-forward", "--theta-deg", "0",
                             "--out", str(tmp_path), "--name", "after")
        assert code == 0
        code, out, _ = run_cli(capsys, "esr-compare",
                               "--input-before", str(tmp_path / "before" / "spectrum.csv"),
                               "--input-after", str(tmp_path / "after" / "spectrum.csv"),
                               "--b-gauss", "83.0693",
                               "--out", str(tmp_path), "--name", "cmp")
        assert code == 0
        assert "merged_central_pair=true" in out
        theta_after = float(out.split("theta_after_deg=")[1].split()[0])
        assert abs(theta_after) < 1.0
        assert (tmp_path / "cmp" / "report.txt").is_file()


class TestAutoKeys:
    """A key whose 0 means auto takes any other value as given."""

    @pytest.mark.parametrize("argv, message", [
        (("esr-solve", "--input", DEFAULT_SPECTRUM, "--b-fixed-gauss", "-5"),
         "b_fixed must be finite and > 0, got -5"),
        (("ramp-infer", "--ramp-rate-hz-s", "-5000"), "ramp_rate must be > 0"),
        (("esr-broadened", "--grid-points", "2001", "--threshold", "-0.01"),
         "threshold must be > 0"),
        (("esr-forward", "--grid-points", "2001", "--grid-max-hz", "-1"),
         "need f_max > f_min"),
    ])
    def test_negative_value_reaches_the_library_check(self, tmp_path, capsys, forward_spectra,
                                                      argv, message):
        args = [str(forward_spectra[0]) if a == DEFAULT_SPECTRUM else a for a in argv]
        code, out, err = run_cli(capsys, *args, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_negative_seed_displacement_is_the_mirrored_seed(self, tmp_path, capsys):
        ramp = ["ramp-infer", "--omega-start-hz", "3100", "--omega-end-hz", "2800",
                "--ramp-rate-hz-s", "5000", "--out", str(tmp_path)]
        for name, seed in (("minus", "-1e-6"), ("plus", "1e-6"), ("auto", "0")):
            code, _, err = run_cli(capsys, *ramp, "--name", name,
                                   "--seed-displacement-m", seed)
            assert code == 0, err
        # the axial motion is linear in the seed: -1e-6 m escapes at the step 1e-6 m does
        result = {name: (tmp_path / name / "ramp.txt").read_bytes()
                  for name in ("minus", "plus", "auto")}
        assert result["minus"] == result["plus"] != result["auto"]

    def test_negative_grid_minimum_is_the_first_frequency(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "esr-forward", "--grid-points", "2001",
                               "--grid-min-hz", "-1e6", "--out", str(tmp_path))
        assert code == 0, err
        first = (tmp_path / "esr-forward" / "spectrum.csv").read_text().splitlines()[1]
        assert float(first.split(",")[0]) == -1e6

    def test_broadened_spectrum_without_a_dip_has_no_field_estimate(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "esr-broadened", "--hwhm-hz", "1e-300",
                                 "--grid-points", "2001", "--out", str(tmp_path))
        assert code == 0, err
        assert "max_depth=0 " in out and "b_estimate_gauss=nan" in out


class TestForwardSolveGridSample:
    # sampled from the recovery-grid corners, including fully degenerate
    # orientations whose spectra collapse to 2-3 resolved dips
    @pytest.mark.parametrize("theta_deg,phi_deg,b", [
        (0.0, 45.0, 20.0), (0.0, 90.0, 80.0), (45.0, 90.0, 50.0),
        (90.0, 45.0, 80.0), (15.0, 30.0, 50.0), (165.0, 75.0, 20.0),
    ])
    def test_forward_then_solve_succeeds(self, tmp_path, capsys, recwarn,
                                         theta_deg, phi_deg, b):
        code, _, _ = run_cli(capsys, "esr-forward", "--theta-deg", str(theta_deg),
                             "--phi-deg", str(phi_deg), "--b-gauss", str(b),
                             "--out", str(tmp_path), "--name", "f")
        assert code == 0
        code, out, _ = run_cli(capsys, "esr-solve",
                               "--input", str(tmp_path / "f" / "spectrum.csv"),
                               "--out", str(tmp_path), "--name", "s")
        assert code == 0
        b_est = float(out.split("b_gauss=")[1].split()[0])
        assert b_est == pytest.approx(b, rel=0.02)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _, _ = run_cli(capsys, "esr-forward", "--out", str(tmp_path),
                                 "--name", name)
            assert code == 0
        spec_a = (tmp_path / "a" / "spectrum.csv").read_bytes()
        spec_b = (tmp_path / "b" / "spectrum.csv").read_bytes()
        assert spec_a == spec_b

    def test_trajectories_are_byte_identical(self, tmp_path, capsys):
        for name in ("ta", "tb"):
            code, _, _ = run_cli(capsys, "trap-sim", "--t-end-s", "2e-3",
                                 "--out", str(tmp_path), "--name", name)
            assert code == 0
        assert ((tmp_path / "ta" / "trajectory.csv").read_bytes()
                == (tmp_path / "tb" / "trajectory.csv").read_bytes())


def _files(run_dir):
    return {p.name: p.read_bytes() for p in run_dir.iterdir()}


class TestRunDirectories:
    def test_other_subcommand_in_run_directory_exits_1(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "radiation", "--out", str(tmp_path), "--name", "x")
        assert code == 0
        before = _files(tmp_path / "x")
        code, out, err = run_cli(capsys, "trap-sim", "--t-end-s", "1e-4",
                                 "--out", str(tmp_path), "--name", "x")
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "'radiation'" in err
        assert _files(tmp_path / "x") == before

    def test_same_subcommand_overwrites(self, tmp_path, capsys):
        for power in ("1e-3", "2e-3"):
            code, _, _ = run_cli(capsys, "radiation", "--power-w", power,
                                 "--out", str(tmp_path), "--name", "x")
            assert code == 0
        assert read_key_values(tmp_path / "x" / "resolved.cfg")["power_w"] == "0.002"

    @pytest.mark.parametrize("argv", [("radiation",), ("stability-scan", "--n-scan", "7")])
    def test_resolved_cfg_replays_the_run(self, tmp_path, capsys, argv):
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path), "--name", "first")
        assert code == 0
        code, _, _ = run_cli(capsys, argv[0], "--config",
                             str(tmp_path / "first" / "resolved.cfg"),
                             "--out", str(tmp_path), "--name", "replay")
        assert code == 0
        assert _files(tmp_path / "replay") == _files(tmp_path / "first")

    def test_input_path_with_hash_replays(self, tmp_path, capsys, forward_spectra):
        spectrum = tmp_path / "a#b" / "spectrum.csv"
        spectrum.parent.mkdir()
        spectrum.write_bytes(forward_spectra[0].read_bytes())
        code, _, err = run_cli(capsys, "esr-solve", "--input", str(spectrum),
                               "--out", str(tmp_path), "--name", "first")
        assert code == 0, err
        code, _, err = run_cli(capsys, "esr-solve", "--config",
                               str(tmp_path / "first" / "resolved.cfg"),
                               "--out", str(tmp_path), "--name", "replay")
        assert code == 0, err
        assert ((tmp_path / "replay" / "solution.txt").read_bytes()
                == (tmp_path / "first" / "solution.txt").read_bytes())

    @pytest.mark.parametrize("argv, named", [
        (["--n-cells", "20"], "unrecognized arguments: --n-cells 20"),
        (["--config", "<old resolved.cfg>"],
         "unknown config key 'n_cells' for subcommand 'esr-broadened'"),
    ])
    def test_removed_cell_count_exits_1_with_one_line(self, tmp_path, capsys, argv, named):
        # the closed-form broadening has no cells; a config written when it
        # had them names the key
        old = tmp_path / "resolved.cfg"
        old.write_text("subcommand = esr-broadened\ngrid_points = 2001\nn_cells = 400\n")
        argv = [str(old) if a == "<old resolved.cfg>" else a for a in argv]
        code, out, err = run_cli(capsys, "esr-broadened", *argv, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err == f"error: {named}\n"
        assert not (tmp_path / "esr-broadened").exists()

    def test_config_for_other_subcommand_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("subcommand = radiation\n")
        code, out, err = run_cli(capsys, "trap-sim", "--config", str(cfg),
                                 "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert "'radiation'" in err and "unknown config key" not in err
        assert not (tmp_path / "trap-sim").exists()


@pytest.fixture(scope="module")
def forward_spectra(tmp_path_factory):
    root = tmp_path_factory.mktemp("spectra")
    assert run(["esr-forward", "--out", str(root), "--name", "before"]) == 0
    assert run(["esr-forward", "--theta-deg", "0", "--out", str(root), "--name", "after"]) == 0
    return root / "before" / "spectrum.csv", root / "after" / "spectrum.csv"


_ARTIFACTS = {
    "trap-sim": ({"trajectory.csv"}, ["--t-end-s", "1e-4"]),
    "stability-scan": ({"scan.csv", "boundary.txt"}, ["--n-scan", "3"]),
    "ramp-infer": ({"ramp.txt"}, []),
    "radiation": ({"radiation.txt"}, []),
    "angular-sim": ({"angle.csv"}, ["--t-end-s", "1e-3"]),
    "esr-forward": ({"spectrum.csv", "dips.csv"}, ["--grid-points", "2001"]),
    "esr-broadened": ({"spectrum.csv"}, ["--grid-points", "2001"]),
    "esr-solve": ({"solution.txt"}, []),
    "esr-compare": ({"report.txt"}, ["--b-gauss", "83.06930964009"]),
}


@pytest.mark.parametrize("sub", sorted(_ARTIFACTS))
def test_each_subcommand_writes_exactly_its_artifacts(tmp_path, capsys, forward_spectra, sub):
    expected, argv = _ARTIFACTS[sub]
    before, after = forward_spectra
    if sub == "esr-solve":
        argv = ["--input", str(before)]
    elif sub == "esr-compare":
        argv = argv + ["--input-before", str(before), "--input-after", str(after)]
    code, _, err = run_cli(capsys, sub, *argv, "--out", str(tmp_path))
    assert code == 0, err
    run_dir = tmp_path / sub
    names = {p.name for p in run_dir.iterdir()}
    assert names == expected | {"resolved.cfg"}
    for name in names:
        if name.endswith((".txt", ".cfg")):  # the key = value artifacts
            assert read_key_values(run_dir / name)
    assert read_key_values(run_dir / "resolved.cfg")["subcommand"] == sub
