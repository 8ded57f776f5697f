import math

import numpy as np
import pytest

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
        with pytest.warns(UserWarning, match="general solver"):
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
        ("esr-broadened", "--n-cells", "0"),
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
    ])
    def test_malformed_numeric_input_exits_1_with_one_line(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        assert _NAMED_FAULTS.get(argv, "") in err

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
        assert "theta_deg=63.4" in out
        assert "phi_deg=35.2" in out
        assert "b_gauss=83" in out
        solution = (tmp_path / "solve" / "solution.txt").read_text()
        assert "method = equidistant" in solution

    def test_esr_forward_solve_round_trip_generic_orientation(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "esr-forward", "--theta-deg", "40",
                             "--phi-deg", "20", "--b-gauss", "50",
                             "--hwhm-hz", "3e6",
                             "--out", str(tmp_path), "--name", "fwd2")
        assert code == 0
        with pytest.warns(UserWarning):
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
    "esr-broadened": ({"spectrum.csv"}, ["--grid-points", "2001", "--n-cells", "20"]),
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
