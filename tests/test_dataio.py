import math

import numpy as np
import pytest

from levitaq import dataio
from levitaq.dataio import (ingest_spectrum, read_key_values, solution_lines,
                            write_angle_trajectory, write_key_values, write_rotation_report,
                            write_rows, write_solution, write_spectrum, write_trajectory)
from levitaq.errors import ConfigError
from levitaq.esr import Spectrum
from levitaq.rotation import AngleTrajectory
from levitaq.solver import EsrSolution, RotationReport
from levitaq.trap import Trajectory


def sample_spectrum(n=101):
    f = np.linspace(2.8e9, 2.9e9, n)
    v = 1.0 - 0.05 * np.exp(-((f - 2.85e9) / 5e6) ** 2)
    return Spectrum(frequencies=f, values=v)


class TestSpectrumRoundTrip:
    def test_write_then_ingest_preserves_data(self, tmp_path):
        s = sample_spectrum()
        path = tmp_path / "spectrum.csv"
        write_spectrum(path, s)
        assert path.read_text().startswith("frequency_hz,contrast\n")
        back = ingest_spectrum(path)
        np.testing.assert_allclose(back.frequencies, s.frequencies, rtol=1e-15)
        np.testing.assert_allclose(back.values, s.values, rtol=1e-15)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ingest_spectrum(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("freq,val\n1,0.5\n2,0.5\n")
        with pytest.raises(ConfigError, match="header"):
            ingest_spectrum(p)

    def test_descending_frequencies_rejected(self, tmp_path):
        p = tmp_path / "desc.csv"
        p.write_text("frequency_hz,contrast\n3.0,1.0\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(ConfigError, match="ascending"):
            ingest_spectrum(p)

    def test_out_of_range_value_names_row(self, tmp_path):
        p = tmp_path / "range.csv"
        p.write_text("frequency_hz,contrast\n1.0,1.0\n2.0,1.2\n3.0,1.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            ingest_spectrum(p)

    def test_non_numeric_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("frequency_hz,contrast\n1.0,abc\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            ingest_spectrum(p)

    def test_non_numeric_value_names_the_files_own_line(self, tmp_path):
        p = tmp_path / "blank_lead.csv"
        p.write_text("\n\nfrequency_hz,contrast\n1.0,0.5\n2.0,abc\n")
        with pytest.raises(ConfigError, match="line 5: non-numeric value"):
            ingest_spectrum(p)

    def test_unordered_frequency_names_the_files_own_line(self, tmp_path):
        p = tmp_path / "blank_inside.csv"
        p.write_text("frequency_hz,contrast\n1.0,0.5\n\n3.0,0.5\n2.0,0.5\n")
        with pytest.raises(ConfigError, match="line 5: frequencies must be strictly ascending"):
            ingest_spectrum(p)

    def test_nan_frequency_rejected_naming_its_line(self, tmp_path):
        p = tmp_path / "nan_freq.csv"
        p.write_text("frequency_hz,contrast\n1.0,0.5\nnan,0.5\n3.0,0.5\n")
        with pytest.raises(ConfigError, match="line 3: frequencies must be strictly ascending"):
            ingest_spectrum(p)

    def test_format_errors_take_precedence_over_order(self, tmp_path):
        p = tmp_path / "both.csv"
        p.write_text("frequency_hz,contrast\n2.0,0.5\n1.0,0.5\n3.0,x\n")
        with pytest.raises(ConfigError, match="line 4: non-numeric value"):
            ingest_spectrum(p)

    def test_non_uniform_grid_resampled_with_warning(self, tmp_path):
        # dip at 2.85e9 on a grid with two different spacings
        f = np.concatenate([np.arange(2.80e9, 2.85e9, 1e6),
                            np.arange(2.85e9, 2.90e9, 2e6)])
        v = 1.0 - 0.05 / (1.0 + ((f - 2.85e9) / 4e6) ** 2)
        p = tmp_path / "nonuni.csv"
        lines = ["frequency_hz,contrast"]
        lines += [f"{fi:.17g},{vi:.17g}" for fi, vi in zip(f, v)]
        p.write_text("\n".join(lines) + "\n")
        with pytest.warns(UserWarning, match="resampling"):
            s = ingest_spectrum(p)
        steps = np.diff(s.frequencies)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
        dip = s.frequencies[np.argmin(s.values)]
        assert abs(dip - 2.85e9) <= s.grid_step


class TestTrajectoryFiles:
    def test_trajectory_columns(self, tmp_path):
        t = np.linspace(0.0, 1e-3, 11)
        traj = Trajectory(t=t, positions=np.ones((11, 3)) * 1e-6,
                          velocities=np.zeros((11, 3)))
        path = tmp_path / "traj.csv"
        write_trajectory(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x,y,z,vx,vy,vz"
        assert len(lines) == 12
        assert len(lines[1].split(",")) == 7

    def test_angle_columns(self, tmp_path):
        t = np.linspace(0.0, 1e-3, 5)
        traj = AngleTrajectory(t=t, alpha=np.full(5, 0.05),
                               alpha_dot=np.zeros(5), drive_freq=2 * math.pi * 5e3)
        path = tmp_path / "angle.csv"
        write_angle_trajectory(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,alpha,alpha_dot"
        assert len(lines) == 6


class TestSolutionFiles:
    def _solution(self):
        return EsrSolution(theta=math.atan(2.0), phi=0.61, b_gauss=83.0,
                           residual_rms_hz=12.0,
                           degeneracy_class=[(math.atan(2.0), 0.61), (0.2, 0.61)],
                           method="equidistant")

    def test_solution_fields_present(self, tmp_path):
        path = tmp_path / "sol.txt"
        write_solution(path, self._solution())
        text = path.read_text()
        for key in ("theta_deg", "phi_deg", "b_gauss", "residual_hz",
                    "degeneracy_deg", "method"):
            assert key in text

    def test_rotation_report_fields_present(self, tmp_path):
        sol = self._solution()
        report = RotationReport(before=sol, after=sol, extremal_shift_hz=-4e7,
                                extremal_match=False, merged_central_pair=True)
        path = tmp_path / "report.txt"
        write_rotation_report(path, report)
        text = path.read_text()
        for key in ("before_theta_deg", "after_theta_deg", "extremal_shift_hz",
                    "extremal_match", "merged_central_pair"):
            assert key in text

    def test_solution_lines_prefixed(self):
        lines = solution_lines(self._solution(), prefix="x_")
        assert all(line.startswith("x_") for line in lines)


class TestTextWriters:
    def test_key_values_format_and_read_back(self, tmp_path):
        path = tmp_path / "kv.txt"
        write_key_values(path, [("x", 0.1), ("y", np.float64(1e-300)), ("n", 7),
                                ("ok", True), ("flag", np.bool_(False)), ("name", "a b")])
        assert path.read_text() == ("x = 0.10000000000000001\ny = 1e-300\n"
                                    "n = 7\nok = true\nflag = false\nname = a b\n")
        kv = read_key_values(path)
        assert float(kv["x"]) == 0.1 and float(kv["y"]) == 1e-300
        assert kv["name"] == "a b"

    def test_read_key_values_rejects_duplicates_and_bare_lines(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigError, match="line 2: duplicate key 'a'"):
            read_key_values(path)
        path.write_text("# comment\n\nnot a pair\n")
        with pytest.raises(ConfigError, match="line 3: expected 'key = value'"):
            read_key_values(path)

    def test_hash_starts_a_comment_only_at_line_start_or_after_space(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("#a = 1\ninput = runs/a#b/spectrum.csv  # note\n"
                        "b = 2 #c = 3\n\t# d = 4\n")
        assert read_key_values(path) == {"input": "runs/a#b/spectrum.csv", "b": "2"}

    def test_failed_write_keeps_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, "a,b", [[1.0, 2.0], [3.0, 4.0]])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_rows(path, "a,b", [[5.0, 6.0], [7.0, "not a number"]])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    @pytest.mark.parametrize("rows", [0, 1, dataio._BLOCK - 1, dataio._BLOCK,
                                      dataio._BLOCK + 1, 2 * dataio._BLOCK + 1])
    def test_rows_written_in_blocks_equal_one_join(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        columns = [rng.normal(size=rows), rng.uniform(size=rows) * 1e9, np.arange(rows) * 0.1]
        path = tmp_path / "rows.csv"
        write_rows(path, "a,b,c", columns)
        lines = ["a,b,c"] + ["%.17g,%.17g,%.17g" % row
                             for row in zip(*(c.tolist() for c in columns))]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("pairs", [0, 1, dataio._BLOCK, dataio._BLOCK + 1])
    def test_key_values_written_in_blocks_equal_one_join(self, tmp_path, pairs):
        path = tmp_path / "kv.txt"
        write_key_values(path, [(f"k{i}", i * 0.5) for i in range(pairs)])
        lines = [f"k{i} = {'%.17g' % (i * 0.5)}" for i in range(pairs)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
