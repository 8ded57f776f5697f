"""Edge-value gate for every subcommand.

Every run of a subcommand with one to three numeric keys set to an edge
value (0, the float extremes, +-1, +-1e6, +-1e9, +-1e300; -1 to 2 for
integers) or to an ordinary value must end in a documented exit code.  A
failure prints one line that names the error class and carries no raw numpy
text; a success leaves only finite numbers in its artifacts.  The keys that
set the amount of work start from a small run and take only values that
keep it small or that are rejected before any work.  ``esr-solve`` and
``esr-compare`` read small spectra that ``esr-forward`` writes once.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levitaq import cli
from levitaq.dataio import read_key_values

FLOAT_EDGES = (0.0, 1e-300, -1e-300, 5e-324, 1.0, -1.0, 1e6, -1e6, 1e9, -1e9,
               1e300, -1e300)
INT_EDGES = (-1, 0, 1, 2)
# ordinary values of a key whose default is 0, spanning the keys' scales
ZERO_DEFAULT_ORDINARY = (1e-6, -1e-6, 0.1)

# placeholders for the input spectra: the default orientation, and theta = 0
BEFORE, AFTER = "<before spectrum>", "<after spectrum>"
SPECTRUM_POINTS = 4001

# a small run of each subcommand: a 200-step trajectory, a three-point scan,
# a ramp over 300 Hz at a fixed rate (33k steps) that the default particle
# does not survive, a 200-step tilt run, 2001-point spectra, and fits of
# 4001-point spectra
SMALL_RUN = {
    "trap-sim": {"t_end_s": 2e-4},
    "stability-scan": {"n_scan": 3},
    "ramp-infer": {"omega_start_hz": 3100.0, "omega_end_hz": 2800.0,
                   "ramp_rate_hz_s": 5000.0},
    "radiation": {},
    "angular-sim": {"t_end_s": 2e-4},
    "esr-forward": {"grid_points": 2001},
    "esr-broadened": {"grid_points": 2001},
    "esr-solve": {"input": BEFORE},
    "esr-compare": {"input_before": BEFORE, "input_after": AFTER, "b_gauss": 83.06930964009},
}
# t_end_s = 1 would take a million steps; every other edge of a work key is
# rejected before any work or shortens the run
WORK_EDGES = {"t_end_s": tuple(v for v in FLOAT_EDGES if v != 1.0)}

FAILURE_PREFIXES = ("error: ", "physics error: ", "solver error: ")
RAW_TEXT = ("Traceback", "encountered", "divide by zero", "Numerical result")


def values(sub: str, key: str):
    default, typ = cli.KEYSPECS[sub][key]
    base = SMALL_RUN[sub].get(key, default)
    if typ is int:
        return st.sampled_from(INT_EDGES) | st.integers(1, 5)
    edges = st.sampled_from(WORK_EDGES.get(key, FLOAT_EDGES))
    if base == 0.0:
        return edges | st.sampled_from(ZERO_DEFAULT_ORDINARY)
    return edges | st.floats(0.5, 2.0).map(lambda factor: base * factor)


def assert_finite_artifacts(run_dir: Path):
    """Every number in the artifacts is finite; words (a method name, a
    boolean) and the degeneracy class list are not checked."""
    artifacts = [path for path in run_dir.iterdir() if path.name != "resolved.cfg"]
    assert artifacts
    for path in artifacts:
        if path.suffix == ".csv":
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(table)), path.name
        else:
            for key, text in read_key_values(path).items():
                try:
                    number = float(text)
                except ValueError:
                    continue
                assert math.isfinite(number), (path.name, key, text)


@pytest.fixture(scope="module")
def spectra(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("spectra")
    for name, extra in (("before", []), ("after", ["--theta-deg", "0"])):
        assert cli.run(["esr-forward", "--grid-points", str(SPECTRUM_POINTS), *extra,
                        "--out", str(root), "--name", name]) == 0
    return {BEFORE: str(root / "before" / "spectrum.csv"),
            AFTER: str(root / "after" / "spectrum.csv")}


@pytest.mark.parametrize("sub", sorted(SMALL_RUN))
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edge_values_exit_with_a_documented_code(tmp_path, capsys, spectra, sub, data):
    numeric = sorted(key for key, (_, typ) in cli.KEYSPECS[sub].items() if typ is not str)
    keys = data.draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=3, unique=True),
                     label="keys")
    drawn = {key: data.draw(values(sub, key), label=key) for key in keys}
    argv = [sub]
    for key, value in {**SMALL_RUN[sub], **drawn}.items():
        argv += ["--" + key.replace("_", "-"), spectra.get(value, repr(value))]
    out_root = Path(tempfile.mkdtemp(dir=tmp_path))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.run(argv + ["--out", str(out_root)])
    out, err = capsys.readouterr()

    assert code in (0, 1, 2, 3), (code, err)
    assert all("\n" not in str(w.message) for w in caught)  # one "warning:" line each
    assert not any(text in err for text in RAW_TEXT), err
    lines = err.splitlines()
    if code == 0:
        assert lines == [], err
        assert out.startswith(f"{sub}: ") and out.count("\n") == 1, out
        assert_finite_artifacts(out_root / sub)
    else:
        assert out == ""
        assert len(lines) == 1 and lines[0].startswith(FAILURE_PREFIXES), err
