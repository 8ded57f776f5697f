"""Edge-value gate for the trap subcommands.

Every run of ``trap-sim``, ``stability-scan`` and ``ramp-infer`` with one to
three keys set to an edge value (0, the float extremes, +-1, +-1e6, +-1e9,
+-1e300; -1 to 2 for integers) or to an ordinary value must end in a
documented exit code.  A failure prints one line that names the error class
and carries no raw numpy text; a success leaves only finite numbers in its
artifacts.  The keys that set the amount of work start from a small run and
take only values that keep it small or that are rejected before any work.
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

# a small run of each subcommand: a 200-step trajectory, a three-point scan
# and a ramp over 300 Hz at a fixed rate (33k steps) that the default
# particle does not survive
SMALL_RUN = {
    "trap-sim": {"t_end_s": 2e-4},
    "stability-scan": {"n_scan": 3},
    "ramp-infer": {"omega_start_hz": 3100.0, "omega_end_hz": 2800.0,
                   "ramp_rate_hz_s": 5000.0},
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
    artifacts = [path for path in run_dir.iterdir() if path.name != "resolved.cfg"]
    assert artifacts
    for path in artifacts:
        if path.suffix == ".csv":
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(table)), path.name
        else:
            for key, text in read_key_values(path).items():
                assert math.isfinite(float(text)), (path.name, key, text)


@pytest.mark.parametrize("sub", sorted(SMALL_RUN))
@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_edge_values_exit_with_a_documented_code(tmp_path, capsys, sub, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(cli.KEYSPECS[sub])),
                              min_size=1, max_size=3, unique=True), label="keys")
    drawn = {key: data.draw(values(sub, key), label=key) for key in keys}
    argv = [sub]
    for key, value in {**SMALL_RUN[sub], **drawn}.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
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
