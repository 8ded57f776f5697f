"""levitaq benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, checks
every output against perfbench/reference.py, prints one line per operation
kind (attempted, failed, median seconds) and, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  levitaq is imported from ``src/`` of the
checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
N_SETUP = 7  # fresh interpreters timed per run; setup_s is their median
WARMUP_ROUND = 1_000_000  # round index of the uncounted warm-up round
IMPORT_METRICS = {"levitaq": "import.levitaq_s", "scipy.optimize": "import.scipy_optimize_s",
                  "numpy": "import.numpy_s"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(trace: bool) -> tuple[list[float], dict[str, float]]:
    """Wall time of fresh interpreters importing levitaq and its CLI, and
    with ``trace`` the cumulative ``-X importtime`` figure of each package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + ["-c", "import levitaq.cli"]
    times, imports = [], {v: [] for v in IMPORT_METRICS.values()}
    for _ in range(N_SETUP):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"cannot import levitaq from {ROOT / 'src'}: {proc.stderr.strip()[-300:]}")
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORT_METRICS:
                imports[IMPORT_METRICS[parts[2].strip()]].append(float(parts[1]) * 1e-6)
    return times, {k: statistics.median(v) for k, v in imports.items() if v}


def timing_metrics(ops: list) -> dict[str, float]:
    """ops_per_s and op_median_s from the median time of each group of
    passed operations, so a slow spell of the machine that covers less than
    half of a group's samples does not move them."""
    groups: dict[str, list[float]] = {}
    for o in ops:
        if o.ok:
            groups.setdefault(o.group, []).append(o.seconds)
    if not groups:
        return {"ops_per_s": 0.0, "op_median_s": 0.0}
    medians = {g: statistics.median(t) for g, t in groups.items()}
    busy = sum(len(groups[g]) * medians[g] for g in groups)
    return {"ops_per_s": sum(len(t) for t in groups.values()) / busy,
            "op_median_s": statistics.geometric_mean(medians.values())}


def run_rounds(wl, seconds: float, first_round: int, t_start: float) -> list:
    """Start rounds until ``seconds`` have passed since ``t_start``."""
    ops, r = [], first_round
    while time.monotonic() - t_start < seconds:
        ops += wl.round(r)
        r += 1
    return ops


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "levitaq" / "__init__.py").is_file():
        fail(f"no levitaq sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    setup_times, import_times = measure_setup(bool(args.trace))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, work)
        # in process, the first round runs up to a quarter slower; users of a
        # long-lived process pay that once, so one extra round warms up first
        warmup = wl.round(WARMUP_ROUND) if wl.in_process else []
        t_start = time.monotonic()
        layers = {}
        if args.trace:
            # round 0 runs twice, untraced then traced, to measure the overhead
            ops = wl.round(0)
            untraced = time.monotonic() - t_start
            tracer = Tracer()
            if wl.in_process:
                tracer.install()
            wl.tracer = tracer
            t_traced = time.monotonic()
            ops += wl.round(0)
            overhead = time.monotonic() - t_traced - untraced
            ops += run_rounds(wl, args.seconds, 1, t_start)
            layers = layer_metrics(tracer.spans, time.monotonic() - t_traced)
            layers["trace.overhead_s"] = overhead
        else:
            ops = run_rounds(wl, args.seconds, 0, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    unexpected = [o for o in warmup + ops if not o.ok and o.kind not in wl.known_faults]
    for problem in dict.fromkeys(wl.problems):
        print(f"perfbench: failed {problem}", file=sys.stderr)

    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        **timing_metrics(ops), **import_times, **layers, **wl.summary(ops),
    }
    for kind in sorted({o.kind for o in ops}):
        mine = [o for o in ops if o.kind == kind]
        ok = [o.seconds for o in mine if o.ok]
        med = f"{statistics.median(ok):.4f}" if ok else "-"
        print(f"op {kind}: attempted {len(mine)} failed {len(mine) - len(ok)} median_s {med}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": sum(not o.ok for o in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
