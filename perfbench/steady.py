"""Steadiness check: repeat each workload over several seeds.

Usage (from the repository root):

    python3 perfbench/steady.py                       # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads esr_fit --seeds 5 --first-seed 11

Runs ``perfbench/run.py`` once per seed and workload, one run at a time, with
the run length of BENCHMARK.json, and prints for every end-to-end metric the
median of its values, its spread (the distance between the first and third
quartiles, ``statistics.quantiles(values, n=4)``, as a share of the median)
and its bound; a spread above a third of the bound is marked ``WIDE``.  The failed share of every run is printed too; it
must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"share={result['failed'] / result['attempted']:.6f}", flush=True)
        print(f"{workload}: {'metric':<48} {'median':>12} {'spread':>8}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = f" bound {m['bound']:.2f}" + (" WIDE" if spread > m["bound"] / 3 else "")
            print(f"{workload}: {m['name']:<48} {med:>12.6g} {spread:>8.4f}{flag}  "
                  f"[{' '.join(f'{v:.4g}' for v in values)}]")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {'same' if len(shares) == 1 else 'DIFFERS'} "
              f"in every run: {sorted(shares)}", flush=True)


if __name__ == "__main__":
    main()
