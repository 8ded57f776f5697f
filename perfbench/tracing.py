"""Spans around levitaq's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper in every levitaq module namespace that binds it (``levitaq.cli``
imports names directly, ``levitaq.rotation`` binds ``floquet_stability``),
so calls between modules are traced as well.  Spans are kept in memory as
``[name, start, end, parent, op, extra]`` on the system-wide monotonic clock,
which lets a traced child process hand its spans to the parent.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

import numpy as np

TRACED_MODULES = ("trap", "rotation", "spectral", "esr", "solver", "dataio", "cli")

# per-layer metric names of the self times; any other traced function's self
# time is summed into "<module>.other_s"
NAMED_LAYERS = (
    "cli.run", "cli.process",
    "trap.floquet_stability", "trap.find_stability_boundary", "trap.integrate_motion",
    "trap.frequency_ramp_instability",
    "rotation.integrate_angle", "rotation.libration_frequency",
    "spectral.dominant_frequency",
    "esr.synth_spectrum", "esr.rotation_broadened_spectrum", "esr.extremal_field_estimate",
    "solver.detect_peaks", "solver.solve_general", "solver.least_squares",
    "solver.solve_equidistant", "solver.compare_orientations",
    "dataio.write_trajectory", "dataio.write_angle_trajectory", "dataio.write_spectrum",
    "dataio.ingest_spectrum",
)
OTHER_LAYERS = ("trap", "rotation", "esr", "solver", "dataio")
METRIC_NAME = {"cli.run": "cli.self_s", "cli.main": "cli.self_s"}


def _file_bytes(bound) -> int:
    return os.path.getsize(bound.arguments["path"])


# counters: name -> function(bound arguments, result) -> {counter: value}
def _steps_trajectory(bound, res):
    return {"steps": int(round(float(res.t[-1]) / bound.arguments["dt"]))}


def _steps_ramp(bound, res):
    om0 = bound.arguments["omega_start"]
    dt = bound.arguments["dt"]
    if dt is None:
        dt = 2.0 * math.pi / (200.0 * om0)
    t_escape = (om0 - res) / bound.arguments["ramp_rate"]
    return {"steps": int(round(t_escape / dt))}


COUNTERS = {
    "trap.integrate_motion": _steps_trajectory,
    "trap.frequency_ramp_instability": _steps_ramp,
    "rotation.integrate_angle": _steps_trajectory,
    "esr.rotation_broadened_spectrum": lambda b, r: {
        "lorentzian_evals": 8 * b.arguments["n_cells"] * int(r.frequencies.size)},
    "solver.detect_peaks": lambda b, r: {"points": int(b.arguments["spectrum"].frequencies.size)},
    "solver.least_squares": lambda b, r: {
        "nfev": int(r.nfev), "rms": float(np.sqrt(np.mean(r.fun ** 2)))},
    "dataio.write_trajectory": lambda b, r: {
        "rows": int(b.arguments["traj"].t.size), "bytes": _file_bytes(b)},
    "dataio.write_angle_trajectory": lambda b, r: {
        "rows": int(b.arguments["traj"].t.size), "bytes": _file_bytes(b)},
    "dataio.write_spectrum": lambda b, r: {"bytes": _file_bytes(b)},
    "dataio.ingest_spectrum": lambda b, r: {"rows": int(r.frequencies.size)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def adopt(self, child_spans: list, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, par, _, extra in child_spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, op, extra])

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = counter(bound, res)
            return res

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Wrap the public functions of the traced modules, plus scipy's
        least_squares as bound in levitaq.solver."""
        import levitaq
        import levitaq.cli  # noqa: F401  (loads every traced module)
        mods = {m: sys.modules[f"levitaq.{m}"] for m in TRACED_MODULES}
        namespaces = [levitaq] + [sys.modules[k] for k in list(sys.modules)
                                  if k.startswith("levitaq.")]
        targets = []
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{attr}", obj))
        targets.append(("solver.least_squares", mods["solver"].least_squares))
        for name, fn in targets:
            if getattr(fn, "__wrapped_by_perfbench__", False):
                continue
            wrapped = self.wrap(name, fn)
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        setattr(ns, attr, wrapped)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_nesting(spans: list, wall_s: float, eps: float = 1e-6) -> float:
    """Raise unless every span lies inside its parent, siblings do not
    overlap and the top-level spans fit in ``wall_s``.  Only then are self
    times >= 0 and do self times plus the uncovered time add up to the wall
    time; spans adopted from a CLI child process are checked the same way.
    Returns the time the top-level spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[2] is None or s[2] < s[1] - eps:
            raise RuntimeError(f"span {s[0]} ends before it starts or never ends")
        children.setdefault(s[3], []).append(i)
    for parent, kids in children.items():
        end = spans[parent][1] if parent >= 0 else -math.inf
        for i in sorted(kids, key=lambda k: spans[k][1]):
            if spans[i][1] < end - eps:
                raise RuntimeError(f"span {spans[i][0]} starts before its parent "
                                   "or its previous sibling ends")
            end = spans[i][2]
        if parent >= 0 and end > spans[parent][2] + eps:
            raise RuntimeError(f"a child of span {spans[parent][0]} ends after it")
    covered = sum(spans[i][2] - spans[i][1] for i in children.get(-1, ()))
    if covered > wall_s + eps:
        raise RuntimeError(f"spans cover {covered} s of a {wall_s} s traced phase")
    return covered


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer self times, counters and ratios of one traced phase.

    Self times of all spans plus ``trace.uncovered_s`` (time inside no span)
    add up to ``wall_s`` once ``check_nesting`` has passed.
    """
    covered = check_nesting(spans, wall_s)
    selfs = self_times(spans)
    out = {METRIC_NAME.get(n, n + "_s"): 0.0 for n in NAMED_LAYERS}
    out.update({f"{m}.other_s": 0.0 for m in OTHER_LAYERS})
    counts = {k: 0 for k in (
        "trap.floquet_stability.calls", "trap.integrate_motion.steps",
        "trap.frequency_ramp_instability.steps", "rotation.integrate_angle.steps",
        "esr.rotation_broadened_spectrum.lorentzian_evals", "solver.detect_peaks.points",
        "solver.solve_general.calls", "solver.least_squares.calls", "solver.least_squares.nfev",
        "solver.equidistant_fallbacks",
        "dataio.write_trajectory.rows", "dataio.write_trajectory.bytes",
        "dataio.write_angle_trajectory.rows", "dataio.write_angle_trajectory.bytes",
        "dataio.write_spectrum.bytes", "dataio.ingest_spectrum.rows")}
    starts = at_best = 0
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    for i, (name, _, _, parent, _, extra) in enumerate(spans):
        key = METRIC_NAME.get(name, name + "_s")
        out[key if key in out else name.split(".")[0] + ".other_s"] += selfs[i]
        if f"{name}.calls" in counts:
            counts[f"{name}.calls"] += 1
        for c, v in (extra or {}).items():
            if f"{name}.{c}" in counts:
                counts[f"{name}.{c}"] += v
        if name == "solver.solve_general":
            if parent >= 0 and spans[parent][0] == "solver.solve_equidistant":
                counts["solver.equidistant_fallbacks"] += 1
            rms = [round(spans[c][5]["rms"]) for c in children.get(i, ())
                   if spans[c][0] == "solver.least_squares"]
            starts += len(rms)
            at_best += sum(r == min(rms) for r in rms) if rms else 0
    out.update(counts)
    steps_time = out["trap.integrate_motion_s"]
    out["trap.integrate_motion.steps_per_s"] = (
        counts["trap.integrate_motion.steps"] / steps_time if steps_time > 0 else 0.0)
    out["solver.starts_at_best_ratio"] = at_best / starts if starts else 0.0

    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - covered
    return out
