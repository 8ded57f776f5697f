"""The three workloads: a CLI session, a trap ensemble and a spectrum-fit batch.

Each workload runs in rounds.  A round is a fixed list of operations whose
inputs come from ``numpy.random.default_rng([seed, round])``; every round has
the same composition, so the share of failed operations does not depend on
the seed or on how many rounds fit in a run.  Each operation is timed on its
own and its output is checked against ``reference`` before the next starts.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

TWO_PI = 2.0 * math.pi
BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    group: str  # operations of one group do the same work; timings are per group


class Workload:
    # operation kinds that fail today because of a known fault in levitaq; a
    # failure of any other kind makes the run incorrect
    known_faults: frozenset = frozenset()
    in_process = True  # False: levitaq runs in child processes only

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.tracer = None
        self.problems: list[str] = []

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def timed(self, kind: str, fn, check, group: str = "") -> Op:
        """Time fn(), then check its result outside the timed region."""
        if self.tracer is not None:
            self.tracer.op += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an error fails this operation, not the run
            dt = time.perf_counter() - t0
            reason = f"raised {exc!r}"
        else:
            dt = time.perf_counter() - t0
            reason = check(out)
        if reason:
            self.problems.append(f"{kind}: {reason}")
        return Op(kind, dt, not reason, f"{kind}{group}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def summary(self, ops: list[Op]) -> dict[str, float]:
        """Workload-level per-layer figures; 0 where a workload has none."""
        return dict.fromkeys(SUMMARY_METRICS, 0.0)


SUBCOMMANDS = ("trap-sim", "stability-scan", "ramp-infer", "radiation", "angular-sim",
               "esr-forward", "esr-broadened", "esr-solve", "esr-compare")
SUMMARY_METRICS = [f"cli.{sub}_s" for sub in SUBCOMMANDS] + [
    "particles_per_s", "stability_points_per_s", "fits_per_s", "fit_p90_s"]


def _good(ops, kind_prefix):
    return [o.seconds for o in ops if o.ok and o.kind.startswith(kind_prefix)]


# ---- cli_session -------------------------------------------------------------

CLI_DEFAULT_TRUTH = dict(theta=math.atan(2.0), phi=math.radians(35.226937177152),
                         b=83.06930964009)
MALFORMED = (("dt0", ["--dt-s", "0"]), ("tinf", ["--t-end-s", "inf"]),
             ("qnan", ["--charge-e", "nan"]))


def _kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        k, _, v = line.partition(" = ")
        out[k] = v
    return out


def _summary_value(stdout: str, key: str) -> float:
    for tok in stdout.split():
        if tok.startswith(key + "="):
            return float(tok.split("=", 1)[1])
    raise ValueError(f"{key} missing from summary")


def _class_members(text: str) -> list[tuple[float, float]]:
    return [tuple(float(x) for x in m.strip(" ()").split(",")) for m in text.split(";")]


def _check_solution(kv: dict, prefix: str, bhat: np.ndarray, b_gauss: float) -> str:
    sol = ref.unit_vector(math.radians(float(kv[prefix + "theta_deg"])),
                          math.radians(float(kv[prefix + "phi_deg"])))
    if ref.class_distance_deg(bhat, sol) > 0.5:
        return f"{prefix}solution outside the true degeneracy class"
    if not ref.in_reported_class(bhat, _class_members(kv[prefix + "degeneracy_deg"]), 0.5):
        return f"{prefix}truth not in the reported class"
    if abs(float(kv[prefix + "b_gauss"]) - b_gauss) > 0.01 * b_gauss:
        return f"{prefix}b_gauss off by more than 1%"
    return ""


class CliSession(Workload):
    """The README session, one fresh ``python -m levitaq.cli`` per invocation."""

    known_faults = frozenset(f"cli.malformed.{name}" for name, _ in MALFORMED)
    in_process = False

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _invoke(self, run_name: str, argv: list[str], traced: bool):
        cmd = [sys.executable]
        span_file = None
        if traced:
            span_file = self.work / f"{run_name}.spans.json"
            cmd += [str(BENCH_DIR / "trace_child.py"), str(span_file)]
        else:
            cmd += ["-m", "levitaq.cli"]
        cmd += argv + ["--out", str(self.work), "--name", run_name]
        if traced:
            idx = self.tracer.open("cli.process")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=150)
        finally:
            if traced:
                self.tracer.close(idx)
        if span_file is not None and span_file.is_file():
            self.tracer.adopt(json.loads(span_file.read_text()), idx)
        return proc, self.work / run_name

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        jobs = [(s, []) for s in ("trap-sim", "stability-scan", "ramp-infer", "radiation",
                                   "angular-sim", "esr-forward", "esr-broadened")]
        jobs.append(("esr-forward", ["--theta-deg", "0"]))
        jobs += [(f"malformed.{name}", args) for name, args in MALFORMED]
        # the seed orders the invocations; the spectra the solvers read are
        # written earlier in the same round
        jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        tail = [("esr-solve", []), ("esr-compare", [])]
        jobs += [tail[i] for i in rng.permutation(2)]

        ops = []
        fwd = {}
        for i, (job, extra) in enumerate(jobs):
            run_name = f"r{r}-{i}-{job}"
            if job.startswith("malformed."):
                argv = ["trap-sim"] + extra
            elif job == "esr-solve":
                argv = [job, "--input", str(fwd["default"] / "spectrum.csv")]
            elif job == "esr-compare":
                argv = [job, "--input-before", str(fwd["default"] / "spectrum.csv"),
                        "--input-after", str(fwd["theta0"] / "spectrum.csv"),
                        "--b-gauss", "83.06930964009"]
            else:
                argv = [job] + extra
            if job == "esr-forward":
                fwd["theta0" if extra else "default"] = self.work / run_name
            check = getattr(self, "_check_" + job.split(".")[0].replace("-", "_"))
            # malformed invocations stay out of the timing metrics, the
            # per-layer ones included: they run untraced
            traced = self.tracer is not None and not job.startswith("malformed.")
            ops.append(self.timed(f"cli.{job}", lambda: self._invoke(run_name, argv, traced),
                                  lambda res: self._check(check, res, extra),
                                  ".theta0" if job == "esr-forward" and extra else ""))
        return ops

    @staticmethod
    def _check(check, res, extra) -> str:
        proc, run_dir = res
        if check is CliSession._check_malformed:
            return check(proc)
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        try:
            return check(proc.stdout, run_dir, extra)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    @staticmethod
    def _check_malformed(proc) -> str:
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        if proc.returncode not in (1, 2, 3):
            return f"exit code {proc.returncode} (expected 1, 2 or 3)"
        if len(lines) != 1 or "Traceback" in proc.stderr:
            return f"{len(lines)}-line error output (expected a one-line message)"
        return ""

    @staticmethod
    def _check_trap_sim(stdout, run_dir, extra) -> str:
        data = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1)
        m = ref.sphere_mass(9.6e-6, 3510.0)
        f_ref = ref.secular_hz(5000.0 * ref.E_CHARGE, m, 4000.0, 0.2, 5000.0, 50e-6)
        f_fft = ref.fft_peak_hz(data[:, 0], data[:, 3], 2500.0)
        if abs(f_fft - f_ref) > 0.05 * f_ref:
            return f"trajectory secular peak {f_fft:.1f} Hz vs formula {f_ref:.1f} Hz"
        return ""

    @staticmethod
    def _check_stability_scan(stdout, run_dir, extra) -> str:
        qb = float(_kv(run_dir / "boundary.txt")["q_boundary"])
        q_root = ref.boundary_q(0.0)
        if abs(qb - q_root) > 1e-4:
            return f"q_boundary {qb:.6f} vs Mathieu root {q_root:.7f}"
        scan = np.loadtxt(run_dir / "scan.csv", delimiter=",", skiprows=1)
        for q, _, flag in scan:
            a0, b1 = ref.first_region_edges(q)
            if min(abs(a0), abs(b1)) < 1e-6:
                continue  # a = 0 sits on an edge: marginal, either flag is right
            if bool(flag) != (a0 < 0.0 < b1):
                return f"scan flag {int(flag)} at q={q:.4f} disagrees with Mathieu edges"
        return ""

    @staticmethod
    def _check_ramp_infer(stdout, run_dir, extra) -> str:
        qm = float(_kv(run_dir / "ramp.txt")["charge_to_mass_c_kg"])
        true = 5000.0 * ref.E_CHARGE / ref.sphere_mass(9.6e-6, 3510.0)
        if abs(qm - true) > 0.05 * true:
            return f"charge-to-mass {qm:.4g} vs configured {true:.4g}"
        return ""

    @staticmethod
    def _check_radiation(stdout, run_dir, extra) -> str:
        kv = _kv(run_dir / "radiation.txt")
        f_ref = ref.radiation_force(1e-3, 0.2, 0.8788)
        dx_ref = f_ref / (ref.sphere_mass(9.6e-6, 3510.0) * (TWO_PI * 1000.0) ** 2)
        if abs(float(kv["force_n"]) - f_ref) > 1e-9 * f_ref:
            return "radiation force differs from 2RP/c sin(t)/t"
        if abs(float(kv["displacement_m"]) - dx_ref) > 1e-9 * dx_ref:
            return "displacement differs from F/(m w^2)"
        return ""

    @staticmethod
    def _check_angular_sim(stdout, run_dir, extra) -> str:
        lib = _summary_value(stdout, "libration_hz")
        data = np.loadtxt(run_dir / "angle.csv", delimiter=",", skiprows=1)
        f_fft = ref.fft_peak_hz(data[:, 0], data[:, 1], 2500.0)
        for name, f in (("reported", lib), ("angle.csv", f_fft)):
            if abs(f - 50.0) > 0.05 * 50.0:
                return f"{name} libration {f:.2f} Hz vs omega_alpha 50 Hz"
        return ""

    @staticmethod
    def _check_esr_forward(stdout, run_dir, extra) -> str:
        theta = 0.0 if extra else CLI_DEFAULT_TRUTH["theta"]
        bhat = ref.unit_vector(theta, CLI_DEFAULT_TRUTH["phi"])
        dips = ref.dips_hz(bhat, CLI_DEFAULT_TRUTH["b"])
        got = np.loadtxt(run_dir / "dips.csv", skiprows=1)
        if np.max(np.abs(np.sort(got) - dips)) > 1.0:
            return "dips.csv differs from D +- gamma B |n.b|"
        spec = np.loadtxt(run_dir / "spectrum.csv", delimiter=",", skiprows=1)
        f, v = spec[:, 0], spec[:, 1]
        area = float(np.trapezoid(1.0 - v, f))
        want = ref.lorentzian_area(dips, 10e6, 0.03, f[0], f[-1])
        if abs(area - want) > 1e-3 * want:
            return f"dip area {area:.6g} vs closed form {want:.6g}"
        return ""

    @staticmethod
    def _check_esr_broadened(stdout, run_dir, extra) -> str:
        b_est = _summary_value(stdout, "b_estimate_gauss")
        if abs(b_est - 30.0) > 0.1 * 30.0:
            return f"field estimate {b_est:.3f} G vs 30 G"
        spec = np.loadtxt(run_dir / "spectrum.csv", delimiter=",", skiprows=1)
        f, v = spec[:, 0], spec[:, 1]
        area = float(np.trapezoid(1.0 - v, f))
        bhat = ref.unit_vector(math.radians(45.0), math.radians(54.735610317245))
        axis = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        want = ref.broadened_area(bhat, axis, 30.0, 10e6, 0.03, f[0], f[-1])
        if abs(area - want) > 1e-3 * want:
            return f"dip area {area:.6g} vs arcsine-averaged closed form {want:.6g}"
        return ""

    @staticmethod
    def _check_esr_solve(stdout, run_dir, extra) -> str:
        t = CLI_DEFAULT_TRUTH
        return _check_solution(_kv(run_dir / "solution.txt"), "",
                               ref.unit_vector(t["theta"], t["phi"]), t["b"])

    @staticmethod
    def _check_esr_compare(stdout, run_dir, extra) -> str:
        t = CLI_DEFAULT_TRUTH
        kv = _kv(run_dir / "report.txt")
        if kv["merged_central_pair"] != "true":
            return "merged_central_pair is not true"
        return (_check_solution(kv, "before_", ref.unit_vector(t["theta"], t["phi"]), t["b"])
                or _check_solution(kv, "after_", ref.unit_vector(0.0, t["phi"]), t["b"]))

    def summary(self, ops):
        out = super().summary(ops)
        for sub in SUBCOMMANDS:
            times = _good(ops, f"cli.{sub}")
            out[f"cli.{sub}_s"] = float(np.median(times)) if times else 0.0
        return out


# ---- trap_ensemble ---------------------------------------------------------

TRAP = dict(v_ac=4000.0, drive_hz=5000.0, z0=50e-6, eta=0.2)
N_PARTICLES = 6            # one per q stratum, every round
# axial q at the 5 kHz drive: above 0.2 the 2 kHz ramp end is clearly
# unstable; up to 0.4 the lowest-order secular formula holds within 5%
Q_RANGE = (0.2, 0.4)
DIAMETER_RANGE = (6e-6, 12e-6)
N_MAP = 16                 # Floquet (a, q) map points per round
MAP_A, MAP_Q = (-0.4, 0.8), (0.05, 1.4)
EDGE_MARGIN = 0.02         # map points this close (in a) to a0(q) or b1(q) are redrawn
N_BOUNDARY = 2             # find_stability_boundary searches per round
BOUNDARY_A = (0.05, 0.6)
BOUNDARY_TOL = 1e-4
# Floquet evaluations per stability operation; a bisection over (0, 1.5) at
# BOUNDARY_TOL evaluates 2 + 14 points
POINTS_PER_STABILITY_OP = N_MAP + N_BOUNDARY * (2 + math.ceil(math.log2(1.5 / BOUNDARY_TOL)))
SECULAR_PERIODS = 24


class TrapEnsemble(Workload):
    """Charged spheres in the needle trap, plus a Floquet (a, q) stability map."""

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        from levitaq import core, spectral, trap
        self.core, self.spectral, self.trap = core, spectral, trap
        self.trap_cfg = trap.TrapConfig(v_ac=TRAP["v_ac"], drive_freq=TWO_PI * TRAP["drive_hz"],
                                        z0=TRAP["z0"], eta=TRAP["eta"])

    def round(self, r):
        rng = self.rng(r)
        ops = []
        width = (Q_RANGE[1] - Q_RANGE[0]) / N_PARTICLES
        for k in rng.permutation(N_PARTICLES):
            q = Q_RANGE[0] + (k + rng.random()) * width
            d = rng.uniform(*DIAMETER_RANGE)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            ops.append(self._particle(q, d, sign, k))
        ops.append(self._stability(rng))
        return ops

    def _particle(self, q_target, diameter, sign, stratum):
        t = TRAP
        mass = ref.sphere_mass(diameter, 3510.0)
        n_e = round(q_target * mass * (TWO_PI * t["drive_hz"]) ** 2 * t["z0"] ** 2
                    / (2.0 * t["v_ac"] * t["eta"]) / ref.E_CHARGE)
        charge = sign * n_e * ref.E_CHARGE
        q_ref = ref.mathieu_q(charge, mass, t["v_ac"], t["eta"], t["drive_hz"], t["z0"])
        f_ref = ref.secular_hz(charge, mass, t["v_ac"], t["eta"], t["drive_hz"], t["z0"])
        a0, b1 = ref.first_region_edges(q_ref)
        trap, cfg = self.trap, self.trap_cfg

        def run():
            p = self.core.Particle.sphere(diameter=diameter, density=3510.0,
                                          total_charge=charge)
            q = trap.mathieu_q(cfg, p)
            floq = trap.floquet_stability(0.0, q)
            traj = trap.integrate_motion(cfg, p, t_end=SECULAR_PERIODS / f_ref, dt=1e-6,
                                         x0=(0.0, 0.0, 1e-6))
            w = self.spectral.dominant_frequency(traj.t, traj.positions[:, 2],
                                                 f_max=t["drive_hz"] / 2.0)
            # the CLI's automatic ramp: 0.2% of the start drive per secular period
            om_start, om_end = TWO_PI * 4500.0, TWO_PI * 2000.0
            start = self.trap.TrapConfig(v_ac=cfg.v_ac, drive_freq=om_start, z0=cfg.z0,
                                         eta=cfg.eta)
            rate = 0.002 * om_start / (TWO_PI / trap.secular_frequency(start, p))
            om_u = trap.frequency_ramp_instability(cfg, p, om_start, om_end, rate)
            qm = trap.charge_to_mass_from_instability(om_u, trap.drive_curvature(cfg))
            return q, floq, traj, w, qm

        def check(res):
            q, floq, traj, w, qm = res
            qm_ref = abs(charge) / mass
            if abs(q - q_ref) > 1e-9 * q_ref:
                return f"q {q:.6g} vs formula {q_ref:.6g}"
            if floq.stable != (a0 < 0.0 < b1):
                return f"Floquet flag {floq.stable} at q={q_ref:.4f} vs Mathieu edges"
            if traj.escaped:
                return "stable particle escaped"
            if abs(w / TWO_PI - f_ref) > 0.05 * f_ref:
                return f"secular peak {w / TWO_PI:.2f} Hz vs formula {f_ref:.2f} Hz"
            if abs(qm - qm_ref) > 0.05 * qm_ref:
                return f"ramp charge-to-mass {qm:.4g} vs {qm_ref:.4g}"
            return ""

        return self.timed("particle", run, check, f".q{stratum}")

    def _stability(self, rng):
        pts = []
        while len(pts) < N_MAP:
            a, q = rng.uniform(*MAP_A), rng.uniform(*MAP_Q)
            a0, b1 = ref.first_region_edges(q)
            if min(abs(a - a0), abs(a - b1)) >= EDGE_MARGIN:
                pts.append((a, q, a0 < a < b1))
        bounds = [(a, ref.boundary_q(a)) for a in rng.uniform(*BOUNDARY_A, N_BOUNDARY)]
        trap = self.trap

        def run():
            flags = [trap.floquet_stability(a, q).stable for a, q, _ in pts]
            found = [trap.find_stability_boundary(a, 0.0, 1.5, BOUNDARY_TOL) for a, _ in bounds]
            return flags, found

        def check(res):
            flags, found = res
            for (a, q, want), got in zip(pts, flags):
                if got != want:
                    return f"Floquet flag {got} at (a={a:.4f}, q={q:.4f}) vs Mathieu edges"
            for (a, want), got in zip(bounds, found):
                if abs(got - want) > BOUNDARY_TOL:
                    return f"boundary q={got:.6f} at a={a:.4f} vs Mathieu {want:.6f}"
            return ""

        return self.timed("stability", run, check)

    def summary(self, ops):
        part = _good(ops, "particle")
        stab = _good(ops, "stability")
        return {**super().summary(ops),
                "particles_per_s": len(part) / sum(part) if part else 0.0,
                "stability_points_per_s": (POINTS_PER_STABILITY_OP * len(stab) / sum(stab)
                                           if stab else 0.0)}


# ---- esr_fit -----------------------------------------------------------------

HWHM, CONTRAST = 10e6, 0.03
GRID_SIZES = (4001, 10001, 20001)
B_RANGE = (20.0, 120.0)
MIN_LINE_GAP_HZ = 4.0 * HWHM      # distinct lines closer than this are redrawn
COINCIDENT_HZ = 1e3               # lines closer than this are one merged line
EQUIDISTANT_PHI_DEG = (5.0, 34.0)
N_EQUIDISTANT = 8          # drawn fresh from the seed, solved in closed form
# Every solve runs at levitaq's defaults (solve_general: 24 x 12 start grid,
# 6 refined starts).  The cases that reach the multi-start solver come from
# fixed pools made from default_rng(POOL_SEED), entry i rendered on grid
# GRID_SIZES[i % 3], and every round solves every pool entry: whether the
# solver settles in a local minimum depends on the input, so which cases fail
# must not depend on --seed.  The seed orders the cases and draws the
# equidistant ones.
POOL_SEED = 1605
POOL_SIZE = {"fit.general": 64, "fit.compare": 32, "fit.merged": 8}
# pool entries that fail today, by the kind of their fault: a local minimum
# of the default multi-start (a denser one, n_refine=48, solves each), or the
# unchecked closed-form shortcut of compare_orientations on a near-equidistant
# spectrum (0.8 deg off with a 2-4 MHz residual)
KNOWN_FAILING = {
    "fit.general": dict.fromkeys((4, 5, 30, 34, 39, 50, 51), "fit.default_multistart"),
    "fit.compare": {**dict.fromkeys((1, 3, 5, 18, 25, 29, 30), "fit.default_multistart"),
                    17: "fit.compare_shortcut", 19: "fit.compare_shortcut"},
    "fit.merged.110-plane": dict.fromkeys((0, 5), "fit.default_multistart"),
}
MERGED_DIRECTIONS = {
    "110-plane": lambda g: ref.unit_vector(math.pi / 4.0, g.uniform(0.0, math.pi)),
    "xz-plane": lambda g: ref.unit_vector(0.0, g.uniform(0.0, math.pi)),
    "111": lambda g: np.ones(3) / math.sqrt(3.0),
    "100": lambda g: np.array([1.0, 0.0, 0.0]),
}


def _random_direction(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _draw(rng, direction, merged=False) -> tuple[np.ndarray, float, np.ndarray]:
    """A field direction and magnitude whose distinct lines are all at least
    MIN_LINE_GAP_HZ apart; only ``merged`` cases may have lines that coincide."""
    while True:
        bhat, b = direction(rng), rng.uniform(*B_RANGE)
        dips = ref.dips_hz(bhat, b)
        gaps = np.diff(dips)
        if np.all((gaps >= MIN_LINE_GAP_HZ) | (merged & (gaps < COINCIDENT_HZ))):
            return bhat, b, dips


def _draw_pair(rng):
    """Two eight-dip orientations at one field."""
    while True:
        bh0, b, d0 = _draw(rng, _random_direction)
        bh1 = _random_direction(rng)
        d1 = ref.dips_hz(bh1, b)
        if np.all(np.diff(d1) >= MIN_LINE_GAP_HZ):
            return (bh0, d0), b, (bh1, d1)


def solver_pools() -> dict[str, list]:
    """kind -> [(case, grid size)], the same on every run."""
    rng = np.random.default_rng(POOL_SEED)
    pools = {"fit.general": [_draw(rng, _random_direction)
                             for _ in range(POOL_SIZE["fit.general"])],
             "fit.compare": [_draw_pair(rng) for _ in range(POOL_SIZE["fit.compare"])]}
    for fam, direction in MERGED_DIRECTIONS.items():
        pools[f"fit.merged.{fam}"] = [_draw(rng, direction, merged=True)
                                      for _ in range(POOL_SIZE["fit.merged"])]
    return {kind: [(case, GRID_SIZES[i % len(GRID_SIZES)]) for i, case in enumerate(pool)]
            for kind, pool in pools.items()}


class EsrFit(Workload):
    """Peak detection plus orientation solves on spectra rendered here."""

    known_faults = frozenset({"fit.default_multistart", "fit.compare_shortcut"})

    def __init__(self, root, seed, work):
        super().__init__(root, seed, work)
        from levitaq import esr, solver
        self.esr, self.solver = esr, solver
        self.pools = solver_pools()

    def _spectrum(self, dips, n_points):
        grid = np.linspace(dips[0] - 8.0 * HWHM, dips[-1] + 8.0 * HWHM, n_points)
        return self.esr.Spectrum(frequencies=grid,
                                 values=ref.lorentzian_spectrum(grid, dips, HWHM, CONTRAST))

    def _detect(self, spectrum):
        return self.solver.detect_peaks(spectrum, min_depth=0.01, min_separation=15e6)

    def round(self, r):
        rng = self.rng(r)
        cases = []
        for kind, pool in self.pools.items():
            failing = KNOWN_FAILING.get(kind, {})
            cases += [(failing.get(i, kind), kind, *entry) for i, entry in enumerate(pool)]
        equidistant = lambda g: ref.unit_vector(math.atan(2.0), math.radians(
            g.uniform(*EQUIDISTANT_PHI_DEG)))
        for n in rng.permutation(np.resize(GRID_SIZES, N_EQUIDISTANT)):
            cases.append(("fit.equidistant", "fit.equidistant", _draw(rng, equidistant), n))
        return [self.run_case(*cases[i]) for i in rng.permutation(len(cases))]

    def run_case(self, label, kind, case, n_points):
        """Solve one case of ``kind``, counted as an operation of ``label``."""
        solver = self.solver
        grid = f".n{n_points}"
        if kind == "fit.compare":
            (bh0, d0), b, (bh1, d1) = case
            s0, s1 = self._spectrum(d0, n_points), self._spectrum(d1, n_points)
            run = lambda: solver.compare_orientations(self._detect(s0), self._detect(s1),
                                                      b_fixed=b)
            check = lambda rep: (self._check_class(rep.before, bh0, b)
                                 or self._check_class(rep.after, bh1, b))
            return self.timed(label, run, check, grid)
        bhat, b, dips = case
        spec = self._spectrum(dips, n_points)
        if kind == "fit.equidistant":
            run = lambda: solver.solve_equidistant(self._detect(spec))
        else:
            run = lambda: solver.solve_general(self._detect(spec))
        if kind.startswith("fit.merged"):
            return self.timed(label, run, lambda sol: self._check_dip_set(sol, dips), grid)
        return self.timed(label, run, lambda sol: self._check_class(sol, bhat, b), grid)

    @staticmethod
    def _check_class(sol, bhat, b) -> str:
        got = ref.unit_vector(sol.theta, sol.phi)
        dist = ref.class_distance_deg(bhat, got)
        if dist > 0.5:
            return f"solution {dist:.2f} deg from the true class (residual {sol.residual_rms_hz:.3g} Hz)"
        members = [(math.degrees(t), math.degrees(p)) for t, p in sol.degeneracy_class]
        if not ref.in_reported_class(bhat, members, 0.5):
            return "truth not in the reported degeneracy class"
        if abs(sol.b_gauss - b) > 0.01 * b:
            return f"B {sol.b_gauss:.3f} G vs {b:.3f} G"
        return ""

    @staticmethod
    def _check_dip_set(sol, dips) -> str:
        fitted = ref.dips_hz(ref.unit_vector(sol.theta, sol.phi), sol.b_gauss)
        dist = ref.hausdorff_hz(dips, fitted)
        if dist > 2e6:
            return f"fitted dips miss the observed distinct set by {dist / 1e6:.2f} MHz"
        return ""

    def summary(self, ops):
        fits = _good(ops, "fit.")
        return {**super().summary(ops),
                "fits_per_s": len(fits) / sum(fits) if fits else 0.0,
                "fit_p90_s": float(np.quantile(fits, 0.9)) if fits else 0.0}


WORKLOADS = {"cli_session": CliSession, "trap_ensemble": TrapEnsemble, "esr_fit": EsrFit}
