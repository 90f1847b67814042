"""The benchmark's workloads: inputs drawn from the workload seed, and the
operation list of one pass with the output check of every operation.

Each pass is a closed loop: every operation starts after the previous one has
returned.  Grid sizes are fixed per mode, so the seed changes parameters,
never the amount of work.

Seeded parameters (uniform, rounded to 4 decimals; nominal values of the
README and the acceptance suite in brackets):

==========  ===============  ==============================================
name        range            used by
==========  ===============  ==============================================
alpha0      0.9 .. 1.1 [1]   every cmc seed
v           0.25 .. 0.35     every pseudospherical seed [0.3]
m1, phi1    0.9 .. 1.1,      first-kind transform, init (0, 1, phi1)
            1.6 .. 1.8       [m = 1, init 0,1,1.7]
m2, phi2    0.25 .. 0.35,    second-kind transform, init (0, 1, phi2)
            0.05 .. 0.15     [m = 0.3, init 0,1,0.1]
mbar        0.9 .. 1.1 [1]   Bianchi-Darboux; the CLI takes --m = 2 mbar/qn
==========  ===============  ==============================================
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

# library modules are used through their attributes, looked up at call time,
# so that the wrappers of the traced run are seen
import mosurf.backlund as backlund
import mosurf.fields as fields
import mosurf.frames as frames
import mosurf.kernel as kernel
import mosurf.seeds as seeds
import mosurf.verify as verify

import checks

WORKLOADS = ("cli_readme", "lib_transform", "lib_refine")

QN = 1.0
I3 = np.eye(3)

#: grid sizes per mode: "full" is measured, "smoke" runs every operation once
#: with its checks, "warm" fills caches during set-up (no checks)
SIZES = {
    "full": {"cli": 201, "cli_liouville": 101, "transform": 301, "frames": 601,
             "refine": (101, 201, 401, 801)},
    "smoke": {"cli": 101, "cli_liouville": 51, "transform": 101, "frames": 201,
              "refine": (51, 101, 201)},
    "warm": {"transform": 17, "frames": 17, "refine": (17, 33)},
}

#: acceptance-suite windows (domain, seed parameter name)
REFINE_FAMILIES = {
    "cmc": ((0.0, 2.0, 0.0, 2.0), "alpha0"),
    "pseudospherical": ((0.7, 1.3, -0.5, 0.5), "v"),
    "liouville": ((-1.0, 1.0, -1.0, 1.0), None),
}
LIOUVILLE_ACCEPTANCE = {"a": 0.5, "c1": -0.2}
#: README Liouville window; its stress guard is a known defect (recorded, not gated)
LIOUVILLE_README = {"a": 0.353553, "c1": 0.0}
BACKLUND_FIRST_DOMAIN = (0.0, 1.0, 0.0, 1.0)
BACKLUND_SECOND_DOMAIN = (0.8, 1.2, -0.3, 0.3)
CMC_DOMAIN = (0.0, 2.0, 0.0, 2.0)
KINK_README_DOMAIN = (-3.0, 3.0, -3.0, 3.0)
LIOUVILLE_README_DOMAIN = (-1.0, 1.0, -1.0, 1.0)
#: C in the C h^2 gate of the acceptance suite for the cmc window
CMC_C = 7.0


@dataclass(frozen=True)
class Params:
    alpha0: float
    v: float
    m1: float
    phi1: float
    m2: float
    phi2: float
    mbar: float


def params(seed: int) -> Params:
    rng = random.Random(seed)

    def u(lo: float, hi: float) -> float:
        return round(rng.uniform(lo, hi), 4)

    return Params(alpha0=u(0.9, 1.1), v=u(0.25, 0.35), m1=u(0.9, 1.1), phi1=u(1.6, 1.8),
                  m2=u(0.25, 0.35), phi2=u(0.05, 0.15), mbar=u(0.9, 1.1))


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` inspects its output afterwards."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


def make_seed(family: str, domain, n: int, **kw):
    grid = fields.Grid2D.from_domain(*domain, n, n)
    return seeds.generate_seed(seeds.SeedSpec(family, grid, qn=QN, **kw))


def _linf(report) -> dict[str, float]:
    return {name: s.linf for name, s in report.entries.items()}


# ---------------------------------------------------------------------------
# in-process library workloads
# ---------------------------------------------------------------------------


def lib_transform_ops(p: Params, sizes: dict) -> list[Op]:
    n, nf = sizes["transform"], sizes["frames"]
    ctx: dict[str, Any] = {}

    def transform(family, domain, kw, m, phi0, keep=None):
        def run():
            g = make_seed(family, domain, n, **kw)
            if keep:
                ctx[keep] = g
            res = backlund.apply_backlund(g, m, 0.0, 1.0, phi0)
            return res.lax.constraint_drift, verify.verify_governing(res.primed_governing)
        return run

    def check_transform(out):
        drift, rep = out
        return checks.below("Lax constraint drift", drift, checks.DRIFT_TOL) + \
            checks.algebraic(_linf(rep), "primed ")

    def bianchi_darboux_op():
        res = backlund.bianchi_darboux(ctx["cmc"], mbar=p.mbar)
        return res.lax.constraint_drift, res.primed_governing.xi.values, res.primed_governing.h.values

    def check_bd(out):
        drift, xi_p, h_p = out
        return checks.below("Lax constraint drift", drift, checks.DRIFT_TOL) + \
            checks.bianchi_darboux(xi_p, h_p)

    def frame_sweeps():
        g = make_seed("cmc", CMC_DOMAIN, nf, alpha0=p.alpha0)
        c = kernel.coefficients_from_governing(g)
        f = frames.integrate_frame(c, I3)
        triple, _ = frames.reconstruct_surfaces(f, c)
        frames.path_independence_error(c, I3)
        drift = frames.orthonormality_drift(f)
        meanH, _ = frames.mesh_curvatures(triple.r)
        return drift, triple.N.values, meanH.values

    def check_frames(out):
        drift, N, meanH = out
        n_dev = float(np.max(np.abs(np.sqrt((N * N).sum(axis=2)) - 1.0)))
        return checks.below("frame orthonormality drift", drift, checks.DRIFT_TOL) + \
            checks.below("|N|-1", n_dev, checks.DRIFT_TOL) + checks.mean_curvature(meanH)

    return [
        Op("apply_backlund.first", transform("cmc", BACKLUND_FIRST_DOMAIN,
                                             {"alpha0": p.alpha0}, p.m1, p.phi1, keep="cmc"),
           check_transform),
        Op("apply_backlund.second", transform("pseudospherical", BACKLUND_SECOND_DOMAIN,
                                              {"v": p.v}, p.m2, p.phi2),
           check_transform),
        Op("bianchi_darboux", bianchi_darboux_op, check_bd),
        Op("frames", frame_sweeps, check_frames),
    ]


def _refine_level(family, domain, kw, n, reports):
    rep = verify.verify_governing(make_seed(family, domain, n, **kw))
    reports.append(rep)
    return rep


def _refine_orders(reports):
    return _linf(reports[-1]), verify.convergence_orders(reports)


def lib_refine_ops(p: Params, sizes: dict) -> list[Op]:
    ops = []
    for family, (domain, key) in REFINE_FAMILIES.items():
        kw = {key: getattr(p, key)} if key else dict(LIOUVILLE_ACCEPTANCE)
        label = f"{family} "
        reports: list = []
        for n in sizes["refine"]:
            ops.append(Op(f"{family}.{n}", partial(_refine_level, family, domain, kw, n, reports),
                          lambda rep, label=label: checks.algebraic(_linf(rep), label)))
        ops.append(Op(f"{family}.orders", partial(_refine_orders, reports),
                      lambda out, label=label: checks.orders(*out, label)))
    return ops


# ---------------------------------------------------------------------------
# the README CLI session, one subprocess per command
# ---------------------------------------------------------------------------


class CliSession:
    """Runs mosurf commands in ``work`` as fresh interpreters.

    Untraced commands go through the same entry point as the installed
    ``mosurf`` script; traced commands go through ``traced_cli.py``, which
    writes its spans to ``trace_<k>.json`` in ``work``.
    """

    ENTRY = "import sys; from mosurf.cli import main; sys.exit(main())"

    def __init__(self, work: Path, env: dict, timeout: float) -> None:
        self.work = work
        self.env = env
        self.timeout = timeout
        self.trace = False
        self.traces: list[tuple[float, Path]] = []

    def command(self, args: list[str]) -> Callable[[], subprocess.CompletedProcess]:
        def run() -> subprocess.CompletedProcess:
            if self.trace:
                out = self.work / f"trace_{len(self.traces)}.json"
                argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(out)]
            else:
                argv = [sys.executable, "-c", self.ENTRY]
            spawned = time.time()
            proc = subprocess.run(argv + args, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=self.timeout)
            if self.trace:
                self.traces.append((spawned, out))
            return proc
        return run

    def read(self, name: str) -> str:
        return (self.work / name).read_text()


def expected_seeds(p: Params, sizes: dict) -> dict[str, Any]:
    """In-memory seeds the CLI session's field files must reproduce bit for bit."""
    n, nl = sizes["cli"], sizes["cli_liouville"]
    return {
        "cmc.json": make_seed("cmc", CMC_DOMAIN, n, alpha0=p.alpha0),
        "kink.json": make_seed("pseudospherical", KINK_README_DOMAIN, n, v=p.v),
        "liou.json": make_seed("liouville", LIOUVILLE_README_DOMAIN, nl, **LIOUVILLE_README),
    }


def _fields(g) -> dict[str, np.ndarray]:
    return {"alpha": g.alpha.values, "xi": g.xi.values, "h": g.h.values}


def _domain(d) -> str:
    return ":".join(f"{x:g}" for x in d)


def cli_readme_ops(p: Params, sizes: dict, session: CliSession, expected: dict,
                   recorded: dict) -> list[Op]:
    n, nl = sizes["cli"], sizes["cli_liouville"]
    grid = ["--nx", str(n), "--ny", str(n)]
    h2 = ((CMC_DOMAIN[1] - CMC_DOMAIN[0]) / (n - 1)) ** 2

    def exited(content: Callable[[subprocess.CompletedProcess], list[str]]):
        """A command must exit 0 before its outputs are inspected."""
        def check(run: subprocess.CompletedProcess) -> list[str]:
            if run.returncode != 0:
                return [f"exit status {run.returncode}: {run.stderr.strip()[-300:]}"]
            return content(run)
        return check

    def report(name: str) -> tuple[dict, list[str]]:
        return checks.report(session.read(name))

    def seed_check(name):
        return exited(lambda run: checks.field_roundtrip(session.read(name), _fields(expected[name])))

    def verify_check(run):
        return checks.algebraic(checks.verify_stdout(run.stdout))

    def refine_check(run):
        doc, fails = report("report.json")
        linf = checks.report_linf(doc)
        return fails or checks.algebraic(linf) + checks.orders(linf, doc.get("orders") or {})

    def reconstruct_check(run):
        doc, fails = report("rec.json")
        if fails:
            return fails
        diag = doc.get("diagnostics", {})
        fails += checks.below("frame orthonormality drift",
                              diag.get("orthonormality_drift", np.nan), checks.DRIFT_TOL)
        fails += checks.below("|N|-1", diag.get("normal_unit_max_dev", np.nan), checks.DRIFT_TOL)
        for sheet in ("r", "rbar", "N"):
            name = f"mesh_{sheet}.obj"
            fails += [f"{name}: {f}" for f in checks.obj_mesh(session.read(name), n)]
        fails += checks.csv_table(session.read("mesh_table.csv"), n)
        v = checks.obj_vertices(session.read("mesh_r.obj"))
        if v.shape == (n * n, 3):
            r = fields.Vec3Field(expected["cmc.json"].grid, v.reshape(n, n, 3).transpose(1, 0, 2))
            fails += checks.mean_curvature(frames.mesh_curvatures(r)[0].values)
        return fails

    def stress_check(run):
        text = session.read("stresses.csv")
        return checks.csv_table(text, n, "x,y,T1,T2") or checks.stress_table(text, QN)

    def lax_report(name):
        doc, fails = report(name)
        if fails:
            return doc, fails
        drift = doc.get("diagnostics", {}).get("constraint_drift", np.nan)
        return doc, checks.below("Lax constraint drift", drift, checks.DRIFT_TOL)

    def backlund_check(run):
        doc, fails = lax_report("bk.json")
        if fails:
            return fails
        # known defect: the primed surface crosses a curvature-line degeneracy
        # that no guard flags, and its residuals grow under refinement; they
        # are recorded, not gated
        linf = checks.report_linf(doc)
        for name in ("governing-3", "equilibrium-1") + checks.ALGEBRAIC:
            recorded.setdefault(f"backlund_readme_primed_{name}_at_{n}", linf.get(name))
        return checks.field_file_shape(session.read("primed.json"), n * n)

    def bd_check(run):
        doc, fails = lax_report("bd_report.json")
        fails += checks.algebraic(checks.report_linf(doc), "primed ")
        if fails:
            return fails
        try:
            payload = json.loads(session.read("bd.json"))["fields"]
            xi_p, h_p = np.asarray(payload["xi"], float), np.asarray(payload["h"], float)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"bd.json does not parse: {exc!r}"]
        return checks.bianchi_darboux(xi_p, h_p)

    def omega_check(run):
        doc, fails = report("omega.json")
        return fails or checks.below_scaled(checks.report_linf(doc), ("omega-1", "omega-2"),
                                            CMC_C * h2)

    cmd = session.command
    return [
        Op("seed", cmd(["seed", "--family", "cmc", "--alpha0", f"{p.alpha0}", "--qn", f"{QN}",
                        "--domain", _domain(CMC_DOMAIN), *grid, "-o", "cmc.json"]),
           seed_check("cmc.json")),
        Op("verify", cmd(["verify", "cmc.json"]), exited(verify_check)),
        Op("verify_refine", cmd(["verify", "cmc.json", "--refine", "1", "--report", "report.json"]),
           exited(refine_check)),
        Op("reconstruct", cmd(["reconstruct", "cmc.json", "-o", "mesh", "--report", "rec.json"]),
           exited(reconstruct_check)),
        Op("stress", cmd(["stress", "cmc.json", "-o", "stresses.csv"]), exited(stress_check)),
        Op("backlund", cmd(["backlund", "cmc.json", "--m", f"{p.m1}", "--init", f"0,1,{p.phi1}",
                            "-o", "primed.json", "--report", "bk.json"]), exited(backlund_check)),
        Op("backlund_bd", cmd(["backlund", "cmc.json", "--m", f"{2.0 * p.mbar / QN}",
                               "--bianchi-darboux", "-o", "bd.json",
                               "--report", "bd_report.json"]), exited(bd_check)),
        Op("omega", cmd(["omega", "cmc.json", "--report", "omega.json"]), exited(omega_check)),
        Op("seed_kink", cmd(["seed", "--family", "pseudospherical", "--v", f"{p.v}",
                             "--domain", _domain(KINK_README_DOMAIN), *grid, "-o", "kink.json"]),
           seed_check("kink.json")),
        Op("seed_liouville", cmd(["seed", "--family", "liouville",
                                  "--a", f"{LIOUVILLE_README['a']}",
                                  "--c1", f"{LIOUVILLE_README['c1']}",
                                  "--domain", _domain(LIOUVILLE_README_DOMAIN),
                                  "--nx", str(nl), "--ny", str(nl),
                                  "-o", "liou.json"]),
           seed_check("liou.json")),
    ]


def record_liouville_readme(expected: dict, recorded: dict) -> None:
    """Known defect: the README Liouville window trips the stress guard line."""
    g = expected["liou.json"]
    rep = verify.verify_governing(g)
    recorded[f"liouville_readme_equilibrium-1_at_{g.grid.nx}"] = rep["equilibrium-1"].linf
