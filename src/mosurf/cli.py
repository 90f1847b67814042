"""Command-line front end.

Subcommands: seed | verify | reconstruct | stress | backlund | omega.
Exit codes: 0 success, 1 usage error, 2 file validation/parse error,
3 numerical failure (all nodes singular, non-finite output, empty mesh, an
array too large to allocate).

A handler parses its flags, calls the library for the numerics and their
diagnostics (``reconstruct`` calls ``frames.reconstruct``, ``verify`` calls
``verify.verify_refined``, which also owns the rules of ``--refine``), and
formats and writes the results; ``verify`` prints norms and passes no verdict
on them.  Each imports the library modules it uses inside its handler, so a
command does not pay the start-up cost of modules it never calls.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from .errors import FieldFormatError, MosurfError, ParameterError, SingularGridError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

#: exit status of each error class; the first entry that matches wins
_EXIT_CODES = (
    (ParameterError, EXIT_USAGE),
    (FieldFormatError, EXIT_VALIDATION),
    (SingularGridError, EXIT_NUMERICAL),
    (MosurfError, EXIT_VALIDATION),
    (OSError, EXIT_VALIDATION),
    (MemoryError, EXIT_NUMERICAL),
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the CLI contract says 1,
    so parse errors are raised as ParameterError.

    The negative-number matcher is widened so values like ``-3:3:-3:3``
    (domains), ``-0.2`` (parameters) and ``-inf``, ``-infinity`` or ``-nan``
    in any case (which ``float`` reads) are not mistaken for option flags;
    they reach the finite-number checks instead.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d|inf|nan)[\w.:,+\-]*$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _parse_numbers(text: str, sep: str, names: str, flag: str) -> tuple[float, ...]:
    """The finite numbers of a ``sep``-separated flag value, one per name."""
    parts = text.split(sep)
    if len(parts) != len(names.split(sep)):
        raise ParameterError(f"{flag} expects {names}, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"{flag} expects numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ParameterError(f"{flag} expects finite numbers, got {text!r}")
    return vals


def _check_finite(args: argparse.Namespace) -> None:
    """A NaN or infinite float flag is a bad value, caught before any work."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"--{name.replace('_', '-')} must be finite, got {value}")


def _check_distinct(*paths: str | None) -> None:
    """A command's input and output files, which must be distinct: an output
    that names the input or another output would overwrite it."""
    seen: dict[Path, str] = {}
    for path in filter(None, paths):
        key = Path(path).resolve()
        if key in seen:
            raise ParameterError(
                f"the input and output files must be distinct, got {seen[key]} and {path}")
        seen[key] = path


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mosurf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_flags(p):
        p.add_argument("--domain", required=True, help="x0:x1:y0:y1 (inclusive)")
        p.add_argument("--nx", type=int, default=101)
        p.add_argument("--ny", type=int, default=101)

    p_seed = sub.add_parser("seed", help="generate a seed solution field file")
    p_seed.add_argument("--family", required=True,
                        choices=["cmc", "pseudospherical", "liouville"])
    p_seed.add_argument("--qn", type=float, default=1.0, help="normal load (nonzero)")
    add_grid_flags(p_seed)
    p_seed.add_argument("--alpha0", type=float, default=1.0, help="cmc amplitude")
    p_seed.add_argument("--v", type=float, default=0.0, help="kink velocity, |v| < 1")
    p_seed.add_argument("--a", type=float, default=0.5, help="liouville coefficient, > 0")
    p_seed.add_argument("--c1", type=float, default=0.0, help="liouville h-branch constant")
    p_seed.add_argument("-o", "--out", required=True)

    p_verify = sub.add_parser("verify", help="evaluate all registry residuals")
    p_verify.add_argument("fieldfile")
    p_verify.add_argument("--report", help="write a JSON report here")
    p_verify.add_argument("--refine", type=int, default=0, metavar="K",
                          help="re-seed on K halved grids and measure orders")

    p_rec = sub.add_parser("reconstruct", help="integrate frames and export meshes")
    p_rec.add_argument("fieldfile")
    p_rec.add_argument("-o", "--out", required=True, help="output path prefix")
    p_rec.add_argument("--report", help="write a JSON diagnostics report here")

    p_stress = sub.add_parser("stress", help="export the stress resultants")
    p_stress.add_argument("fieldfile")
    p_stress.add_argument("-o", "--out", required=True, help="CSV output path")

    p_back = sub.add_parser("backlund", help="apply the Backlund transformation")
    p_back.add_argument("fieldfile")
    p_back.add_argument("--m", type=float, default=1.0, help="spectral parameter (nonzero)")
    p_back.add_argument("--init", default="0,1,1.7", help="lambda0,omega0,phi0")
    p_back.add_argument("--bianchi-darboux", action="store_true",
                        help="classical Bianchi-Darboux transformation of a cmc seed "
                             "with mbar = m*qn/2; phi0 is solved from the Lax "
                             "constraint, so the phi0 of --init is ignored")
    p_back.add_argument("-o", "--out", required=True, help="primed field file path")
    p_back.add_argument("--report", help="write a JSON report here")

    p_omega = sub.add_parser("omega", help="Omega-surface condition checks")
    p_omega.add_argument("fieldfile")
    p_omega.add_argument("--report", help="write a JSON report here")

    return parser


def _cmd_seed(args) -> int:
    from .fields import Grid2D
    from .fileio import write_field_file
    from .seeds import SeedSpec, generate_seed

    x0, x1, y0, y1 = _parse_numbers(args.domain, ":", "x0:x1:y0:y1", "--domain")
    grid = Grid2D.from_domain(x0, x1, y0, y1, args.nx, args.ny)
    spec = SeedSpec(args.family, grid, qn=args.qn,
                    alpha0=args.alpha0, v=args.v, a=args.a, c1=args.c1)
    g = generate_seed(spec)
    write_field_file(args.out, g, seed=spec.header())
    print(f"seed family={args.family} kind={g.kind} qn={g.qn} "
          f"grid={grid.nx}x{grid.ny} domain=[{x0},{x1}]x[{y0},{y1}] -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .fileio import read_field_file, report_to_dict, write_report_file
    from .verify import verify_refined

    _check_distinct(args.fieldfile, args.report)
    g, seed = read_field_file(args.fieldfile)
    try:
        report, orders = verify_refined(g, seed, args.refine)
    except FieldFormatError as exc:  # the seed header is the file's
        raise FieldFormatError(f"{args.fieldfile}: {exc}") from exc
    print(f"verify kind={g.kind} qn={g.qn} grid={g.grid.nx}x{g.grid.ny}")
    for name, s in report.entries.items():
        line = f"  {name:18s} linf={s.linf:.6e} l2={s.l2:.6e} excluded={s.excluded}"
        if orders is not None:
            o = orders.get(name)
            line += "  order=exact" if o is None else f"  order={o:.2f}"
        print(line)
    if args.report:
        write_report_file(args.report, report_to_dict(report, g.kind, g.qn, orders=orders))
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from .fileio import (check_report, mesh_faces, read_field_file, report_to_dict,
                         write_report_file, write_table_and_meshes)
    from .frames import DRIFT_TOL, reconstruct
    from .kernel import ResidualReport, coefficients_from_governing

    meshes = {name: f"{args.out}_{name}.obj" for name in ("r", "rbar", "N")}
    table = f"{args.out}_table.csv"
    _check_distinct(args.fieldfile, *meshes.values(), table, args.report)
    g, _ = read_field_file(args.fieldfile)
    c = coefficients_from_governing(g)
    frac = c.n_flagged / g.grid.n_nodes
    if frac > 0.5:
        print(f"warning: {100 * frac:.1f}% of nodes are flagged", file=sys.stderr)
    triple, diag = reconstruct(c)
    valid = ~c.flagged
    faces = mesh_faces(triple.r, valid)
    if faces == 0:  # found before any file is opened
        raise SingularGridError("no valid cells remain after flagging; no mesh written")
    diag["faces_written"] = faces
    if args.report:  # a report with a non-finite value fails before any file is opened
        doc = report_to_dict(ResidualReport(g.grid), g.kind, g.qn, diagnostics=diag)
        check_report(args.report, doc)
    if diag["orthonormality_drift"] > DRIFT_TOL:  # a warning: the files are still written
        print(f"warning: orthonormality drift {diag['orthonormality_drift']:.3e} is above "
              f"{DRIFT_TOL:g}: the frame has left the rotation group", file=sys.stderr)
    X, Y = g.grid.meshgrid()
    write_table_and_meshes(
        table,
        g.grid,
        {
            "x": X, "y": Y,
            "r": triple.r.values, "N": triple.N.values, "rbar": triple.rbar.values,
            "A1": c.A1, "A2": c.A2, "Ho": c.Ho, "Ko": c.Ko, "T1": c.T1, "T2": c.T2,
        },
        meshes,
        valid,
    )
    print(f"reconstruct grid={g.grid.nx}x{g.grid.ny} faces={faces} "
          f"drift={diag['orthonormality_drift']:.3e} "
          f"path_independence={diag['path_independence_error']:.3e} "
          f"mean_curvature={diag['mean_curvature_mean']:.6f}")
    if args.report:
        write_report_file(args.report, doc)
    return EXIT_OK


def _cmd_stress(args) -> int:
    from .fileio import read_field_file, write_table
    from .kernel import stresses

    _check_distinct(args.fieldfile, args.out)
    g, _ = read_field_file(args.fieldfile)
    s = stresses(g)
    X, Y = g.grid.meshgrid()
    write_table(args.out, g.grid, {"x": X, "y": Y, "T1": s.T1, "T2": s.T2})
    n_flag = int(s.flagged.sum())
    print(f"stress kind={g.kind} qn={g.qn} grid={g.grid.nx}x{g.grid.ny} "
          f"flagged={n_flag} -> {args.out}")
    return EXIT_OK


def _cmd_backlund(args) -> int:
    from .backlund import (
        apply_backlund,
        bianchi_darboux,
        bianchi_darboux_identities,
        transform_diagnostics,
    )
    from .fileio import (check_report, read_field_file, report_to_dict, write_field_file,
                         write_report_file)
    from .verify import verify_governing

    if args.m == 0.0:
        raise ParameterError("--m must be nonzero")
    lam0, om0, ph0 = _parse_numbers(args.init, ",", "lambda0,omega0,phi0", "--init")
    _check_distinct(args.fieldfile, args.out, args.report)
    g, _ = read_field_file(args.fieldfile)
    if args.bianchi_darboux:
        mbar = args.m * g.qn / 2.0
        res = bianchi_darboux(g, mbar, lambda0=lam0, omega0=om0)
    else:
        res = apply_backlund(g, args.m, lam0, om0, ph0)
    checks = transform_diagnostics(res)  # raises when no node is valid
    # m and init as swept: Bianchi-Darboux sweeps m = 2 mbar / qn, which may
    # differ from --m in the last bit, and solves its own phi0
    init = [v[0, 0] for v in (res.lax.lam, res.lax.omega, res.lax.phi)]
    diag: dict[str, object] = {"m": res.lax.m, "init": init}
    if args.bianchi_darboux:
        diag.update(mbar=mbar, **bianchi_darboux_identities(g, res))
    diag.update(checks)
    report = verify_governing(res.primed_governing)
    if args.report:  # a report with a non-finite value fails before the primed file is written
        doc = report_to_dict(report, g.kind, g.qn, diagnostics=diag)
        check_report(args.report, doc)
    write_field_file(args.out, res.primed_governing)
    print(f"backlund kind={g.kind} m={res.lax.m} drift={checks['constraint_drift']:.3e} "
          f"singular={checks['singular_nodes']} invalid={checks['branch_invalid_nodes']} "
          f"theorem_vs_raw={checks['theorem_vs_raw_max_dev']:.3e} -> {args.out}")
    for name, s in report.entries.items():
        print(f"  primed {name:18s} linf={s.linf:.6e} excluded={s.excluded}")
    if args.report:
        write_report_file(args.report, doc)
    return EXIT_OK


def _cmd_omega(args) -> int:
    from .fileio import read_field_file, report_to_dict, write_report_file
    from .kernel import ResidualReport, coefficients_from_governing
    from .omega import omega_ratios, umbilic_count

    _check_distinct(args.fieldfile, args.report)
    g, _ = read_field_file(args.fieldfile)
    c = coefficients_from_governing(g)
    umbilic = umbilic_count(c)
    report = ResidualReport.from_fields(g.grid, omega_ratios(c, g))
    print(f"omega kind={g.kind} grid={g.grid.nx}x{g.grid.ny} umbilic_flagged={umbilic}")
    for name, s in report.entries.items():
        print(f"  {name:16s} linf={s.linf:.6e} l2={s.l2:.6e} excluded={s.excluded}")
    if args.report:
        doc = report_to_dict(report, g.kind, g.qn, diagnostics={"umbilic_flagged": umbilic})
        write_report_file(args.report, doc)
    return EXIT_OK


_COMMANDS = {
    "seed": _cmd_seed,
    "verify": _cmd_verify,
    "reconstruct": _cmd_reconstruct,
    "stress": _cmd_stress,
    "backlund": _cmd_backlund,
    "omega": _cmd_omega,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_finite(args)
        return _COMMANDS[args.command](args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"mosurf: error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
