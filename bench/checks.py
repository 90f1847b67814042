"""Output checks of the benchmark.

Every check takes plain outputs (numbers, arrays, file text) and returns a
list of failure messages; an empty list means the output is correct.  The
tolerances come from the theory or from the acceptance gates of the test
suite, and are written out here rather than imported from the library, so
that a change to the library cannot loosen them.
"""

from __future__ import annotations

import json
import re

import numpy as np

#: pure pointwise identities hold to roundoff on valid data
ALGEBRAIC_TOL = 1e-12
ALGEBRAIC = ("equilibrium-3", "first-integral-1", "first-integral-2", "constraint", "orthogonality")

#: second-order stencils: measured order under grid halving
ORDER_RANGE = (1.8, 2.2)
#: derivative residuals of the registry, with the level at or below which the
#: identity holds exactly on the family (finite-difference noise only)
DERIVATIVE_FLOORS = {
    **{name: 1e-12 for name in (
        "governing-1", "governing-2", "governing-3", "codazzi-H", "codazzi-K",
        "net-A1", "net-A2", "net-Abar1", "net-Abar2", "gauss",
        "equilibrium-1", "equilibrium-2",
    )},
    "omega-1": 1e-10,
    "omega-2": 1e-10,
}

#: RK4 truncation is the only term that breaks the quadratic invariants
DRIFT_TOL = 1e-6
#: cmc family: mean curvature -1/2, measured away from the boundary band
MEAN_CURVATURE = -0.5
MEAN_CURVATURE_TOL = 1e-3
BOUNDARY_BAND = 3
#: Bianchi-Darboux keeps e^xi' = h' = 1
BIANCHI_DARBOUX_TOL = 1e-6


def below(label: str, value: float, tol: float) -> list[str]:
    """``value`` must be a number strictly below ``tol``."""
    if not (np.isfinite(value) and value < tol):
        return [f"{label} = {value:.3e}, expected < {tol:g}"]
    return []


def algebraic(linf: dict[str, float], label: str = "") -> list[str]:
    """Every algebraic residual entry is present and below roundoff level."""
    fails = []
    for name in ALGEBRAIC:
        if name not in linf:
            fails.append(f"{label}{name}: missing")
        else:
            fails += below(f"{label}{name} linf", linf[name], ALGEBRAIC_TOL)
    return fails


def orders(fine: dict[str, float], measured: dict[str, float | None], label: str = "") -> list[str]:
    """Derivative residuals above their exactness floor converge at order 2."""
    fails = []
    lo, hi = ORDER_RANGE
    for name, floor in DERIVATIVE_FLOORS.items():
        if name not in fine:
            fails.append(f"{label}{name}: missing")
            continue
        if fine[name] <= floor:
            continue
        o = measured.get(name)
        if o is None or not lo <= o <= hi:
            fails.append(f"{label}{name}: order {o}, expected {lo}..{hi}")
    return fails


def below_scaled(linf: dict[str, float], names: tuple[str, ...], bound: float, label: str = "") -> list[str]:
    """Named residuals are below ``bound`` (the C h^2 gates of the test suite)."""
    fails = []
    for name in names:
        fails += below(f"{label}{name} linf", linf.get(name, np.nan), bound)
    return fails


def mean_curvature(meanH: np.ndarray) -> list[str]:
    """cmc mesh: mean curvature within tolerance of -1/2 off the boundary band."""
    b = BOUNDARY_BAND
    inner = np.asarray(meanH)[b:-b, b:-b]
    if not np.isfinite(inner).any():
        return ["mean curvature: no finite interior node"]
    dev = float(np.nanmax(np.abs(inner - MEAN_CURVATURE)))
    return below("mean curvature deviation from -1/2", dev, MEAN_CURVATURE_TOL)


def bianchi_darboux(xi_p: np.ndarray, h_p: np.ndarray) -> list[str]:
    with np.errstate(invalid="ignore"):
        ex = float(np.nanmax(np.abs(np.exp(xi_p) - 1.0)))
        hd = float(np.nanmax(np.abs(np.asarray(h_p) - 1.0)))
    return below("|e^xi'-1|", ex, BIANCHI_DARBOUX_TOL) + below("|h'-1|", hd, BIANCHI_DARBOUX_TOL)


def field_roundtrip(text: str, expected: dict[str, np.ndarray]) -> list[str]:
    """Field-file payloads equal the in-memory fields bit for bit.

    ``expected`` maps field names to (nx, ny) arrays; the file stores them
    flattened x-fastest.
    """
    try:
        payload = json.loads(text)["fields"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"field file does not parse: {exc}"]
    fails = []
    for name, want in expected.items():
        want = np.ascontiguousarray(np.asarray(want, dtype=float).ravel(order="F"))
        try:
            got = np.asarray(payload[name], dtype=float)
        except (KeyError, ValueError, TypeError) as exc:
            fails.append(f"field {name!r}: {exc!r}")
            continue
        if got.shape != want.shape:
            fails.append(f"field {name!r}: {got.size} values, expected {want.size}")
        elif got.tobytes() != want.tobytes():
            k = int(np.argmax(got.view(np.uint64) != want.view(np.uint64)))
            fails.append(f"field {name!r}: not bit-exact at flat index {k}")
    return fails


def field_file_shape(text: str, n_nodes: int) -> list[str]:
    """A field file written by the transform holds n_nodes finite values per field."""
    try:
        payload = json.loads(text)["fields"]
        arrays = [np.asarray(payload[k], dtype=float) for k in ("alpha", "xi", "h")]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"field file does not parse: {exc!r}"]
    fails = []
    for name, a in zip(("alpha", "xi", "h"), arrays):
        if a.shape != (n_nodes,) or not np.isfinite(a).all():
            fails.append(f"field {name!r}: expected {n_nodes} finite values")
    return fails


def obj_vertices(text: str) -> np.ndarray:
    """The vertex rows of an OBJ file as an (n, 3) array."""
    rows = [line[2:] for line in text.splitlines() if line.startswith("v ")]
    return np.array(" ".join(rows).split(), dtype=float).reshape(-1, 3)


def obj_mesh(text: str, n: int) -> list[str]:
    """Unflagged n x n grid: n^2 vertices and two triangles per cell."""
    lines = text.splitlines()
    verts = sum(1 for line in lines if line.startswith("v "))
    faces = sum(1 for line in lines if line.startswith("f "))
    fails = []
    if verts != n * n:
        fails.append(f"OBJ: {verts} vertices, expected {n * n}")
    if faces != 2 * (n - 1) ** 2:
        fails.append(f"OBJ: {faces} faces, expected {2 * (n - 1) ** 2}")
    return fails


def csv_table(text: str, n: int, header: str | None = None) -> list[str]:
    """One header line plus one line per node."""
    lines = text.splitlines()
    fails = []
    if len(lines) != n * n + 1:
        fails.append(f"CSV: {len(lines)} lines, expected {n * n + 1}")
    if header is not None and (not lines or lines[0] != header):
        fails.append(f"CSV header {lines[0] if lines else None!r}, expected {header!r}")
    return fails


def stress_table(text: str, qn: float) -> list[str]:
    """cmc: T1 = T2 = qn exactly at every node."""
    try:
        data = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        return [f"stress table does not parse: {exc}"]
    if data.shape[1] != 4 or not np.all(data[:, 2:] == qn):
        return [f"stress table: T1, T2 differ from qn = {qn}"]
    return []


_VERIFY_LINE = re.compile(r"^\s+(\S+)\s+linf=(\S+)")


def verify_stdout(text: str) -> dict[str, float]:
    """Residual L-infinity norms printed by ``mosurf verify``."""
    out = {}
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def report(text: str) -> tuple[dict, list[str]]:
    """Parse a JSON report; returns (document, failures)."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return {}, [f"report does not parse: {exc}"]
    if not isinstance(doc, dict) or doc.get("format") != "mosurf-report":
        return {}, ["not a mosurf report"]
    return doc, []


def report_linf(doc: dict) -> dict[str, float]:
    return {name: e["linf"] for name, e in doc.get("equations", {}).items()}
