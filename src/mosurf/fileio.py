"""Field/report file serialization, mesh and table export.

Field and report files are JSON written by :func:`json.dumps`; every float is
its shortest ``repr`` that round-trips, so field files read back bit for bit
(integral floats appear as ``1.0``).  Payload arrays are row-major in
x-fastest order.  Meshes use the plain-text Wavefront OBJ polygon format (two
triangles per grid cell, cells touching flagged nodes skipped); tables are
comma-separated with one node per line.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .errors import FieldFormatError
from .fields import Grid2D, ScalarField, Vec3Field
from .kernel import GoverningFields, ResidualReport
from .verify import REGISTRY_VERSION

__all__ = [
    "FORMAT_VERSION",
    "REPORT_VERSION",
    "write_field_file",
    "read_field_file",
    "write_report_file",
    "report_to_dict",
    "write_obj",
    "write_table",
]

#: version of the field-file format
FORMAT_VERSION = 1
#: version of the report schema (2: omega reports lost the 4-vector entries)
REPORT_VERSION = 2

FIELD_NAMES = ("alpha", "xi", "h")


def _plain(value: Any) -> Any:
    """``json.dumps`` hook for the numpy types that are not float subclasses."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dump_json(value: Any, path: str | Path, indent: int | None = None) -> None:
    """Write ``value`` as JSON, compact unless ``indent`` is given.

    The text is built before the file is opened, so a non-finite value raises
    FieldFormatError and leaves no partial file behind.
    """
    separators = (",", ": ") if indent else (",", ":")
    try:
        text = json.dumps(value, allow_nan=False, default=_plain,
                          indent=indent, separators=separators)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: cannot serialize a non-finite value ({exc})") from exc
    Path(path).write_text(text + "\n")


def _grid_header(grid: Grid2D) -> dict:
    return {
        "nx": grid.nx, "ny": grid.ny,
        "x0": grid.x0, "y0": grid.y0,
        "dx": grid.dx, "dy": grid.dy,
    }


def _flat(values: np.ndarray) -> np.ndarray:
    return values.ravel(order="F")  # x-fastest


def write_field_file(
    path: str | Path, g: GoverningFields, seed: dict | None = None
) -> None:
    """Serialize a governing triple; ``seed`` (family + parameters) is kept in
    the header so refinement studies can regenerate the fields on finer grids."""
    doc: dict[str, Any] = {
        "format": "mosurf-fields",
        "version": FORMAT_VERSION,
        "kind": g.kind,
        "qn": g.qn,
        "grid": _grid_header(g.grid),
        "fields": {name: _flat(getattr(g, name).values) for name in FIELD_NAMES},
    }
    if seed is not None:
        doc["seed"] = seed
    dump_json(doc, path)


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise FieldFormatError(f"{path}: missing required key {key!r}")
    return doc[key]


def read_field_file(path: str | Path) -> tuple[GoverningFields, dict | None]:
    """Parse and validate a field file; non-finite payload entries are
    rejected with the offending field name and flat index."""
    path = str(path)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"{path}: cannot parse field file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "mosurf-fields":
        raise FieldFormatError(f"{path}: not a mosurf field file")
    try:
        return _parse_fields(doc, path)
    except FieldFormatError:
        raise
    except (TypeError, ValueError) as exc:
        # non-numeric entries, and ParameterError from GoverningFields (bad kind, qn = 0)
        raise FieldFormatError(f"{path}: invalid field file: {exc}") from exc


def _parse_fields(doc: dict, path: str) -> tuple[GoverningFields, dict | None]:
    if int(_require(doc, "version", path)) != FORMAT_VERSION:
        raise FieldFormatError(f"{path}: unsupported format version {doc['version']!r}")
    kind = _require(doc, "kind", path)
    qn = float(_require(doc, "qn", path))
    gh = _require(doc, "grid", path)
    try:
        grid = Grid2D(
            int(gh["nx"]), int(gh["ny"]),
            float(gh["x0"]), float(gh["y0"]), float(gh["dx"]), float(gh["dy"]),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise FieldFormatError(f"{path}: bad grid header: {exc}") from exc
    payload = _require(doc, "fields", path)
    fields = {}
    for name in FIELD_NAMES:
        arr = np.asarray(_require(payload, name, path), dtype=float)
        if arr.shape != (grid.n_nodes,):
            raise FieldFormatError(
                f"{path}: field {name!r} has {arr.size} values, expected {grid.n_nodes}"
            )
        bad = ~np.isfinite(arr)
        if bad.any():
            idx = int(np.argmax(bad))
            raise FieldFormatError(
                f"{path}: non-finite value in field {name!r} at flat index {idx}"
            )
        fields[name] = ScalarField(grid, arr.reshape(grid.shape, order="F"))
    g = GoverningFields(kind=kind, qn=qn, alpha=fields["alpha"], xi=fields["xi"], h=fields["h"])
    return g, doc.get("seed")


def report_to_dict(
    report: ResidualReport,
    kind: str | None = None,
    qn: float | None = None,
    orders: dict | None = None,
    diagnostics: dict | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "format": "mosurf-report",
        "version": REPORT_VERSION,
        "registry_version": REGISTRY_VERSION,
        "grid": _grid_header(report.grid),
    }
    if kind is not None:
        doc["kind"] = kind
    if qn is not None:
        doc["qn"] = qn
    doc["equations"] = {
        name: {"linf": s.linf, "l2": s.l2, "excluded": s.excluded}
        for name, s in report.entries.items()
    }
    if orders is not None:
        doc["orders"] = {k: v for k, v in orders.items()}
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    return doc


def write_report_file(path: str | Path, doc: dict) -> None:
    dump_json(doc, path, indent=2)


def write_obj(path: str | Path, points: Vec3Field, valid: np.ndarray | None = None) -> int:
    """Triangulated OBJ export; returns the number of faces written.

    Vertices are emitted for valid nodes only, in x-fastest order; each grid
    cell whose four corners are valid contributes two triangles.
    """
    v = points.values
    ok = np.isfinite(v).all(axis=2)
    if valid is not None:
        ok &= valid
    index = np.cumsum(_flat(ok)).reshape(ok.shape, order="F")  # 1-based at valid nodes
    cell = _flat(ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:])
    a, b, c, d = (_flat(corner)[cell] for corner in
                  (index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]))
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("# mosurf surface mesh\n")
        fh.writelines("v %r %r %r\n" % tuple(p) for p in v.transpose(1, 0, 2)[ok.T].tolist())
        fh.writelines("f %d %d %d\n" % tuple(t) for t in triangles.tolist())
    return len(triangles)


def write_table(path: str | Path, grid: Grid2D, columns: dict[str, np.ndarray]) -> None:
    """CSV export, one node per line in x-fastest order; non-finite cells are blank.

    Vector-valued columns (nx, ny, 3) expand into ``name_x/_y/_z``.
    """
    flat: dict[str, np.ndarray] = {}
    for name, arr in columns.items():
        if arr.shape == grid.shape:
            flat[name] = _flat(arr)
        elif arr.shape == grid.shape + (3,):
            for k, suffix in enumerate("xyz"):
                flat[f"{name}_{suffix}"] = _flat(arr[:, :, k])
        else:
            raise FieldFormatError(f"column {name!r} has unsupported shape {arr.shape}")
    table = np.stack(list(flat.values()), axis=1)
    with open(path, "w") as fh:
        fh.write(",".join(flat) + "\n")
        for row in table:  # row by row: the whole table as Python floats is large
            fh.write(",".join([repr(x) if math.isfinite(x) else "" for x in row.tolist()]) + "\n")
