"""Field/report file serialization, mesh and table export.

Field and report files are JSON; every float is its shortest ``repr`` that
round-trips, so field files read back bit for bit (integral floats appear as
``1.0``).  Payload arrays are row-major in x-fastest order.  Flagged nodes
(NaN in any field) are written as zeros and listed by flat index under a
top-level ``flagged`` key, and read back as NaN.  Meshes use the plain-text
Wavefront OBJ polygon format (two triangles per grid cell, cells touching
flagged nodes skipped); tables are comma-separated with one node per line.

Reports, and the header of a field file, are written by :func:`json.dumps`.
The payload arrays, the OBJ vertices and the table cells go through one
formatter, :func:`_texts`, a block of :data:`BLOCK` nodes at a time: within a
block each distinct float is formatted once, so the text is the same as a
per-value ``repr`` while grid coordinates and fields that vary along one axis
cost one ``repr`` per distinct value.

Tables and meshes are written by one block loop, :func:`_write_blocks`: each
block of every column is formatted once (a vector node's text ``"x,y,z"``),
written to the table and to the mesh of each vector column it names, and
dropped; the face lines follow the vertices, built once for every mesh on the
same nodes.  ``reconstruct`` writes its four files by one call of it.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from contextlib import ExitStack
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any

import numpy as np

from .errors import FieldFormatError, GridError, SingularGridError
from .fields import Grid2D, ScalarField, Vec3Field
from .kernel import GoverningFields, ResidualReport
from .verify import REGISTRY_VERSION

__all__ = [
    "FORMAT_VERSION",
    "REPORT_VERSION",
    "write_field_file",
    "read_field_file",
    "write_report_file",
    "check_report",
    "report_to_dict",
    "mesh_faces",
    "write_obj",
    "write_table",
    "write_table_and_meshes",
]

#: version of the field-file format
FORMAT_VERSION = 1
#: version of the report schema (2: omega reports lost the 4-vector entries;
#: 3: reconstruct reports lost the Gauss-map distance)
REPORT_VERSION = 3

FIELD_NAMES = ("alpha", "xi", "h")

#: JSON types a payload entry may have; numpy alone would also read strings
#: that spell a number and booleans.  Integers stay: older files wrote 0 and 1
_NUMBER_TYPES = {float, int}


def _plain(value: Any) -> Any:
    """``json.dumps`` hook for the numpy types that are not float subclasses."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _encode(value: Any, path: str | Path, indent: int | None = None) -> str:
    """JSON text of ``value``, compact unless ``indent`` is given; a non-finite
    value raises FieldFormatError."""
    separators = (",", ": ") if indent else (",", ":")
    try:
        return json.dumps(value, allow_nan=False, default=_plain,
                          indent=indent, separators=separators)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: cannot serialize a non-finite value ({exc})") from exc


#: nodes turned into text at a time by the writers, so that none holds a
#: whole grid of strings; a block spans ~20 rows of a 201-wide grid, so the x
#: coordinate and fields of x alone repeat ~20 times within each block
BLOCK = 4096


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each entry of a 1-d float array, ``''`` where it is not finite."""
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = ""
    return texts


def _texts(values: np.ndarray) -> Sequence[str]:
    """:func:`_reprs` of a 1-d float array, each distinct 64-bit pattern
    formatted once and gathered into place.

    Patterns, not values: ``-0.0 == 0.0``, but the two print differently.
    The patterns are sorted by hand: ``np.unique`` of 4096 distinct int64
    took ~15x as long as ``np.sort`` (numpy 2.4).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    patterns = np.sort(bits)
    new = patterns[1:] != patterns[:-1]
    if new.all():  # nothing repeats
        return _reprs(values)
    patterns = patterns[np.concatenate(([True], new))]
    # at least two indices: itemgetter of one would return the item itself
    return itemgetter(*np.searchsorted(patterns, bits).tolist())(
        _reprs(patterns.view(np.float64)))


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
    the header so refinement studies can regenerate the fields on finer grids.
    Raises SingularGridError when every node is flagged (non-finite).

    The text is the compact ``json.dumps`` of ``{format, version, kind, qn,
    grid, fields, flagged?, seed?}``.  The header and the trailing entries are
    encoded before the file is opened, so a non-finite one leaves no file.
    """
    fields = {name: _flat(getattr(g, name).values) for name in FIELD_NAMES}
    bad = ~np.logical_and.reduce([np.isfinite(v) for v in fields.values()])
    header = {
        "format": "mosurf-fields",
        "version": FORMAT_VERSION,
        "kind": g.kind,
        "qn": g.qn,
        "grid": _grid_header(g.grid),
    }
    extra: dict[str, Any] = {}
    if bad.any():
        if bad.all():
            raise SingularGridError(f"{path}: every node has a non-finite field value")
        extra["flagged"] = np.flatnonzero(bad)
    if seed is not None:
        extra["seed"] = seed
    head = _encode(header, path)[:-1] + ',"fields":{'
    tail = "}" + ("," + _encode(extra, path)[1:] if extra else "}")
    with open(path, "w") as fh:
        fh.write(head)
        for k, (name, values) in enumerate(fields.items()):
            fh.write(("," if k else "") + f'"{name}":[')
            if "flagged" in extra:
                values = np.where(bad, 0.0, values)
            for start in range(0, values.size, BLOCK):
                fh.write(("," if start else "") + ",".join(_texts(values[start:start + BLOCK])))
            fh.write("]")
        fh.write(tail + "\n")


def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc:
        raise FieldFormatError(f"{path}: missing required key {key!r}")
    return doc[key]


def read_field_file(path: str | Path) -> tuple[GoverningFields, dict | None]:
    """Parse and validate a field file.

    ``qn`` and the grid origin and spacings must be finite JSON numbers,
    ``version``, ``nx`` and ``ny`` JSON integers; payload entries that are not
    finite JSON numbers are rejected with the offending field name and flat
    index.  The nodes listed under ``flagged`` (or ``seed.flagged``, where
    older versions wrote it) become NaN in every field.
    """
    path = str(path)
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, text that is not UTF-8 and
        # integers too long to convert
        raise FieldFormatError(f"{path}: cannot parse field file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "mosurf-fields":
        raise FieldFormatError(f"{path}: not a mosurf field file")
    try:
        return _parse_fields(doc, path)
    except FieldFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # non-numeric entries, integers beyond the float range, and
        # ParameterError from GoverningFields (bad kind, qn = 0)
        raise FieldFormatError(f"{path}: invalid field file: {exc}") from exc


def _number(value: Any, what: str, path: str) -> float:
    """A header entry that must be a finite JSON number (int or float)."""
    if type(value) not in _NUMBER_TYPES:
        raise FieldFormatError(f"{path}: {what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise FieldFormatError(f"{path}: {what} must be finite, got {value!r}")
    return x


def _integer(value: Any, what: str, path: str) -> int:
    """A header entry that must be a JSON integer."""
    if type(value) is not int:
        raise FieldFormatError(f"{path}: {what} must be an integer, got {value!r}")
    return value


def _flagged(doc: dict, n_nodes: int, path: str) -> np.ndarray:
    """Flat indices under ``flagged``, or ``seed.flagged`` in older files."""
    seed = doc.get("seed")
    flagged = doc.get("flagged", seed.get("flagged", []) if isinstance(seed, dict) else [])
    if not (isinstance(flagged, list)
            and all(type(k) is int and 0 <= k < n_nodes for k in flagged)
            and len(set(flagged)) < n_nodes):
        raise FieldFormatError(f"{path}: flagged must list node indices in [0, {n_nodes}) "
                               f"and leave a node unflagged")
    return np.array(flagged, dtype=np.intp)


def _parse_fields(doc: dict, path: str) -> tuple[GoverningFields, dict | None]:
    if _integer(_require(doc, "version", path), "version", path) != FORMAT_VERSION:
        raise FieldFormatError(f"{path}: unsupported format version {doc['version']!r}")
    kind = _require(doc, "kind", path)
    qn = _number(_require(doc, "qn", path), "qn", path)
    gh = _require(doc, "grid", path)
    if not isinstance(gh, dict):
        raise FieldFormatError(f"{path}: bad grid header: {gh!r}")
    try:
        grid = Grid2D(
            *(_integer(gh[k], f"grid {k}", path) for k in ("nx", "ny")),
            *(_number(gh[k], f"grid {k}", path) for k in ("x0", "y0", "dx", "dy")),
        )
    except KeyError as exc:
        raise FieldFormatError(f"{path}: bad grid header: missing {exc}") from exc
    except GridError as exc:
        raise FieldFormatError(f"{path}: bad grid header: {exc}") from exc
    flagged = _flagged(doc, grid.n_nodes, path)
    payload = _require(doc, "fields", path)
    fields = {}
    for name in FIELD_NAMES:
        raw = _require(payload, name, path)
        if isinstance(raw, list) and not set(map(type, raw)) <= _NUMBER_TYPES:
            idx = next(k for k, v in enumerate(raw) if type(v) not in _NUMBER_TYPES)
            raise FieldFormatError(
                f"{path}: non-numeric value {raw[idx]!r} in field {name!r} at flat index {idx}"
            )
        arr = np.asarray(raw, dtype=float)
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
        arr[flagged] = np.nan
        # a C-ordered copy on purpose: the x-fastest reshape is an F-ordered
        # view, over which numpy reductions sum in another order, so the
        # residual norms of a file would differ from those of its fields
        fields[name] = ScalarField(grid, np.ascontiguousarray(arr.reshape(grid.shape, order="F")))
    g = GoverningFields(kind=kind, qn=qn, alpha=fields["alpha"], xi=fields["xi"], h=fields["h"])
    return g, doc.get("seed")


def report_to_dict(
    report: ResidualReport,
    kind: str,
    qn: float,
    orders: dict | None = None,
    diagnostics: dict | None = None,
) -> dict:
    doc: dict[str, Any] = {
        "format": "mosurf-report",
        "version": REPORT_VERSION,
        "registry_version": REGISTRY_VERSION,
        "grid": _grid_header(report.grid),
        "kind": kind,
        "qn": qn,
        "equations": {name: {"linf": s.linf, "l2": s.l2, "excluded": s.excluded}
                      for name, s in report.entries.items()},
    }
    if orders is not None:
        doc["orders"] = {k: v for k, v in orders.items()}
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    return doc


def _nonfinite_paths(value: Any, where: str) -> list[str]:
    """JSON paths (``a.b[2]``) of the non-finite floats in a report document."""
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _nonfinite_paths(v, f"{where}.{k}" if where else str(k))]
    if isinstance(value, (list, np.ndarray)):
        return [p for k, v in enumerate(value) for p in _nonfinite_paths(v, f"{where}[{k}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [where]
    return []


def check_report(path: str | Path, doc: dict) -> None:
    """Raise SingularGridError (a non-finite output) naming the JSON path of
    every non-finite number in ``doc``, the report to be written to ``path``."""
    bad = _nonfinite_paths(doc, "")
    if bad:
        raise SingularGridError(f"{path}: non-finite report entries {', '.join(bad)}; "
                                f"no file written")


def write_report_file(path: str | Path, doc: dict) -> None:
    """Write a report as indented JSON.

    A report with a non-finite value raises :func:`check_report`'s error
    before the file is opened, so no file is left behind.
    """
    check_report(path, doc)
    Path(path).write_text(_encode(doc, path, indent=2) + "\n")


def _mesh(values: np.ndarray, valid: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The mesh nodes (finite and valid) of an (nx, ny, 3) array and, in
    x-fastest order, the grid cells whose four corners are mesh nodes."""
    ok = np.isfinite(values).all(axis=2)
    if valid is not None:
        ok &= valid
    return ok, _flat(ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:])


def mesh_faces(points: Vec3Field, valid: np.ndarray | None = None) -> int:
    """The number of faces :func:`write_obj` writes for these arguments."""
    return 2 * int(_mesh(points.values, valid)[1].sum())


def _node_texts(values: np.ndarray, start: int) -> Sequence[str]:
    """The texts of the x-fastest nodes ``start`` to ``start + BLOCK`` of an
    (nx, ny) or (nx, ny, 3) array; a vector node's text is ``"x,y,z"``."""
    if values.ndim == 2:
        return _texts(values.T.flat[start:start + BLOCK])
    return list(map(",".join, zip(*[_texts(values[:, :, k].T.flat[start:start + BLOCK])
                                    for k in range(3)])))


def _face_lines(ok: np.ndarray, cell: np.ndarray) -> Iterator[str]:
    """The ``f`` lines of the mesh on nodes ``ok`` with cells ``cell``, one
    string per block of :data:`BLOCK` cells."""
    nx = ok.shape[0]
    index = np.cumsum(_flat(ok))  # 1-based vertex ids at mesh nodes
    cells = np.flatnonzero(cell)
    for start in range(0, len(cells), BLOCK):
        k = cells[start:start + BLOCK]
        node = k + k // (nx - 1)  # each cell's corner node (i, j), x-fastest
        # a cell's corners (a, b, c, d) run counter-clockwise into triangles
        # abc and acd; one string per vertex id the block touches
        block = index[np.stack([node, node + 1, node + 1 + nx, node + nx], axis=1)]
        first = int(block.min())
        ids = list(map(str, range(first, int(block.max()) + 1)))
        t = itemgetter(*(block - first).ravel().tolist())(ids)  # >= 4 indices
        a, b, c, d = t[0::4], t[1::4], t[2::4], t[3::4]
        yield "".join(map("f %s %s %s\nf %s %s %s\n".__mod__, zip(a, b, c, a, c, d)))


def _write_blocks(table: str | Path | None, shape: tuple[int, int],
                  columns: dict[str, np.ndarray], meshes: dict[str, str | Path],
                  valid: np.ndarray | None = None) -> list[int]:
    """The CSV ``table`` of ``columns`` (none if it is None) and the OBJ mesh
    of each vector column that ``meshes`` names, at the path it maps to, in
    one pass over blocks of :data:`BLOCK` nodes, every file opened before any
    is written; returns each mesh's face count."""
    header: list[str] = []
    for name, arr in columns.items():
        if arr.shape == shape:
            header.append(name)
        elif arr.shape == shape + (3,):
            header += [f"{name}_{suffix}" for suffix in "xyz"]
        else:
            raise FieldFormatError(f"column {name!r} has unsupported shape {arr.shape}")
    nodes = {name: _mesh(columns[name], valid) for name in meshes}
    with ExitStack() as stack:
        out = stack.enter_context(open(table, "w")) if table is not None else None
        objs = {name: stack.enter_context(open(path, "w")) for name, path in meshes.items()}
        if out is not None:
            out.write(",".join(header) + "\n")
        for fh in objs.values():
            fh.write("# mosurf surface mesh\n")
        keep = {name: _flat(ok) for name, (ok, _) in nodes.items()}
        for start in range(0, shape[0] * shape[1], BLOCK):
            texts = {name: _node_texts(arr, start) for name, arr in columns.items()}
            if out is not None:
                out.write("".join([",".join(row) + "\n" for row in zip(*texts.values())]))
            for name, fh in objs.items():
                kept = "\n".join(compress(texts[name], keep[name][start:start + BLOCK].tolist()))
                if kept:  # mesh nodes are finite, so no component is blank
                    fh.write("v " + kept.replace("\n", "\nv ").replace(",", " ") + "\n")
        groups: list[tuple[np.ndarray, np.ndarray, list]] = []
        for name, (ok, cell) in nodes.items():
            group = next((g for g in groups if np.array_equal(g[0], ok)), None)
            if group is None:
                groups.append(group := (ok, cell, []))
            group[2].append(objs[name])
        for ok, cell, files in groups:
            for lines in _face_lines(ok, cell):
                for fh in files:
                    fh.write(lines)
    return [2 * int(cell.sum()) for _, cell in nodes.values()]


def write_obj(path: str | Path, points: Vec3Field, valid: np.ndarray | None = None) -> int:
    """Triangulated OBJ export; returns the number of faces written.

    Vertices are emitted for valid nodes only, in x-fastest order; each grid
    cell whose four corners are valid contributes two triangles.
    """
    values = points.values
    return _write_blocks(None, values.shape[:2], {"points": values}, {"points": path}, valid)[0]


def write_table(path: str | Path, grid: Grid2D, columns: dict[str, np.ndarray]) -> None:
    """CSV export, one node per line in x-fastest order; non-finite cells are blank.

    Vector-valued columns (nx, ny, 3) expand into ``name_x/_y/_z``.
    """
    _write_blocks(path, grid.shape, columns, {})


def write_table_and_meshes(path: str | Path, grid: Grid2D, columns: dict[str, np.ndarray],
                           meshes: dict[str, str | Path],
                           valid: np.ndarray | None = None) -> list[int]:
    """:func:`write_table` of ``columns`` and :func:`write_obj` of each vector
    column that ``meshes`` names, at the path it maps to, each node formatted
    once for all files; returns the meshes' face counts."""
    return _write_blocks(path, grid.shape, columns, meshes, valid)
