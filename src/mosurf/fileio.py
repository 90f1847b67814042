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

A vector grid, OBJ vertices or table column alike, goes through one path,
:func:`_vector_texts`, with a node's text ``"x,y,z"``.  :func:`write_obj` and
:func:`write_table` take an optional memo ``texts``, a dict owned by the
caller: ``reconstruct`` passes one to its three OBJ writes and its table, so
r, N and rbar are formatted once per node block for all four files and the
face lines are built once for every mesh on the same nodes.  The memo holds
the three vertex sections' text until the table is written: a lone
``reconstruct`` peaked at 55.7 MB instead of 55.1 MB at 201², and at 108.6 MB
instead of 83.2 MB at 401² (peak RSS, x86-64, numpy 2.4).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
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


#: nodes turned into text at a time by the array writers, so that none holds
#: a whole grid of strings (only a caller's ``texts`` memo keeps them all); a
#: block spans ~20 rows of a 201-wide grid, so the x coordinate and fields of
#: x alone repeat ~20 times within each block
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
            for i, texts in enumerate(_column_texts(values)):
                fh.write(("," if i else "") + ",".join(texts))
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


def _mesh(points: Vec3Field, valid: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The mesh nodes (finite and valid) and, in x-fastest order, the grid
    cells whose four corners are mesh nodes."""
    v = points.values
    ok = np.isfinite(v).all(axis=2)
    if valid is not None:
        ok &= valid
    return ok, _flat(ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:])


def mesh_faces(points: Vec3Field, valid: np.ndarray | None = None) -> int:
    """The number of faces :func:`write_obj` writes for these arguments."""
    return 2 * int(_mesh(points, valid)[1].sum())


def _column_texts(column: np.ndarray) -> Iterator[Sequence[str]]:
    """:func:`_texts` of each block of :data:`BLOCK` entries of ``column``
    in C order; an (ny, nx) view of a grid array is x-fastest."""
    for start in range(0, column.size, BLOCK):
        yield _texts(column.flat[start:start + BLOCK])


def _vector_texts(values: np.ndarray) -> Iterator[str]:
    """For each x-fastest block of :data:`BLOCK` nodes of an (nx, ny, 3)
    array, its node texts ``"x,y,z"`` one per line (no final newline), a
    component blank where it is not finite."""
    for block in zip(*[_column_texts(values[:, :, k].T) for k in range(3)]):
        yield "\n".join(map(",".join, zip(*block)))


def _shared_texts(values: np.ndarray, texts: dict | None) -> Iterable[str]:
    """:func:`_vector_texts` of ``values``, kept in and taken from the memo
    ``texts`` when one is given.  An entry holds its array and is used only
    for that very object, so an equal copy, or an array that happens to get
    a freed one's ``id``, is formatted afresh.  A block is kept as one
    string: about half the memory of a string per node."""
    if texts is None:
        return _vector_texts(values)
    entry = texts.get(id(values))
    if entry is None or entry[0] is not values:
        entry = texts[id(values)] = (values, list(_vector_texts(values)))
    return entry[1]


def _face_lines(ok: np.ndarray, cell: np.ndarray) -> list[str]:
    """The ``f`` lines of the mesh on nodes ``ok`` with cells ``cell``, one
    string per block of :data:`BLOCK` cells."""
    index = np.cumsum(_flat(ok)).reshape(ok.shape, order="F")  # 1-based at mesh nodes
    corners = np.stack([_flat(corner)[cell] for corner in
                        (index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:])],
                       axis=1)
    lines = []
    for start in range(0, len(corners), BLOCK):
        block = corners[start:start + BLOCK]
        # one string per vertex id the block touches; a cell's corners
        # (a, b, c, d) run counter-clockwise into triangles abc and acd
        first = int(block.min())
        ids = list(map(str, range(first, int(block.max()) + 1)))
        t = itemgetter(*(block - first).ravel().tolist())(ids)  # >= 4 indices
        a, b, c, d = t[0::4], t[1::4], t[2::4], t[3::4]
        lines.append("".join(map("f %s %s %s\nf %s %s %s\n".__mod__, zip(a, b, c, a, c, d))))
    return lines


def write_obj(path: str | Path, points: Vec3Field, valid: np.ndarray | None = None, *,
              texts: dict | None = None) -> int:
    """Triangulated OBJ export; returns the number of faces written.

    Vertices are emitted for valid nodes only, in x-fastest order; each grid
    cell whose four corners are valid contributes two triangles.

    ``texts`` is an optional memo, a dict owned by the caller and shared
    with :func:`write_table`: the vertex texts of ``points.values`` are kept
    in it, and so are the face lines with their mesh nodes, which a later
    mesh on the same nodes reuses.
    """
    ok, cell = _mesh(points, valid)
    known = texts.setdefault("faces", []) if texts is not None else []
    # matched by the nodes, not just the cells: the nodes number the vertices
    faces = next((lines for nodes, lines in known if np.array_equal(nodes, ok)), None)
    if faces is None:
        faces = _face_lines(ok, cell)
        known.append((ok, faces))
    keep = _flat(ok)
    with open(path, "w") as fh:
        fh.write("# mosurf surface mesh\n")
        for start, block in zip(range(0, len(keep), BLOCK),
                                _shared_texts(points.values, texts)):
            kept = keep[start:start + BLOCK]
            if not kept.any():
                continue
            if not kept.all():
                block = "\n".join(compress(block.split("\n"), kept.tolist()))
            # valid nodes are finite, so no component is blank
            fh.write("v " + block.replace("\n", "\nv ").replace(",", " ") + "\n")
        fh.writelines(faces)
    return 2 * int(cell.sum())


def write_table(path: str | Path, grid: Grid2D, columns: dict[str, np.ndarray], *,
                texts: dict | None = None) -> None:
    """CSV export, one node per line in x-fastest order; non-finite cells are blank.

    Vector-valued columns (nx, ny, 3) expand into ``name_x/_y/_z``; their
    texts are taken from, or kept in, the memo ``texts`` of :func:`write_obj`.
    """
    header: list[str] = []
    blocks = []  # per column, its block texts; a vector column's are "x,y,z"
    for name, arr in columns.items():
        if arr.shape == grid.shape:
            header.append(name)
            blocks.append(_column_texts(arr.T))
        elif arr.shape == grid.shape + (3,):
            header += [f"{name}_{suffix}" for suffix in "xyz"]
            blocks.append(block.split("\n") for block in _shared_texts(arr, texts))
        else:
            raise FieldFormatError(f"column {name!r} has unsupported shape {arr.shape}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(*blocks):
            fh.write("".join([",".join(row) + "\n" for row in zip(*cells)]))
