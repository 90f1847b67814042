"""Serialization round-trips and end-to-end CLI behavior."""

import json
import math
import warnings
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mosurf import fileio
from mosurf.cli import main
from mosurf.errors import FieldFormatError, SingularGridError
from mosurf.fields import Grid2D, ScalarField
from mosurf.fileio import (
    read_field_file,
    report_to_dict,
    write_field_file,
    write_obj,
    write_report_file,
    write_table,
)
from mosurf.fields import Vec3Field
from mosurf.frames import integrate_frame, reconstruct_surfaces
from mosurf.kernel import GoverningFields, ResidualReport, coefficients_from_governing
from mosurf.verify import CORE_EQUATIONS, EXTENDED_EQUATIONS


def random_governing(seed=0, kind="second", n=9):
    rng = np.random.default_rng(seed)
    grid = Grid2D.from_domain(-1, 2, 0.5, 3, n, n + 2)
    f = lambda: ScalarField(grid, rng.standard_normal(grid.shape))
    return GoverningFields(kind=kind, qn=1.5, alpha=f(), xi=f(), h=f())


def test_float_format_round_trips(tmp_path):
    rng = np.random.default_rng(1)
    samples = np.concatenate([
        rng.standard_normal(200),
        10.0 ** rng.uniform(-300, 300, 200),
        [0.0, 1.0, -1.0, np.pi, 2.0 / 3.0, 1e-308],
    ])
    grid = Grid2D.from_domain(0, 1, 0, 1, 29, 14)  # 406 nodes, one per sample
    s = samples.reshape(grid.shape, order="F")
    field = lambda a: ScalarField(grid, a)
    g = GoverningFields(kind="first", qn=1.0, alpha=field(s), xi=field(-s), h=field(s[::-1]))
    write_field_file(tmp_path / "f.json", g)
    g2, _ = read_field_file(tmp_path / "f.json")
    for name in ("alpha", "xi", "h"):  # bit for bit, so -0.0 keeps its sign
        assert getattr(g2, name).values.tobytes() == getattr(g, name).values.tobytes()

    holes = s.copy()
    holes[3, 5] = np.nan
    write_table(tmp_path / "t.csv", grid, {"s": holes, "v": np.stack([s, -s, s], axis=2)})
    rows = [ln.split(",") for ln in (tmp_path / "t.csv").read_text().splitlines()[1:]]
    assert rows[3 + 5 * 29][0] == ""
    rows[3 + 5 * 29][0] = "nan"
    cells = np.array(rows, dtype=float)
    assert np.array_equal(cells[:, 1], samples) and np.array_equal(cells[:, 2], -samples)
    assert np.array_equal(cells[:, 0], holes.ravel(order="F"), equal_nan=True)

    pts = np.stack([s, -s, s[::-1]], axis=2)
    assert write_obj(tmp_path / "m.obj", Vec3Field(grid, pts)) == 2 * 28 * 13
    lines = (tmp_path / "m.obj").read_text().splitlines()
    verts = np.array([ln.split()[1:] for ln in lines if ln.startswith("v ")], dtype=float)
    assert np.array_equal(verts, pts.transpose(1, 0, 2).reshape(-1, 3))


def test_report_numpy_values_and_nan(tmp_path):
    grid = Grid2D.from_domain(0, 1, 0, 1, 3, 3)
    path = tmp_path / "rep.json"
    diag = {"count": np.int64(3), "curve": np.array([0.5, 2.0]), "dev": np.float64(1e-300)}
    write_report_file(path, report_to_dict(ResidualReport(grid), "first", 1.0, diagnostics=diag))
    assert json.loads(path.read_text())["diagnostics"] == {
        "count": 3, "curve": [0.5, 2.0], "dev": 1e-300}
    # a non-finite value is a non-finite output, named by its JSON path and
    # rejected before the file is opened
    bad = tmp_path / "bad.json"
    doc = report_to_dict(ResidualReport(grid), "first", 1.0,
                         diagnostics={"dev": float("nan"), "curve": np.array([0.5, np.inf])})
    named = r"entries diagnostics\.dev, diagnostics\.curve\[1\];"
    with pytest.raises(SingularGridError, match=named):
        write_report_file(bad, doc)
    assert not bad.exists()


def test_field_file_round_trip_is_bit_exact(tmp_path):
    g = random_governing()
    path = tmp_path / "f.json"
    write_field_file(path, g, seed={"family": "none", "qn": g.qn})
    g2, seed = read_field_file(path)
    assert g2.kind == g.kind and g2.qn == g.qn
    assert g2.grid == g.grid
    for name in ("alpha", "xi", "h"):
        assert np.array_equal(getattr(g, name).values, getattr(g2, name).values)
        assert getattr(g2, name).values.flags.c_contiguous
    assert seed["family"] == "none"


def test_field_file_rejects_nan_payload(tmp_path):
    g = random_governing()
    path = tmp_path / "f.json"
    write_field_file(path, g)
    doc = json.loads(path.read_text())
    doc["fields"]["xi"][7] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=r"'xi' at flat index 7"):
        read_field_file(path)
    # a flagged node's placeholder must be a finite number too
    doc["flagged"] = [7]
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=r"'xi' at flat index 7"):
        read_field_file(path)


@pytest.mark.parametrize("value", ["1.5", True, False])
def test_field_file_rejects_non_number_payload(tmp_path, value):
    # numpy alone would read "1.5" as 1.5 and true as 1.0
    g = random_governing()
    path = tmp_path / "f.json"
    write_field_file(path, g)
    doc = json.loads(path.read_text())
    doc["fields"]["xi"][7] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=r"'xi' at flat index 7"):
        read_field_file(path)


@pytest.mark.parametrize("entry,value,message", [
    ("qn", float("nan"), "qn must be finite"),
    ("qn", 10**400, "qn must be finite"),
    ("qn", True, "qn must be a number"),
    ("grid.dx", float("inf"), "grid dx must be finite"),
    ("grid.dx", 1e-300, "grid spacings out of range"),
    ("grid.dy", 1e307, "grid spacings out of range"),
    ("grid.x0", "0", "grid x0 must be a number"),
    ("grid.nx", 9.5, "grid nx must be an integer"),
    ("grid.ny", "11", "grid ny must be an integer"),
    ("version", "1", "version must be an integer"),
    ("version", 1.0, "version must be an integer"),
])
def test_field_file_rejects_bad_header_entry(tmp_path, entry, value, message):
    # json reads NaN and Infinity; float() and int() would take the rest
    path = tmp_path / "f.json"
    write_field_file(path, random_governing())
    doc = json.loads(path.read_text())
    *parents, key = entry.split(".")
    (doc[parents[0]] if parents else doc)[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=message):
        read_field_file(path)


def test_field_file_accepts_integer_header_numbers(tmp_path):
    # older files may write integral floats as integers
    path = tmp_path / "f.json"
    g = random_governing()
    write_field_file(path, g)
    doc = json.loads(path.read_text())
    doc["qn"], doc["grid"]["y0"] = 2, 1
    path.write_text(json.dumps(doc))
    g2, _ = read_field_file(path)
    assert g2.qn == 2.0 and g2.grid.y0 == 1.0 and g2.grid.x0 == g.grid.x0


def test_field_file_rejects_unparsable_text(tmp_path):
    # neither is a JSONDecodeError: a ValueError on integers too long to
    # convert and on bytes that are not UTF-8, a RecursionError on deep nesting
    p = tmp_path / "bad.json"
    for data in (b'{"qn": ' + b"9" * 5000 + b"}", b"\xff\xfe", b"[" * 100000):
        p.write_bytes(data)
        with pytest.raises(FieldFormatError, match="cannot parse"):
            read_field_file(p)


def test_field_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FieldFormatError):
        read_field_file(p)
    p.write_text(json.dumps({"format": "other"}))
    with pytest.raises(FieldFormatError):
        read_field_file(p)


def with_nan(g, field, mask):
    """``g`` with NaN in one field at ``mask``."""
    values = {name: getattr(g, name).values for name in ("alpha", "xi", "h")}
    values[field] = np.where(mask, np.nan, values[field])
    grid = g.grid
    return GoverningFields(kind=g.kind, qn=g.qn,
                           **{k: ScalarField(grid, v) for k, v in values.items()})


@pytest.mark.parametrize("where", ["node", "column", "all-but-one"])
def test_field_file_flagged_nodes_round_trip(tmp_path, where):
    g = random_governing()
    mask = np.zeros(g.grid.shape, dtype=bool)
    if where == "node":
        mask[4, 7] = True
    elif where == "column":  # every node at one x, strided in the x-fastest payload
        mask[3, :] = True
    else:
        mask[:] = True
        mask[2, 5] = False
    gn = with_nan(with_nan(g, "xi", mask), "h", mask & (np.arange(g.grid.ny) % 2 == 0))
    path = tmp_path / "f.json"
    write_field_file(path, gn)
    doc = json.loads(path.read_text())
    assert doc["flagged"] == np.flatnonzero(mask.ravel(order="F")).tolist()
    assert all(doc["fields"]["alpha"][k] == 0.0 for k in doc["flagged"])
    g2, _ = read_field_file(path)
    for name in ("alpha", "xi", "h"):  # a NaN in any field flags the node in all three
        got = getattr(g2, name).values
        assert np.array_equal(np.isnan(got), mask), name
        assert got[~mask].tobytes() == getattr(g, name).values[~mask].tobytes(), name


def test_field_file_every_node_nonfinite_is_numerical_failure(tmp_path):
    g = random_governing()
    path = tmp_path / "f.json"
    with pytest.raises(SingularGridError, match="every node"):
        write_field_file(path, with_nan(g, "alpha", np.ones(g.grid.shape, dtype=bool)))
    assert not path.exists()


def test_field_file_reads_legacy_seed_flagged(tmp_path):
    # files of older versions listed flagged nodes under the seed entry
    g = random_governing()
    mask = np.zeros(g.grid.shape, dtype=bool)
    mask[1, 2] = mask[8, 10] = True
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    write_field_file(new, with_nan(g, "alpha", mask))
    doc = json.loads(new.read_text())
    doc["seed"] = {"flagged": doc.pop("flagged")}
    old.write_text(json.dumps(doc))
    g_new, _ = read_field_file(new)
    g_old, _ = read_field_file(old)
    for name in ("alpha", "xi", "h"):
        assert np.array_equal(getattr(g_old, name).values, getattr(g_new, name).values,
                              equal_nan=True)
        assert np.array_equal(np.isnan(getattr(g_old, name).values), mask)


@pytest.mark.parametrize("flagged", [{"0": 1}, [True], [3.0], [-1], [99], list(range(99)) + [0]],
                         ids=["not-a-list", "boolean", "float", "negative", "past-end", "every"])
def test_field_file_rejects_bad_flagged(tmp_path, flagged):
    message = r"flagged must list node indices in \[0, 99\) and leave a node unflagged"
    path = tmp_path / "f.json"
    write_field_file(path, random_governing())  # 9 x 11 nodes
    doc = json.loads(path.read_text())
    doc["flagged"] = flagged
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=message):
        read_field_file(path)
    doc["seed"] = {"flagged": doc.pop("flagged")}
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match=message):
        read_field_file(path)


def test_obj_writer_structure(tmp_path):
    grid = Grid2D.from_domain(0, 1, 0, 1, 4, 3)
    X, Y = grid.meshgrid()
    pts = Vec3Field(grid, np.stack([X, Y, X * Y], axis=2))
    path = tmp_path / "m.obj"
    faces = write_obj(path, pts)
    lines = path.read_text().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_f = sum(1 for ln in lines if ln.startswith("f "))
    assert n_v == 12
    assert faces == n_f == 2 * 3 * 2  # two triangles per cell
    # flagged node removes its four cells
    valid = np.ones(grid.shape, dtype=bool)
    valid[1, 1] = False
    faces2 = write_obj(path, pts, valid)
    assert faces2 == faces - 8


def test_table_writer(tmp_path):
    grid = Grid2D.from_domain(0, 1, 0, 1, 3, 3)
    X, Y = grid.meshgrid()
    vec = np.stack([X, Y, X + Y], axis=2)
    path = tmp_path / "t.csv"
    write_table(path, grid, {"x": X, "r": vec})
    lines = path.read_text().splitlines()
    assert lines[0] == "x,r_x,r_y,r_z"
    assert len(lines) == 1 + 9
    # x-fastest: second row is node (1, 0)
    assert lines[2].startswith("0.5,")


# ---------------------------------------------------------------------------
# Byte oracle: the per-value writers the blocked ones replaced, frozen
# ---------------------------------------------------------------------------


def _reference_plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_flat(values):
    return values.ravel(order="F")


def reference_write_field_file(path, g, seed=None):
    """One ``json.dumps`` of the whole document, every float by its repr."""
    fields = {name: _reference_flat(getattr(g, name).values) for name in ("alpha", "xi", "h")}
    bad = ~np.logical_and.reduce([np.isfinite(v) for v in fields.values()])
    grid = g.grid
    doc = {
        "format": "mosurf-fields",
        "version": 1,
        "kind": g.kind,
        "qn": g.qn,
        "grid": {"nx": grid.nx, "ny": grid.ny, "x0": grid.x0, "y0": grid.y0,
                 "dx": grid.dx, "dy": grid.dy},
        "fields": fields,
    }
    if bad.any():
        doc["fields"] = {name: np.where(bad, 0.0, v) for name, v in fields.items()}
        doc["flagged"] = np.flatnonzero(bad)
    if seed is not None:
        doc["seed"] = seed
    text = json.dumps(doc, allow_nan=False, default=_reference_plain, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def reference_write_obj(path, points, valid=None):
    """One ``%r`` per vertex coordinate and one ``%d`` per face corner."""
    v = points.values
    ok = np.isfinite(v).all(axis=2)
    if valid is not None:
        ok &= valid
    index = np.cumsum(_reference_flat(ok)).reshape(ok.shape, order="F")
    cell = _reference_flat(ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:])
    a, b, c, d = (_reference_flat(corner)[cell] for corner in
                  (index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]))
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    with open(path, "w") as fh:
        fh.write("# mosurf surface mesh\n")
        fh.writelines("v %r %r %r\n" % tuple(p) for p in v.transpose(1, 0, 2)[ok.T].tolist())
        fh.writelines("f %d %d %d\n" % tuple(t) for t in triangles.tolist())
    return len(triangles)


def reference_write_table(path, grid, columns):
    """One ``repr`` per finite cell, row by row."""
    flat = {}
    for name, arr in columns.items():
        if arr.shape == grid.shape:
            flat[name] = _reference_flat(arr)
        else:
            for k, suffix in enumerate("xyz"):
                flat[f"{name}_{suffix}"] = _reference_flat(arr[:, :, k])
    table = np.stack(list(flat.values()), axis=1)
    with open(path, "w") as fh:
        fh.write(",".join(flat) + "\n")
        for row in table:
            fh.write(",".join([repr(x) if math.isfinite(x) else "" for x in row.tolist()]) + "\n")


def oracle_grid(n):
    """A grid of ``n`` nodes, as square as ``n`` allows; where no Grid2D has
    ``n`` nodes (n = 1, primes) a bare ``(n, 1)`` shape, which the table and
    OBJ writers accept."""
    for nx in range(math.isqrt(n), 2, -1):
        if n % nx == 0 and n // nx >= 3:
            return Grid2D(nx, n // nx)
    return SimpleNamespace(shape=(n, 1))


def oracle_columns(shape, seed=0):
    """Float columns on ``shape`` that stress the formatter: wide exponents,
    signed zeros, subnormals, long reprs, non-finite cells and repeats."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    pick = lambda *values: rng.choice(np.array(values, dtype=float), n)
    x = np.linspace(-1.0, 2.0, shape[0])[:, None] * np.ones(shape)
    cols = {
        "normal": rng.standard_normal(n),
        "wide": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
        "zeros": pick(0.0, -0.0, 5e-324, -5e-324, 1.0),
        "big": 1e16 + rng.integers(-4, 5, n) * 2.0,
        "small": 1e-5 * (1.0 + rng.integers(-3, 4, n) * np.finfo(float).eps),
        "holes": np.where(rng.random(n) < 0.1, pick(np.nan, np.inf, -np.inf),
                          rng.standard_normal(n)),
        "constant": np.full(n, 0.1 + 0.2),
    }
    out = {name: v.reshape(shape, order="F") for name, v in cols.items()}
    out["of_x"] = np.sin(x)  # one-variable: repeats along y
    return out


ORACLE_COUNTS = (1, fileio.BLOCK - 1, fileio.BLOCK, fileio.BLOCK + 1, 2 * fileio.BLOCK + 1)


def assert_same_bytes(tmp_path, write, reference, *args, **kwargs):
    got, want = tmp_path / "got", tmp_path / "want"
    assert write(got, *args, **kwargs) == reference(want, *args, **kwargs)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", ORACLE_COUNTS)
def test_table_bytes_match_per_value_writer(tmp_path, n):
    grid = oracle_grid(n)
    cols = oracle_columns(grid.shape, seed=n)
    cols["vec"] = np.stack([cols["normal"], cols["zeros"], cols["holes"]], axis=2)
    assert_same_bytes(tmp_path, write_table, reference_write_table, grid, cols)


@pytest.mark.parametrize("n", ORACLE_COUNTS)
def test_obj_bytes_match_per_value_writer(tmp_path, n):
    grid = oracle_grid(n)
    cols = oracle_columns(grid.shape, seed=n)
    rng = np.random.default_rng(n)
    valid = rng.random(grid.shape) > 0.05
    for names in (("normal", "wide", "zeros"), ("of_x", "constant", "big"),
                  ("small", "holes", "normal")):
        values = np.stack([cols[k] for k in names], axis=2)
        points = (Vec3Field(grid, values) if isinstance(grid, Grid2D)
                  else SimpleNamespace(values=values))
        assert_same_bytes(tmp_path, write_obj, reference_write_obj, points)
        assert_same_bytes(tmp_path, write_obj, reference_write_obj, points, valid)


@pytest.mark.parametrize("n", ORACLE_COUNTS[1:])  # a Grid2D has at least 9 nodes
def test_field_file_bytes_match_per_value_writer(tmp_path, n):
    grid = oracle_grid(n)
    cols = oracle_columns(grid.shape, seed=n)
    seed = {"family": "cmc", "qn": -0.0, "domain": [0.0, 2.0, 1e-5, 1e16], "alpha0": 5e-324}
    for kind, names in (("first", ("normal", "wide", "zeros")),
                        ("second", ("of_x", "constant", "big")),
                        ("first", ("small", "holes", "of_x"))):  # holes: flagged nodes
        g = GoverningFields(kind=kind, qn=0.1 + 0.2,
                            **{k: ScalarField(grid, cols[c]) for k, c in
                               zip(("alpha", "xi", "h"), names)})
        assert_same_bytes(tmp_path, write_field_file, reference_write_field_file, g)
        assert_same_bytes(tmp_path, write_field_file, reference_write_field_file, g, seed=seed)


@pytest.mark.parametrize("block", [1, 2, 7, 8, 9, 10, 17])
def test_writers_match_per_value_writers_at_any_block_size(tmp_path, monkeypatch, block):
    # a 3 x 3 grid of 9 nodes spans one to nine blocks, ending on and off
    # a block boundary
    monkeypatch.setattr(fileio, "BLOCK", block)
    grid = Grid2D(3, 3)
    cols = oracle_columns(grid.shape, seed=block)
    assert_same_bytes(tmp_path, write_table, reference_write_table, grid, cols)
    points = Vec3Field(grid, np.stack([cols["zeros"], cols["of_x"], cols["holes"]], axis=2))
    assert_same_bytes(tmp_path, write_obj, reference_write_obj, points)
    g = GoverningFields(kind="first", qn=1.0, alpha=ScalarField(grid, cols["zeros"]),
                        xi=ScalarField(grid, cols["holes"]), h=ScalarField(grid, cols["of_x"]))
    assert_same_bytes(tmp_path, write_field_file, reference_write_field_file, g, seed={"a": 1})


@pytest.mark.parametrize("qn,seed", [(float("nan"), None), (1.0, {"alpha0": float("inf")})])
def test_field_file_nonfinite_header_leaves_no_file(tmp_path, qn, seed):
    g = random_governing()
    g = GoverningFields(kind=g.kind, qn=qn, alpha=g.alpha, xi=g.xi, h=g.h)
    path = tmp_path / "f.json"
    with pytest.raises(FieldFormatError, match="non-finite"):
        write_field_file(path, g, seed=seed)
    assert not path.exists()


def test_texts_keeps_bit_patterns_apart():
    # -0.0 == 0.0, and np.unique on the floats would print both alike
    values = np.array([0.0, -0.0, 0.0, -0.0, np.nan, -np.inf, 1.5, 1.5])
    assert list(fileio._texts(values)) == ["0.0", "-0.0", "0.0", "-0.0", "", "", "1.5", "1.5"]
    assert list(fileio._texts(np.array([-0.0]))) == ["-0.0"]
    assert list(fileio._texts(np.array([]))) == []


def count_calls(monkeypatch, name):
    """Count the calls of ``fileio.<name>``; the list holds one entry per call."""
    calls = []
    fn = getattr(fileio, name)
    monkeypatch.setattr(fileio, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def test_memo_is_keyed_by_the_array_object(tmp_path, monkeypatch):
    grid = Grid2D(5, 4)
    cols = oracle_columns(grid.shape)
    points = Vec3Field(grid, np.stack([cols["normal"], cols["zeros"], cols["holes"]], axis=2))
    formatted = count_calls(monkeypatch, "_vector_texts")
    texts = {}
    assert_same_bytes(tmp_path, partial(write_obj, texts=texts), reference_write_obj, points)
    assert_same_bytes(tmp_path, partial(write_table, texts=texts), reference_write_table,
                      grid, {"v": points.values})
    assert len(formatted) == 1  # the table took the OBJ's texts
    # an equal copy is another array: formatted afresh, to the same bytes
    assert_same_bytes(tmp_path, partial(write_table, texts=texts), reference_write_table,
                      grid, {"v": points.values.copy()})
    assert len(formatted) == 2


def test_face_memo_is_keyed_by_the_mesh_nodes(tmp_path, monkeypatch):
    # without node (1, 1) cell (0, 0) is lost, and node (0, 0) lies on no
    # other cell: dropping it too leaves the cells as they were, but shifts
    # every vertex id, so the face lines must be built again
    grid = Grid2D(4, 4)
    X, Y = grid.meshgrid()
    points = Vec3Field(grid, np.stack([X, Y, X * Y], axis=2))
    valid = np.ones(grid.shape, dtype=bool)
    valid[1, 1] = False
    fewer = valid.copy()
    fewer[0, 0] = False
    built = count_calls(monkeypatch, "_face_lines")
    texts = {}
    for mask in (valid, valid.copy(), fewer, valid):
        assert_same_bytes(tmp_path, partial(write_obj, texts=texts), reference_write_obj,
                          points, mask)
    assert len(built) == 2


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def run(args):
    return main(args)


def test_cli_seed_cmc_contract(tmp_path):
    out = tmp_path / "cmc.json"
    code = run(["seed", "--family", "cmc", "--alpha0", "1.0", "--qn", "1.0",
                "--domain", "0:2:0:2", "--nx", "41", "--ny", "41", "-o", str(out)])
    assert code == 0
    g, seed = read_field_file(out)
    assert g.kind == "first"
    assert np.all(g.h.values == 1.0)
    assert seed["family"] == "cmc"


def test_cli_seed_pseudospherical_contract(tmp_path):
    out = tmp_path / "ps.json"
    code = run(["seed", "--family", "pseudospherical", "--v", "0.3",
                "--domain", "-3:3:-3:3", "--nx", "31", "--ny", "31", "-o", str(out)])
    assert code == 0
    g, _ = read_field_file(out)
    assert g.kind == "second"
    assert np.all(g.xi.values == 0.0)


def test_cli_seed_liouville_contract(tmp_path):
    out = tmp_path / "lv.json"
    code = run(["seed", "--family", "liouville", "--a", "0.353553", "--c1", "0",
                "--domain", "-1:1:-1:1", "--nx", "21", "--ny", "21", "-o", str(out)])
    assert code == 0
    g, _ = read_field_file(out)
    assert np.all(g.alpha.values == np.pi / 4)


def test_cli_verify_registry_and_gates(tmp_path, capsys):
    out = tmp_path / "cmc.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
         "--nx", "101", "--ny", "101", "-o", str(out)])
    code = run(["verify", str(out), "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    for name in CORE_EQUATIONS + EXTENDED_EQUATIONS:
        assert name in doc["equations"], name
    assert doc["equations"]["equilibrium-3"]["linf"] < 1e-12
    assert doc["equations"]["orthogonality"]["linf"] < 1e-12


def test_cli_verify_refine_orders(tmp_path):
    out = tmp_path / "lv.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "liouville", "--a", "0.5", "--c1", "-0.2",
         "--domain", "-1:1:-1:1", "--nx", "51", "--ny", "51", "-o", str(out)])
    code = run(["verify", str(out), "--refine", "1", "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert 1.7 <= doc["orders"]["governing-3"] <= 2.3
    assert doc["orders"]["orthogonality"] is None  # exact identity


def _set_payload(doc, value):
    doc["fields"]["alpha"][3] = value


@pytest.mark.parametrize("corrupt", [
    lambda doc: _set_payload(doc, float("nan")),
    lambda doc: _set_payload(doc, "x"),
    lambda doc: doc.update(kind="third"),
    lambda doc: doc.update(qn=0),
    lambda doc: doc.update(qn="one"),
    lambda doc: doc.update(version="one"),
    lambda doc: _set_payload(doc, 10**400),
    lambda doc: doc["grid"].update(nx=float("inf")),
    lambda doc: _set_payload(doc, "1.5"),
    lambda doc: _set_payload(doc, True),
    lambda doc: _set_payload(doc, False),
], ids=["nan-payload", "text-payload", "kind-third", "qn-zero", "qn-text", "version-text",
        "huge-int-payload", "nx-infinite", "number-text-payload", "true-payload",
        "false-payload"])
def test_cli_verify_corrupted_payload_exit_code(tmp_path, capsys, corrupt):
    out = tmp_path / "f.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mosurf: error:") and err.count("mosurf: error:") == 1


@pytest.mark.parametrize("corrupt", [
    lambda seed: seed.pop("domain"),
    lambda seed: seed.pop("alpha0"),
    lambda seed: seed.update(qn="one"),
    lambda seed: seed.update(domain=[0, 1, 0]),
    lambda seed: seed.update(family="sphere"),
    lambda seed: seed["domain"].__setitem__(1, 10**400),  # float() overflows
    lambda seed: seed["domain"].__setitem__(1, float("inf")),
    lambda seed: seed.update(alpha0=float("nan")),
    lambda seed: seed.update(alpha0=0.0),  # parses, but gives no seed
    lambda seed: seed.update(family="pseudospherical", v=1.5),
    # the field header's number rule: a string or boolean is not a number,
    # although float() would read it
    lambda seed: seed.update(alpha0="1.0"),
    lambda seed: seed.update(alpha0=True),
    lambda seed: seed.update(domain=["0", "1", "0", "1"]),
    lambda seed: seed.update(domain=[False, 1, 0, 1]),
], ids=["no-domain", "no-alpha0", "qn-text", "short-domain", "unknown-family",
        "huge-int-domain", "infinite-domain", "nan-alpha0", "alpha0-zero", "kink-v",
        "string-alpha0", "bool-alpha0", "string-domain", "bool-domain"])
def test_cli_verify_refine_bad_seed_header_exit_code(tmp_path, capsys, corrupt):
    out = tmp_path / "f.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    corrupt(doc["seed"])
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 0
    capsys.readouterr()
    assert run(["verify", str(out), "--refine", "1"]) == 2
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("mosurf: error:") and err.count("mosurf: error:") == 1
    assert f"error: {out}: " in err and captured.out == ""


def test_cli_verify_refine_reads_integer_seed_numbers(tmp_path):
    # JSON integers stay valid seed numbers, and give the same refinement
    out = tmp_path / "f.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    doc["seed"].update(alpha0=1, qn=1, domain=[0, 1, 0, 1])
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(doc))
    reports = []
    for path in (out, ints):
        rep = tmp_path / f"{path.stem}_report.json"
        assert run(["verify", str(path), "--refine", "1", "--report", str(rep)]) == 0
        reports.append(json.loads(rep.read_text()))
    assert reports[0]["orders"] == reports[1]["orders"]


def test_cli_reconstruct_outputs(tmp_path):
    out = tmp_path / "cmc.json"
    rep = tmp_path / "rec.json"
    run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
         "--nx", "101", "--ny", "101", "-o", str(out)])
    code = run(["reconstruct", str(out), "-o", str(tmp_path / "mesh"), "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    d = doc["diagnostics"]
    assert d["orthonormality_drift"] < 1e-6
    assert d["normal_unit_max_dev"] < 1e-6
    assert abs(d["mean_curvature_mean"] + 0.5) < 1e-3
    # N-mesh vertices all on the unit sphere
    radii = []
    for line in (tmp_path / "mesh_N.obj").read_text().splitlines():
        if line.startswith("v "):
            _, x, y, z = line.split()
            radii.append(np.sqrt(float(x) ** 2 + float(y) ** 2 + float(z) ** 2))
    assert np.max(np.abs(np.array(radii) - 1.0)) < 1e-6
    assert (tmp_path / "mesh_table.csv").exists()
    assert (tmp_path / "mesh_rbar.obj").exists()


def test_cli_reconstruct_all_flagged_is_numerical_failure(tmp_path):
    # second kind with h = tan(alpha) collapses A2 identically: every stress
    # node is flagged and no mesh cell survives
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    g = GoverningFields(
        kind="second", qn=1.0,
        alpha=ScalarField(grid, np.full(grid.shape, np.pi / 4)),
        xi=ScalarField(grid, np.zeros(grid.shape)),
        h=ScalarField(grid, np.full(grid.shape, 1.0)),
    )
    path = tmp_path / "deg.json"
    write_field_file(path, g)
    code = run(["reconstruct", str(path), "-o", str(tmp_path / "mesh")])
    assert code == 3
    # the empty mesh is found before any file is opened
    assert not list(tmp_path.glob("mesh_*"))


def test_cli_stress_table(tmp_path):
    out = tmp_path / "ps.json"
    run(["seed", "--family", "pseudospherical", "--v", "0.3", "--qn", "2.0",
         "--domain", "0.7:1.3:-0.5:0.5", "--nx", "21", "--ny", "21", "-o", str(out)])
    csv = tmp_path / "T.csv"
    assert run(["stress", str(out), "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,T1,T2"
    assert len(lines) == 1 + 21 * 21


def _blank_stress_rows(csv):
    """Indices (x-fastest) of the stress table rows whose T1 and T2 are blank."""
    rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:]]
    assert all((t1 == "") == (t2 == "") for _, _, t1, t2 in rows)
    return {k for k, (_, _, t1, _) in enumerate(rows) if t1 == ""}


def test_cli_stress_flagged_counts_guard_trips(tmp_path, capsys):
    # flagged= counts the nodes where |A1| or |A2| < EPS_DIV; on the README
    # Liouville seed A2 vanishes on the x = 0 column, whose cells are blank
    src, csv = tmp_path / "liou.json", tmp_path / "T.csv"
    assert run(["seed", "--family", "liouville", "--a", "0.353553", "--c1", "0",
                "--domain", "-1:1:-1:1", "--nx", "101", "--ny", "101", "-o", str(src)]) == 0
    capsys.readouterr()
    assert run(["stress", str(src), "-o", str(csv)]) == 0
    assert " flagged=101 " in capsys.readouterr().out
    assert _blank_stress_rows(csv) == {50 + 101 * j for j in range(101)}


def test_cli_stress_flagged_skips_flagged_input_nodes(tmp_path, capsys):
    # the flagged nodes of a primed file read back as NaN: their cells are
    # blank, but they are not stress-guard trips, so flagged= does not count them
    src, primed, csv = tmp_path / "kink.json", tmp_path / "p.json", tmp_path / "T.csv"
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3",
                "--domain", "-3:3:-3:3", "--nx", "31", "--ny", "31", "-o", str(src)]) == 0
    assert run(["backlund", str(src), "--m", "0.3", "--init", "0,1,0.1", "-o", str(primed)]) == 0
    capsys.readouterr()
    assert run(["stress", str(primed), "-o", str(csv)]) == 0
    assert " flagged=0 " in capsys.readouterr().out
    flagged = json.loads(primed.read_text())["flagged"]
    assert len(flagged) == 48
    assert _blank_stress_rows(csv) == set(flagged)


def test_cli_backlund_and_reverify(tmp_path):
    src = tmp_path / "cmc.json"
    primed = tmp_path / "primed.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "101", "--ny", "101", "-o", str(src)])
    code = run(["backlund", str(src), "--m", "1.0", "--init", "0,1,1.7",
                "-o", str(primed), "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    d = doc["diagnostics"]
    assert d["constraint_drift"] < 1e-6
    assert d["theorem_vs_raw_max_dev"] < 1e-8
    assert d["singular_nodes"] == 0
    # the primed file is a valid field file of the same kind and re-passes
    # every residual gate through the verify command
    g2, _ = read_field_file(primed)
    assert g2.kind == "first"
    rep2 = tmp_path / "rep2.json"
    assert run(["verify", str(primed), "--report", str(rep2)]) == 0
    doc2 = json.loads(rep2.read_text())
    for name in ("equilibrium-3", "first-integral-1", "first-integral-2",
                 "constraint", "orthogonality"):
        assert doc2["equations"][name]["linf"] < 1e-12, name
    h2 = g2.grid.hmax**2
    for name, entry in doc2["equations"].items():
        assert entry["linf"] < 20 * h2, (name, entry["linf"])


def test_cli_backlund_bianchi_darboux_report(tmp_path):
    src = tmp_path / "cmc.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "101", "--ny", "101", "-o", str(src)])
    code = run(["backlund", str(src), "--m", "2.0", "--bianchi-darboux",
                "-o", str(tmp_path / "bd.json"), "--report", str(rep)])
    assert code == 0
    d = json.loads(rep.read_text())["diagnostics"]
    assert d["constraint_drift"] < 1e-6
    assert 0.0 < d["lax_path_independence"] < 1e-4
    assert d["e_xi_prime_max_dev"] < 1e-6
    assert d["h_prime_max_dev"] < 1e-6
    assert d["e_alpha_prime_identity_max_dev"] < 1e-6
    assert d["chi_minus_qn_phi_max_dev"] < 1e-10
    # phi0 is solved from the constraint, not read from --init:
    # phi0^2 - 2 phi0 + 1/(2 mbar) = 0 with mbar = m qn / 2 = 1
    assert d["init"] == [0.0, 1.0, 1.0 + np.sqrt(0.5)]


def test_cli_bianchi_darboux_reports_the_swept_m(tmp_path, capsys):
    # --m becomes mbar = m qn / 2, and Bianchi-Darboux sweeps m = 2 mbar / qn,
    # which at qn = 0.7 rounds 1.5 to 1.4999999999999998; the report and the
    # summary line give the m that was swept
    src, rep = tmp_path / "cmc.json", tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--qn", "0.7", "--domain", "0:1:0:1",
         "--nx", "21", "--ny", "21", "-o", str(src)])
    swept = 2.0 * (1.5 * 0.7 / 2.0) / 0.7
    assert swept != 1.5
    capsys.readouterr()
    assert run(["backlund", str(src), "--m", "1.5", "--bianchi-darboux",
                "-o", str(tmp_path / "bd.json"), "--report", str(rep)]) == 0
    assert json.loads(rep.read_text())["diagnostics"]["m"] == swept
    assert f" m={swept!r} " in capsys.readouterr().out


def test_cli_backlund_second_kind_with_singular_lax_nodes(tmp_path):
    # the README kink seed has Lax nodes made non-finite by stress-flagged
    # coefficients; the drift is taken over the finite nodes, so the report
    # is still written
    src = tmp_path / "kink.json"
    rep = tmp_path / "rep.json"
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3",
                "--domain", "-3:3:-3:3", "--nx", "31", "--ny", "31", "-o", str(src)]) == 0
    code = run(["backlund", str(src), "--m", "0.3", "--init", "0,1,0.1",
                "-o", str(tmp_path / "p.json"), "--report", str(rep)])
    assert code == 0
    d = json.loads(rep.read_text())["diagnostics"]
    assert d["singular_nodes"] > 0
    assert np.isfinite(d["constraint_drift"]) and d["constraint_drift"] < 1e-6


def test_cli_reconstruct_primed_kink_with_flagged_nodes(tmp_path):
    # the primed kink's flagged nodes poison the frame sweeps downstream of
    # them; the diagnostics are maxima over the finite nodes, so the report is
    # written with finite values and counts the nodes whose normal is lost
    src, primed, rep = tmp_path / "kink.json", tmp_path / "p.json", tmp_path / "krec.json"
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3",
                "--domain", "-3:3:-3:3", "--nx", "31", "--ny", "31", "-o", str(src)]) == 0
    assert run(["backlund", str(src), "--m", "0.3", "--init", "0,1,0.1", "-o", str(primed)]) == 0
    code = run(["reconstruct", str(primed), "-o", str(tmp_path / "kmesh"), "--report", str(rep)])
    assert code == 0
    d = json.loads(rep.read_text())["diagnostics"]
    assert all(np.isfinite(v) for v in d.values())
    assert d["flagged_nodes"] > 0
    assert 0 < d["frame_nonfinite_nodes"] < 31 * 31


def reference_reconstruct(field_path, prefix):
    """The four files of ``reconstruct``, written by the per-value writers
    from a fresh build of the same triple and coefficients."""
    g, _ = read_field_file(field_path)
    c = coefficients_from_governing(g)
    triple, _ = reconstruct_surfaces(integrate_frame(c, np.eye(3)), c)
    for name in ("r", "rbar", "N"):
        reference_write_obj(f"{prefix}_{name}.obj", getattr(triple, name), ~c.flagged)
    X, Y = g.grid.meshgrid()
    reference_write_table(f"{prefix}_table.csv", g.grid, {
        "x": X, "y": Y,
        "r": triple.r.values, "N": triple.N.values, "rbar": triple.rbar.values,
        "A1": c.A1, "A2": c.A2, "Ho": c.Ho, "Ko": c.Ko, "T1": c.T1, "T2": c.T2,
    })


RECONSTRUCT_CASES = {
    # blocks of 64 nodes split the rows of a 21-wide grid
    "cmc": (64, [["seed", "--family", "cmc", "--domain", "0:2:0:2",
                  "--nx", "21", "--ny", "21", "-o", "{src}"]]),
    # flagged nodes: partially valid blocks and blank table cells
    "primed_kink": (100, [["seed", "--family", "pseudospherical", "--v", "0.3",
                           "--domain", "-3:3:-3:3", "--nx", "31", "--ny", "31", "-o", "{tmp}"],
                          ["backlund", "{tmp}", "--m", "0.3", "--init", "0,1,0.1",
                           "-o", "{src}"]]),
    # A2 vanishes on the x = 0 column: stress-flagged nodes, downstream of
    # which rbar is NaN while r and N are not, so rbar's mesh has other faces
    "stress_flagged": (fileio.BLOCK, [["seed", "--family", "liouville", "--a", "0.353553",
                                       "--c1", "0", "--domain", "-1:1:-1:1",
                                       "--nx", "21", "--ny", "21", "-o", "{src}"]]),
}


@pytest.mark.parametrize("case", list(RECONSTRUCT_CASES))
def test_cli_reconstruct_files_match_per_value_writers(tmp_path, monkeypatch, case):
    block, commands = RECONSTRUCT_CASES[case]
    src = tmp_path / "src.json"
    for command in commands:
        assert run([a.format(src=src, tmp=tmp_path / "tmp.json") for a in command]) == 0
    monkeypatch.setattr(fileio, "BLOCK", block)
    built = count_calls(monkeypatch, "_face_lines")
    assert run(["reconstruct", str(src), "-o", str(tmp_path / "got")]) == 0
    reference_reconstruct(src, tmp_path / "want")
    for name in ("r.obj", "rbar.obj", "N.obj", "table.csv"):
        got = (tmp_path / f"got_{name}").read_bytes()
        assert got == (tmp_path / f"want_{name}").read_bytes(), name
    faces = {name: [ln for ln in (tmp_path / f"got_{name}.obj").read_text().splitlines()
                    if ln.startswith("f ")] for name in ("r", "rbar", "N")}
    assert faces["N"] == faces["r"]
    assert (faces["rbar"] != faces["r"]) == (case == "stress_flagged")
    assert len(built) == 1 + (case == "stress_flagged")


def _distinct_per_block(values):
    """Distinct 64-bit patterns summed over the x-fastest blocks of a grid array."""
    bits = np.ascontiguousarray(values.T, dtype=np.float64).ravel().view(np.int64)
    return sum(len(np.unique(bits[start:start + fileio.BLOCK]))
               for start in range(0, len(bits), fileio.BLOCK))


def test_cli_reconstruct_formats_each_value_once(tmp_path, monkeypatch):
    src = tmp_path / "cmc.json"
    n = 41
    assert run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
                "--nx", str(n), "--ny", str(n), "-o", str(src)]) == 0
    formatted = []
    reprs = fileio._reprs
    monkeypatch.setattr(fileio, "_reprs",
                        lambda values: formatted.append(len(values)) or reprs(values))
    built = count_calls(monkeypatch, "_face_lines")
    assert run(["reconstruct", str(src), "-o", str(tmp_path / "mesh")]) == 0
    g, _ = read_field_file(src)
    c = coefficients_from_governing(g)
    others = sum(map(_distinct_per_block,
                     (*g.grid.meshgrid(), c.A1, c.A2, c.Ho, c.Ko, c.T1, c.T2)))
    # r, N and rbar: 9 values a node, each formatted once for four files
    assert sum(formatted) <= 9 * n * n + others
    assert len(built) == 1


def test_cli_primed_file_round_trips_and_chains(tmp_path):
    # the primed kink has branch-invalid nodes; the file lists them, so verify
    # on the file reproduces the in-memory primed report and a second
    # transform reads them as NaN rather than as zeros.  The report is equal
    # only if the reader's arrays are C-ordered like the transform's: numpy
    # sums an F-ordered reshape in another order
    from mosurf.backlund import apply_backlund
    from mosurf.verify import verify_governing

    src, primed = tmp_path / "kink.json", tmp_path / "p.json"
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3",
                "--domain", "-3:3:-3:3", "--nx", "51", "--ny", "51", "-o", str(src)]) == 0
    assert run(["backlund", str(src), "--m", "0.3", "--init", "0,1,0.1", "-o", str(primed)]) == 0
    g, _ = read_field_file(src)
    res = apply_backlund(g, 0.3, 0.0, 1.0, 0.1)
    want = report_to_dict(verify_governing(res.primed_governing), g.kind, g.qn)["equations"]
    doc = json.loads(primed.read_text())
    assert doc["flagged"] and "seed" not in doc
    rep = tmp_path / "v.json"
    assert run(["verify", str(primed), "--report", str(rep)]) == 0
    got = json.loads(rep.read_text())["equations"]
    assert got == want
    assert want["governing-1"]["excluded"] == 350

    bk = tmp_path / "bk.json"
    assert run(["backlund", str(primed), "--m", "0.3", "--init", "0,1,0.1",
                "-o", str(tmp_path / "pp.json"), "--report", str(bk)]) == 0
    assert np.isfinite(json.loads(bk.read_text())["diagnostics"]["constraint_drift"])


def test_cli_omega_report(tmp_path):
    # omega and verify each build their own report from omega_ratios; their
    # omega entries agree on a cmc file and on a kink file
    for flags in (["--family", "cmc", "--domain", "0:2:0:2"],
                  ["--family", "pseudospherical", "--v", "0.3", "--domain", "-3:3:-3:3"]):
        src = tmp_path / "f.json"
        rep = tmp_path / "rep.json"
        vrep = tmp_path / "vrep.json"
        run(["seed", *flags, "--nx", "51", "--ny", "51", "-o", str(src)])
        assert run(["omega", str(src), "--report", str(rep)]) == 0
        assert run(["verify", str(src), "--report", str(vrep)]) == 0
        doc = json.loads(rep.read_text())
        omega = doc["equations"]
        verify = json.loads(vrep.read_text())["equations"]
        assert list(omega) == ["omega-1", "omega-2", "omega-combined"]
        assert omega == {name: verify[name] for name in omega}, flags
        assert omega["omega-1"]["linf"] > 0.0
        assert doc["diagnostics"]["umbilic_flagged"] == omega["omega-1"]["excluded"]
        # the guard is per node: the kink's near-infinite kappa1 where alpha
        # saturates at pi/2 does not flag the regular nodes elsewhere
        assert doc["diagnostics"]["umbilic_flagged"] == 0, flags


def test_cli_verify_reports_norms_without_a_verdict(tmp_path, capsys):
    # the algebraic entries are identities of the coefficient build, so
    # their round-off grows with the coefficients' size: at xi = 10 the
    # constraint entry reads about 4e-6 on a valid file, which verify prints
    # as a norm like every other entry, with exit 0
    out = tmp_path / "cmc.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    doc["fields"]["xi"] = [10.0] * len(doc["fields"]["xi"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["verify", str(out), "--report", str(rep)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    lines = captured.out.splitlines()[1:]
    assert len(lines) == 20 and all(ln.split()[-1].startswith("excluded=") for ln in lines)
    assert json.loads(rep.read_text())["equations"]["constraint"]["linf"] > 1e-9
    # the threshold flag is gone: it is an unknown flag
    assert run(["verify", str(out), "--tol", "0"]) == 1


@pytest.mark.parametrize("grid_flags", [
    ["--domain", "0:1:0:1", "--nx", "2"],
    ["--domain", "1:0:0:1"],
    ["--domain", "0:1e-298:0:1"],  # dx ~ 1e-300: 1/dx^2 overflows
    ["--domain", "0:1:0:1e308"],  # dy ~ 1e306: 1/dy^2 underflows to 0
], ids=["nx-2", "empty-domain", "tiny-spacing", "huge-spacing"])
def test_cli_bad_grid_flag_is_usage_error(tmp_path, capsys, grid_flags):
    out = tmp_path / "x.json"
    assert run(["seed", "--family", "cmc", *grid_flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("mosurf: error:")
    assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert run(["backlund", "nofile.json", "--m", "0", "-o", "x.json"]) == 1
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    assert run(["seed", "--family", "cmc", "--domain", "bad", "-o", "x.json"]) == 1
    assert run(["seed", "--family", "cmc", "--qn", "0", "--domain", "0:1:0:1",
                "-o", str(tmp_path / "x.json")]) == 1
    capsys.readouterr()
    # a step of 2.5 makes the cmc profile diverge: the seed has non-finite
    # values, reported by one error line and no numpy overflow warning
    out = tmp_path / "big.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["seed", "--family", "cmc", "--alpha0", "3", "--domain", "0:40:0:1",
                    "--nx", "5", "--ny", "5", "-o", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("mosurf: error:") and "cmc" in errors[0]
    assert not out.exists()
    # a non-finite number or a negative --refine is a bad flag value:
    # exit 1 with one error line, no warning and no file, before any work is done
    cmc = tmp_path / "cmc.json"
    assert run(["seed", "--family", "cmc", "--domain", "0:1:0:1", "--nx", "9", "--ny", "9",
                "-o", str(cmc)]) == 0
    capsys.readouterr()
    seed = ["seed", "--family", "cmc", "--domain", "0:1:0:1", "--nx", "9", "--ny", "9"]
    bad = [
        seed + ["--qn", "nan"], seed + ["--qn", "inf"], seed + ["--alpha0=-inf"],
        ["seed", "--family", "cmc", "--domain", "0:nan:0:1"],
        ["backlund", str(cmc), "--m", "nan"], ["backlund", str(cmc), "--m", "inf"],
        ["backlund", str(cmc), "--init", "0,nan,1"],
        ["verify", str(cmc), "--refine", "-1"],
    ]
    out, report = tmp_path / "bad.json", tmp_path / "bad_report.json"
    for argv in bad:
        extra = ["--report", str(report)] if argv[0] == "verify" else ["-o", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv + extra) == 1, argv
        assert [str(w.message) for w in caught] == [], argv
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("mosurf: error:"), argv
        assert captured.out == "", argv
        assert not out.exists() and not report.exists(), argv


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-infinity", "-nan", "-NaN"])
def test_cli_negative_nonfinite_flag_value_is_a_number(tmp_path, capsys, value):
    # "-inf" and "-nan" as a separate word are values, not option flags: the
    # finite-number check rejects them with one error line, not the usage text
    cmc = tmp_path / "cmc.json"
    seed = ["seed", "--family", "cmc", "--nx", "9", "--ny", "9"]
    assert run(seed + ["--domain", "0:1:0:1", "-o", str(cmc)]) == 0
    capsys.readouterr()
    out = tmp_path / "bad.json"
    for argv in (seed + ["--domain", "0:1:0:1", "--alpha0", value],
                 seed + ["--domain", f"{value}:1:0:1"],
                 ["backlund", str(cmc), "--m", value],
                 ["backlund", str(cmc), "--init", f"0,1,{value}"]):
        assert run(argv + ["-o", str(out)]) == 1, argv
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("mosurf: error:"), argv
        assert "finite" in errors[0] and "usage" not in captured.err, argv
        assert not out.exists(), argv


def test_cli_negative_numbers_and_flags_still_parse(tmp_path, capsys):
    out = tmp_path / "kink.json"
    assert run(["seed", "--family", "pseudospherical", "--v", "-0.3", "--domain", "-1:1:-1:1",
                "--nx", "9", "--ny", "9", "-o", str(out)]) == 0
    assert out.exists()
    capsys.readouterr()
    # a word that is neither a number nor inf/nan stays an option flag
    assert run(["seed", "--family", "cmc", "--domain", "0:1:0:1", "--alpha0", "-o",
                str(out)]) == 1
    assert "expected one argument" in capsys.readouterr().err


def test_cli_usage_error_is_exit_1():
    with pytest.raises(SystemExit):
        # argparse handles -h itself; unknown subcommand maps to usage error
        main(["-h"])
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("argv", [
    ["backlund", "c.json", "--m", "1", "--init", "0,1,1.7", "-o", "x.json", "--report", "x.json"],
    ["reconstruct", "c.json", "-o", "m", "--report", "m_r.obj"],
    ["verify", "c.json", "--report", "c.json"],
    ["omega", "c.json", "--report", "./c.json"],
    ["stress", "c.json", "-o", "c.json"],
], ids=lambda argv: argv[0])
def test_cli_output_naming_the_input_or_another_output_is_usage_error(
        tmp_path, monkeypatch, capsys, argv):
    # found before the input is read: no file is overwritten or written
    monkeypatch.chdir(tmp_path)
    assert run(["seed", "--family", "cmc", "--domain", "0:2:0:2", "--nx", "11", "--ny", "11",
                "-o", "c.json"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("mosurf: error:")
    assert "distinct" in errors[0] and captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# each first allocation is larger than any address space, so it fails at once
@pytest.mark.parametrize("argv,code", [
    (["seed", "--family", "cmc", "--domain", "-3:3:-3:3", "--nx", "3",
      "--ny", "1000000000000000", "-o", "big.json"], 3),
    # the finest grids have (2^43 4 + 1)^2 and (2^64 4 + 1)^2 nodes
    (["verify", "k.json", "--refine", "43", "--report", "r.json"], 1),
    (["verify", "k.json", "--refine", "64", "--report", "r.json"], 1),
], ids=["seed", "refine-43", "refine-64"])
def test_cli_grid_too_large_to_allocate(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3", "--domain", "-3:3:-3:3",
                "--nx", "5", "--ny", "5", "-o", "k.json"]) == 0
    capsys.readouterr()
    assert run(argv) == code
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("mosurf: error:"), errors
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("qn,argv,code", [
    # every Lax node is singular; the quadric's scale overflows to inf
    ("1", ["--m", "1e308"], 3),
    # chi0 of the initial vector overflows, or its denominator 2 m omega0 underflows
    ("1", ["--m", "1", "--init", "0,1,1e160"], 1),
    ("1", ["--m", "1e-200", "--init", "0,1e-200,1"], 1),
    ("1e308", ["--m", "1", "--bianchi-darboux"], 1),
], ids=["huge-m", "huge-phi0", "tiny-m-omega0", "bianchi-darboux-huge-qn"])
def test_cli_backlund_huge_finite_input_fails_without_a_warning(tmp_path, capsys, qn, argv, code):
    src, out = tmp_path / "c.json", tmp_path / "p.json"
    assert run(["seed", "--family", "cmc", "--qn", qn, "--domain", "0:2:0:2", "--nx", "11",
                "--ny", "11", "-o", str(src)]) == 0
    capsys.readouterr()
    assert run(["backlund", str(src), *argv, "-o", str(out)]) == code
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("mosurf: error:"), errors
    assert captured.out == "" and not out.exists()


def test_cli_reconstruct_warns_when_the_frame_leaves_the_rotation_group(tmp_path, capsys):
    # the primed kink's huge coefficients beside its flagged nodes blow the
    # sweeps up, the cmc seed's frame stays within the bound; both write
    # their meshes and report with exit 0
    kink, primed, cmc = (tmp_path / f"{name}.json" for name in ("kink", "primed", "cmc"))
    assert run(["seed", "--family", "pseudospherical", "--v", "0.3", "--domain", "-3:3:-3:3",
                "--nx", "31", "--ny", "31", "-o", str(kink)]) == 0
    assert run(["backlund", str(kink), "--m", "0.3", "--init", "0,1,0.1", "-o", str(primed)]) == 0
    assert run(["seed", "--family", "cmc", "--domain", "0:2:0:2", "--nx", "51", "--ny", "51",
                "-o", str(cmc)]) == 0
    for src, warns in ((primed, True), (cmc, False)):
        capsys.readouterr()
        mesh, rep = tmp_path / f"{src.stem}_mesh", tmp_path / f"{src.stem}_rec.json"
        assert run(["reconstruct", str(src), "-o", str(mesh), "--report", str(rep)]) == 0
        drift = json.loads(rep.read_text())["diagnostics"]["orthonormality_drift"]
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "drift" in ln]
        assert (drift > 1e-6) is warns and len(lines) == warns, src.stem
        assert all(ln.startswith("warning: orthonormality drift") for ln in lines)
        assert all(Path(f"{mesh}_{s}").stat().st_size > 0
                   for s in ("r.obj", "rbar.obj", "N.obj", "table.csv"))
