"""Serialization round-trips and end-to-end CLI behavior."""

import json

import numpy as np
import pytest

from mosurf.cli import main
from mosurf.errors import FieldFormatError
from mosurf.fields import Grid2D, ScalarField
from mosurf.fileio import (
    read_field_file,
    report_to_dict,
    write_field_file,
    write_obj,
    write_report_file,
    write_table,
)
from mosurf.kernel import GoverningFields, ResidualReport
from mosurf.fields import Vec3Field
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
    write_report_file(path, report_to_dict(ResidualReport(grid), diagnostics=diag))
    assert json.loads(path.read_text())["diagnostics"] == {
        "count": 3, "curve": [0.5, 2.0], "dev": 1e-300}
    # a non-finite value is rejected before the file is opened
    bad = tmp_path / "bad.json"
    doc = report_to_dict(ResidualReport(grid), diagnostics={"dev": float("nan")})
    with pytest.raises(FieldFormatError):
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


def test_field_file_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(FieldFormatError):
        read_field_file(p)
    p.write_text(json.dumps({"format": "other"}))
    with pytest.raises(FieldFormatError):
        read_field_file(p)


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
], ids=["nan-payload", "text-payload", "kind-third", "qn-zero", "qn-text", "version-text"])
def test_cli_verify_corrupted_payload_exit_code(tmp_path, capsys, corrupt):
    out = tmp_path / "f.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    corrupt(doc)
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mosurf: error:")


@pytest.mark.parametrize("corrupt", [
    lambda seed: seed.pop("domain"),
    lambda seed: seed.pop("alpha0"),
    lambda seed: seed.update(qn="one"),
    lambda seed: seed.update(domain=[0, 1, 0]),
    lambda seed: seed.update(family="sphere"),
], ids=["no-domain", "no-alpha0", "qn-text", "short-domain", "unknown-family"])
def test_cli_verify_refine_bad_seed_header_exit_code(tmp_path, capsys, corrupt):
    out = tmp_path / "f.json"
    run(["seed", "--family", "cmc", "--domain", "0:1:0:1",
         "--nx", "11", "--ny", "11", "-o", str(out)])
    doc = json.loads(out.read_text())
    corrupt(doc["seed"])
    out.write_text(json.dumps(doc))
    assert run(["verify", str(out)]) == 0
    assert run(["verify", str(out), "--refine", "1"]) == 2
    assert capsys.readouterr().err.startswith("mosurf: error:")


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
        alpha=ScalarField.constant(grid, np.pi / 4),
        xi=ScalarField.zeros(grid),
        h=ScalarField.constant(grid, 1.0),
    )
    path = tmp_path / "deg.json"
    write_field_file(path, g)
    code = run(["reconstruct", str(path), "-o", str(tmp_path / "mesh")])
    assert code == 3


def test_cli_stress_table(tmp_path):
    out = tmp_path / "ps.json"
    run(["seed", "--family", "pseudospherical", "--v", "0.3", "--qn", "2.0",
         "--domain", "0.7:1.3:-0.5:0.5", "--nx", "21", "--ny", "21", "-o", str(out)])
    csv = tmp_path / "T.csv"
    assert run(["stress", str(out), "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "x,y,T1,T2"
    assert len(lines) == 1 + 21 * 21


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
    assert d["e_xi_prime_max_dev"] < 1e-6
    assert d["h_prime_max_dev"] < 1e-6
    assert d["e_alpha_prime_identity_max_dev"] < 1e-6


def test_cli_omega_report(tmp_path):
    src = tmp_path / "cmc.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
         "--nx", "51", "--ny", "51", "-o", str(src)])
    assert run(["omega", str(src), "--report", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["diagnostics"]["umbilic_flagged"] == 0


def test_cli_verify_failed_gate_exits_4(tmp_path, capsys):
    out = tmp_path / "cmc.json"
    rep = tmp_path / "rep.json"
    run(["seed", "--family", "cmc", "--domain", "0:2:0:2",
         "--nx", "51", "--ny", "51", "-o", str(out)])
    assert run(["verify", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert run(["verify", str(out), "--tol", "0", "--report", str(rep)]) == 4
    captured = capsys.readouterr()
    assert "FAIL(tol=0)" in captured.out
    assert captured.err.startswith("mosurf: error:")
    assert json.loads(rep.read_text())["format"] == "mosurf-report"


@pytest.mark.parametrize("grid_flags", [
    ["--domain", "0:1:0:1", "--nx", "2"],
    ["--domain", "1:0:0:1"],
], ids=["nx-2", "empty-domain"])
def test_cli_bad_grid_flag_is_usage_error(tmp_path, capsys, grid_flags):
    out = tmp_path / "x.json"
    assert run(["seed", "--family", "cmc", *grid_flags, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("mosurf: error:")
    assert not out.exists()


def test_cli_exit_codes(tmp_path):
    assert run(["backlund", "nofile.json", "--m", "0", "-o", "x.json"]) == 1
    assert run(["verify", str(tmp_path / "missing.json")]) == 2
    assert run(["seed", "--family", "cmc", "--domain", "bad", "-o", "x.json"]) == 1
    assert run(["seed", "--family", "cmc", "--qn", "0", "--domain", "0:1:0:1",
                "-o", str(tmp_path / "x.json")]) == 1


def test_cli_usage_error_is_exit_1():
    with pytest.raises(SystemExit):
        # argparse handles -h itself; unknown subcommand maps to usage error
        main(["-h"])
    assert main(["frobnicate"]) == 1
