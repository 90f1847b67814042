"""Self-tests of the benchmark: every output check fails on a broken output,
the tracer restores the library and repeats its counts, and the smoke mode
runs every workload's operation list.

    python3 -m pytest -q bench/selftest.py     (from the repository root)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from mosurf import fileio  # noqa: E402
from mosurf.fields import Vec3Field  # noqa: E402

N = 9


@pytest.fixture
def work():
    d = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)


def cmc(n=N):
    return workloads.make_seed("cmc", workloads.CMC_DOMAIN, n, alpha0=1.0)


def fields_of(g):
    return {"alpha": g.alpha.values, "xi": g.xi.values, "h": g.h.values}


# -- output checks -------------------------------------------------------------


def test_field_roundtrip_detects_one_flipped_float(work):
    g = cmc()
    path = work / "cmc.json"
    fileio.write_field_file(path, g)
    text = path.read_text()
    assert checks.field_roundtrip(text, fields_of(g)) == []
    doc = json.loads(text)
    doc["fields"]["xi"][5] = float(np.nextafter(doc["fields"]["xi"][5], 1.0))
    broken = json.dumps(doc)
    assert checks.field_roundtrip(broken, fields_of(g))
    assert checks.field_roundtrip(text.replace('"alpha"', '"alfa"'), fields_of(g))
    assert checks.field_roundtrip("{", fields_of(g))


def test_field_file_shape_detects_short_or_nonfinite_payload():
    good = {"fields": {k: [0.0] * 4 for k in ("alpha", "xi", "h")}}
    assert checks.field_file_shape(json.dumps(good), 4) == []
    short = {"fields": {k: [0.0] * 3 for k in ("alpha", "xi", "h")}}
    assert checks.field_file_shape(json.dumps(short), 4)
    assert checks.field_file_shape(json.dumps(good).replace("0.0]", "NaN]", 1), 4)


def test_algebraic_detects_large_or_missing_residual():
    linf = {name: 1e-15 for name in checks.ALGEBRAIC}
    assert checks.algebraic(linf) == []
    assert checks.algebraic({**linf, "constraint": 1e-9})
    assert checks.algebraic({**linf, "constraint": float("nan")})
    del linf["orthogonality"]
    assert checks.algebraic(linf)


def test_orders_detect_wrong_order():
    fine = {name: 1e-5 for name in checks.DERIVATIVE_FLOORS}
    measured = {name: 2.0 for name in fine}
    assert checks.orders(fine, measured) == []
    assert checks.orders(fine, {**measured, "gauss": 1.5})
    assert checks.orders(fine, {**measured, "gauss": None})
    # an entry that is exact on the family has no order to measure
    assert checks.orders({**fine, "gauss": 0.0}, {**measured, "gauss": None}) == []


def test_drift_bounds_detect_large_or_nan_values():
    assert checks.below("drift", 1e-12, checks.DRIFT_TOL) == []
    assert checks.below("drift", 1e-5, checks.DRIFT_TOL)
    assert checks.below("drift", float("nan"), checks.DRIFT_TOL)


def test_mean_curvature_detects_interior_deviation_only():
    H = np.full((20, 20), -0.5)
    H[0, :] = np.nan
    assert checks.mean_curvature(H) == []
    edge = H.copy()
    edge[1, 5] = -0.4  # inside the boundary band
    assert checks.mean_curvature(edge) == []
    inner = H.copy()
    inner[10, 10] = -0.5 + 2e-3
    assert checks.mean_curvature(inner)
    assert checks.mean_curvature(np.full((20, 20), np.nan))


def test_bianchi_darboux_detects_xi_or_h_off_one():
    xi, h = np.zeros((5, 5)), np.ones((5, 5))
    assert checks.bianchi_darboux(xi, h) == []
    xi[2, 2] = 1e-5
    assert checks.bianchi_darboux(xi, h)
    h[1, 1] = 1.0 + 1e-5
    assert checks.bianchi_darboux(np.zeros((5, 5)), h)


def test_obj_mesh_detects_dropped_face_or_vertex(work):
    g = cmc()
    r = np.stack(np.broadcast_arrays(*g.grid.meshgrid(), g.alpha.values), axis=2)
    path = work / "mesh.obj"
    fileio.write_obj(path, Vec3Field(g.grid, r))
    text = path.read_text()
    assert checks.obj_mesh(text, N) == []
    lines = text.splitlines()
    last_face = max(k for k, line in enumerate(lines) if line.startswith("f "))
    assert checks.obj_mesh("\n".join(lines[:last_face] + lines[last_face + 1:]), N)
    first_vertex = next(k for k, line in enumerate(lines) if line.startswith("v "))
    assert checks.obj_mesh("\n".join(lines[:first_vertex] + lines[first_vertex + 1:]), N)
    v = checks.obj_vertices(text)
    assert v.shape == (N * N, 3) and np.array_equal(v[:, 2], g.alpha.values.ravel(order="F"))


def test_csv_and_stress_table_detect_dropped_line_and_wrong_value(work):
    g = cmc()
    X, Y = g.grid.meshgrid()
    ones = np.ones(g.grid.shape)
    path = work / "stress.csv"
    fileio.write_table(path, g.grid, {"x": X, "y": Y, "T1": ones, "T2": ones})
    text = path.read_text()
    assert checks.csv_table(text, N, "x,y,T1,T2") == []
    assert checks.stress_table(text, 1.0) == []
    lines = text.splitlines()
    assert checks.csv_table("\n".join(lines[:-1]), N)
    assert checks.csv_table(text.replace("T2", "T3", 1), N, "x,y,T1,T2")
    lines[3] = lines[3].rsplit(",", 1)[0] + ",1.0000000000000002"
    assert checks.stress_table("\n".join(lines), 1.0)


def test_verify_stdout_and_report_parsing():
    out = "verify kind=first\n  gauss   linf=2.5e-04 l2=1e-05 excluded=0\n" + "".join(
        f"  {name}  linf=1.0e-15 l2=0 excluded=0  PASS\n" for name in checks.ALGEBRAIC)
    linf = checks.verify_stdout(out)
    assert linf["gauss"] == 2.5e-4 and checks.algebraic(linf) == []
    assert checks.algebraic(checks.verify_stdout(out.replace("linf=1.0e-15", "linf=1.0e-9", 1)))
    assert checks.report("not json")[1]
    assert checks.report(json.dumps({"format": "other"}))[1]
    doc, fails = checks.report(json.dumps({"format": "mosurf-report",
                                           "equations": {"gauss": {"linf": 1.0}}}))
    assert fails == [] and checks.report_linf(doc) == {"gauss": 1.0}


# -- workloads, tracer and output --------------------------------------------


def test_params_repeat_per_seed_and_stay_in_range():
    assert workloads.params(7) == workloads.params(7)
    assert workloads.params(7) != workloads.params(8)
    for seed in range(50):
        p = workloads.params(seed)
        assert 0.9 <= p.alpha0 <= 1.1 and 0.25 <= p.v <= 0.35 and 0.9 <= p.mbar <= 1.1
        assert 0.9 <= p.m1 <= 1.1 and 1.6 <= p.phi1 <= 1.8
        assert 0.25 <= p.m2 <= 0.35 and 0.05 <= p.phi2 <= 0.15


def _warm_pass(traced):
    import worker
    w = worker.LibWorkload("lib_transform", workloads.params(0), workloads.SIZES["warm"])
    return w.run(traced)


def test_tracer_restores_library_and_repeats_counts():
    import mosurf.frames as frames
    import mosurf.sweep as sweep
    before = (frames.sweep_grid, sweep.sweep_grid)
    a, b = _warm_pass(True), _warm_pass(True)
    assert (frames.sweep_grid, sweep.sweep_grid) == before
    assert a["trace"]["calls"] == b["trace"]["calls"]
    assert a["trace"]["counts"] == b["trace"]["counts"]
    assert a["trace"]["missing"] == []
    la, lb = run._layer_pass(a), run._layer_pass(b)
    assert la["frames.sweeps_per_reconstruct"] == 4
    assert la["backlund.sweeps_per_apply_backlund"] == 4
    assert la["backlund.sweeps_per_bianchi_darboux"] == 3
    assert la["fileio.bytes_written"] == 0
    assert 0.0 <= la["trace.uncovered_frac"] < 0.1
    counted = [name for name, unit in run.per_layer_metrics() if unit in run.COUNT_UNITS]
    assert [la[k] for k in counted] == [lb[k] for k in counted]


def test_failed_check_makes_the_result_incorrect(capsys):
    rec = _warm_pass(False)
    for op in rec["ops"]:
        op["failures"] = []  # 17^2 grids are too coarse for the accuracy gates
    raw = {"passes": [rec], "traced": [], "setup_s": [{"seconds": 0.5, "ref_s": 0.005}],
           "peak_rss_kb": 1024, "recorded": {},
           "params": {}, "numpy": "x"}
    assert run.report("lib_transform", 0, raw, 0, ROOT)
    rec["ops"][0]["failures"] = ["broken"]
    assert not run.report("lib_transform", 0, raw, 0, ROOT)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1
    assert set(last["metrics"]) == {name for name, _ in run.END_TO_END}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    # lib_refine stays runnable but is left out of BENCHMARK.json (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS if w != "lib_refine"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()


def test_traced_cli_session_counts_every_layer(work):
    raw = run.run_worker(ROOT, work, "cli_readme", 0, 0.0, 1, "smoke")
    assert run.failures_of(raw) == []
    metrics, repeat_fails = run.per_layer(raw)
    assert repeat_fails == []
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["cli.main.calls"] == 10
    assert value["fileio.write_field_file.calls"] == 5
    assert value["fileio.read_field_file.calls"] == 7
    assert value["fileio.write_obj.calls"] == 3 and value["fileio.write_table.calls"] == 2
    assert value["frames.sweeps_per_reconstruct"] == 4
    assert value["fileio.bytes_written"] > 0 and value["cli.startup_s"] > 0
    assert value["trace.uncovered_frac"] < 0.1


def test_smoke_runs_every_workload():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(" 0 failures") == len(run.WORKLOADS)


def test_refuses_to_run_without_the_library(work):
    shutil.copytree(HERE, work / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lib_refine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=work,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
