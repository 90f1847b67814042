"""Fuzz the CLI with field files that have one corrupted payload node or
header entry (the flagged-node list and the entries of the seed header
included).

A valid 5x5 field file gets one node of one field, or one header entry,
replaced by an arbitrary JSON value (NaN and +-Infinity included, which
``json`` reads and writes); every file command then runs on it.  Whatever the
value, a command must end in a documented exit code, with exactly one
``mosurf: error:`` line on stderr when it fails, and never with an escaping
exception (which the console script would print as a traceback).
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mosurf.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from mosurf.fileio import FIELD_NAMES, read_field_file
from mosurf.kernel import coefficients_from_governing, stresses
from mosurf.seeds import FAMILY_KINDS

DOCUMENTED = {EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_NUMERICAL}

SEEDS = {
    "cmc": ["--family", "cmc", "--alpha0", "1.0", "--domain", "0:2:0:2"],
    "kink": ["--family", "pseudospherical", "--v", "0.3", "--domain", "0.8:1.2:-0.3:0.3"],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=4,
)


def run(argv):
    """(exit code, stderr) of one in-process CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, flags in SEEDS.items():
        path = d / f"{name}.json"
        code, err = run(["seed", *flags, "--nx", "5", "--ny", "5", "-o", str(path)])
        assert code == EXIT_OK, err
    return d


def commands(f, d):
    return (
        ["verify", f, "--report", f"{d}/v.json"],
        ["verify", f, "--refine", "1", "--report", f"{d}/vr.json"],
        ["reconstruct", f, "-o", f"{d}/mesh", "--report", f"{d}/rec.json"],
        ["stress", f, "-o", f"{d}/stress.csv"],
        ["omega", f, "--report", f"{d}/omega.json"],
        ["backlund", f, "--m", "1.0", "--init", "0,1,1.7", "-o", f"{d}/p.json",
         "--report", f"{d}/bk.json"],
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(seed=st.sampled_from(sorted(SEEDS)), field=st.sampled_from(FIELD_NAMES),
       node=st.integers(0, 24), value=json_values)
@example(seed="cmc", field="alpha", node=12, value=10**400)  # overflows a float
@example(seed="kink", field="h", node=0, value=1e300)
@example(seed="cmc", field="xi", node=24, value="1.5")
def test_corrupted_node_gives_documented_exit(workdir, seed, field, node, value):
    doc = json.loads((workdir / f"{seed}.json").read_text())
    doc["fields"][field][node] = value
    run_all(workdir, doc)


def run_all(workdir, doc):
    """Run every file command on ``doc``; the exit codes in command order."""
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(doc))
    codes = []
    for argv in commands(str(bad), workdir):
        code, err = run(argv)
        assert code in DOCUMENTED, (argv, code, err)
        errors = [line for line in err.splitlines() if line.startswith("mosurf: error:")]
        assert len(errors) == (0 if code == EXIT_OK else 1), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        codes.append(code)
    return codes


@pytest.mark.parametrize("seed, field, node, codes", [
    ("cmc", "alpha", 12, [EXIT_OK, EXIT_OK, EXIT_NUMERICAL, EXIT_OK, EXIT_OK, EXIT_OK]),
    ("kink", "h", 0, [EXIT_OK, EXIT_OK, EXIT_NUMERICAL, EXIT_OK, EXIT_OK, EXIT_NUMERICAL]),
])
def test_absurd_finite_node_is_flagged_without_warnings(workdir, seed, field, node, codes):
    # sinh/cosh (cmc) or h^2 (kink) overflow at the node; every command runs
    # without a numpy warning, and only reconstruct's report (NaN curvature
    # statistics: a non-finite output, found before any file is opened) and
    # the kink's transform (no valid node) fail
    doc = json.loads((workdir / f"{seed}.json").read_text())
    doc["fields"][field][node] = 1e300
    outputs = ("mesh_r.obj", "mesh_rbar.obj", "mesh_N.obj", "mesh_table.csv", "rec.json")
    for name in outputs:  # left by earlier runs in the shared directory
        (workdir / name).unlink(missing_ok=True)
    assert run_all(workdir, doc) == codes
    assert not [name for name in outputs if (workdir / name).exists()]
    g, _ = read_field_file(workdir / "bad.json")
    flagged = coefficients_from_governing(g).flagged.ravel(order="F")
    assert np.flatnonzero(flagged).tolist() == [node]
    if node == 12:  # the 5x5 report core is the centre node: it is excluded and counted
        report = json.loads((workdir / "v.json").read_text())["equations"]
        assert all(e["excluded"] == 1 for k, e in report.items() if k != "omega-combined")


@pytest.mark.parametrize("field, node, value, command", [
    ("alpha", 12, 700.0, "verify"),
    ("alpha", 12, -700.0, "verify"),
    ("xi", 6, 700.0, "omega"),
])
def test_overflowing_residual_norms_stay_finite(workdir, field, node, value, command):
    # cosh(700) and e^(2 xi) are finite, but the residuals built from them
    # overflow when squared: l2 is then taken with the values scaled by linf,
    # and every command runs without a numpy warning
    doc = json.loads((workdir / "cmc.json").read_text())
    doc["fields"][field][node] = value
    path, report = workdir / "large.json", workdir / "large_report.json"
    path.write_text(json.dumps(doc))
    report.unlink(missing_ok=True)
    runs = [[command, str(path), "--report", str(report)]]
    if command == "verify":
        runs.insert(0, [command, str(path)])
    for argv in runs:
        assert run(argv) == (EXIT_OK, ""), argv
    entries = json.loads(report.read_text())["equations"].values()
    assert all(math.isfinite(e["l2"]) for e in entries)
    large = [e for e in entries if e["linf"] > 1e300]
    assert large
    # the 5x5 report core is one node of area dx dy = 1/4: l2 = linf / 2
    assert all(e["l2"] == e["linf"] / 2 for e in large)


@pytest.mark.parametrize("argv, entry", [
    (["verify", "{f}"], "equations.gauss.l2"),
    (["omega", "{f}"], "equations.omega-2.linf"),
    (["backlund", "{f}", "--m", "1.0", "--init", "0,1,1.7", "-o", "{d}/inf_p.json"],
     "diagnostics.constraint_drift"),
    (["reconstruct", "{f}", "-o", "{d}/inf_mesh"], "diagnostics.path_independence_error"),
])
def test_nonfinite_report_entry_is_named_and_leaves_no_file(workdir, monkeypatch, argv, entry):
    # a report that would hold an infinity is a non-finite output (exit 3):
    # one error line names its JSON path, and neither the report nor, for
    # reconstruct, a mesh nor, for backlund, the primed file is written
    import mosurf.fileio

    def report_to_dict(*args, **kwargs):
        doc = to_dict(*args, **kwargs)
        *parents, key = entry.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[key] = math.inf
        return doc

    to_dict = mosurf.fileio.report_to_dict
    monkeypatch.setattr(mosurf.fileio, "report_to_dict", report_to_dict)
    for stale in workdir.glob("inf_*"):
        stale.unlink()
    report = workdir / "inf_report.json"
    code, err = run([a.format(f=workdir / "cmc.json", d=workdir) for a in argv]
                    + ["--report", str(report)])
    assert code == EXIT_NUMERICAL, err
    assert err.splitlines() == [f"mosurf: error: {report}: non-finite report entries {entry}; "
                                f"no file written"]
    assert list(workdir.glob("inf_*")) == []


@pytest.mark.parametrize("seed, field, node", [("cmc", "alpha", 12), ("kink", "h", 0)])
def test_absurd_node_stresses_read_nan_and_are_flagged(workdir, seed, field, node):
    # T1 and T2 overflow at the node (inf on the kink, inf / inf on cmc): they
    # read NaN, stresses flags the node, and stress counts it
    doc = json.loads((workdir / f"{seed}.json").read_text())
    doc["fields"][field][node] = 1e300
    path = workdir / "absurd_stress.json"
    path.write_text(json.dumps(doc))
    s = stresses(read_field_file(path)[0])
    T1, T2, flagged = (v.ravel(order="F") for v in (s.T1, s.T2, s.flagged))
    assert np.flatnonzero(flagged).tolist() == [node]
    assert np.isnan(T1[node]) and np.isnan(T2[node])
    assert np.isfinite(np.delete(T1, node)).all() and np.isfinite(np.delete(T2, node)).all()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["stress", str(path), "-o", str(workdir / "absurd_stress.csv")]) == EXIT_OK
    assert " flagged=1 " in out.getvalue()


HEADER_ENTRIES = ("qn", "kind", "version", "grid.nx", "grid.ny", "grid.x0", "grid.y0",
                  "grid.dx", "grid.dy", "seed", "flagged", "seed.flagged")
#: entries of the seed header, which only ``verify --refine`` reads
SEED_ENTRIES = ("seed.family", "seed.qn", "seed.alpha0", "seed.v", "seed.a", "seed.c1",
                "seed.domain", "seed.domain.0", "seed.domain.1", "seed.domain.2",
                "seed.domain.3")


def finite_number(value):
    """A JSON number (not a boolean) that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


def spacing_ok(value):
    """A positive finite spacing h whose stencil weight 1/h^2 is finite and nonzero."""
    if not (finite_number(value) and value > 0):
        return False
    h = float(value)
    if h * h == 0.0:  # underflows: 1/h^2 is infinite
        return False
    return 0.0 < 1.0 / (h * h) < math.inf


def header_rejects(entry, value):
    """Whether the field-file header rules reject ``value`` at ``entry``."""
    if entry == "version":
        return not (type(value) is int and value == 1)
    if entry == "qn":
        return not (finite_number(value) and value != 0)
    if entry == "kind":
        return value not in ("first", "second")
    if entry in ("grid.nx", "grid.ny"):  # any other size mismatches the 5x5 payload
        return not (type(value) is int and value == 5)
    if entry in ("grid.dx", "grid.dy"):
        return not spacing_ok(value)
    if entry in ("grid.x0", "grid.y0"):
        return not finite_number(value)
    if entry in ("flagged", "seed.flagged"):  # seed.flagged: where older files kept it
        indices = isinstance(value, list) and all(type(k) is int and 0 <= k < 25 for k in value)
        return not (indices and len(set(value)) < 25)
    return False  # the seed header: only verify --refine reads it


def refine_rejects(entry, value):
    """Whether ``verify --refine`` must reject ``value`` at the seed ``entry``.

    Seed numbers follow the field header's rule; a valid number can still be
    rejected (alpha0 = 0, a domain that is empty), but is not required to be.
    """
    if entry == "seed":
        return True  # no replacement value carries a family and every parameter
    if entry == "seed.family":
        return not (isinstance(value, str) and value in FAMILY_KINDS)
    if entry == "seed.domain":
        return not (isinstance(value, list) and len(value) == 4
                    and all(map(finite_number, value)))
    return entry in SEED_ENTRIES and not finite_number(value)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(seed=st.sampled_from(sorted(SEEDS)), entry=st.sampled_from(HEADER_ENTRIES + SEED_ENTRIES),
       value=json_values)
@example(seed="cmc", entry="qn", value=math.nan)
@example(seed="cmc", entry="qn", value=True)
@example(seed="cmc", entry="grid.dx", value=math.inf)
@example(seed="kink", entry="grid.y0", value=-math.inf)
@example(seed="cmc", entry="grid.dx", value=1e307)  # finite, but 1/dx^2 underflows to 0
@example(seed="cmc", entry="grid.dx", value=1e-300)  # finite, but 1/dx^2 overflows
@example(seed="kink", entry="grid.dy", value=1e307)
@example(seed="cmc", entry="grid.nx", value=5.5)
@example(seed="cmc", entry="grid.nx", value="5")
@example(seed="cmc", entry="grid.ny", value=5.0)
@example(seed="cmc", entry="version", value="1")
@example(seed="cmc", entry="seed", value=math.nan)
@example(seed="cmc", entry="flagged", value=[12])
@example(seed="kink", entry="flagged", value=[3, 3, 0])
@example(seed="cmc", entry="flagged", value=list(range(24)))
@example(seed="cmc", entry="flagged", value=list(range(25)))  # every node
@example(seed="cmc", entry="flagged", value=[True])
@example(seed="cmc", entry="flagged", value=[25])
@example(seed="kink", entry="flagged", value=[-1])
@example(seed="cmc", entry="flagged", value=[4.0])
@example(seed="cmc", entry="flagged", value=None)
@example(seed="kink", entry="seed.flagged", value=[7])
@example(seed="cmc", entry="seed.flagged", value=[10**400])
@example(seed="cmc", entry="seed.alpha0", value="1.0")
@example(seed="cmc", entry="seed.alpha0", value=True)
@example(seed="kink", entry="seed.v", value=math.inf)
@example(seed="cmc", entry="seed.qn", value="1")
@example(seed="cmc", entry="seed.domain.1", value="2")
@example(seed="kink", entry="seed.domain.0", value=False)
@example(seed="cmc", entry="seed.domain.3", value=10**400)
@example(seed="cmc", entry="seed.domain", value=[0, 2, 0])
@example(seed="kink", entry="seed.family", value="cmc")
@example(seed="cmc", entry="seed.alpha0", value=2)  # an integer stays a number
def test_corrupted_header_gives_documented_exit(workdir, seed, entry, value):
    doc = json.loads((workdir / f"{seed}.json").read_text())
    *parents, key = entry.split(".")
    target = doc
    for name in parents:
        target = target[name]
    target[int(key) if isinstance(target, list) else key] = value
    codes = run_all(workdir, doc)
    if header_rejects(entry, value):
        assert codes == [EXIT_VALIDATION] * len(codes), (entry, value, codes)
    if refine_rejects(entry, value):
        assert codes[1] == EXIT_VALIDATION, (entry, value, codes)
