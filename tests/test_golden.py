"""Golden outputs of the README CLI session at 51^2.

Each command runs in a fresh directory and its output file is compared with
the copy under ``tests/golden/``: keys and integers must match exactly, floats
to ``math.isclose(rel_tol=1e-12, abs_tol=1e-15)``.  A golden changes only
with a deliberate change of the output schema or of the numerics.  The
goldens were written with Python 3.11 and numpy 2.4 on x86-64; the primed
residuals in ``bk.json`` sit on a curvature-line degeneracy and amplify
last-bit differences, so another libm may move them past the tolerance.
"""

import json
import math
from pathlib import Path

import pytest

from mosurf.cli import main

GOLDEN = Path(__file__).with_name("golden")

GRID = ["--nx", "51", "--ny", "51"]

#: (output file compared with its golden, command line); run in this order
SESSION = (
    ("cmc.json", ["seed", "--family", "cmc", "--alpha0", "1.0", "--qn", "1.0",
                  "--domain", "0:2:0:2", *GRID, "-o", "cmc.json"]),
    ("report.json", ["verify", "cmc.json", "--refine", "1", "--report", "report.json"]),
    ("rec.json", ["reconstruct", "cmc.json", "-o", "mesh", "--report", "rec.json"]),
    ("bk.json", ["backlund", "cmc.json", "--m", "1.0", "--init", "0,1,1.7",
                 "-o", "primed.json", "--report", "bk.json"]),
    ("bd_report.json", ["backlund", "cmc.json", "--m", "2.0", "--bianchi-darboux",
                        "-o", "bd.json", "--report", "bd_report.json"]),
    ("omega.json", ["omega", "cmc.json", "--report", "omega.json"]),
)


def mismatches(got, want, where="$"):
    """Paths at which ``got`` differs from ``want`` under the golden rules."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)
            and not (isinstance(want, int) and isinstance(got, int))):
        ok = math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


def test_readme_session_matches_goldens(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, argv in SESSION:
        assert main(argv) == 0, argv
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((GOLDEN / name).read_text())
        assert mismatches(got, want) == [], name


@pytest.mark.parametrize("got, want, ok", [
    (1, 1, True), (1, 2, False), (1.0, 1, True), (0.1 + 0.2, 0.3, True),
    (1e-16, 0, True), (1e-14, 0, False), (True, 1, False), (None, 0.0, False),
    ({"a": 1}, {"a": 1, "b": 2}, False), ([1, 2], [1], False), ("x", "x", True),
])
def test_golden_comparison_rules(got, want, ok):
    assert (mismatches(got, want) == []) is ok
