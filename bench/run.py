"""The mosurf benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the repository root; it uses the library under ``src/`` and
writes only under ``.bench_work/``.  Workloads: cli_readme, lib_transform,
lib_refine (see README.md in this directory).

With ``--trace 0`` a worker process runs passes of the workload until
``--seconds`` have passed, timing set-up in fresh interpreters between passes,
and the end-to-end metrics are printed.  With ``--trace 1`` it alternates untraced
and traced passes (at least two traced) and prints the per-layer metrics.
Every operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and
the exit status is 1 when a check failed.  ``--smoke`` runs every workload's
operation list once on small grids, with the same checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import SPANS  # noqa: E402

WORKLOADS = ("cli_readme", "lib_transform", "lib_refine")
#: the child environment pins every BLAS/OpenMP pool to one thread
THREADS = 1
PINNED = {var: str(THREADS) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "MOSURF_THREADS")}
WORKER_TIMEOUT = 170.0

#: cli_readme commands reported one by one, as cmd.<name>_s
COMMANDS = ("seed", "verify", "verify_refine", "reconstruct", "stress", "backlund",
            "backlund_bd", "omega")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in print order."""
    out = []
    for layer, names in SPANS.items():
        for fname in names:
            out += [(f"{layer}.{fname}.calls", "count"), (f"{layer}.{fname}.self_s", "s")]
    out += [
        ("fileio.bytes_written", "B"), ("fileio.bytes_read", "B"),
        ("fileio.floats_written", "count"), ("fileio.write_mb_per_s", "MB/s"),
        ("sweep.intervals", "count"), ("sweep.rk4_stages", "count"),
        ("sweep.us_per_interval", "us"),
        ("frames.sweeps_per_reconstruct", "ratio"),
        ("backlund.sweeps_per_apply_backlund", "ratio"),
        ("backlund.sweeps_per_bianchi_darboux", "ratio"),
        ("kernel.coefficients_per_op", "ratio"),
        ("fields.diff.calls", "count"), ("fields.diff_calls_per_verify", "ratio"),
        ("cli.startup_s", "s"),
        ("trace.wall_s", "s"), ("trace_overhead_s", "s"), ("trace.uncovered_frac", "frac"),
        ("output_mb", "MB"),
    ]
    out += [(f"cmd.{c}_s", "s") for c in COMMANDS]
    return out


#: units of the per-layer metrics that count work (and ratios of counts);
#: they must repeat exactly between traced passes
COUNT_UNITS = ("count", "B", "ratio")


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def provenance(root: Path, numpy_version: str | None) -> dict:
    """Machine and software facts, read from /sys and the checkout only."""
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(root),
        "threads_pinned": THREADS,
        "caches": caches,
    }


def _commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# metrics from the worker's raw passes
# ---------------------------------------------------------------------------


#: end-to-end times are reported at reference speed: as if the reference loop
#: of worker.py took this long (it takes 4 to 6 ms on a 2-core KVM guest)
REF_LOOP_S = 0.005


def at_ref(sample: dict) -> float:
    """A time sample scaled to reference speed by the loop timed next to it."""
    return sample["seconds"] * REF_LOOP_S / sample["ref_s"]


def pass_s(passes) -> float:
    """Wall time of one pass at reference speed: the sum of each operation's
    median over the passes, every sample scaled by its own reference loop."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["name"], []).append(at_ref(op))
    return sum(statistics.median(t) for t in times.values())


def end_to_end(raw: dict) -> dict[str, tuple[float | None, str]]:
    passes = raw["passes"]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["failures"])
    out = {
        "wall_s": (pass_s(passes), "s"),
        "setup_s": (_median([at_ref(x) for x in raw["setup_s"]]), "s"),
        "wall_raw_s": (_median([p["wall_s"] for p in passes]), "s"),
        "setup_raw_s": (_median([x["seconds"] for x in raw["setup_s"]]), "s"),
        "ref_loop_ms": (1e3 * _median([op["ref_s"] for op in ops]), "ms"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "failed_frac": (failed / len(ops), "frac"),
        "output_mb": (_median([p.get("output_bytes", 0) for p in passes]) / 1e6, "MB"),
    }
    out.update(_command_times(passes))
    return out


def _command_times(passes) -> dict:
    out = {}
    for c in COMMANDS:
        times = [op["seconds"] for p in passes for op in p["ops"] if op["name"] == c]
        out[f"cmd.{c}_s"] = (_median(times) if times else None, "s")
    return out


def _layer_pass(rec: dict) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    t = rec["trace"]
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    v: dict[str, float] = {}
    for layer, names in SPANS.items():
        for fname in names:
            span = f"{layer}.{fname}"
            v[f"{span}.calls"] = calls.get(span, 0)
            v[f"{span}.self_s"] = self_s.get(span, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    writes = sum(self_s.get(f"fileio.{f}", 0.0) for f in
                 ("write_field_file", "write_obj", "write_table", "write_report_file"))
    for k in ("fileio.bytes_written", "fileio.bytes_read", "fileio.floats_written",
              "sweep.intervals", "sweep.rk4_stages", "fields.diff.calls"):
        v[k] = counts.get(k, 0)
    v["fileio.write_mb_per_s"] = ratio(v["fileio.bytes_written"] / 1e6, writes)
    v["sweep.us_per_interval"] = ratio(1e6 * self_s.get("sweep.sweep_grid", 0.0),
                                       v["sweep.intervals"])
    v["frames.sweeps_per_reconstruct"] = ratio(counts.get("sweeps.frames", 0),
                                               counts.get("frames.reconstructs", 0))
    for tr in ("apply_backlund", "bianchi_darboux"):
        v[f"backlund.sweeps_per_{tr}"] = ratio(counts.get(f"sweeps.backlund.{tr}", 0),
                                               calls.get(f"backlund.{tr}", 0))
    v["kernel.coefficients_per_op"] = ratio(calls.get("kernel.coefficients_from_governing", 0),
                                            len(rec["ops"]))
    v["fields.diff_calls_per_verify"] = ratio(counts.get("fields.diff.in_verify", 0),
                                              calls.get("verify.verify_governing", 0))
    v["cli.startup_s"] = t["startup_s"]
    v["trace.wall_s"] = rec["wall_s"]
    covered = sum(self_s.values()) + t["startup_s"]
    v["trace.uncovered_frac"] = 1.0 - ratio(covered, rec["wall_s"])
    return v


def per_layer(raw: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Medians over traced passes, plus the count-repeat failures."""
    per_pass = [_layer_pass(rec) for rec in raw["traced"]]
    units = dict(per_layer_metrics())
    out = {}
    fails = []
    for name, unit in per_layer_metrics():
        values = [pp[name] for pp in per_pass if name in pp]
        if not values:
            continue
        if unit in COUNT_UNITS and len(set(values)) > 1:
            fails.append(f"{name} differs between traced passes: {values}")
        out[name] = (_median(values), unit)
    untraced = _median([p["wall_s"] for p in raw["passes"]])
    out["trace_overhead_s"] = (out["trace.wall_s"][0] - untraced, units["trace_overhead_s"])
    out["output_mb"] = (_median([p.get("output_bytes", 0) for p in raw["passes"]]) / 1e6, "MB")
    for name, (value, unit) in _command_times(raw["passes"]).items():
        out[name] = (0.0 if value is None else value, unit)
    return out, fails


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def _worker(root: Path, work: Path, args: list[str]) -> tuple[int, str]:
    """Run worker.py in its own session; on timeout or interrupt the whole
    process group, CLI commands included, is killed and reaped."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), *args]
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, err


def run_worker(root: Path, work: Path, workload: str, seed: int, seconds: float, trace: int,
               mode: str) -> dict:
    out = work / "result.json"
    wdir = work / "out"
    wdir.mkdir(parents=True, exist_ok=True)
    code, err = _worker(root, wdir, ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace),
                                     "--mode", mode, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"worker exited {code}: {err.strip()[-2000:]}")
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_table(title: str, metrics: dict, samples: int) -> None:
    print(f"{title} ({samples} passes)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {_fmt(value):>14s} {unit}")


def failures_of(raw: dict) -> list[str]:
    out = []
    for kind in ("passes", "traced"):
        for k, p in enumerate(raw.get(kind, [])):
            for op in p["ops"]:
                out += [f"{kind}[{k}] {op['name']}: {f}" for f in op["failures"]]
    return out


def attempted_of(raw: dict) -> int:
    return sum(len(p["ops"]) for kind in ("passes", "traced") for p in raw.get(kind, []))


def report(workload: str, seed: int, raw: dict, trace: int, root: Path) -> bool:
    print(f"workload {workload} seed {seed} params {json.dumps(raw['params'])}")
    print(f"provenance {json.dumps(provenance(root, raw['numpy']))}")
    fails = failures_of(raw)
    failed_ops = sum(1 for kind in ("passes", "traced") for p in raw.get(kind, [])
                     for op in p["ops"] if op["failures"])
    attempted = attempted_of(raw)
    if trace:
        metrics, repeat_fails = per_layer(raw)
        missing = raw["traced"][0]["trace"]["missing"] if raw["traced"] else []
        if missing:
            print(f"spans not found in the library: {missing}")
        fails += repeat_fails
        attempted += 1  # the count-repeat check
        failed_ops += bool(repeat_fails)
        print_table("per-layer metrics", metrics, len(raw["traced"]))
        names = [n for n, _ in per_layer_metrics()]
    else:
        metrics = end_to_end(raw)
        print_table("end-to-end metrics", metrics, len(raw["passes"]))
        print(f"  setup_s samples: {len(raw['setup_s'])}")
        names = [n for n, _ in END_TO_END]
    print(f"recorded known defects (not gated) {json.dumps(raw['recorded'])}")
    for f in fails:
        print(f"FAIL {f}")
    result = {
        "correct": not fails,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return not fails


def smoke(root: Path, work: Path) -> bool:
    ok = True
    for w in WORKLOADS:
        raw = run_worker(root, work, w, 0, 0.0, 0, "smoke")
        fails = failures_of(raw)
        print(f"smoke {w}: {attempted_of(raw)} operations, {len(fails)} failures, "
              f"{raw['passes'][0]['wall_s']:.2f} s")
        for f in fails:
            print(f"  FAIL {f}")
        ok &= not fails
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "mosurf" / "__init__.py").is_file():
        print(f"error: {root} holds no src/mosurf; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.smoke:
            return 0 if smoke(root, work) else 1
        raw = run_worker(root, work, args.workload, args.seed, args.seconds, args.trace, "full")
        return 0 if report(args.workload, args.seed, raw, args.trace, root) else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
