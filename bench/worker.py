"""The workload process: imports the library, warms up and runs passes.

Started by run.py with the BLAS/OpenMP pools pinned to one thread in its
environment.  Writes its raw measurements as JSON to ``--out``; run.py turns
them into metrics.

A pass runs the workload's operation list once.  Each operation is timed on
its own and its output checked afterwards, outside the timed interval, so
that the pass wall time holds only the library's (or the CLI's) work.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import mosurf  # noqa: E402

if not Path(mosurf.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"mosurf was imported from {mosurf.__file__}, not from {SRC}")

import spans  # noqa: E402

spans.import_layers()

import workloads  # noqa: E402
from workloads import SIZES  # noqa: E402

CLI_TIMEOUT = 150.0
SETUP_SAMPLES = 9
#: passes an untraced measured run makes at least, however long they take
MIN_PASSES = 3


def reference_loop_s() -> float:
    """Seconds this process takes for a fixed pure-Python loop (about 5 ms).

    Timed just before each operation and each set-up sample.  The machine is a
    share of a host whose speed drifts by up to 1.5x over minutes; run.py
    divides each time by the loop time next to it, so the reported times
    follow the program and not the drift.  The loop touches nothing of the
    library, so no change to the library can move it.
    """
    t0 = perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    return perf_counter() - t0


def measure_setup(workload: str, seed: int) -> dict:
    """Seconds for a fresh interpreter to import the library and warm up,
    with the reference loop timed just before.

    Output is captured so that the wait ends when the child closes its pipes;
    without pipes, a wait with a timeout polls in steps of up to 50 ms.
    """
    ref_s = reference_loop_s()
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--setup-only"], check=True, timeout=CLI_TIMEOUT, capture_output=True)
    return {"seconds": perf_counter() - t0, "ref_s": ref_s}


def run_pass(ops) -> dict:
    records = []
    for op in ops:
        ref_s = reference_loop_s()
        t0 = perf_counter()
        try:
            out, fails = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            out, fails = None, [f"{type(exc).__name__}: {exc}"]
        seconds = perf_counter() - t0
        if fails is None:
            try:
                fails = op.check(out)
            except Exception as exc:  # so does a check that cannot read the output
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        del out
        records.append({"name": op.name, "seconds": seconds, "ref_s": ref_s, "failures": fails})
    return {"wall_s": sum(r["seconds"] for r in records), "ops": records}


LIB_BUILDERS = {"lib_transform": workloads.lib_transform_ops,
                "lib_refine": workloads.lib_refine_ops}


class LibWorkload:
    """In-process library calls; the tracer is installed in this process."""

    def __init__(self, name: str, p, sizes: dict) -> None:
        self.build = LIB_BUILDERS[name]
        self.p, self.sizes = p, sizes
        self.recorded: dict = {}

    def run(self, traced: bool) -> dict:
        ops = self.build(self.p, self.sizes)
        if not traced:
            return run_pass(ops)
        tracer = spans.Tracer()
        tracer.install()
        try:
            rec = run_pass(ops)
        finally:
            tracer.uninstall()
        rec["trace"] = {**tracer.snapshot(), "startup_s": 0.0}
        return rec

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class CliWorkload:
    """The README session; each command is a child process writing into ``work``."""

    def __init__(self, p, sizes: dict, work: Path) -> None:
        self.p, self.sizes, self.work = p, sizes, work
        self.session = workloads.CliSession(work, dict(os.environ), CLI_TIMEOUT)
        self.expected = workloads.expected_seeds(p, sizes)
        self.recorded: dict = {}
        workloads.record_liouville_readme(self.expected, self.recorded)

    def run(self, traced: bool) -> dict:
        self.session.trace = traced
        self.session.traces = []
        rec = run_pass(workloads.cli_readme_ops(self.p, self.sizes, self.session,
                                                self.expected, self.recorded))
        traces = {path for _, path in self.session.traces}
        rec["output_bytes"] = sum(f.stat().st_size for f in self.work.iterdir()
                                  if f.is_file() and f not in traces)
        if traced:
            rec["trace"] = self._merge()
        for f in self.work.iterdir():
            f.unlink()
        return rec

    def _merge(self) -> dict:
        merged = {"calls": {}, "self_s": {}, "counts": {}, "missing": [], "startup_s": 0.0}
        for spawned, path in self.session.traces:
            if not path.exists():
                continue  # the command died before writing spans; its op has failed
            t = json.loads(path.read_text())
            for key in ("calls", "self_s", "counts"):
                for name, v in t[key].items():
                    merged[key][name] = merged[key].get(name, 0) + v
            merged["missing"] = t["missing"]
            merged["startup_s"] += t["entered"] - spawned
        return merged

    @staticmethod
    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=tuple(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--work", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    p = workloads.params(args.seed)
    sizes = SIZES[args.mode]
    if args.workload != "cli_readme":
        # warm-up: every operation once on tiny grids, outputs not checked
        for op in LIB_BUILDERS[args.workload](p, SIZES["warm"]):
            op.run()
    if args.setup_only:
        return 0

    if args.workload == "cli_readme":
        w = CliWorkload(p, sizes, args.work)
    else:
        w = LibWorkload(args.workload, p, sizes)
    passes, traced, setup, rounds = [], [], [], []
    timed_setup = not args.trace and args.mode == "full"
    min_passes = MIN_PASSES if timed_setup else 1
    if timed_setup:
        measure_setup(args.workload, 0)  # byte-compilation and file cache; not counted
    t0 = perf_counter()
    while True:
        t_round = perf_counter()
        if timed_setup:
            # set-up samples are spread over the run, so that they see the same
            # machine as the passes
            share = (t_round - t0) / args.seconds if args.seconds else 1.0
            while len(setup) < min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * share)):
                setup.append(measure_setup(args.workload, args.seed))
        passes.append(w.run(False))
        if args.trace:
            traced.append(w.run(True))
        rounds.append(perf_counter() - t_round)
        # stop where the run ends nearest to --seconds: when half a further
        # round would already pass it
        ends = perf_counter() - t0 + 0.5 * statistics.median(rounds) >= args.seconds
        if ends and len(passes) >= min_passes and (not args.trace or len(traced) >= 2):
            break
    while timed_setup and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(args.workload, args.seed))
    result = {
        "passes": passes,
        "traced": traced,
        "setup_s": setup,
        "peak_rss_kb": w.peak_rss_kb(),
        "recorded": w.recorded,
        "params": dataclasses.asdict(p),
        "numpy": sys.modules["numpy"].__version__,
    }
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
