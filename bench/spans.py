"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``mosurf`` layer from outside
the library.  Several modules bind their callees at import time
(``from .sweep import sweep_grid``, ``from .fields import diff_x``), so a
wrapper is installed under every module attribute that refers to the original
function; callees imported at call time pick up the wrapper from their home
module.  Spans record call counts and self time (duration minus child spans);
counters record the work done at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

#: layer module -> public functions timed as spans
SPANS = {
    "fileio": ("write_field_file", "read_field_file", "write_obj", "write_table",
               "write_report_file"),
    "sweep": ("sweep_grid",),
    "frames": ("integrate_frame", "reconstruct_surfaces", "path_independence_error",
               "mesh_curvatures", "orthonormality_drift"),
    "backlund": ("integrate_lax", "apply_backlund", "bianchi_darboux", "backlund_governing",
                 "backlund_coefficients", "backlund_surface"),
    "kernel": ("coefficients_from_governing", "stresses", "governing_residuals",
               "gauss_codazzi_residuals", "equilibrium_residuals", "first_integral_check",
               "orthogonality_check"),
    "verify": ("verify_governing", "convergence_orders"),
    "omega": ("omega_ratios",),
    "seeds": ("generate_seed",),
    "cli": ("main",),
}
#: counted but not timed: their time stays with the calling span
COUNTED = {"fields": ("diff_x", "diff_y", "partial_x", "partial_y")}

#: the transforms whose sweeps are attributed to the backlund layer
TRANSFORMS = ("backlund.apply_backlund", "backlund.bianchi_darboux")
VERIFY = "verify.verify_governing"


def import_layers() -> list[str]:
    """Import every mosurf layer module; returns their names."""
    names = list(SPANS) + list(COUNTED)
    for name in names:
        importlib.import_module(f"mosurf.{name}")
    return names


def _floats_in(value) -> int:
    """Number of float leaves of a JSON-like document."""
    if isinstance(value, dict):
        return sum(_floats_in(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_floats_in(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.size if value.dtype.kind == "f" else 0
    return int(isinstance(value, (float, np.floating)))


class Tracer:
    """Spans and counters of one process; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, seconds spent in child spans]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _ancestor(self, names) -> str | None:
        """Outermost open span whose name is in ``names``."""
        for frame in self.stack:
            if frame[0] in names:
                return frame[0]
        return None

    def _span(self, name: str, fn, after):
        stack, calls, self_s = self.stack, self.calls, self.self_s
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if after is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self, bound.arguments)

        return wrapper

    def _counted(self, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["fields.diff.calls"] += 1
            if any(frame[0] == VERIFY for frame in stack):
                counts["fields.diff.in_verify"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _after_sweep(self, a) -> None:
        nx, ny = a["grid"].shape
        intervals = (nx - 1) + (ny - 1)
        self.counts["sweep.intervals"] += intervals
        self.counts["sweep.rk4_stages"] += 4 * a.get("substeps", 1) * intervals
        owner = self._ancestor(TRANSFORMS)
        if owner is not None:
            self.counts[f"sweeps.{owner}"] += 1
        elif any(frame[0].startswith("frames.") for frame in self.stack):
            self.counts["sweeps.frames"] += 1

    def _after_reconstruct(self, a) -> None:
        if self._ancestor(TRANSFORMS) is None:
            self.counts["frames.reconstructs"] += 1

    def _written(self, path, floats: int) -> None:
        self.counts["fileio.bytes_written"] += os.path.getsize(path)
        self.counts["fileio.floats_written"] += int(floats)

    def _after_field_write(self, a) -> None:
        g = a["g"]
        grid = g.grid
        header = [g.qn, grid.x0, grid.y0, grid.dx, grid.dy, a.get("seed")]
        self._written(a["path"], 3 * grid.n_nodes + _floats_in(header))

    def _after_report_write(self, a) -> None:
        self._written(a["path"], _floats_in(a["doc"]))

    def _after_obj(self, a) -> None:
        v = a["points"].values
        ok = np.isfinite(v).all(axis=2)
        if a.get("valid") is not None:
            ok &= a["valid"]
        self._written(a["path"], 3 * int(ok.sum()))

    def _after_table(self, a) -> None:
        self._written(a["path"], sum(int(np.isfinite(c).sum()) for c in a["columns"].values()))

    def _after_read(self, a) -> None:
        self.counts["fileio.bytes_read"] += os.path.getsize(a["path"])

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        import_layers()
        loaded = [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "mosurf" or k.startswith("mosurf."))]
        for layer, names in SPANS.items():
            for fname in names:
                span = f"{layer}.{fname}"
                orig = getattr(sys.modules[f"mosurf.{layer}"], fname, None)
                if orig is None:
                    self.missing.append(span)
                    continue
                self._replace(loaded, orig, self._span(span, orig, HOOKS.get(span)))
        for layer, names in COUNTED.items():
            for fname in names:
                orig = getattr(sys.modules[f"mosurf.{layer}"], fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                self._replace(loaded, orig, self._counted(orig))

    def _replace(self, modules, orig, new) -> None:
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, new)
                    self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


#: counters taken from the arguments after the call returns
HOOKS = {
    "sweep.sweep_grid": Tracer._after_sweep,
    "frames.reconstruct_surfaces": Tracer._after_reconstruct,
    "fileio.write_field_file": Tracer._after_field_write,
    "fileio.write_report_file": Tracer._after_report_write,
    "fileio.write_obj": Tracer._after_obj,
    "fileio.write_table": Tracer._after_table,
    "fileio.read_field_file": Tracer._after_read,
}
