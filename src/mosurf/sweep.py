"""Two-pass RK4 integration of node-coefficient linear systems over a grid.

The canonical sweep integrates d(state)/dx along the first grid row and then
d(state)/dy up every column at once (vectorized over the x index); the
alternative order ("yx") is used for path-independence diagnostics.
Coefficient values at RK4 stage points are linear interpolants between the
two bracketing nodes, which caps the overall accuracy at O(h^2) while the
RK4 truncation itself (the only term breaking quadratic invariants such as
frame orthonormality or the Lax quadric) stays at O(h^4) globally and can be
pushed down further with substeps.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import Grid2D

__all__ = ["sweep_grid"]

Coeffs = dict[str, np.ndarray]
Deriv = Callable[[Coeffs, np.ndarray], np.ndarray]


def _rk4_interval(
    state: np.ndarray, h: float, deriv: Deriv, c0: Coeffs, c1: Coeffs, substeps: int
) -> np.ndarray:
    """Advance one grid interval with ``substeps`` RK4 steps, coefficients
    linearly interpolated between the endpoint node values."""
    hs = h / substeps

    def at(theta: float) -> Coeffs:
        if theta <= 0.0:
            return c0
        if theta >= 1.0:
            return c1
        return {k: (1.0 - theta) * c0[k] + theta * c1[k] for k in c0}

    for s in range(substeps):
        ca = at(s / substeps)
        cm = at((s + 0.5) / substeps)
        cb = at((s + 1.0) / substeps)
        k1 = deriv(ca, state)
        k2 = deriv(cm, state + 0.5 * hs * k1)
        k3 = deriv(cm, state + 0.5 * hs * k2)
        k4 = deriv(cb, state + hs * k3)
        state = state + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state


def _sweep_xy(
    out: np.ndarray,
    coeffs: Coeffs,
    hx: float,
    hy: float,
    deriv_x: Deriv,
    deriv_y: Deriv,
    substeps: int,
    fix: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Fill ``out`` from ``out[0, 0]``: along the first axis on index 0 of the
    second, then along the second axis for every first index at once."""
    n0, n1 = out.shape[:2]
    state = out[0, 0]
    for i in range(n0 - 1):
        c0 = {k: v[i, 0] for k, v in coeffs.items()}
        c1 = {k: v[i + 1, 0] for k, v in coeffs.items()}
        state = fix(_rk4_interval(state, hx, deriv_x, c0, c1, substeps))
        out[i + 1, 0] = state
    batch = out[:, 0].copy()
    for j in range(n1 - 1):
        c0 = {k: v[:, j] for k, v in coeffs.items()}
        c1 = {k: v[:, j + 1] for k, v in coeffs.items()}
        batch = fix(_rk4_interval(batch, hy, deriv_y, c0, c1, substeps))
        out[:, j + 1] = batch


def sweep_grid(
    grid: Grid2D,
    coeffs: Coeffs,
    deriv_x: Deriv,
    deriv_y: Deriv,
    state0: np.ndarray,
    order: str = "xy",
    substeps: int = 1,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Integrate a state over every grid node starting from the origin node.

    ``coeffs`` maps names to (nx, ny) node arrays.  ``deriv_x(c, s)`` must
    broadcast over a leading batch axis (coefficient entries are scalars on
    the seed line and 1-d arrays on the batched pass).  ``project``, when
    given, is applied to the state after every grid interval (e.g. polar
    re-orthonormalization for rotation-valued states).  Returns an array of
    shape ``(nx, ny) + state0.shape``.  The "yx" order is the "xy" pass run
    on the transposed grid.
    """
    if order not in ("xy", "yx"):
        raise ValueError(f"sweep order must be 'xy' or 'yx', got {order!r}")
    state0 = np.asarray(state0, dtype=float)
    out = np.empty(grid.shape + state0.shape)
    out[0, 0] = state0
    fix = project if project is not None else (lambda s: s)
    if order == "xy":
        _sweep_xy(out, coeffs, grid.dx, grid.dy, deriv_x, deriv_y, substeps, fix)
    else:
        _sweep_xy(out.swapaxes(0, 1), {k: v.T for k, v in coeffs.items()},
                  grid.dy, grid.dx, deriv_y, deriv_x, substeps, fix)
    return out
