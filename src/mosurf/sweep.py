"""Two-pass RK4 integration of node-coefficient linear systems over a grid.

Every integrated system is linear in its state.  Along x it moves by the
generator ``gen_x(*coeffs_x)``, along y by ``gen_y(*coeffs_y)``: the
coefficient tuples hold the (nx, ny) node arrays each direction uses, and a
builder broadcasts over leading axes and returns shape ``(..., n, d)``.  A
vector state ``w`` (d,) moves as ``G w``; a matrix state ``S`` (r, d) moves
as ``S[:, :n] G``, which reads only its first n columns, so a NaN that enters
the other columns never feeds back into them.

The canonical sweep integrates along the first grid row and then up every
column at once (vectorized over the x index); the alternative order ("yx")
is used for path-independence diagnostics.  Coefficient values at RK4 stage
points are linear interpolants between the two bracketing nodes, which caps
the overall accuracy at O(h^2) while the RK4 truncation itself (the only term
breaking quadratic invariants such as frame orthonormality or the Lax
quadric) stays at O(h^4) globally and can be pushed down further with
substeps.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .fields import Grid2D

__all__ = ["sweep_grid"]

Builder = Callable[..., np.ndarray]


def _march(
    state: np.ndarray,
    h: float,
    gen: Builder,
    nodes: Iterator[np.ndarray],
    rule: Callable[[np.ndarray, np.ndarray], np.ndarray],
    substeps: int,
) -> Iterator[np.ndarray]:
    """RK4 march along a line of nodes.

    ``nodes`` yields each node's (K, ...) coefficient stack in turn; the state
    at every node after the first is yielded.  Each stage generator is built
    once: k2 and k3 share the midpoint, and a step starts with the generator
    the previous step ended with.
    """
    hs = h / substeps

    def at(c0, c1, theta):
        return gen(*(c1 if theta >= 1.0 else (1.0 - theta) * c0 + theta * c1))

    c0 = next(nodes)
    ga = gen(*c0)
    for c1 in nodes:
        for s in range(substeps):
            gm = at(c0, c1, (s + 0.5) / substeps)
            gb = at(c0, c1, (s + 1.0) / substeps)
            k1 = rule(ga, state)
            k2 = rule(gm, state + 0.5 * hs * k1)
            k3 = rule(gm, state + 0.5 * hs * k2)
            k4 = rule(gb, state + hs * k3)
            state = state + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ga = gb
        c0 = c1
        yield state


def sweep_grid(
    grid: Grid2D,
    coeffs_x: tuple[np.ndarray, ...],
    gen_x: Builder,
    coeffs_y: tuple[np.ndarray, ...],
    gen_y: Builder,
    state0: np.ndarray,
    order: str = "xy",
    substeps: int = 1,
) -> np.ndarray:
    """Integrate a linear state over every grid node from the origin node.

    A 1-d ``state0`` is a vector state, a 2-d one a matrix state (see the
    module docstring).  Returns an array of shape ``(nx, ny) + state0.shape``.
    """
    if order not in ("xy", "yx"):
        raise ValueError(f"sweep order must be 'xy' or 'yx', got {order!r}")
    state0 = np.asarray(state0, dtype=float)
    if state0.ndim == 1:
        rule = lambda G, w: np.einsum("...ij,...j->...i", G, w)
    else:
        rule = lambda G, S: S[..., : G.shape[-2]] @ G
    out = np.empty(grid.shape + state0.shape)
    fill, hx, hy = out, grid.dx, grid.dy
    if order == "yx":  # the "xy" pass on the transposed grid
        fill, hx, hy = out.swapaxes(0, 1), grid.dy, grid.dx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    fill[0, 0] = state0
    row = np.stack([v[:, 0] for v in coeffs_x], axis=-1)
    for i, state in enumerate(_march(state0, hx, gen_x, iter(row), rule, substeps), 1):
        fill[i, 0] = state
    # one (K, n) stack per column, so no whole-grid copy of the coefficients
    columns = (np.stack([v[:, j] for v in coeffs_y]) for j in range(fill.shape[1]))
    for j, batch in enumerate(_march(fill[:, 0].copy(), hy, gen_y, columns, rule, substeps), 1):
        fill[:, j] = batch
    return out
