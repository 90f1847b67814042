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
quadric) stays at O(s^4) globally in the step length s = h / substeps.
Substeps shrink that drift only; the Lax sweeps choose them by a step-length
rule (``backlund.lax_substeps``).

The RK4 steps along a line are serial, but their generators are not: a march
builds the stage generators of a block of B intervals (``BLOCK``, or fewer on
wide grids, see ``BLOCK_FLOATS``) with one builder call per stage point, from
one stack of the block's node coefficients, and the serial loop indexes into
them.  A block holds 2 * substeps * B * m generators of shape (n, d), m the
number of lines marched at once (1 along the first row, nx up the columns).
Each generator entry is computed by the same elementwise operations as one
interval at a time would, so the swept values do not depend on B, bit for
bit.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .fields import Grid2D

__all__ = ["sweep_grid"]

Builder = Callable[..., np.ndarray]

#: intervals per block of stage generators built in one builder call each; a
#: block is cut shorter where its generators would hold more than BLOCK_FLOATS
#: floats (2 MB, one core's L2 cache on the 2-core Xeon it was tuned on, where
#: 32-interval blocks of 601-wide Lax sweeps ran ~10% slower than 8-interval ones)
BLOCK = 32
BLOCK_FLOATS = 1 << 18


def _march(
    state0: np.ndarray,
    h: float,
    gen: Builder,
    line: tuple[np.ndarray, ...],
    rule: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    substeps: int,
) -> Iterator[np.ndarray]:
    """RK4 march along a line of nodes.

    ``line`` holds the coefficient arrays with the node index first; the state
    at every node after the first is yielded.  The march owns one copy of
    ``state0`` and advances it in place, so the yielded array is overwritten
    by the next step.  Each stage generator is built once: k2 and k3 share the
    midpoint, and a step starts with the generator the previous step ended
    with.  A block of intervals takes one (K, B + 1, ...) coefficient stack
    and one builder call per stage point.  The stages are written into
    buffers allocated once per march, with the operations and their order of
    the textbook form ``state + (hs/6) (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hs = h / substeps
    state = np.array(state0, dtype=float)
    k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))
    mids = [(s + 0.5) / substeps for s in range(substeps)]
    ends = [(s + 1.0) / substeps for s in range(substeps)]

    def at(c0, c1, theta):  # every interval's generator at theta, in one call
        return gen(*(c1 if theta >= 1.0 else (1.0 - theta) * c0 + theta * c1))

    def stage(k, scale):  # state + scale k, in the scratch buffer
        return np.add(state, np.multiply(k, scale, out=arg), out=arg)

    ga = gen(*(v[0] for v in line))
    block = max(1, min(BLOCK, BLOCK_FLOATS // (2 * substeps * ga.size)))
    for a in range(0, len(line[0]) - 1, block):
        cb = np.stack([v[a:a + block + 1] for v in line])
        c0, c1 = cb[:, :-1], cb[:, 1:]
        gms = [at(c0, c1, t) for t in mids]
        gbs = [at(c0, c1, t) for t in ends]
        for i in range(c1.shape[1]):
            for s in range(substeps):
                gm, gb = gms[s][i], gbs[s][i]
                rule(ga, state, k1)
                rule(gm, stage(k1, 0.5 * hs), k2)
                rule(gm, stage(k2, 0.5 * hs), k3)
                rule(gb, stage(k3, hs), k4)
                np.multiply(k2, 2.0, out=acc)
                acc += k1
                acc += np.multiply(k3, 2.0, out=arg)
                acc += k4
                acc *= hs / 6.0
                state += acc
                ga = gb
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
        rule = lambda G, w, out: np.einsum("...ij,...j->...i", G, w, out=out)
    else:
        rule = lambda G, S, out: np.matmul(S[..., : G.shape[-2]], G, out=out)
    out = np.empty(grid.shape + state0.shape)
    fill, hx, hy = out, grid.dx, grid.dy
    if order == "yx":  # the "xy" pass on the transposed grid
        fill, hx, hy = out.swapaxes(0, 1), grid.dy, grid.dx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    fill[0, 0] = state0
    row = tuple(v[:, 0] for v in coeffs_x)
    for i, state in enumerate(_march(state0, hx, gen_x, row, rule, substeps), 1):
        fill[i, 0] = state
    # every column at once (the line runs along y, the batch along x); only
    # one block of the coefficients is stacked at a time, never the whole grid
    columns = tuple(v.T for v in coeffs_y)
    for j, batch in enumerate(_march(fill[:, 0], hy, gen_y, columns, rule, substeps), 1):
        fill[:, j] = batch
    return out
