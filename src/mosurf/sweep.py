"""Two-pass RK4 integration of node-coefficient linear systems over a grid.

Every integrated system is linear in its state.  Along x it moves by the
generator ``gen_x(*coeffs_x)``, along y by ``gen_y(*coeffs_y)``: the
coefficient tuples hold the (nx, ny) node arrays each direction uses.

Layout.  The sweep keeps its states component-major: m lines marched at once
hold ``state.shape + (m,)``, with the lines on the last, contiguous axis
(m = 1 along the first row, nx up the columns).  A builder takes coefficient
arrays of any shape and returns the dense generator component-first, shape
``(n, d) + coeff_shape``, written as contiguous slabs ``G[i, j] = ...``.  A
vector state ``w`` (d,) moves as ``G w`` (``einsum("ij...,j...->i...")``);
a matrix state ``S`` (r, d) moves as ``S[:, :n] G``
(``einsum("aj...,jk...->ak...")``), which reads only its first n columns, so
a NaN that enters the other columns never feeds back into them.  The
generators stay dense, so a NaN coefficient spreads through 0 * NaN exactly
as through a dense matrix product.  The output is node-major, ``(nx, ny) +
state.shape``; each column is moved into it as it is marched.

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
one stack of the block's node coefficients, and the serial loop takes the
interval's slice ``G[:, :, i]``.  A block holds 2 * substeps * B * m
generators of shape (n, d).  Each generator entry is computed by the same
elementwise operations as one interval at a time would, and every block has
at least two intervals, so the swept values do not depend on B, bit for bit:
a one-interval block would hand ``einsum`` a contiguous (n, d, 1) generator
on the first row, which it contracts with a SIMD dot product instead of the
sequential sum it runs on every strided slice.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .fields import Grid2D

__all__ = ["sweep_grid"]

Builder = Callable[..., np.ndarray]

#: intervals per block of stage generators built in one builder call each; a
#: block is cut shorter where its generators would hold more than BLOCK_FLOATS
#: floats (2 MB, one core's L2 cache on the 2-core Xeon it was tuned on; the
#: cap was re-measured on the component-major layout and still pays: without
#: it 301-wide Lax sweeps ran ~10% slower), but never below two intervals
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
    """RK4 march of m lines at once.

    ``state0`` is component-major, ``state.shape + (m,)``, and ``line`` holds
    the (L, m) coefficient arrays of the L nodes of every line; the state at
    every node after the first is yielded.  The march owns one C-ordered copy
    of ``state0`` and advances it in place, so the yielded array is
    overwritten by the next step.  Each stage generator is built once: k2 and
    k3 share the midpoint, and a step starts with the generator the previous
    step ended with.  A block of intervals takes one (K, B + 1, m)
    coefficient stack and one builder call per stage point.  The stages are
    written into buffers allocated once per march, with the operations and
    their order of the textbook form ``state + (hs/6) (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hs = h / substeps
    state = np.array(state0, dtype=float, order="C")
    k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))
    mids = [(s + 0.5) / substeps for s in range(substeps)]
    ends = [(s + 1.0) / substeps for s in range(substeps)]

    def at(c0, c1, theta):  # every interval's generator at theta, in one call
        return gen(*(c1 if theta >= 1.0 else (1.0 - theta) * c0 + theta * c1))

    def stage(k, scale):  # state + scale k, in the scratch buffer
        return np.add(state, np.multiply(k, scale, out=arg), out=arg)

    ga = gen(*(v[0] for v in line))
    intervals = len(line[0]) - 1
    block = max(2, min(BLOCK, BLOCK_FLOATS // (2 * substeps * ga.size)))
    starts = list(range(0, intervals, block))
    if len(starts) > 1 and intervals - starts[-1] == 1:
        starts.pop()  # no one-interval block (see the module docstring)
    for a, b in zip(starts, starts[1:] + [intervals]):
        cb = np.stack([v[a:b + 1] for v in line])
        c0, c1 = cb[:, :-1], cb[:, 1:]
        gms = [at(c0, c1, t) for t in mids]
        gbs = [at(c0, c1, t) for t in ends]
        for i in range(c1.shape[1]):
            for s in range(substeps):
                gm, gb = gms[s][:, :, i], gbs[s][:, :, i]
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
        rule = lambda G, w, out: np.einsum("ij...,j...->i...", G, w, out=out)
    else:
        rule = lambda G, S, out: np.einsum("aj...,jk...->ak...", S[:, : G.shape[0]], G,
                                           out=out)
    out = np.empty(grid.shape + state0.shape)
    fill, hx, hy = out, grid.dx, grid.dy
    if order == "yx":  # the "xy" pass on the transposed grid
        fill, hx, hy = out.swapaxes(0, 1), grid.dy, grid.dx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    fill[0, 0] = state0
    # the first row is one line (m = 1)
    row = tuple(v[:, :1] for v in coeffs_x)
    for i, state in enumerate(_march(state0[..., None], hx, gen_x, row, rule, substeps), 1):
        fill[i, 0] = state[..., 0]
    # every column at once (the line runs along y, the batch along x); only
    # one block of the coefficients is stacked at a time, never the whole grid
    columns = tuple(v.T for v in coeffs_y)
    cols = np.moveaxis(fill, 0, -1)  # cols[j] is column j, component-major
    for j, batch in enumerate(_march(cols[0], hy, gen_y, columns, rule, substeps), 1):
        cols[j] = batch
    return out
