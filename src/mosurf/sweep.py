"""Two-pass RK4 integration of node-coefficient linear systems over a grid.

Every integrated system is linear in its state.  Along x it moves by the
generator ``gen_x(*coeffs_x)``, along y by ``gen_y(*coeffs_y)``: the
coefficient tuples hold the (nx, ny) node arrays each direction uses.

Builders.  A builder ``gen(*coeffs, out=None)`` takes coefficient arrays
of any shape and returns the dense generator component-first, shape
``(n, d) + coeff_shape``, written as slabs ``G[i, j] = ...``.  Without
``out`` it returns a new array; given ``out``, a zeroed array of that shape,
it writes only its nonzero entries into it and returns it, so every entry
it does not write must be zero in its generator.

Layout.  A state ``S`` (r, d) moves as ``S[:, :n] G``, which reads only
its first n columns, so a NaN that enters the other columns never feeds back
into them.  A system written ``w' = G w`` on a vector w (the Lax system)
moves as the one-row state ``w^T`` with the transposed generator.  The
generators stay dense, so a NaN coefficient spreads through 0 * NaN exactly
as through a dense matrix product.  The output is node-major,
``(nx, ny) + state.shape``.

The canonical sweep integrates along the first grid row and then up every
column at once (vectorized over the x index); the alternative order ("yx")
is used for path-independence diagnostics.  Coefficient values at RK4 stage
points are linear interpolants between the two bracketing nodes, which caps
the overall accuracy at O(h^2) while the RK4 truncation itself (the only term
breaking quadratic invariants such as frame orthonormality or the Lax
quadric) stays at O(s^4) globally in the step length s = h / substeps.
Substeps shrink that drift only; the Lax sweeps choose them by a step-length
rule (``backlund.lax_substeps``).

The two marches.  One RK4 step of a linear system is one matrix (Hairer,
Norsett & Wanner, Solving ODEs I, II.1), a polynomial in the step's start,
midpoint and end generators Ga, Gm, Gb.  The first row is a single line, so
a staged step there is a dozen numpy calls on one small state; ``_row``
instead builds the increment Q of every row step in a few vectorized calls
and then takes one product per step.  With U = G[:, :n]:

    A1 = I + s/2 Ua,  A2 = I + s/2 A1 Um,  A3 = I + s A2 Um,
    Q = s/6 (Ga + 2 (A1 + A2) Gm + A3 Gb)  (n x d),   S += S[:, :n] Q.

Q reads the generators' other columns only to fill its own, so a NaN there
still never reaches the first n.  The step products are ``matmul``, which
costs about half an ``einsum`` call on one small state; a NaN spreads
through them to the same nodes and components as through the staged march,
which the sweep tests check.

The columns are marched by ``_march`` with the staged step
``state + (s/6) (k1 + 2 k2 + 2 k3 + k4)``: across nx lines a Q costs more to
build than the four stages it replaces (for the 301 columns of a Lax sweep,
about 310 us per interval against 75-115 us for the staged step, generators
included, on a 2-core Xeon).  The serial steps take their generators
from blocks: one builder call per stage point builds the stage generators of
B intervals (``BLOCK``, or fewer on wide grids, see ``BLOCK_FLOATS``) from
one stack of the block's node coefficients, and a step takes the interval's
slice ``G[:, :, i]``.  Each generator entry is computed by the same
elementwise operations whatever B is, so the swept values do not depend on
B, bit for bit.  A march writes its generators and states into buffers
allocated once per march: the generator buffers (zeroed once; each block's
builder calls write into them through ``out``, a shorter last block into a
view of them), the four stages and their scratch, and one contiguous buffer
of a block's states, which the sweep copies into the node-major output as
one block of columns.  Per block, only the coefficient stack, its stage
interpolants and a copy of the generator carried over from the block before
are new; the first generator of a line and the row march's generators are
new arrays too.
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
#: it 301-wide Lax sweeps ran ~10% slower)
BLOCK = 32
BLOCK_FLOATS = 1 << 18


def _stage_points(c0: np.ndarray, c1: np.ndarray, substeps: int, at: float) -> list[np.ndarray]:
    """The coefficients of the intervals [c0, c1] at fraction ``at`` of each substep."""
    thetas = [(s + at) / substeps for s in range(substeps)]
    return [c1 if t >= 1.0 else (1.0 - t) * c0 + t * c1 for t in thetas]


def _row(
    state0: np.ndarray,
    h: float,
    gen: Builder,
    line: tuple[np.ndarray, ...],
    substeps: int,
) -> np.ndarray:
    """RK4 march of one line by step matrices (see the module docstring).

    ``line`` holds the (L,) coefficient arrays of the line's L nodes; returns
    the states at every node after the first, shape ``(L - 1,) + state0.shape``.
    """
    hs = h / substeps
    c = np.stack(line)[..., None]  # (K, L, 1): the last axis takes the substeps
    gm, gb = (gen(*np.concatenate(_stage_points(c[:, :-1], c[:, 1:], substeps, at), axis=-1))
              for at in (0.5, 1.0))
    n, d = gb.shape[:2]
    gm, gb = gm.reshape(n, d, -1), gb.reshape(n, d, -1)  # the steps in order
    # a step starts with the generator the step before ended with
    ga = np.concatenate([gen(*c[:, 0]), gb[:, :, :-1]], axis=2)

    def mul(a, b):  # stacked products, the steps on the last axis
        return np.einsum("ijt,jkt->ikt", a, b)

    eye = np.eye(n)[..., None]
    a1 = eye + (0.5 * hs) * ga[:, :n]
    a2 = eye + (0.5 * hs) * mul(a1, gm[:, :n])
    a3 = eye + hs * mul(a2, gm[:, :n])
    q = (hs / 6.0) * (ga + 2.0 * mul(a1 + a2, gm) + mul(a3, gb))
    q = np.moveaxis(q, -1, 0).reshape(-1, substeps, n, d)  # (L - 1, substeps, n, d)

    state, rows = state0, np.empty((len(q),) + state0.shape)
    for qi, nxt in zip(q, rows):
        for qs in qi:
            np.add(state, np.matmul(state[:, :n], qs), out=nxt)
            state = nxt
    return rows


def _march(
    state0: np.ndarray,
    h: float,
    gen: Builder,
    line: tuple[np.ndarray, ...],
    substeps: int,
) -> Iterator[np.ndarray]:
    """Staged RK4 march of m lines at once.

    ``state0`` is component-major, ``state.shape + (m,)`` with the lines on
    the last axis, and ``line`` holds the (L, m) coefficient arrays of the L
    nodes of every line.  Yields one contiguous ``(b,) + state.shape + (m,)``
    array per block of b intervals: the states at the block's end nodes.  It
    is overwritten by the next block, so the caller copies it out first.
    Each stage generator is built once: k2 and k3 share the midpoint, and a
    step starts with the generator the previous step ended with.  A block of
    intervals takes one (K, B + 1, m) coefficient stack and one builder call
    per stage point, into generator buffers zeroed once per march.  The
    stages go into buffers allocated once per march too (read through
    ``S[:, :n]`` views bound once), with the operations and their order of
    the textbook form ``state + (hs/6) (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hs = h / substeps
    half, sixth = 0.5 * hs, hs / 6.0
    state = np.array(state0, dtype=float, order="C")
    k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))
    ga = gen(*(v[0] for v in line))
    n = ga.shape[0]
    spec, x, xa = "jk...,aj...->ak...", state[:, :n], arg[:, :n]  # k = S[:, :n] G
    intervals = len(line[0]) - 1
    block = max(1, min(BLOCK, intervals, BLOCK_FLOATS // (2 * substeps * ga.size)))
    # the midpoint and end generators of every substep; a builder writes only
    # its nonzero entries, so the zeros written here stay.  One array per
    # substep and stage point: a single buffer of all of them raised glibc's
    # mmap threshold, and with it the peak RSS of a process running 301^2
    # transforms and 601^2 frame sweeps by 0.7 MB
    gms, gbs = ([np.zeros(ga.shape[:2] + (block,) + ga.shape[2:]) for _ in range(substeps)]
                for _ in range(2))
    buf = np.empty((block,) + state.shape)
    for a in range(0, intervals, block):
        cb = np.stack([v[a:a + block + 1] for v in line])
        b = cb.shape[1] - 1
        ga = ga.copy()  # the carried generator may be a view into ``gbs``
        for gs, at in ((gms, 0.5), (gbs, 1.0)):
            for g, p in zip(gs, _stage_points(cb[:, :-1], cb[:, 1:], substeps, at)):
                gen(*p, out=g[:, :, :b])
        for i in range(b):
            for s in range(substeps):
                gm, gb = gms[s][:, :, i], gbs[s][:, :, i]
                np.einsum(spec, ga, x, out=k1)
                np.add(state, np.multiply(k1, half, out=arg), out=arg)
                np.einsum(spec, gm, xa, out=k2)
                np.add(state, np.multiply(k2, half, out=arg), out=arg)
                np.einsum(spec, gm, xa, out=k3)
                np.add(state, np.multiply(k3, hs, out=arg), out=arg)
                np.einsum(spec, gb, xa, out=k4)
                np.multiply(k2, 2.0, out=acc)
                acc += k1
                acc += np.multiply(k3, 2.0, out=arg)
                acc += k4
                acc *= sixth
                state += acc
                ga = gb
            buf[i] = state
        yield buf[:b]


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

    ``state0`` is an (r, d) state (see the module docstring).  Returns an
    array of shape ``(nx, ny) + state0.shape``.
    """
    if order not in ("xy", "yx"):
        raise ValueError(f"sweep order must be 'xy' or 'yx', got {order!r}")
    state0 = np.asarray(state0, dtype=float)
    out = np.empty(grid.shape + state0.shape)
    fill, hx, hy = out, grid.dx, grid.dy
    if order == "yx":  # the "xy" pass on the transposed grid
        fill, hx, hy = out.swapaxes(0, 1), grid.dy, grid.dx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    fill[0, 0] = state0
    with np.errstate(all="ignore"):  # a NaN or overflow spreads downstream, unwarned
        fill[1:, 0] = _row(state0, hx, gen_x, tuple(v[:, 0] for v in coeffs_x), substeps)
        # every column at once (the line runs along y, the batch along x); only
        # one block of the coefficients is stacked at a time, never the whole grid
        columns = tuple(v.T for v in coeffs_y)
        j = 1
        for batch in _march(np.moveaxis(fill[:, 0], 0, -1), hy, gen_y, columns, substeps):
            fill[:, j:j + len(batch)] = np.moveaxis(batch, -1, 0)
            j += len(batch)
    return out
