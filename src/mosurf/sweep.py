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
as through a dense matrix product.

Output.  A sweep hands its states on a block at a time, as
``reduce(where, nodes)``: ``nodes`` is the block's node-major view and
``where`` indexes the grid nodes it covers, so ``grid[where]`` has the shape
of ``nodes``.  Storing the grid is the default reduction, ``out.__setitem__``
on a grid kept in the march's order (step-major with the lines last,
``(ny,) + state.shape + (nx,)`` for the canonical order) and returned as its
node-major view ``(nx, ny) + state.shape``, so nothing is transposed after
the march.  The other reductions keep a max, or copies of some columns, and
store no grid.

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
build than the four stages it replaces.  The serial steps take their
generators from blocks: one builder call per stage point builds the stage
generators of B intervals from one stack of the block's node coefficients,
and a step takes the interval's generator ``G[i]``, one contiguous array:
the buffers are interval-major, and a builder writes into them through a
view that puts the interval axis where it expects it.  B is as many
intervals as keep a block's generators within ``BLOCK_FLOATS``, so wide
grids take short blocks.  Each generator entry is computed by the same
elementwise operations whatever B is, so the swept values do not depend on
B, bit for bit.  A march writes its generators and states into buffers
allocated once per march: the generator buffers (zeroed once; each block's
builder calls write into them through ``out``, a shorter last block into a
view of them), the state, the four stages and their scratch, and the block
buffer.  The state at the end of each interval is copied into its row of the
block buffer, one contiguous row per interval.
Per block, only the coefficient stack, its stage interpolants and a copy of
the generator carried over from the block before are new; the first
generator of a line and the row march's generators are new arrays too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .fields import Grid2D

__all__ = ["sweep_grid"]

Builder = Callable[..., np.ndarray]
Reduce = Callable[[tuple[slice, slice], np.ndarray], None]

#: floats of the stage generators of one block of the column march (2 MB,
#: one core's L2 cache): a block takes as many intervals as keep its midpoint
#: and end generators within it, so the generators its steps read stay in cache
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
    first: np.ndarray,
    h: float,
    gen: Builder,
    line: tuple[np.ndarray, ...],
    substeps: int,
    done: Callable[[int, np.ndarray], None],
) -> None:
    """Staged RK4 march of m lines at once from their states ``first``.

    ``first`` has shape ``state.shape + (m,)``, the lines last.  Each block's
    states go into one scratch buffer of that layout, step-major, handed to
    ``done(start, states)`` once the block is done: ``states[k]`` holds the
    states at node ``start + k``.  ``line`` holds the (L, m) coefficient
    arrays of the L nodes of every line.  Each stage generator is built once:
    k2 and k3 share the midpoint, and a step starts with the generator the
    previous step ended with.  A block of intervals takes one (K, B + 1, m)
    coefficient stack and one builder call per stage point, into
    interval-major generator buffers zeroed once per march.  The stages go
    into buffers allocated once per march too (read through ``S[:, :n]``
    views bound once), with the operations and their order of the textbook
    form ``state + (hs/6) (k1 + 2 k2 + 2 k3 + k4)``.
    """
    hs = h / substeps
    half, sixth = 0.5 * hs, hs / 6.0
    state = first.copy()
    k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))
    ga = gen(*(v[0] for v in line))
    n = ga.shape[0]
    spec, x, xa = "jk...,aj...->ak...", state[:, :n], arg[:, :n]  # k = S[:, :n] G
    intervals = len(line[0]) - 1
    block = max(1, min(intervals, BLOCK_FLOATS // (2 * substeps * ga.size)))
    # the midpoint and end generators of every substep, interval-major so
    # that a step reads one contiguous (n, d, m) generator; a builder writes
    # only its nonzero entries, so the zeros written here stay.  One array
    # per substep and stage point: a single buffer of all of them raised
    # glibc's mmap threshold, and with it the peak RSS of a process that
    # goes on to larger sweeps
    gms, gbs = ([np.zeros((block,) + ga.shape) for _ in range(substeps)] for _ in range(2))
    scratch = np.empty((block,) + state.shape)
    for a in range(0, intervals, block):
        cb = np.stack([v[a:a + block + 1] for v in line])
        b = cb.shape[1] - 1
        states = scratch[:b]
        ga = ga.copy()  # the carried generator may be a view into ``gbs``
        for gs, at in ((gms, 0.5), (gbs, 1.0)):
            for g, p in zip(gs, _stage_points(cb[:, :-1], cb[:, 1:], substeps, at)):
                gen(*p, out=np.moveaxis(g[:b], 0, 2))
        for i in range(b):
            for s in range(substeps):
                gm, gb = gms[s][i], gbs[s][i]
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
            states[i] = state
        done(a + 1, states)


def sweep_grid(
    grid: Grid2D,
    coeffs_x: tuple[np.ndarray, ...],
    gen_x: Builder,
    coeffs_y: tuple[np.ndarray, ...],
    gen_y: Builder,
    state0: np.ndarray,
    order: str = "xy",
    substeps: int = 1,
    reduce: Reduce | None = None,
) -> np.ndarray | None:
    """Integrate a linear state over every grid node from the origin node.

    ``state0`` is an (r, d) state (see the module docstring).  Each block of
    states goes to ``reduce(where, nodes)``, node-major, so that a grid of
    shape ``(nx, ny) + state0.shape`` takes it by ``grid[where] = nodes``:
    the first line alone (y index 0 for "xy", x index 0 for "yx"), then each
    block of the column march in order.  ``nodes`` views a scratch buffer,
    valid only during the call; the reduction reads it and copies what it
    keeps, with numpy's floating-point warnings off like the march.

    The default reduction stores the grid, which is returned (None is returned
    otherwise) as the node-major view of an array in the march's order,
    step-major with the lines last: ``(ny,) + state0.shape + (nx,)`` for
    "xy", ``(nx,) + state0.shape + (ny,)`` for "yx".
    """
    if order not in ("xy", "yx"):
        raise ValueError(f"sweep order must be 'xy' or 'yx', got {order!r}")
    state0 = np.asarray(state0, dtype=float)
    nx, ny, hx, hy = grid.nx, grid.ny, grid.dx, grid.dy
    xy = order == "xy"
    if not xy:  # the "xy" pass on the transposed grid
        nx, ny, hx, hy = ny, nx, hy, hx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    out = None
    if reduce is None:  # store the grid, in the march's order
        out = np.moveaxis(np.empty((ny,) + state0.shape + (nx,)), -1, 0)
        out = out if xy else out.swapaxes(0, 1)
        reduce = out.__setitem__

    def hand_on(start: int, states: np.ndarray) -> None:
        nodes, steps = np.moveaxis(states, -1, 0), slice(start, start + len(states))
        where = (slice(None), steps)
        if not xy:  # from the transposed grid back to the grid
            where, nodes = where[::-1], nodes.swapaxes(0, 1)
        reduce(where, nodes)

    head = np.empty((1,) + state0.shape + (nx,))
    first = np.moveaxis(head[0], -1, 0)  # the first row, node-major
    first[0] = state0
    with np.errstate(all="ignore"):  # a NaN or overflow spreads downstream, unwarned
        first[1:] = _row(state0, hx, gen_x, tuple(v[:, 0] for v in coeffs_x), substeps)
        hand_on(0, head)
        # every column at once (the line runs along y, the batch along x); only
        # one block of the coefficients is stacked at a time, never the whole grid
        _march(head[0], hy, gen_y, tuple(v.T for v in coeffs_y), substeps, hand_on)
    return out
