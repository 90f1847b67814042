"""Gauss-Weingarten frame integration and reconstruction of the surface triple.

The orthonormal frame Phi = (X, Y, N) (columns) satisfies

    Phi_x = Phi U,  U = [[0, p, Ho], [-p, 0, 0], [-Ho, 0, 0]],
    Phi_y = Phi V,  V = [[0, -q, 0], [q, 0, Ko], [0, -Ko, 0]],

and the surface pair R = (r, rbar) satisfies R_x = X (A1, Abar1),
R_y = Y (A2, Abar2).  The Gauss map N is the frame normal, the third column
of Phi: N_x = Ho X and N_y = Ko Y are the third columns of Phi U and Phi V,
so it is not integrated a second time, nor copied: the triple's N is a
read-only view of the normal column of the frame grid it was reconstructed
from, the plain (nx, ny, 3, 3) array :func:`integrate_frame` returns.
:func:`reconstruct_surfaces` sweeps the 3x5 state (Phi | r, rbar) once
with the two-pass RK4 sweep and copies out only r and rbar; no
re-orthonormalization is applied, so orthonormality drift is a genuine
accuracy diagnostic.  :func:`reconstruct` runs the whole frame phase of the
``reconstruct`` command, its four sweeps and its diagnostics.

The diagnostics that follow the sweeps are pointwise or 3x3-stencil formulas
followed by a max, so their temporaries are a block, not a grid.  Two reduce
a sweep (``sweep.sweep_grid``'s ``reduce``) one block of nodes at a time,
indexing each block like a grid, and no grid of that sweep is stored: the
|N| statistics of :func:`reconstruct_surfaces`, taken while the joint
sweep's blocks are copied into r and rbar, and the distance between the two
sweep orders of :func:`path_independence_error`, which compares each block
of the yx sweep with the stored xy grid.  :func:`orthonormality_drift` and
:func:`mesh_curvatures` read a stored grid one block of first-axis rows at
a time (``_row_blocks``: as many rows as keep a block of frames, 9 floats a
node, within the sweep's cache budget ``sweep.BLOCK_FLOATS``, read at each
call).  Each node takes the same operations in the same order, and a max of
block maxima is the max, so the results do not depend on the blocks, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from . import sweep
from .fields import ScalarField, Vec3Field, max_skipping_nan
from .kernel import CoefficientFields
from .sweep import sweep_grid

__all__ = [
    "SurfaceTriple",
    "integrate_frame",
    "path_independence_error",
    "reconstruct_surfaces",
    "orthonormality_drift",
    "mesh_curvatures",
    "reconstruct",
]

#: orthonormality tolerance for user-supplied initial frames
EPS_FRAME = 1e-10

#: :func:`mesh_curvatures` leaves out the nodes whose metric E G - F^2 is at or below this
EPS_METRIC = 1e-10

#: above this :func:`orthonormality_drift` the ``reconstruct`` command warns
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class SurfaceTriple:
    """Gauss map N (unit sphere), surface r and Combescure dual rbar.

    N is a read-only view of the normal column of the frame grid the triple
    was reconstructed from, so it keeps that grid alive.
    """

    N: Vec3Field
    r: Vec3Field
    rbar: Vec3Field


def _skew_x(p, Ho, out=None):
    """U(p, Ho), component-first: shape (3, 3) + p.shape.

    Like every sweep builder, it writes only its nonzero entries into a
    zeroed ``out`` when one is given.
    """
    U = np.zeros((3, 3) + np.shape(p)) if out is None else out
    U[0, 1] = p
    np.negative(p, out=U[1, 0])
    U[0, 2] = Ho
    np.negative(Ho, out=U[2, 0])
    return U


def _skew_y(q, Ko, out=None):
    """V(q, Ko)."""
    V = np.zeros((3, 3) + np.shape(q)) if out is None else out
    np.negative(q, out=V[0, 1])
    V[1, 0] = q
    V[1, 2] = Ko
    np.negative(Ko, out=V[2, 1])
    return V


def _with_triple_x(p, Ho, A1, Abar1, out=None):
    """[U | e_0 (A1, Abar1)]: Phi' = Phi U and (r, rbar)' = X (A1, Abar1)."""
    G = _skew_x(p, Ho, np.zeros((3, 5) + np.shape(p)) if out is None else out)
    G[0, 3] = A1
    G[0, 4] = Abar1
    return G


def _with_triple_y(q, Ko, A2, Abar2, out=None):
    """[V | e_1 (A2, Abar2)]: Phi' = Phi V and (r, rbar)' = Y (A2, Abar2)."""
    G = _skew_y(q, Ko, np.zeros((3, 5) + np.shape(q)) if out is None else out)
    G[1, 3] = A2
    G[1, 4] = Abar2
    return G


def integrate_frame(c: CoefficientFields, phi0: np.ndarray) -> np.ndarray:
    """The frame Phi = (X, Y, N) at every node, shape (nx, ny, 3, 3),
    integrated from the rotation ``phi0`` at the origin node.

    The canonical pass is x along the first row, then y up all columns.
    No re-orthonormalization is applied, so the reported drift is a genuine
    accuracy diagnostic.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (3, 3):
        raise ParameterError(f"initial frame must be 3x3, got shape {phi0.shape}")
    # a NaN or infinite entry raises before the products would warn
    if not (np.isfinite(phi0).all() and np.max(np.abs(phi0.T @ phi0 - np.eye(3))) <= EPS_FRAME):
        raise ParameterError("initial frame is not orthonormal")
    if not abs(np.linalg.det(phi0) - 1.0) <= EPS_FRAME:
        raise ParameterError("initial frame must have determinant +1")
    return sweep_grid(c.grid, (c.p, c.Ho), _skew_x, (c.q, c.Ko), _skew_y, phi0)


def _row_blocks(start: int, stop: int, ny: int) -> list[slice]:
    """The first-axis rows [start, stop) in blocks of as many rows as keep a
    block of frames (9 floats a node) within ``sweep.BLOCK_FLOATS``."""
    rows = max(1, sweep.BLOCK_FLOATS // (9 * ny))
    return [slice(a, min(a + rows, stop)) for a in range(start, stop, rows)]


def orthonormality_drift(f: np.ndarray) -> float:
    """Max over nodes of the max-abs entry of Phi^T Phi - I; NaN entries are skipped.

    Only the six distinct Gram entries are formed, each summed over the rows
    in order, which is the arithmetic of ``einsum("ka,kb->ab")``, on a
    component-major copy of each row block of the frames ``f`` (contiguous
    entries compute faster than strided views).  The max of the block maxima
    is :func:`fields.max_skipping_nan` of the grid.
    """
    def block_max(rows):
        F = np.moveaxis(f[rows], (2, 3), (0, 1)).copy()

        def gram(a, b):
            return F[0, a] * F[0, b] + F[1, a] * F[1, b] + F[2, a] * F[2, b]

        devs = [max_skipping_nan(np.abs(gram(a, a) - 1.0)) for a in range(3)]
        devs += [max_skipping_nan(np.abs(gram(a, b))) for a, b in ((0, 1), (0, 2), (1, 2))]
        return max_skipping_nan(np.array(devs))

    blocks = _row_blocks(0, *f.shape[:2])
    with np.errstate(all="ignore"):
        return max_skipping_nan(np.array([block_max(rows) for rows in blocks]))


def path_independence_error(c: CoefficientFields, phi0: np.ndarray) -> float:
    """Max Frobenius distance between x-then-y and y-then-x frame sweeps.

    Zero (up to integration error) exactly when the coefficients satisfy the
    Gauss-Mainardi-Codazzi compatibility; an O(1) value is a reliable signal
    of broken compatibility.  Nodes where either sweep is NaN are skipped.
    The xy sweep is stored; the yx sweep is reduced, each of its blocks
    compared with the same nodes of the xy grid as it is made.
    """
    xy = integrate_frame(c, phi0)
    maxima = []

    def block_max(where, nodes):
        a = xy[where]
        d = [np.square(a[..., i, j] - nodes[..., i, j]) for i in range(3) for j in range(3)]
        # numpy's order for a contiguous 9-term sum (pairwise over the first
        # eight, then the ninth), whatever the memory order of the sweeps
        total = ((d[0] + d[1]) + (d[2] + d[3])) + ((d[4] + d[5]) + (d[6] + d[7])) + d[8]
        maxima.append(max_skipping_nan(np.sqrt(total)))

    # the xy sweep holds the checked initial frame at the origin node
    sweep_grid(c.grid, (c.p, c.Ho), _skew_x, (c.q, c.Ko), _skew_y, xy[0, 0], order="yx",
               reduce=block_max)
    return max_skipping_nan(np.array(maxima))


def reconstruct_surfaces(f: np.ndarray, c: CoefficientFields) -> tuple[SurfaceTriple, dict]:
    """Integrate R = (r, rbar), R_x = X (A1, Abar1), R_y = Y (A2, Abar2), with the frame.

    One sweep carries the 3x5 state (Phi | r, rbar) from Phi0 = the frame of
    the frame grid ``f`` (:func:`integrate_frame`) at the origin node and
    r0 = rbar0 = 0.  The triple's N is the normal of ``f``: a read-only view
    of its third column, with no copy.  The sweep is reduced: each block of
    nodes is copied into r and rbar, the same nodes of N are measured, and
    no 3x5 grid is stored.  Returns the triple and the statistics of
    |N| = sqrt((N0^2 + N1^2) + N2^2): ``normal_unit_max_dev``, the largest
    ||N| - 1| where |N| is finite, and ``frame_nonfinite_nodes``, the number
    of nodes where it is not.  NaN dual coefficients (flagged stress nodes)
    poison rbar downstream of the flagged node, which is reported honestly;
    the frame, N and r stay finite, since the generator's (r, rbar) columns
    never feed back.
    """
    if f.shape != c.grid.shape + (3, 3):
        raise ParameterError("frame grid and coefficient grid differ")
    state0 = np.hstack([f[0, 0], np.zeros((3, 2))])  # (Phi | r, rbar)
    # C-ordered, which the norms and the writers need
    r, rbar = (np.empty(c.grid.shape + (3,)) for _ in range(2))
    maxima, lost = [], []

    def copy_out(where, nodes):
        r[where] = nodes[..., 3]
        rbar[where] = nodes[..., 4]
        N = f[where][..., :, 2]  # |N| in the order of a sum over a length-3 axis
        norm = np.sqrt((N[..., 0] ** 2 + N[..., 1] ** 2) + N[..., 2] ** 2)
        finite = np.isfinite(norm)
        maxima.append(max_skipping_nan(np.where(finite, np.abs(norm - 1.0), np.nan)))
        lost.append(norm.size - np.count_nonzero(finite))

    sweep_grid(c.grid, (c.p, c.Ho, c.A1, c.Abar1), _with_triple_x,
               (c.q, c.Ko, c.A2, c.Abar2), _with_triple_y, state0, reduce=copy_out)
    triple = SurfaceTriple(Vec3Field(c.grid, f[:, :, :, 2]),
                           Vec3Field(c.grid, r), Vec3Field(c.grid, rbar))
    return triple, {"normal_unit_max_dev": max_skipping_nan(np.array(maxima)),
                    "frame_nonfinite_nodes": int(sum(lost))}


def mesh_curvatures(r: Vec3Field) -> tuple[ScalarField, ScalarField]:
    """Discrete mean and Gauss curvature of a point grid at interior nodes.

    Central differences build the first and second fundamental forms; the
    normal is the normalized cross product of r_x and r_y, so the sign of the
    mean curvature follows the (x, y) orientation of the grid.  Boundary
    nodes and nodes with degenerate metric (E G - F^2 <= ``EPS_METRIC``) are NaN.
    """
    grid = r.grid
    dx, dy = grid.dx, grid.dy
    meanH = np.full(grid.shape, np.nan)
    gaussK = np.full(grid.shape, np.nan)

    def total(terms):  # (t0 + t1) + t2, numpy's order for a sum over a length-3 axis
        terms = iter(terms)
        acc = next(terms)
        for t in terms:
            acc += t
        return acc

    with np.errstate(all="ignore"):
        for rows in _row_blocks(1, grid.nx - 1, grid.ny):
            # the block's rows and a one-row halo on each side, one contiguous
            # array per component; every derivative is a per-component
            # temporary of the block, dropped once it is summed in
            xyz = [np.ascontiguousarray(r.values[rows.start - 1:rows.stop + 1, :, k])
                   for k in range(3)]
            rx = [(v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dx) for v in xyz]
            ry = [(v[1:-1, 2:] - v[1:-1, :-2]) / (2 * dy) for v in xyz]
            E = total(a * a for a in rx)
            F = total(a * b for a, b in zip(rx, ry))
            G = total(b * b for b in ry)
            det = E * G - F * F
            root = np.sqrt(det)
            n = [(rx[1] * ry[2] - rx[2] * ry[1]) / root,  # np.cross(rx, ry) / root
                 (rx[2] * ry[0] - rx[0] * ry[2]) / root,
                 (rx[0] * ry[1] - rx[1] * ry[0]) / root]
            del rx, ry, root
            L = total((v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / dx**2 * nk
                      for v, nk in zip(xyz, n))
            M = total((v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * dx * dy) * nk
                      for v, nk in zip(xyz, n))
            Nf = total((v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dy**2 * nk
                       for v, nk in zip(xyz, n))
            del xyz, n
            bad = ~(det > EPS_METRIC)
            mH = (G * L - 2 * F * M + E * Nf) / (2 * det)
            gK = (L * Nf - M * M) / det
            mH[bad] = np.nan
            gK[bad] = np.nan
            meanH[rows, 1:-1] = mH
            gaussK[rows, 1:-1] = gK
    return ScalarField(grid, meanH), ScalarField(grid, gaussK)


def reconstruct(c: CoefficientFields) -> tuple[SurfaceTriple, dict[str, float | int]]:
    """The surface triple of ``c`` from the identity frame at the origin
    node, and its diagnostics, in four sweeps: the frame's
    :func:`orthonormality_drift`, the :func:`path_independence_error`, the
    |N| statistics of :func:`reconstruct_surfaces`, the mean/Gauss curvature
    statistics of r over the nodes where :func:`mesh_curvatures` is defined,
    and the flagged nodes.
    """
    f = integrate_frame(c, np.eye(3))
    triple, normal_stats = reconstruct_surfaces(f, c)
    diag = {"orthonormality_drift": orthonormality_drift(f),
            "path_independence_error": path_independence_error(c, np.eye(3)),
            **normal_stats}
    H, K = (v.values for v in mesh_curvatures(triple.r))
    # numpy's nanmean, nanmin and nanmax to the bit, which read NaN with no
    # warning where no node is defined
    with np.errstate(all="ignore"):
        diag.update({
            "mean_curvature_mean": float(np.nansum(H) / np.count_nonzero(~np.isnan(H))),
            "mean_curvature_min": float(np.fmin.reduce(H, axis=None)),
            "mean_curvature_max": max_skipping_nan(H),
            "gauss_curvature_mean": float(np.nansum(K) / np.count_nonzero(~np.isnan(K))),
        })
    diag["flagged_nodes"] = int(c.n_flagged)
    return triple, diag
