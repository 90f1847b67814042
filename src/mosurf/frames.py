"""Gauss-Weingarten frame integration and reconstruction of the surface triple.

The orthonormal frame Phi = (X, Y, N) (columns) satisfies

    Phi_x = Phi U,  U = [[0, p, Ho], [-p, 0, 0], [-Ho, 0, 0]],
    Phi_y = Phi V,  V = [[0, -q, 0], [q, 0, Ko], [0, -Ko, 0]],

and the surface pair R = (r, rbar) satisfies R_x = X (A1, Abar1),
R_y = Y (A2, Abar2).  The Gauss map N is the frame normal, the third column
of Phi: N_x = Ho X and N_y = Ko Y are the third columns of Phi U and Phi V,
so it is not integrated a second time, nor copied: the triple's N is a
read-only view of the normal column of the frame grid it was reconstructed
from.  :func:`reconstruct_surfaces` sweeps the 3x5 state (Phi | r, rbar) once
with the two-pass RK4 sweep and copies out only r and rbar; no
re-orthonormalization is applied, so orthonormality drift is a genuine
accuracy diagnostic.

The diagnostics that follow the sweeps (the Gauss-map distance of
:func:`reconstruct_surfaces`, :func:`orthonormality_drift` and
:func:`mesh_curvatures`) are pointwise or 3x3-stencil formulas followed by a
max.  They run one block of first-axis rows at a time (``_row_blocks``: as
many rows as keep a block of frames, 9 floats a node, within the sweep's
``BLOCK_FLOATS`` cache budget), so their temporaries are a block, not a
grid.  Each node takes the same operations in the same order, and a max of
block maxima is the max, so the results do not depend on the block, bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ParameterError
from .fields import Grid2D, ScalarField, Vec3Field
from .kernel import CoefficientFields
from .sweep import BLOCK_FLOATS, sweep_grid

__all__ = [
    "FrameGrid",
    "SurfaceTriple",
    "integrate_frame",
    "path_independence_error",
    "reconstruct_surfaces",
    "orthonormality_drift",
    "mesh_curvatures",
    "surface_diagnostics",
]

#: orthonormality tolerance for user-supplied initial frames
EPS_FRAME = 1e-10


@dataclass(frozen=True)
class FrameGrid:
    """Orthonormal triad Phi = (X, Y, N) at every node, shape (nx, ny, 3, 3)."""

    grid: Grid2D
    frames: np.ndarray = dc_field(repr=False)

    def __post_init__(self) -> None:
        if self.frames.shape != self.grid.shape + (3, 3):
            raise ParameterError(
                f"frame array shape {self.frames.shape} does not match grid {self.grid.shape}"
            )


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


def _check_rotation(phi0: np.ndarray) -> np.ndarray:
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (3, 3):
        raise ParameterError(f"initial frame must be 3x3, got shape {phi0.shape}")
    if np.max(np.abs(phi0.T @ phi0 - np.eye(3))) > EPS_FRAME:
        raise ParameterError("initial frame is not orthonormal")
    if abs(np.linalg.det(phi0) - 1.0) > EPS_FRAME:
        raise ParameterError("initial frame must have determinant +1")
    return phi0


def integrate_frame(c: CoefficientFields, phi0: np.ndarray, order: str = "xy") -> FrameGrid:
    """Integrate the frame system from ``phi0`` at the origin node.

    The canonical pass is x along the first row, then y up all columns.
    No re-orthonormalization is applied, so the reported drift is a genuine
    accuracy diagnostic.
    """
    phi0 = _check_rotation(phi0)
    frames = sweep_grid(c.grid, (c.p, c.Ho), _skew_x, (c.q, c.Ko), _skew_y, phi0, order=order)
    return FrameGrid(c.grid, frames)


def _finite_max(values: np.ndarray) -> float:
    """Max of the entries that are not NaN (NaN only if all are), with no mask."""
    return float(np.fmax.reduce(values, axis=None))


def _row_blocks(start: int, stop: int, ny: int) -> list[slice]:
    """The first-axis rows [start, stop) in blocks of as many rows as keep a
    block of frames (9 floats a node) within ``BLOCK_FLOATS``."""
    rows = max(1, BLOCK_FLOATS // (9 * ny))
    return [slice(a, min(a + rows, stop)) for a in range(start, stop, rows)]


def _blocked_max(grid: Grid2D, block_max) -> float:
    """:func:`_finite_max` of the grid, as the max of ``block_max(rows)`` over its row blocks."""
    with np.errstate(all="ignore"):
        return _finite_max(np.array([block_max(rows) for rows in _row_blocks(0, grid.nx, grid.ny)]))


def orthonormality_drift(f: FrameGrid) -> float:
    """Max over nodes of the max-abs entry of Phi^T Phi - I; NaN entries are skipped.

    Only the six distinct Gram entries are formed, each summed over the rows
    in order, which is the arithmetic of ``einsum("ka,kb->ab")``, on a
    component-major copy of each row block of the frames (contiguous entries
    compute faster than strided views).
    """
    def block_max(rows):
        F = np.moveaxis(f.frames[rows], (2, 3), (0, 1)).copy()

        def gram(a, b):
            return F[0, a] * F[0, b] + F[1, a] * F[1, b] + F[2, a] * F[2, b]

        devs = [_finite_max(np.abs(gram(a, a) - 1.0)) for a in range(3)]
        devs += [_finite_max(np.abs(gram(a, b))) for a, b in ((0, 1), (0, 2), (1, 2))]
        return _finite_max(np.array(devs))

    return _blocked_max(f.grid, block_max)


def path_independence_error(c: CoefficientFields, phi0: np.ndarray) -> float:
    """Max Frobenius distance between x-then-y and y-then-x frame sweeps.

    Zero (up to integration error) exactly when the coefficients satisfy the
    Gauss-Mainardi-Codazzi compatibility; an O(1) value is a reliable signal
    of broken compatibility.  Nodes where either sweep is NaN are skipped.
    """
    diff = integrate_frame(c, phi0, order="xy").frames
    with np.errstate(all="ignore"):
        diff -= integrate_frame(c, phi0, order="yx").frames  # in place: two frame grids, not three
        diff *= diff
        return _finite_max(np.sqrt(diff.sum(axis=(2, 3))))


def reconstruct_surfaces(f: FrameGrid, c: CoefficientFields) -> tuple[SurfaceTriple, float]:
    """Integrate R = (r, rbar), R_x = X (A1, Abar1), R_y = Y (A2, Abar2), with the frame.

    One sweep carries the 3x5 state (Phi | r, rbar) from Phi0 = the frame of
    ``f`` at the origin node and r0 = rbar0 = 0.  The triple's N is the
    normal of the frame grid passed in: a read-only view of the third column
    of ``f.frames``, with no copy; r and rbar are copied out of the sweep.
    Returns the triple and the max distance between the joint sweep's normal
    column and that of ``f`` over the nodes where both are finite.  Both come
    from the same arithmetic on the same coefficients, so that distance reads
    0 unless the two sweeps are run differently.
    NaN dual coefficients (flagged stress nodes) poison the rbar sheet
    downstream of the flagged node, which is reported honestly; the frame,
    N and r stay finite, since the generator's (r, rbar) columns never feed back.
    """
    if f.grid != c.grid:
        raise ParameterError("frame grid and coefficient grid differ")
    state0 = np.hstack([f.frames[0, 0], np.zeros((3, 2))])  # (Phi | r, rbar)
    out = sweep_grid(
        c.grid,
        (c.p, c.Ho, c.A1, c.Abar1), _with_triple_x,
        (c.q, c.Ko, c.A2, c.Abar2), _with_triple_y,
        state0,
    )
    gauss_dev = _blocked_max(c.grid, lambda rows: _finite_max(
        np.sqrt(((out[rows, :, :, 2] - f.frames[rows, :, :, 2]) ** 2).sum(2))))
    # contiguous copies of r and rbar on purpose: views would keep the whole
    # 3x5 sweep output, with its second copy of the frame, alive
    r, rbar = (Vec3Field(c.grid, np.ascontiguousarray(out[:, :, :, k])) for k in (3, 4))
    del out
    return SurfaceTriple(Vec3Field(c.grid, f.frames[:, :, :, 2]), r, rbar), gauss_dev


def mesh_curvatures(r: Vec3Field, eps: float = 1e-10) -> tuple[ScalarField, ScalarField]:
    """Discrete mean and Gauss curvature of a point grid at interior nodes.

    Central differences build the first and second fundamental forms; the
    normal is the normalized cross product of r_x and r_y, so the sign of the
    mean curvature follows the (x, y) orientation of the grid.  Boundary
    nodes and nodes with degenerate metric (E G - F^2 <= eps) are NaN.
    For meshes with near-degenerate bands (e.g. curvature-line meshes
    crossing a cuspidal edge) pass a larger ``eps`` to also exclude the
    surrounding nodes whose stencils lose accuracy.
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
            bad = ~(det > eps)
            mH = (G * L - 2 * F * M + E * Nf) / (2 * det)
            gK = (L * Nf - M * M) / det
            mH[bad] = np.nan
            gK[bad] = np.nan
            meanH[rows, 1:-1] = mH
            gaussK[rows, 1:-1] = gK
    return ScalarField(grid, meanH), ScalarField(grid, gaussK)


def surface_diagnostics(triple: SurfaceTriple) -> dict[str, float | int]:
    """Worst deviation of |N| from 1, the number of nodes whose N is not
    finite (downstream of a flagged coefficient), and the mean/Gauss
    curvature statistics of r over the nodes where :func:`mesh_curvatures`
    is defined."""
    H, K = (v.values for v in mesh_curvatures(triple.r))
    # numpy's nanmean, nanmin and nanmax to the bit, which read NaN with no
    # warning where no node is defined
    with np.errstate(all="ignore"):
        n_norm = np.sqrt((triple.N.values ** 2).sum(axis=2))
        return {
            "normal_unit_max_dev": _finite_max(np.abs(n_norm - 1.0)),
            "frame_nonfinite_nodes": int((~np.isfinite(n_norm)).sum()),
            "mean_curvature_mean": float(np.nansum(H) / np.count_nonzero(~np.isnan(H))),
            "mean_curvature_min": float(np.fmin.reduce(H, axis=None)),
            "mean_curvature_max": _finite_max(H),
            "gauss_curvature_mean": float(np.nansum(K) / np.count_nonzero(~np.isnan(K))),
        }
