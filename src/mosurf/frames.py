"""Gauss-Weingarten frame integration and reconstruction of the surface triple.

The orthonormal frame Phi = (X, Y, N) (columns) satisfies

    Phi_x = Phi U,  U = [[0, p, Ho], [-p, 0, 0], [-Ho, 0, 0]],
    Phi_y = Phi V,  V = [[0, -q, 0], [q, 0, Ko], [0, -Ko, 0]],

and the point matrix R = (N, r, rbar) satisfies R_x = X Hvec, R_y = Y Kvec
with Hvec = (Ho, A1, Abar1), Kvec = (Ko, A2, Abar2).  Both are integrated
with the two-pass RK4 sweep; no re-orthonormalization is applied, so
orthonormality drift is a genuine accuracy diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ParameterError
from .fields import Grid2D, ScalarField, Vec3Field
from .kernel import CoefficientFields
from .sweep import sweep_grid

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
    """Gauss map N (unit sphere), surface r and Combescure dual rbar."""

    N: Vec3Field
    r: Vec3Field
    rbar: Vec3Field

    @property
    def grid(self) -> Grid2D:
        return self.N.grid


def _skew_x(p, Ho):
    """U(p, Ho); leading axes broadcast."""
    shape = np.shape(p) + (3, 3)
    U = np.zeros(shape)
    U[..., 0, 1] = p
    U[..., 1, 0] = -p
    U[..., 0, 2] = Ho
    U[..., 2, 0] = -Ho
    return U


def _skew_y(q, Ko):
    """V(q, Ko)."""
    shape = np.shape(q) + (3, 3)
    V = np.zeros(shape)
    V[..., 0, 1] = -q
    V[..., 1, 0] = q
    V[..., 1, 2] = Ko
    V[..., 2, 1] = -Ko
    return V


def _check_rotation(phi0: np.ndarray) -> np.ndarray:
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (3, 3):
        raise ParameterError(f"initial frame must be 3x3, got shape {phi0.shape}")
    if np.max(np.abs(phi0.T @ phi0 - np.eye(3))) > EPS_FRAME:
        raise ParameterError("initial frame is not orthonormal")
    if abs(np.linalg.det(phi0) - 1.0) > EPS_FRAME:
        raise ParameterError("initial frame must have determinant +1")
    return phi0


def _frame_coeffs(c: CoefficientFields) -> dict[str, np.ndarray]:
    return {
        "p": c.p.values,
        "q": c.q.values,
        "Ho": c.Ho.values,
        "Ko": c.Ko.values,
    }


def _frame_deriv_x(cv, Phi):
    return Phi @ _skew_x(cv["p"], cv["Ho"])


def _frame_deriv_y(cv, Phi):
    return Phi @ _skew_y(cv["q"], cv["Ko"])


def integrate_frame(c: CoefficientFields, phi0: np.ndarray, order: str = "xy") -> FrameGrid:
    """Integrate the frame system from ``phi0`` at the origin node.

    The canonical pass is x along the first row, then y up all columns.
    No re-orthonormalization is applied, so the reported drift is a genuine
    accuracy diagnostic.
    """
    phi0 = _check_rotation(phi0)
    frames = sweep_grid(
        c.grid, _frame_coeffs(c), _frame_deriv_x, _frame_deriv_y, phi0, order=order
    )
    return FrameGrid(c.grid, frames)


def orthonormality_drift(f: FrameGrid) -> float:
    """Max over nodes of the max-abs entry of Phi^T Phi - I."""
    gram = np.einsum("ijka,ijkb->ijab", f.frames, f.frames)
    gram -= np.eye(3)
    return float(np.max(np.abs(gram)))


def path_independence_error(c: CoefficientFields, phi0: np.ndarray) -> float:
    """Max Frobenius distance between x-then-y and y-then-x frame sweeps.

    Zero (up to integration error) exactly when the coefficients satisfy the
    Gauss-Mainardi-Codazzi compatibility; an O(1) value is a reliable signal
    of broken compatibility.
    """
    fa = integrate_frame(c, phi0, order="xy")
    fb = integrate_frame(c, phi0, order="yx")
    diff = fa.frames - fb.frames
    return float(np.sqrt((diff * diff).sum(axis=(2, 3))).max())


def reconstruct_surfaces(
    f: FrameGrid, c: CoefficientFields
) -> tuple[SurfaceTriple, float]:
    """Integrate R_x = X Hvec, R_y = Y Kvec jointly with the frame.

    The base points at the origin node are N0 = the frame normal there and
    r0 = rbar0 = 0.  Returns the triple and the max distance between the
    re-integrated Gauss map and the normal column of ``f`` (a
    cross-implementation check).
    NaN dual coefficients (flagged stress nodes) poison the rbar sheet
    downstream of the flagged node, which is reported honestly.
    """
    if f.grid != c.grid:
        raise ParameterError("frame grid and coefficient grid differ")
    phi0 = f.frames[0, 0]
    origins = np.zeros((3, 3))
    origins[0] = phi0[:, 2]

    coeffs = _frame_coeffs(c)
    coeffs.update(
        A1=c.A1.values, A2=c.A2.values, Abar1=c.Abar1.values, Abar2=c.Abar2.values
    )

    def deriv_x(cv, state):
        Phi = state[..., :3]
        X = Phi[..., :, 0]
        Hvec = np.stack(
            [np.broadcast_to(cv[k], X.shape[:-1]) for k in ("Ho", "A1", "Abar1")], axis=-1
        )
        dR = X[..., :, None] * Hvec[..., None, :]
        return np.concatenate([_frame_deriv_x(cv, Phi), dR], axis=-1)

    def deriv_y(cv, state):
        Phi = state[..., :3]
        Y = Phi[..., :, 1]
        Kvec = np.stack(
            [np.broadcast_to(cv[k], Y.shape[:-1]) for k in ("Ko", "A2", "Abar2")], axis=-1
        )
        dR = Y[..., :, None] * Kvec[..., None, :]
        return np.concatenate([_frame_deriv_y(cv, Phi), dR], axis=-1)

    state0 = np.concatenate([phi0, origins.T], axis=1)  # 3 x 6
    out = sweep_grid(c.grid, coeffs, deriv_x, deriv_y, state0)
    N = out[:, :, :, 3]
    r = out[:, :, :, 4]
    rbar = out[:, :, :, 5]
    gauss_dev = float(np.sqrt(((N - f.frames[:, :, :, 2]) ** 2).sum(axis=2)).max())
    triple = SurfaceTriple(
        Vec3Field(c.grid, N), Vec3Field(c.grid, r), Vec3Field(c.grid, rbar)
    )
    return triple, gauss_dev


def mesh_curvatures(
    r: Vec3Field, eps: float = 1e-10
) -> tuple[ScalarField, ScalarField]:
    """Discrete mean and Gauss curvature of a point grid at interior nodes.

    Central differences build the first and second fundamental forms; the
    normal is the normalized cross product of r_x and r_y, so the sign of the
    mean curvature follows the (x, y) orientation of the grid.  Boundary
    nodes and nodes with degenerate metric (E G - F^2 <= eps) are NaN.
    For meshes with near-degenerate bands (e.g. curvature-line meshes
    crossing a cuspidal edge) pass a larger ``eps`` to also exclude the
    surrounding nodes whose stencils lose accuracy.
    """
    v = r.values
    grid = r.grid
    dx, dy = grid.dx, grid.dy
    meanH = np.full(grid.shape, np.nan)
    gaussK = np.full(grid.shape, np.nan)

    rx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2 * dx)
    ry = (v[1:-1, 2:] - v[1:-1, :-2]) / (2 * dy)
    rxx = (v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / dx**2
    ryy = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / dy**2
    rxy = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) / (4 * dx * dy)

    E = (rx * rx).sum(axis=2)
    F = (rx * ry).sum(axis=2)
    G = (ry * ry).sum(axis=2)
    cross = np.cross(rx, ry)
    det = E * G - F * F
    with np.errstate(divide="ignore", invalid="ignore"):
        n = cross / np.sqrt(det)[:, :, None]
        L = (rxx * n).sum(axis=2)
        M = (rxy * n).sum(axis=2)
        Nf = (ryy * n).sum(axis=2)
        mH = (G * L - 2 * F * M + E * Nf) / (2 * det)
        gK = (L * Nf - M * M) / det
    bad = ~(det > eps)
    mH = np.where(bad, np.nan, mH)
    gK = np.where(bad, np.nan, gK)
    meanH[1:-1, 1:-1] = mH
    gaussK[1:-1, 1:-1] = gK
    return ScalarField(grid, meanH), ScalarField(grid, gaussK)


def surface_diagnostics(triple: SurfaceTriple) -> dict[str, float]:
    """Worst deviation of |N| from 1 and the mean/Gauss curvature statistics
    of r over the nodes where :func:`mesh_curvatures` is defined."""
    meanH, gaussK = mesh_curvatures(triple.r)
    n_norm = np.sqrt((triple.N.values ** 2).sum(axis=2))
    with np.errstate(invalid="ignore"):
        return {
            "normal_unit_max_dev": float(np.nanmax(np.abs(n_norm - 1.0))),
            "mean_curvature_mean": float(np.nanmean(meanH.values)),
            "mean_curvature_min": float(np.nanmin(meanH.values)),
            "mean_curvature_max": float(np.nanmax(meanH.values)),
            "gauss_curvature_mean": float(np.nanmean(gaussK.values)),
        }
