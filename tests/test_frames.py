"""Frame integration, surface reconstruction and mesh curvature tests."""

import numpy as np
import pytest

from mosurf.errors import ParameterError
from mosurf.fields import Grid2D, ScalarField, Vec3Field
from mosurf.frames import (
    integrate_frame,
    mesh_curvatures,
    orthonormality_drift,
    path_independence_error,
    reconstruct_surfaces,
)
from mosurf.kernel import (
    CoefficientFields,
    coefficients_from_governing,
    gauss_codazzi_residual_fields,
)
from mosurf.seeds import SeedSpec, generate_seed

I3 = np.eye(3)


def zero_coefficients(grid):
    z = ScalarField.zeros(grid)
    one = ScalarField.constant(grid, 1.0)
    return CoefficientFields(grid, one, one, z, z, one, one, z, z)


def cmc_coefficients(n=101, dom=(0, 2, 0, 2)):
    g = generate_seed(SeedSpec("cmc", Grid2D.from_domain(*dom, n, n), alpha0=1.0))
    return g, coefficients_from_governing(g)


def test_zero_coefficients_give_constant_frame():
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    f = integrate_frame(zero_coefficients(grid), I3)
    assert np.max(np.abs(f.frames - I3)) == 0.0
    assert orthonormality_drift(f) == 0.0
    assert path_independence_error(zero_coefficients(grid), I3) == 0.0


def test_initial_frame_validation():
    grid = Grid2D.from_domain(0, 1, 0, 1, 5, 5)
    c = zero_coefficients(grid)
    with pytest.raises(ParameterError):
        integrate_frame(c, 2.0 * I3)
    with pytest.raises(ParameterError):
        integrate_frame(c, np.diag([1.0, 1.0, -1.0]))  # det = -1


def test_cmc_frame_drift_and_determinant():
    _, c = cmc_coefficients(n=201)
    f = integrate_frame(c, I3)
    assert orthonormality_drift(f) < 1e-6
    dets = np.linalg.det(f.frames.reshape(-1, 3, 3))
    assert np.max(np.abs(dets - 1.0)) < 1e-6


def test_drift_reduces_at_fourth_order():
    drifts = []
    for n in (51, 101):
        _, c = cmc_coefficients(n=n)
        drifts.append(orthonormality_drift(integrate_frame(c, I3)))
    # RK4 truncation is the only orthogonality-breaking term
    assert drifts[0] / drifts[1] > 10.0


def test_path_independence_order_and_negative_control():
    errs = []
    for n in (101, 201):
        _, c = cmc_coefficients(n=n)
        errs.append(path_independence_error(c, I3))
    assert 1.8 <= np.log2(errs[0] / errs[1])
    # corrupted compatibility is detected
    _, c = cmc_coefficients(n=201)
    bad = CoefficientFields(
        c.grid, c.A1, c.A2, ScalarField(c.grid, 1.01 * c.Ho.values), c.Ko,
        c.Abar1, c.Abar2, c.p, c.q,
    )
    assert path_independence_error(bad, I3) / errs[1] > 50.0


def zero_curvature_residual(c):
    """Max-abs of the independent entries of U_y - V_x + VU - UV: the
    Mainardi-Codazzi and Gauss entries of the kernel registry."""
    res = gauss_codazzi_residual_fields(c)
    return np.maximum.reduce([np.abs(res[k]) for k in ("gauss", "codazzi-H", "codazzi-K")])


def test_zero_curvature_residual_detects_corruption():
    _, c = cmc_coefficients(n=201)
    ok = zero_curvature_residual(c)
    bad_c = CoefficientFields(
        c.grid, c.A1, c.A2, ScalarField(c.grid, 1.01 * c.Ho.values), c.Ko,
        c.Abar1, c.Abar2, c.p, c.q,
    )
    bad = zero_curvature_residual(bad_c)
    core = (slice(3, -3), slice(3, -3))
    # the corrupted residual is O(1) in h while the valid one is O(h^2)
    assert np.max(np.abs(bad[core])) > 50 * np.max(np.abs(ok[core]))


def test_reconstruction_gauss_map_and_unit_normal():
    _, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, gauss_dev = reconstruct_surfaces(f, c)
    assert gauss_dev < 1e-6
    norms = np.sqrt((triple.N.values**2).sum(axis=2))
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_reconstruction_tangent_structure():
    # r_x = A1 X and r_y = A2 Y within C h^2 on the interior
    _, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    v = triple.r.values
    grid = c.grid
    rx = (v[2:, :] - v[:-2, :]) / (2 * grid.dx)
    ry = (v[:, 2:] - v[:, :-2]) / (2 * grid.dy)
    core_x = (slice(2, -2), slice(3, -3))
    core_y = (slice(3, -3), slice(2, -2))
    X = f.frames[1:-1, :, :, 0]
    Y = f.frames[:, 1:-1, :, 1]
    err_x = np.sqrt(((rx - c.A1.values[1:-1, :, None] * X) ** 2).sum(axis=2))
    err_y = np.sqrt(((ry - c.A2.values[:, 1:-1, None] * Y) ** 2).sum(axis=2))
    h2 = grid.hmax**2
    assert np.max(err_x[core_x]) < 20 * h2
    assert np.max(err_y[core_y]) < 20 * h2
    # curvature-line orthogonality r_x . r_y = 0
    dot = (rx[:, 1:-1] * ry[1:-1, :]).sum(axis=2)
    assert np.max(np.abs(dot[(slice(2, -2), slice(2, -2))])) < 40 * h2


def test_reconstruction_recovers_o_surface_relation():
    # dual tangent data recovered from FD of (N, r, rbar) satisfies the
    # Lambda-orthogonality within C h^2
    g, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    grid = c.grid
    qn = g.qn

    def d_x(vec):
        return (vec[2:, 1:-1] - vec[:-2, 1:-1]) / (2 * grid.dx)

    def d_y(vec):
        return (vec[1:-1, 2:] - vec[1:-1, :-2]) / (2 * grid.dy)

    X = f.frames[1:-1, 1:-1, :, 0]
    Y = f.frames[1:-1, 1:-1, :, 1]
    Hs = [
        (d_x(triple.N.values) * X).sum(axis=2),
        (d_x(triple.r.values) * X).sum(axis=2),
        (d_x(triple.rbar.values) * X).sum(axis=2),
    ]
    Ks = [
        (d_y(triple.N.values) * Y).sum(axis=2),
        (d_y(triple.r.values) * Y).sum(axis=2),
        (d_y(triple.rbar.values) * Y).sum(axis=2),
    ]
    res = Hs[2] * Ks[0] + Hs[0] * Ks[2] - qn * Hs[1] * Ks[1]
    core = (slice(2, -2), slice(2, -2))
    assert np.max(np.abs(res[core])) < 30 * grid.hmax**2


def test_mesh_curvatures_sphere():
    # unit sphere sampled so r_x x r_y points inward: meanH = +1, gaussK = +1
    grid = Grid2D.from_domain(0.3, 1.2, 0.2, 2.8, 101, 101)
    X, Y = grid.meshgrid()
    pts = np.stack([np.sin(Y) * np.cos(X), np.sin(Y) * np.sin(X), np.cos(Y)], axis=2)
    meanH, gaussK = mesh_curvatures(Vec3Field(grid, pts))
    assert np.nanmax(np.abs(meanH.values - 1.0)) < 1e-3
    assert np.nanmax(np.abs(gaussK.values - 1.0)) < 1e-3
    # boundary nodes are NaN
    assert np.isnan(meanH.values[0]).all()


def test_mesh_curvatures_plane_and_cylinder():
    grid = Grid2D.from_domain(0, 1, 0, 1, 41, 41)
    X, Y = grid.meshgrid()
    plane = np.stack([X, 2 * Y, X + Y], axis=2)
    meanH, gaussK = mesh_curvatures(Vec3Field(grid, plane))
    assert np.nanmax(np.abs(meanH.values)) < 1e-12
    assert np.nanmax(np.abs(gaussK.values)) < 1e-12
    cyl_grid = Grid2D.from_domain(0, 2, 0, 2, 101, 101)
    Xc, Yc = cyl_grid.meshgrid()
    cyl = np.stack([np.cos(Xc), np.sin(Xc), Yc], axis=2)
    _, gaussK = mesh_curvatures(Vec3Field(cyl_grid, cyl))
    assert np.nanmax(np.abs(gaussK.values)) < 1e-6


def test_mesh_curvatures_flags_degenerate_metric():
    grid = Grid2D.from_domain(0, 1, 0, 1, 21, 21)
    X, Y = grid.meshgrid()
    degenerate = np.stack([X, 0.0 * Y, 0.0 * X], axis=2)  # a line, EG - F^2 = 0
    meanH, _ = mesh_curvatures(Vec3Field(grid, degenerate))
    assert np.isnan(meanH.values).all()


def test_cmc_reconstruction_mean_curvature():
    _, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    meanH, _ = mesh_curvatures(triple.r)
    core = meanH.values[3:-3, 3:-3]
    assert np.nanmax(np.abs(core + 0.5)) < 1e-3
