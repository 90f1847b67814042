"""Frame integration, surface reconstruction and mesh curvature tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mosurf.frames
import mosurf.sweep
from mosurf.errors import ParameterError
from mosurf.fields import Grid2D, Vec3Field, max_skipping_nan
from mosurf.frames import (
    integrate_frame,
    mesh_curvatures,
    orthonormality_drift,
    path_independence_error,
    reconstruct,
    reconstruct_surfaces,
)
from mosurf.kernel import (
    CoefficientFields,
    coefficients_from_governing,
    gauss_codazzi_residuals,
)
from mosurf.seeds import SeedSpec, generate_seed
from mosurf.sweep import BLOCK_FLOATS, sweep_grid

I3 = np.eye(3)


def zero_coefficients(grid):
    z, one = np.zeros(grid.shape), np.ones(grid.shape)
    return CoefficientFields(grid, "first", 1.0, one, one, z, z, one, one, one, one, z, z,
                             np.zeros(grid.shape, bool))


def cmc_coefficients(n=101, dom=(0, 2, 0, 2)):
    g = generate_seed(SeedSpec("cmc", Grid2D.from_domain(*dom, n, n), alpha0=1.0))
    return g, coefficients_from_governing(g)


def test_zero_coefficients_give_constant_frame():
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    f = integrate_frame(zero_coefficients(grid), I3)
    assert np.max(np.abs(f - I3)) == 0.0
    assert orthonormality_drift(f) == 0.0
    assert path_independence_error(zero_coefficients(grid), I3) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_initial_frame_validation():
    grid = Grid2D.from_domain(0, 1, 0, 1, 5, 5)
    c = zero_coefficients(grid)
    with pytest.raises(ParameterError):
        integrate_frame(c, 2.0 * I3)
    with pytest.raises(ParameterError):
        integrate_frame(c, np.diag([1.0, 1.0, -1.0]))  # det = -1
    # a NaN entry is rejected before det runs (it would warn), instead of
    # poisoning every node
    nan_frame = I3.copy()
    nan_frame[1, 2] = np.nan
    with pytest.raises(ParameterError, match="orthonormal"):
        integrate_frame(c, nan_frame)
    # and so is an infinite entry, before the products would warn
    for value in (np.inf, -np.inf):
        inf_frame = I3.copy()
        inf_frame[0, 1] = value
        with pytest.raises(ParameterError, match="orthonormal"):
            integrate_frame(c, inf_frame)


def test_cmc_frame_drift_and_determinant():
    _, c = cmc_coefficients(n=201)
    f = integrate_frame(c, I3)
    assert orthonormality_drift(f) < 1e-6
    dets = np.linalg.det(f.reshape(-1, 3, 3))
    assert np.max(np.abs(dets - 1.0)) < 1e-6


def einsum_drift(frames):
    """The Gram-matrix formula orthonormality_drift used before it formed
    only the six distinct entries, skipping NaN entries."""
    gram = np.einsum("ijka,ijkb->ijab", frames, frames)
    gram -= np.eye(3)
    return float(np.nanmax(np.abs(gram)))


def cut_row_blocks(monkeypatch, rows, ny):
    """Cut the row blocks of the frame diagnostics to ``rows`` rows of an
    ny-wide grid, through the sweep's budget, which they read at each call."""
    monkeypatch.setattr(mosurf.sweep, "BLOCK_FLOATS", 9 * ny * rows)
    assert mosurf.frames._row_blocks(0, 7, ny)[:2] == [slice(0, rows), slice(rows, 2 * rows)]


#: rows that start or end a row block of 1, 2 or 3 rows, from row 0 or from row 1
EDGE_ROWS = (0, 10, 11, 12, 21, 30, 33, 50)


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_drift_matches_einsum_gram_in_row_blocks(monkeypatch, rows):
    # rows=None keeps the default budget: one block of all 51 rows
    _, c = cmc_coefficients(n=51)
    frames = integrate_frame(c, I3).copy()
    rng = np.random.default_rng(7)
    frames += 1e-3 * rng.standard_normal(frames.shape)
    if rows is not None:
        cut_row_blocks(monkeypatch, rows, 51)
    drift = orthonormality_drift(frames)
    assert drift > 1e-3
    assert np.float64(drift).tobytes() == np.float64(einsum_drift(frames)).tobytes()
    # the worst entry on the diagonal (Gram[1, 1] ~ 9), then off it (Gram[0, 2] ~ 0.71)
    on = frames.copy()
    on[30, 40, :, 1] *= 3.0
    off = frames.copy()
    off[30, 40, :, 2] = (off[30, 40, :, 0] + off[30, 40, :, 2]) / np.sqrt(2.0)
    for bad, low in ((on, 7.0), (off, 0.7)):
        assert orthonormality_drift(bad) == einsum_drift(bad) > low
    # a NaN node is skipped, wherever it sits in the max, also where the
    # worst entry sits; only a grid with no finite node reads NaN
    for node in ((0, 0), (25, 17), (-1, -1), (30, 40), *((i, i) for i in EDGE_ROWS)):
        g = on.copy()
        g[node][2, 0] = np.nan
        assert orthonormality_drift(g) == einsum_drift(g) > 7.0
    assert np.isnan(orthonormality_drift(np.full_like(frames, np.nan)))
    # an infinite entry is the max; a node whose entries are all NaN is skipped
    for i in EDGE_ROWS:
        g = frames.copy()
        g[i, 3, 1, 2] = np.inf
        g[i, 40] = np.nan
        assert orthonormality_drift(g) == einsum_drift(g) == np.inf
        g[i, 3] = np.nan
        assert orthonormality_drift(g) == einsum_drift(g) == drift


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
    bad = replace(c, Ho=1.01 * c.Ho)
    assert path_independence_error(bad, I3) / errs[1] > 50.0


def test_path_independence_sums_like_contiguous_sweeps():
    # the two sweeps are stored in their marches' orders, yet the nine
    # squared entries are summed in the order of numpy's sum over a
    # C-contiguous frame grid: a sequential sum moves this value in its last
    # bit.  One NaN coefficient makes the max skip the nodes it poisons
    _, c = cmc_coefficients(n=201)
    Ko = c.Ko.copy()
    Ko[120, 70] = np.nan
    c = replace(c, Ko=Ko)
    skew = (c.p, c.Ho), mosurf.frames._skew_x, (c.q, c.Ko), mosurf.frames._skew_y
    xy, yx = (np.ascontiguousarray(sweep_grid(c.grid, *skew, I3, order=o))
              for o in ("xy", "yx"))
    assert np.isnan(xy).any()
    with np.errstate(invalid="ignore"):
        diff = xy - yx
        diff *= diff
        want = max_skipping_nan(np.sqrt(diff.sum(axis=(2, 3))))
    got = path_independence_error(c, I3)
    assert got > 0.0 and got.hex() == want.hex()


def zero_curvature_residual(c):
    """Max-abs of the independent entries of U_y - V_x + VU - UV: the
    Mainardi-Codazzi and Gauss entries of the kernel registry."""
    res = gauss_codazzi_residuals(c)
    return np.maximum.reduce([np.abs(res[k]) for k in ("gauss", "codazzi-H", "codazzi-K")])


def test_zero_curvature_residual_detects_corruption():
    _, c = cmc_coefficients(n=201)
    ok = zero_curvature_residual(c)
    bad_c = replace(c, Ho=1.01 * c.Ho)
    bad = zero_curvature_residual(bad_c)
    core = (slice(3, -3), slice(3, -3))
    # the corrupted residual is O(1) in h while the valid one is O(h^2)
    assert np.max(np.abs(bad[core])) > 50 * np.max(np.abs(ok[core]))


def test_reconstruction_unit_normal():
    _, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, stats = reconstruct_surfaces(f, c)
    norms = np.sqrt((triple.N.values**2).sum(axis=2))
    assert stats == {"normal_unit_max_dev": np.max(np.abs(norms - 1.0)),
                     "frame_nonfinite_nodes": 0}
    assert stats["normal_unit_max_dev"] < 1e-6


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
def test_normal_statistics_match_frozen_formula(monkeypatch, rows):
    # the |N| statistics of the frame grid passed in, not of the joint
    # sweep's normal: the formulas of a whole-grid pass, bit for bit, also
    # with NaN and infinite nodes on the first and last rows of the blocks
    _, c = cmc_coefficients(n=51)
    if rows is not None:
        cut_row_blocks(monkeypatch, rows, 51)
    f = integrate_frame(c, I3)
    frames = f + 1e-3 * np.random.default_rng(5).standard_normal(f.shape)
    frames[0, 0] = f[0, 0]  # the triple starts from this frame
    for i in EDGE_ROWS[1:]:
        frames[i, i % 7, 0, 2] = np.nan

    def frozen(frames):
        norm = np.sqrt((frames[:, :, :, 2] ** 2).sum(axis=2))
        finite = np.isfinite(norm)
        return {"normal_unit_max_dev": float(np.max(np.abs(norm[finite] - 1.0))),
                "frame_nonfinite_nodes": int((~finite).sum())}

    stats = reconstruct_surfaces(frames, c)[1]
    assert stats == frozen(frames)
    assert stats["normal_unit_max_dev"] > 1e-3 and stats["frame_nonfinite_nodes"] == 7
    frames[33, 20, 1, 2] = np.inf
    frames[12, 0, 2, 2] = -np.inf
    stats = reconstruct_surfaces(frames, c)[1]
    assert stats == frozen(frames) and stats["frame_nonfinite_nodes"] == 9
    frames[:] = np.nan
    frames[0, 0] = f[0, 0]
    assert reconstruct_surfaces(frames, c)[1] == {"normal_unit_max_dev": 0.0,
                                                  "frame_nonfinite_nodes": 51 * 51 - 1}


def test_frame_diagnostics_skip_nan_nodes():
    # a NaN frame coefficient poisons the xy sweep downstream of its node;
    # the drift, path independence and normal distance are maxima over the
    # nodes that stay finite
    _, c = cmc_coefficients(n=51)
    Ko = c.Ko.copy()
    Ko[30, 20] = np.nan  # read up column 30 by the xy sweep
    bad = replace(c, Ko=Ko)
    f = integrate_frame(bad, I3)
    lost = ~np.isfinite(f).all(axis=(2, 3))
    assert lost.any() and not lost.all()
    stats = reconstruct_surfaces(f, bad)[1]
    drift, pie = orthonormality_drift(f), path_independence_error(bad, I3)
    clean = np.where(lost[..., None, None], I3, f)  # exact frames at the lost nodes
    assert stats == {**reconstruct_surfaces(clean, bad)[1], "frame_nonfinite_nodes": lost.sum()}
    assert 0.0 < drift == orthonormality_drift(clean)
    assert 0.0 < pie < 1e-2


def test_reconstruction_confines_nan_dual_coefficients_to_rbar():
    # Liouville with c1 = 0 is stress-flagged on its whole x = 0 column, so
    # Abar1, Abar2 are NaN there while the frame coefficients stay finite
    grid = Grid2D.from_domain(-1, 1, -1, 1, 41, 41)
    g = generate_seed(SeedSpec("liouville", grid, a=0.353553, c1=0.0))
    c = coefficients_from_governing(g)
    assert np.array_equal(np.flatnonzero(c.flagged.any(axis=1)), [20])
    assert c.flagged[20].all()
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    for v in (f, triple.N.values, triple.r.values):
        assert np.isfinite(v).all()
    # the xy sweep carries the NaN from the flagged column up every later column
    downstream = np.zeros(grid.shape, dtype=bool)
    downstream[20:] = True
    rbar = triple.rbar.values
    assert np.isnan(rbar[downstream]).all()
    assert np.isfinite(rbar[~downstream]).all()


def test_triple_normal_is_a_view_of_the_frame_normal_column():
    # N is the normal column of the frame grid passed in, with no copy, and
    # it equals the joint 3x5 sweep's normal column bit for bit: also at the
    # NaN nodes downstream of a NaN Ko, on a coefficient set whose x = 0
    # column is stress-flagged (Liouville with c1 = 0)
    grid = Grid2D.from_domain(-1, 1, -1, 1, 41, 41)
    c = coefficients_from_governing(generate_seed(SeedSpec("liouville", grid, a=0.353553, c1=0.0)))
    Ko = c.Ko.copy()
    Ko[30, 20] = np.nan
    c = replace(c, Ko=Ko)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    N = triple.N.values
    assert np.shares_memory(N, f) and not N.flags.writeable
    joint = sweep_grid(grid, (c.p, c.Ho, c.A1, c.Abar1), mosurf.frames._with_triple_x,
                       (c.q, c.Ko, c.A2, c.Abar2), mosurf.frames._with_triple_y,
                       np.hstack([I3, np.zeros((3, 2))]))
    assert c.flagged[20].all() and np.isnan(N).any() and np.isfinite(N).any()
    assert N.tobytes() == np.ascontiguousarray(joint[..., 2]).tobytes()


def test_reconstruction_keeps_two_vec3_grids_beyond_its_inputs():
    # the triple holds copies of r and rbar only; a copy of N kept a third grid
    _, c = cmc_coefficients(n=201)
    f = integrate_frame(c, I3)
    vec3_bytes = 8 * 3 * 201 * 201
    tracemalloc.start()
    try:
        triple, _ = reconstruct_surfaces(f, c)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 2.1 * vec3_bytes, kept / vec3_bytes


def frozen_triple_x(p, Ho, A1, Abar1, out=None):
    """The 3x6 generator [U | e_0 (Ho, A1, Abar1)] the triple sweep used to
    take, which integrated N a second time as its fourth column."""
    G = np.zeros((3, 6) + np.shape(p)) if out is None else out
    G[0, 1], G[1, 0], G[0, 2], G[2, 0] = p, -p, Ho, -Ho
    G[0, 3], G[0, 4], G[0, 5] = Ho, A1, Abar1
    return G


def frozen_triple_y(q, Ko, A2, Abar2, out=None):
    """[V | e_1 (Ko, A2, Abar2)]."""
    G = np.zeros((3, 6) + np.shape(q)) if out is None else out
    G[0, 1], G[1, 0], G[1, 2], G[2, 1] = -q, q, Ko, -Ko
    G[1, 3], G[1, 4], G[1, 5] = Ko, A2, Abar2
    return G


def frozen_joint_sweep(f, c):
    """The 3x6 joint sweep of (Phi | N, r, rbar), as the triple was built
    before N became the frame's own column."""
    phi0 = f[0, 0]
    state0 = np.hstack([phi0, phi0[:, 2:], np.zeros((3, 2))])
    return sweep_grid(c.grid, (c.p, c.Ho, c.A1, c.Abar1), frozen_triple_x,
                      (c.q, c.Ko, c.A2, c.Abar2), frozen_triple_y, state0)


@pytest.mark.parametrize("family,dom,shape", [
    ("cmc", (0, 2, 0, 2), (51, 51)),
    ("cmc", (0, 2, 0, 1.5), (61, 45)),
    ("pseudospherical", (-1, 1, -1, 1), (37, 64)),
    ("liouville", (-1, 1, -1, 1), (41, 41)),  # NaN dual coefficients on x = 0
])
def test_triple_matches_frame_and_frozen_joint_sweep(family, dom, shape):
    # N is the frame sweep's third column and r, rbar are the 3x6 joint
    # sweep's, bit for bit, under any initial frame
    kw = {"cmc": {"alpha0": 1.0}, "pseudospherical": {"v": 0.3},
          "liouville": {"a": 0.353553, "c1": 0.0}}[family]
    grid = Grid2D.from_domain(*dom, *shape)
    c = coefficients_from_governing(generate_seed(SeedSpec(family, grid, **kw)))
    turn = np.array([[0.6, -0.8, 0.0], [0.8, 0.6, 0.0], [0.0, 0.0, 1.0]])
    for phi0 in (I3, turn @ np.array([[1.0, 0, 0], [0, 0.28, -0.96], [0, 0.96, 0.28]])):
        f = integrate_frame(c, phi0)
        triple, _ = reconstruct_surfaces(f, c)
        assert triple.N.values.tobytes() == np.ascontiguousarray(f[..., 2]).tobytes()
        joint = frozen_joint_sweep(f, c)
        for k, v in ((3, triple.N), (4, triple.r), (5, triple.rbar)):
            assert v.values.tobytes() == np.ascontiguousarray(joint[..., k]).tobytes(), k
    if family == "liouville":
        assert np.isnan(triple.rbar.values).any() and np.isfinite(triple.r.values).all()


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
    X = f[1:-1, :, :, 0]
    Y = f[:, 1:-1, :, 1]
    err_x = np.sqrt(((rx - c.A1[1:-1, :, None] * X) ** 2).sum(axis=2))
    err_y = np.sqrt(((ry - c.A2[:, 1:-1, None] * Y) ** 2).sum(axis=2))
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

    X = f[1:-1, 1:-1, :, 0]
    Y = f[1:-1, 1:-1, :, 1]
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


def stacked_curvatures(r, eps=1e-10):
    """Frozen copy of ``mesh_curvatures`` on (nx, ny, 3) stacks, with sums and
    a cross product over the trailing axis; the per-component version must
    reproduce its every bit."""
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        n = cross / np.sqrt(det)[:, :, None]
        L = (rxx * n).sum(axis=2)
        M = (rxy * n).sum(axis=2)
        Nf = (ryy * n).sum(axis=2)
        mH = (G * L - 2 * F * M + E * Nf) / (2 * det)
        gK = (L * Nf - M * M) / det
    bad = ~(det > eps)
    meanH[1:-1, 1:-1] = np.where(bad, np.nan, mH)
    gaussK[1:-1, 1:-1] = np.where(bad, np.nan, gK)
    return meanH, gaussK


def curvature_meshes():
    """A cmc mesh, one with NaN and overflowing nodes, one with degenerate
    metric (E G - F^2 <= eps) at interior nodes."""
    _, c = cmc_coefficients(n=51)
    r = reconstruct_surfaces(integrate_frame(c, I3), c)[0].r
    v = r.values.copy()
    bad = v.copy()
    bad[10, 10, 1] = np.nan
    bad[20, 30] = 1e200
    bad[40, 5, 2] = np.inf
    flat = v.copy()
    flat[12:15, 20] = v[12, 20]  # repeated points: r_x = 0 at (13, 20)
    flat[30, 30] = flat[31, 30]
    edges = v.copy()  # NaN and inf nodes on the first and last rows of blocks
    for k, i in enumerate(EDGE_ROWS):
        edges[i, 3 + 5 * k, k % 3] = (np.nan, np.inf, -np.inf)[k % 3]
    return {"cmc": r, "nan": Vec3Field(r.grid, bad), "degenerate": Vec3Field(r.grid, flat),
            "edges": Vec3Field(r.grid, edges)}


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
@pytest.mark.parametrize("name", ["cmc", "nan", "degenerate", "edges"])
@pytest.mark.parametrize("eps", [1e-10, 0.02])
def test_mesh_curvatures_match_stacked_formulas_in_row_blocks(monkeypatch, rows, name, eps):
    # rows=None keeps the default budget: one block of all 49 interior rows
    r = curvature_meshes()[name]
    if rows is not None:
        cut_row_blocks(monkeypatch, rows, 51)
    monkeypatch.setattr(mosurf.frames, "EPS_METRIC", eps)
    with np.errstate(over="ignore", invalid="ignore"):
        meanH, gaussK = mesh_curvatures(r)
        want = stacked_curvatures(r, eps)
    assert meanH.values.tobytes() == want[0].tobytes()
    assert gaussK.values.tobytes() == want[1].tobytes()
    inner = np.isnan(meanH.values[1:-1, 1:-1])
    if name == "cmc":
        assert not inner.any()
    else:
        assert inner.any() and not inner.all()
    if name == "degenerate":  # the repeated points give det <= eps, not NaN
        assert np.isnan(meanH.values[13, 20])


def test_reconstruct_runs_the_frame_phase_with_its_diagnostics_in_order():
    _, c = cmc_coefficients(n=51)
    triple, diag = reconstruct(c)
    f = integrate_frame(c, I3)
    want, stats = reconstruct_surfaces(f, c)
    for a, b in ((triple.N, want.N), (triple.r, want.r), (triple.rbar, want.rbar)):
        assert a.values.tobytes() == b.values.tobytes()
    H, K = (v.values for v in mesh_curvatures(want.r))
    assert list(diag) == [
        "orthonormality_drift", "path_independence_error",
        "normal_unit_max_dev", "frame_nonfinite_nodes", "mean_curvature_mean",
        "mean_curvature_min", "mean_curvature_max", "gauss_curvature_mean", "flagged_nodes"]
    assert diag["orthonormality_drift"] == orthonormality_drift(f)
    assert diag["path_independence_error"] == path_independence_error(c, I3)
    assert {k: diag[k] for k in stats} == stats
    assert diag["mean_curvature_mean"] == np.nanmean(H)
    assert (diag["mean_curvature_min"], diag["mean_curvature_max"]) == (np.nanmin(H), np.nanmax(H))
    assert diag["gauss_curvature_mean"] == np.nanmean(K)
    assert diag["frame_nonfinite_nodes"] == diag["flagged_nodes"] == 0


def test_cmc_reconstruction_mean_curvature():
    _, c = cmc_coefficients(n=101)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    meanH, _ = mesh_curvatures(triple.r)
    core = meanH.values[3:-3, 3:-3]
    assert np.nanmax(np.abs(core + 0.5)) < 1e-3


def rigid_fit_residual(p, q):
    """Largest distance from the points ``q`` (k, 3) to the best rigid motion
    of the points ``p`` (Kabsch: the rotation from the SVD of the centred
    covariance, a reflection excluded)."""
    p, q = p - p.mean(axis=0), q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(p.T @ q)
    d = np.sign(np.linalg.det(u @ vt))
    rotation = u @ np.diag([1.0, 1.0, d]) @ vt
    return float(np.max(np.linalg.norm(p @ rotation - q, axis=1)))


def test_cmc_surfaces_keep_the_seed_symmetry():
    # the README cmc seed depends on x alone, so a shift along y is a rigid
    # motion of the exact r and rbar (rbar = r here: Abar = A at qn = 1, but
    # rbar is its own column of the sweep).  The line y = y0 fits onto the
    # line y = y1 up to the scheme's O(h^2): an error of the positions
    # themselves, with no reference solution and no differencing
    res, h2 = [], []
    for n in (51, 101, 201):
        _, c = cmc_coefficients(n=n)
        triple, _ = reconstruct_surfaces(integrate_frame(c, I3), c)
        res.append([rigid_fit_residual(v.values[:, 0], v.values[:, -1])
                    for v in (triple.r, triple.rbar)])
        h2.append(c.grid.hmax**2)
    res = np.array(res)
    assert np.all(res < np.array(h2)[:, None]), res
    orders = np.log2(res[:-1] / res[1:])
    assert np.all((1.8 <= orders) & (orders <= 2.2)), orders


def test_frame_diagnostics_hold_blocks_not_grids():
    # at 401^2 mesh_curvatures holds its two output grids and the
    # temporaries of one row block, orthonormality_drift one block's
    # component-major copy and Gram entries; whole-grid temporaries held
    # about 20 and 11 grids.  The sweeps that are only reduced stream: path
    # independence holds its xy frame grid (9 grids) and blocks, where a
    # stored yx sweep held about 21 grids; reconstruction holds r, rbar (6)
    # and blocks, where a stored 3x5 sweep and the copies out of it held 21
    _, c = cmc_coefficients(n=401)
    f = integrate_frame(c, I3)
    r = reconstruct_surfaces(f, c)[0].r
    grid_bytes = 8 * 401 * 401
    block_bytes = 8 * BLOCK_FLOATS
    for run, bound in ((lambda: mesh_curvatures(r), 2 * grid_bytes + 4 * block_bytes),
                       (lambda: orthonormality_drift(f), 2 * block_bytes),
                       (lambda: path_independence_error(c, I3), 1.5 * 9 * grid_bytes),
                       (lambda: reconstruct_surfaces(f, c), (6 + 9) * grid_bytes)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / grid_bytes, bound / grid_bytes)
