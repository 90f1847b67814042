"""Omega-surface condition tests: the Corollary curvature-ratio identities."""

import numpy as np

from mosurf.fields import Grid2D, ScalarField
from mosurf.kernel import GoverningFields, ResidualReport, coefficients_from_governing
from mosurf.omega import omega_ratios
from mosurf.seeds import SeedSpec, generate_seed


def seed(family, dom, n=101, **kw):
    return generate_seed(SeedSpec(family, Grid2D.from_domain(*dom, n, n), qn=1.0, **kw))


def test_cmc_ratio_residuals_converge():
    linfs = []
    for n in (101, 201):
        g = seed("cmc", (0, 2, 0, 2), n=n, alpha0=1.0)
        rep = ResidualReport.from_fields(g.grid, omega_ratios(coefficients_from_governing(g), g))
        linfs.append(rep["omega-1"].linf)
        # alpha independent of y: the second ratio identity is exact
        assert rep["omega-2"].linf == 0.0
    assert 1.8 <= np.log2(linfs[0] / linfs[1]) <= 2.2


def test_pseudospherical_ratio_residuals_converge():
    # 2nd kind: R1 = +alpha_x and R2 = +alpha_y
    linfs = []
    for n in (101, 201):
        g = seed("pseudospherical", (0.7, 1.3, -0.5, 0.5), n=n, v=0.3)
        rep = ResidualReport.from_fields(g.grid, omega_ratios(coefficients_from_governing(g), g))
        linfs.append(max(rep["omega-1"].linf, rep["omega-2"].linf))
        assert rep["omega-combined"].excluded == 0
        # (R1)_y - (R2)_x = 0; the 1st kind's + sign would leave an O(1)
        # residual (0.33 at 101^2) instead of the O(h^2) discretization error
        assert rep["omega-combined"].linf < 10 * g.grid.hmax**2
    assert 1.8 <= np.log2(linfs[0] / linfs[1]) <= 2.2


def test_liouville_ratios_vanish_to_roundoff():
    # planar curvature lines: kappa1 is independent of x and kappa2 of y, so
    # both ratio residuals are zero up to rounding noise in the FD quotients
    g = seed("liouville", (-1, 1, -1, 1), n=51, a=0.5, c1=-0.2)
    rep = ResidualReport.from_fields(g.grid, omega_ratios(coefficients_from_governing(g), g))
    assert rep["omega-1"].linf < 1e-12
    assert rep["omega-2"].linf < 1e-12


def test_constant_coefficient_field_gives_zero_ratios():
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    g = GoverningFields(
        kind="second",
        qn=1.0,
        alpha=ScalarField(grid, np.full(grid.shape, 1.1)),
        xi=ScalarField(grid, np.full(grid.shape, 0.2)),
        h=ScalarField(grid, np.full(grid.shape, 0.3)),
    )
    fields = omega_ratios(coefficients_from_governing(g), g)
    for name, values in fields.items():
        assert np.all(values == 0.0), name


def test_umbilic_nodes_are_flagged():
    # kappa1 = kappa2 everywhere: A1 = A2 = 1, Ho = Ko = 1
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    one, zero = np.ones(grid.shape), np.zeros(grid.shape)
    from mosurf.kernel import CoefficientFields

    c = CoefficientFields(grid, "first", 1.0, one, one, one, one, one, one, one, one, zero,
                          zero, np.zeros(grid.shape, bool))
    g = GoverningFields(kind="first", qn=1.0, alpha=ScalarField(grid, one),
                        xi=ScalarField(grid, zero), h=ScalarField(grid, zero))
    rep = ResidualReport.from_fields(grid, omega_ratios(c, g))
    assert rep["omega-1"].excluded == 25  # whole 5x5 reporting core
    assert rep["omega-1"].linf == 0.0
