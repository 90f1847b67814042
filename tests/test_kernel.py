"""Coefficient, stress and residual machinery tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mosurf.verify
from mosurf.backlund import apply_backlund
from mosurf.errors import FieldFormatError, ParameterError
from mosurf.fields import Grid2D, ScalarField, diff_x, diff_y
from mosurf.kernel import (
    EPS,
    EPS_DIV,
    CoefficientFields,
    GoverningFields,
    ResidualReport,
    coefficients_from_governing,
    equilibrium_residuals,
    first_integral_check,
    gauss_codazzi_residuals,
    governing_residuals,
    orthogonality_check,
    principal_curvatures,
    residual_stats,
    stresses,
)
from mosurf.omega import EPS_UMBILIC, omega_ratios
from mosurf.seeds import SeedSpec, generate_seed
from mosurf.verify import (
    ALGEBRAIC_EQUATIONS,
    CORE_EQUATIONS,
    EXTENDED_EQUATIONS,
    convergence_orders,
    verify_governing,
    verify_refined,
)


def make_governing(kind, grid, alpha, xi, h, qn=1.0):
    field = lambda v: ScalarField(grid, np.full(grid.shape, v))
    return GoverningFields(kind=kind, qn=qn, alpha=field(alpha), xi=field(xi), h=field(h))


def sc(g):
    """(S, C, eps) of the governing triple: (sinh, cosh, 1) or (sin, cos, -1) of alpha."""
    al = g.alpha.values
    if g.kind == "first":
        return np.sinh(al), np.cosh(al), 1.0
    return np.sin(al), np.cos(al), -1.0


def second_fundamental_form(g):
    """Closed-form coefficients (b11, b22) of the second fundamental form, the
    oracle of principal_curvatures: kappa_i = b_ii / A_i^2."""
    ex, h = np.exp(g.xi.values), g.h.values
    S, C, eps = sc(g)
    return -ex * S * (C + h * S), -ex * C * (eps * S + h * C)


def cmc_seed(n=101, qn=1.0, dom=(0, 2, 0, 2)):
    return generate_seed(SeedSpec("cmc", Grid2D.from_domain(*dom, n, n), qn=qn, alpha0=1.0))


GRID = Grid2D.from_domain(0, 1, 0, 1, 11, 11)


def test_governing_fields_validation():
    with pytest.raises(ParameterError):
        make_governing("third", GRID, 0.1, 0.0, 0.0)
    with pytest.raises(ParameterError):
        make_governing("first", GRID, 0.1, 0.0, 0.0, qn=0.0)


def test_coefficients_first_kind_point_values():
    # (alpha, xi, h) = (0, 0, h0): A1 = 1, A2 = h0, Ho = 0, Ko = 1
    h0 = 0.37
    g = make_governing("first", GRID, 0.0, 0.0, h0)
    c = coefficients_from_governing(g)
    assert np.all(c.A1 == 1.0)
    assert np.all(c.A2 == h0)
    assert np.all(c.Ho == 0.0)
    assert np.all(c.Ko == 1.0)


def test_coefficients_second_kind_point_values():
    # (alpha, xi, h) = (pi/4, 0, 0): A1 = A2 = Ho = sqrt(2)/2, Ko = -sqrt(2)/2
    g = make_governing("second", GRID, np.pi / 4, 0.0, 0.0)
    c = coefficients_from_governing(g)
    s2 = np.sqrt(2.0) / 2.0
    for field, sign in ((c.A1, 1), (c.A2, 1), (c.Ho, 1), (c.Ko, -1)):
        assert np.allclose(field, sign * s2, rtol=1e-15)


def test_stresses_first_kind_h1_is_isotropic():
    # h = 1: T1 = T2 = qn e^-xi exactly, for any alpha and xi
    rng = np.random.default_rng(7)
    alpha = rng.uniform(-1, 1, GRID.shape)
    xi = rng.uniform(-0.5, 0.5, GRID.shape)
    qn = 0.7
    g = make_governing("first", GRID, alpha, xi, 1.0, qn=qn)
    s = stresses(g)
    expected = qn * np.exp(-xi)
    assert np.array_equal(s.T1, expected)
    assert np.array_equal(s.T2, expected)


def test_stresses_second_kind_h0():
    g = make_governing("second", GRID, np.pi / 4, 0.0, 0.0, qn=2.0)
    s = stresses(g)
    assert np.allclose(s.T1, 1.0, rtol=1e-14)   # (qn/2) cot(pi/4)
    assert np.allclose(s.T2, -1.0, rtol=1e-14)  # -(qn/2) tan(pi/4)


def test_stress_cross_check_against_first_integral():
    # T1 from the closed formula equals qn (A2^2 + 1)/(2 A2 Ko) (1st kind)
    qn = 1.3
    g = make_governing("first", GRID, 1.0, 0.0, 0.0, qn=qn)
    s = stresses(g)
    coth1 = np.cosh(1.0) / np.sinh(1.0)
    assert np.allclose(s.T1, 0.5 * qn * coth1, rtol=1e-14)
    c = coefficients_from_governing(g)
    oracle = qn * (c.A2**2 + 1.0) / (2.0 * c.A2 * c.Ko)
    assert np.allclose(s.T1, oracle, rtol=1e-12)


def test_stress_first_integral_consistency_on_seeds():
    # T2 = qn (A1^2 - 1)/(2 A1 Ho) wherever defined, 1e-12 relative
    g = generate_seed(
        SeedSpec("liouville", Grid2D.from_domain(-1, 1, -1, 1, 51, 51), a=0.5, c1=-0.2)
    )
    c = coefficients_from_governing(g)
    s = stresses(g)
    oracle = g.qn * (c.A1**2 - 1.0) / (2.0 * c.A1 * c.Ho)
    assert np.allclose(s.T2, oracle, rtol=1e-12)


def test_principal_curvatures_cmc_mean_curvature():
    g = cmc_seed(n=51)
    k1, k2 = principal_curvatures(coefficients_from_governing(g))
    al = g.alpha.values
    # xi = 0, h = 1: A1 = A2 = e^alpha, so kappa1 = -sinh(alpha) e^-alpha
    assert np.allclose(k1, -np.sinh(al) * np.exp(-al), rtol=1e-13)
    assert np.allclose(k2, -np.cosh(al) * np.exp(-al), rtol=1e-13)
    assert np.allclose(0.5 * (k1 + k2), -0.5, rtol=1e-13)


def test_principal_curvatures_kink_gauss_curvature():
    g = generate_seed(
        SeedSpec("pseudospherical", Grid2D.from_domain(0.7, 1.3, -0.5, 0.5, 51, 51), v=0.3)
    )
    k1, k2 = principal_curvatures(coefficients_from_governing(g))
    assert np.allclose(k1 * k2, -1.0, rtol=1e-12)


def test_principal_curvature_k1_vanishes_at_alpha_zero():
    g = make_governing("first", GRID, 0.0, 0.3, 0.5)
    k1, _ = principal_curvatures(coefficients_from_governing(g))
    assert np.all(k1 == 0.0)


def test_curvatures_match_second_form():
    g = cmc_seed(n=51)
    c = coefficients_from_governing(g)
    k1, k2 = principal_curvatures(c)
    b11, b22 = second_fundamental_form(g)
    assert np.allclose(b11, k1 * c.A1**2, rtol=1e-12)
    assert np.allclose(b22, k2 * c.A2**2, rtol=1e-12)


def test_cmc_governing_residuals():
    g = cmc_seed(n=201)
    rep = ResidualReport.from_fields(g.grid, governing_residuals(g))
    assert rep["governing-1"].linf == 0.0  # h and xi are exactly constant
    assert rep["governing-2"].linf == 0.0
    assert rep["governing-3"].linf < 1e-3


def test_gauss_codazzi_flat_plane_limit():
    one, zero = np.ones(GRID.shape), np.zeros(GRID.shape)
    c = CoefficientFields(GRID, "first", 1.0, one, one, zero, zero, one, one, one, one, zero,
                          zero, np.zeros(GRID.shape, bool))
    fields = gauss_codazzi_residuals(c)
    for name, values in fields.items():
        assert np.all(values == 0.0), name


def test_gauss_codazzi_dual_residual_scales_with_qn():
    # with qn = 2 (exact binary scaling) the dual net residual is exactly
    # qn times the metric net residual on the cmc family (Abar = qn A)
    g = cmc_seed(n=51, qn=2.0)
    c = coefficients_from_governing(g)
    fields = gauss_codazzi_residuals(c)
    assert np.array_equal(fields["net-Abar2"], 2.0 * fields["net-A2"])
    assert np.array_equal(fields["net-Abar1"], 2.0 * fields["net-A1"])


def test_equilibrium_cmc_exact():
    g = cmc_seed(n=101)
    c = coefficients_from_governing(g)
    rep = ResidualReport.from_fields(g.grid, equilibrium_residuals(c))
    assert rep["equilibrium-1"].linf == 0.0
    assert rep["equilibrium-2"].linf == 0.0
    assert rep["equilibrium-3"].linf < 1e-12


def test_equilibrium_pseudospherical_converges():
    linfs = []
    for n in (101, 201):
        g = generate_seed(
            SeedSpec("pseudospherical", Grid2D.from_domain(0.7, 1.3, -0.5, 0.5, n, n), v=0.3)
        )
        c = coefficients_from_governing(g)
        rep = ResidualReport.from_fields(g.grid, equilibrium_residuals(c))
        linfs.append(max(rep["equilibrium-1"].linf, rep["equilibrium-2"].linf))
    assert linfs[1] < 50 * (0.005) ** 2
    assert 1.8 <= np.log2(linfs[0] / linfs[1]) <= 2.2


def test_first_integral_constraint_is_algebraic_identity():
    # Ho A2 - Ko A1 = -e^xi holds for arbitrary (alpha, xi, h), so the
    # constraint residual vanishes without any equation being satisfied; so
    # does every algebraic entry, while governing-3 shows that the random
    # triples solve nothing
    rng = np.random.default_rng(3)
    grid = Grid2D.from_domain(0, 1, 0, 1, 41, 41)
    for kind in ("first", "second"):
        g = make_governing(
            kind,
            grid,
            rng.uniform(0.3, 1.2, grid.shape),
            rng.uniform(-0.5, 0.5, grid.shape),
            rng.uniform(-0.4, 0.4, grid.shape),
        )
        c = coefficients_from_governing(g)
        sign = -1.0 if kind == "first" else 1.0
        cross = c.Ho * c.A2 - c.Ko * c.A1
        assert np.allclose(cross, sign * np.exp(g.xi.values), rtol=1e-13)
        report = verify_governing(g)
        assert report["governing-3"].linf > 1e3, kind
        for name in ALGEBRAIC_EQUATIONS:
            assert report[name].linf < 1e-12, (kind, name)


def test_first_integrals_on_cmc():
    qn = 1.7
    g = cmc_seed(n=51, qn=qn)
    c = coefficients_from_governing(g)
    # 2 Abar1 Ho - qn A1^2 = -qn exactly on this family
    lhs = 2.0 * c.Abar1 * c.Ho - qn * c.A1**2
    assert np.allclose(lhs, -qn, rtol=1e-13)
    rep = ResidualReport.from_fields(g.grid, first_integral_check(c))
    assert rep["first-integral-1"].linf < 1e-12
    assert rep["first-integral-2"].linf < 1e-12


def test_first_integral_second_kind_point():
    g = make_governing("second", GRID, np.pi / 4, 0.0, 0.0, qn=1.0)
    c = coefficients_from_governing(g)
    lhs = 2.0 * c.Abar2 * c.Ko - c.A2**2
    assert np.allclose(lhs, -1.0, rtol=1e-13)


def test_orthogonality_identities():
    g = cmc_seed(n=51)
    c = coefficients_from_governing(g)
    rep = ResidualReport.from_fields(g.grid, orthogonality_check(c))
    assert rep["orthogonality"].linf < 1e-12


def test_orthogonality_linear_in_abar1():
    g = cmc_seed(n=21, dom=(0, 1, 0, 1))
    c = coefficients_from_governing(g)
    base = orthogonality_check(c)["orthogonality"]
    delta = 0.125
    bumped = c.Abar1.copy()
    bumped[10, 10] += delta
    c2 = replace(c, Abar1=bumped)
    diff = orthogonality_check(c2)["orthogonality"] - base
    assert diff[10, 10] == pytest.approx(delta * c.Ko[10, 10], rel=1e-12)
    diff[10, 10] = 0.0
    assert np.all(diff == 0.0)


def test_residual_stats_margin_and_nan_exclusion():
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 11)
    v = np.ones(grid.shape)
    v[0, 0] = 1e9   # boundary band is excluded from norms
    st = residual_stats(v, grid)
    assert st.linf == 1.0
    assert st.excluded == 0
    v2 = np.ones(grid.shape)
    v2[5, 5] = np.nan
    st2 = residual_stats(v2, grid)
    assert st2.excluded == 1
    assert st2.linf == 1.0
    st3 = residual_stats(np.full(grid.shape, np.nan), grid)
    assert st3.linf == 0.0 and st3.l2 == 0.0
    assert st3.excluded == 25  # 5x5 core


@pytest.mark.parametrize("family, kw", [("cmc", dict(alpha0=1.0)),
                                        ("pseudospherical", dict(v=0.3))])
def test_verify_report_keeps_registry_order(family, kw):
    grid = Grid2D.from_domain(0.7, 1.3, -0.5, 0.5, 21, 21)
    report = verify_governing(generate_seed(SeedSpec(family, grid, **kw)))
    assert list(report.entries) == [*CORE_EQUATIONS, *EXTENDED_EQUATIONS, "omega-combined"]


def test_verify_refined_verifies_only_the_grids_its_orders_read(monkeypatch):
    spec = SeedSpec("cmc", Grid2D.from_domain(0, 2, 0, 2, 9, 9), alpha0=1.0)
    g, seed = generate_seed(spec), spec.header()
    # every level, and the orders of the last two, as the refine loop had them
    levels = [g] + [generate_seed(SeedSpec.from_header(seed, n, n)) for n in (17, 33, 65)]
    reports = [verify_governing(t) for t in levels]
    want = convergence_orders(reports)
    assert verify_refined(g, seed, 0) == (reports[0], None)
    verified = []

    def counted(t):
        verified.append(t.grid.shape)
        return verify_governing(t)

    monkeypatch.setattr(mosurf.verify, "verify_governing", counted)
    report, orders = verify_refined(g, seed, 3)
    assert verified == [(9, 9), (33, 33), (65, 65)]
    assert report == reports[0] and orders == want


def test_verify_refined_rejects_before_any_residual(monkeypatch):
    # bad levels, a missing header and a header that gives no seed are each
    # refused before verify_governing runs
    spec = SeedSpec("pseudospherical", Grid2D.from_domain(-3, 3, -3, 3, 5, 5), v=0.3)
    g, seed = generate_seed(spec), spec.header()
    verified = []
    monkeypatch.setattr(mosurf.verify, "verify_governing", verified.append)
    # the finest grids have (2^43 4 + 1)^2 and (2^64 4 + 1)^2 nodes
    for levels in (-1, 43, 64, 10**6):
        with pytest.raises(ParameterError):
            verify_refined(g, seed, levels)
    with pytest.raises(FieldFormatError, match="seed header"):
        verify_refined(g, None, 1)
    for bad in (dict(v=1.5), dict(family="sphere"), dict(qn=0.0)):
        with pytest.raises(FieldFormatError, match="bad seed header"):
            verify_refined(g, {**seed, **bad}, 2)
    with pytest.raises(FieldFormatError, match="has no 'domain' entry"):
        verify_refined(g, {k: v for k, v in seed.items() if k != "domain"}, 1)
    assert verified == []


def test_stress_guard_flags_vanishing_denominator():
    # second kind with h = tan(alpha) makes A2 = 0 everywhere
    g = make_governing("second", GRID, np.pi / 4, 0.0, 1.0)
    s = stresses(g)
    assert s.flagged.all()
    assert np.isnan(s.T1).all()
    c = coefficients_from_governing(g)
    assert c.flagged.all()
    # frame coefficients stay usable at stress-flagged nodes
    assert np.isfinite(c.Ho).all()
    assert np.isfinite(c.p).all()


def reference_stresses(g):
    """The stresses as a build of their own, frozen as they were computed
    before the coefficient build took them over: (T1, T2, guard)."""
    xi, h = g.xi.values, g.h.values
    S, C, eps = sc(g)
    num1 = 2.0 * h * S + (1.0 + eps * h * h) * C
    num2 = 2.0 * h * C + (eps + h * h) * S
    den1 = S + eps * h * C
    den2 = C + h * S
    bad = (np.abs(den1) < EPS_DIV) | (np.abs(den2) < EPS_DIV)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_load = 0.5 * g.qn * np.exp(-xi)
        T1 = half_load * (num1 / den1)
        T2 = half_load * (num2 / den2)
    T1[bad] = np.nan
    T2[bad] = np.nan
    return T1, T2, bad


def reference_coefficients(g):
    """Every array of the coefficient build, frozen as it was computed with a
    stress build of its own: a dict by field name."""
    grid = g.grid
    al, xi, h = g.alpha.values, g.xi.values, g.h.values
    S, C, eps = sc(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        A1 = C + h * S
        A2 = S + eps * h * C
        Ho = np.exp(xi) * S
        Ko = eps * np.exp(xi) * C
        ratio = np.tanh(al) if g.kind == "first" else S / C
        p = eps * (diff_y(al, grid) + diff_y(xi, grid) * ratio)
        q = diff_x(al, grid) + eps * diff_x(xi, grid) * (C / S)
    T1, T2, flagged = reference_stresses(g)
    out = {"A1": A1, "A2": A2, "Ho": Ho, "Ko": Ko, "Abar1": T2 * A1, "Abar2": T1 * A2,
           "p": p, "q": q}
    for v in out.values():
        bad = ~np.isfinite(v)
        v[bad] = np.nan
        flagged |= bad
    return {**out, "T1": T1, "T2": T2, "flagged": flagged}


def primed_kink():
    # the README kink transform: its primed field has NaN (flagged) nodes
    grid = Grid2D.from_domain(-3, 3, -3, 3, 31, 31)
    g = generate_seed(SeedSpec("pseudospherical", grid, v=0.3))
    return apply_backlund(g, 0.3, 0.0, 1.0, 0.1).primed_governing


BUILD_CASES = {
    "cmc": lambda: cmc_seed(n=31, dom=(-1, 1, -1, 1)),
    "pseudospherical": lambda: generate_seed(
        SeedSpec("pseudospherical", Grid2D.from_domain(-1, 1, -1, 1, 31, 27), v=0.3)),
    "liouville": lambda: generate_seed(
        SeedSpec("liouville", Grid2D.from_domain(-1, 1, -1, 1, 31, 27), a=0.353553, c1=0.0)),
    "primed-kink": primed_kink,
    # second kind with h = tan(alpha): A2 = 0, the stress guard trips everywhere
    "all-guard": lambda: make_governing("second", GRID, np.pi / 4, 0.0, 1.0),
}


@pytest.mark.parametrize("case", BUILD_CASES)
def test_coefficient_build_is_bit_identical_to_frozen_formulas(case):
    # the one build computes each array once; its bits are those of the
    # separate coefficient and stress builds it replaced
    g = BUILD_CASES[case]()
    want = reference_coefficients(g)
    c = coefficients_from_governing(g)
    for name, ref in want.items():
        assert getattr(c, name).tobytes() == ref.tobytes(), name
    s = stresses(g)
    T1, T2, guard = reference_stresses(g)
    for name, ref in (("T1", T1), ("T2", T2), ("flagged", guard)):
        assert getattr(s, name).tobytes() == ref.tobytes(), name
    assert s.grid == c.grid == g.grid
    if case in ("primed-kink", "all-guard"):
        assert c.n_flagged > 0


def reference_governing_residuals(g):
    """The governing family frozen as it was computed before it shared C/S,
    S/C and xi_x between its equations and freed its temporaries."""
    grid = g.grid
    al, xi, h = g.alpha.values, g.xi.values, g.h.values
    S, C, eps = sc(g)
    al_x, al_y = diff_x(al, grid), diff_y(al, grid)
    xi_x, xi_y = diff_x(xi, grid), diff_y(xi, grid)
    h_x, h_y = diff_x(h, grid), diff_y(h, grid)
    xi_xy = diff_y(diff_x(xi, grid), grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        res_hx = h_x - (h + C / S) * xi_x
        res_hy = h_y - (h + eps * (S / C)) * xi_y
        res_xi = xi_xy - xi_x * xi_y - (C / S) * al_y * xi_x - eps * (S / C) * al_x * xi_y
        Px = eps * al_x + xi_x * (C / S)
        Py = al_y + xi_y * (S / C)
        res_al = diff_x(Px, grid) + diff_y(Py, grid) + np.exp(2.0 * xi) * S * C
    res_h = np.maximum(np.abs(res_hx), np.abs(res_hy))
    return {"governing-1": res_h, "governing-2": res_xi, "governing-3": res_al}


def reference_omega_ratios(c, g):
    """The Omega-ratio family frozen as it was computed before it freed its
    temporaries and turned the ratios into residuals in place."""
    grid = c.grid
    k1, k2 = principal_curvatures(c)
    dk = k1 - k2
    scale = np.maximum(np.abs(k1), np.abs(k2))
    umbilic = ~np.isfinite(dk) | (np.abs(dk) <= EPS_UMBILIC * scale)
    dk[umbilic] = np.nan
    A1, A2 = c.A1, c.A2
    with np.errstate(divide="ignore", invalid="ignore"):
        R1 = diff_x(k1, grid) / dk * (A1 / A2)
        R2 = diff_y(k2, grid) / dk * (A2 / A1)
    al_x = diff_x(g.alpha.values, grid)
    al_y = diff_y(g.alpha.values, grid)
    eps = EPS[g.kind]
    combined = diff_y(R1, grid) + eps * diff_x(R2, grid)
    return {"omega-1": R1 + eps * al_x, "omega-2": R2 - al_y, "omega-combined": combined}


@pytest.mark.parametrize("case", BUILD_CASES)
def test_residual_families_are_bit_identical_to_frozen_formulas(case):
    # the lean families keep every operation and its operand order; NaN bits
    # included, and the same memory layout, over which the norms sum
    g = BUILD_CASES[case]()
    c = coefficients_from_governing(g)
    for got, want in ((governing_residuals(g), reference_governing_residuals(g)),
                      (omega_ratios(c, g), reference_omega_ratios(c, g))):
        assert list(got) == list(want)
        for name, ref in want.items():
            assert got[name].tobytes() == ref.tobytes(), name
            assert got[name].strides == ref.strides, name


def test_verify_holds_one_family_beside_the_coefficient_bundle():
    # the governing family runs before the bundle is built, so above the
    # triple the peak is the bundle plus the largest coefficient family
    # (gauss-codazzi: 7 arrays and its temporaries), about 9 grids; building
    # the bundle first held it through the governing family, 18 grids above it
    g = cmc_seed(n=201)
    c = coefficients_from_governing(g)
    bundle = sum(v.nbytes for v in vars(c).values() if isinstance(v, np.ndarray))
    del c
    tracemalloc.start()
    try:
        verify_governing(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = g.alpha.values.nbytes
    assert peak <= bundle + 12 * grid_bytes, (peak - bundle) / grid_bytes
