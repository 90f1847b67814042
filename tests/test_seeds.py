"""Seed family tests: independent oracles first, then the constructors."""

from dataclasses import fields as dataclass_fields, is_dataclass, replace

import numpy as np
import pytest
import sympy as sp

from mosurf.backlund import apply_backlund, bianchi_darboux
from mosurf.errors import DegenerateSeedError, ParameterError
from mosurf.fields import Grid2D, ScalarField, diff_x, diff_y
from mosurf.kernel import (
    ResidualReport,
    coefficients_from_governing,
    governing_residuals,
    stresses,
)
from mosurf.seeds import SeedSpec, generate_seed, sinh_gordon_profile
from mosurf.verify import verify_governing


def grid(dom, n=101, m=None):
    return Grid2D.from_domain(*dom, n, m or n)


# ---------------------------------------------------------------------------
# cmc family
# ---------------------------------------------------------------------------


def test_cmc_profile_energy_conservation():
    # first integral of a'' + sinh a cosh a = 0: a'^2 + sinh^2 a is constant
    a, b = sinh_gordon_profile(1.0, 0.01, 201)
    energy = b * b + np.sinh(a) ** 2
    assert np.max(np.abs(energy - np.sinh(1.0) ** 2)) < 1e-8


def array_profile(alpha0, dx, nx):
    """Frozen copy of the profile integrator that ran its RK4, 4 steps per
    interval, on 2-element arrays; ``sinh_gordon_profile`` must reproduce its
    every bit."""
    a = np.empty(nx)
    b = np.empty(nx)
    a[0], b[0] = alpha0, 0.0
    h = dx / 4

    def rhs(state):
        av, bv = state
        return np.array([bv, -np.sinh(av) * np.cosh(av)])

    state = np.array([alpha0, 0.0])
    for i in range(1, nx):
        for _ in range(4):
            k1 = rhs(state)
            k2 = rhs(state + 0.5 * h * k1)
            k3 = rhs(state + 0.5 * h * k2)
            k4 = rhs(state + h * k3)
            state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a[i], b[i] = state
    return a, b


@pytest.mark.parametrize("nx", [3, 51, 201, 601])
@pytest.mark.parametrize("alpha0", [1.0, 0.37, -1.6])
def test_profile_matches_array_integrator_bit_for_bit(nx, alpha0):
    dx = 2.0 / (nx - 1)
    got = sinh_gordon_profile(alpha0, dx, nx)
    want = array_profile(alpha0, dx, nx)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_cmc_seed_structure():
    spec = SeedSpec("cmc", grid((0, 2, 0, 2)), qn=1.5, alpha0=1.0)
    g = generate_seed(spec)
    assert g.kind == "first"
    assert np.all(g.xi.values == 0.0)
    assert np.all(g.h.values == 1.0)
    # alpha is constant along y and starts at alpha0
    assert np.all(g.alpha.values[0, :] == 1.0)
    assert np.all(g.alpha.values == g.alpha.values[:, :1])


def test_cmc_stresses_isotropic_homogeneous():
    qn = 1.25
    g = generate_seed(SeedSpec("cmc", grid((0, 2, 0, 2)), qn=qn, alpha0=1.0))
    s = stresses(g)
    assert np.all(s.T1 == qn)
    assert np.all(s.T2 == qn)


def test_cmc_coefficients_closed_form():
    qn = 2.0
    g = generate_seed(SeedSpec("cmc", grid((0, 1, 0, 1), 51), qn=qn, alpha0=0.8))
    c = coefficients_from_governing(g)
    ea = np.exp(g.alpha.values)
    assert np.allclose(c.A1, ea, rtol=1e-14)
    assert np.allclose(c.A2, ea, rtol=1e-14)
    assert np.allclose(c.Ho, np.sinh(g.alpha.values), rtol=1e-14)
    assert np.allclose(c.Ko, np.cosh(g.alpha.values), rtol=1e-14)
    assert np.allclose(c.Abar1, qn * ea, rtol=1e-13)
    assert np.allclose(c.Abar2, qn * ea, rtol=1e-13)
    # p = alpha_y = 0, q = alpha_x
    assert np.all(c.p == 0.0)
    assert np.allclose(c.q, diff_x(g.alpha.values, g.grid), rtol=1e-14)


def test_cmc_alpha0_zero_is_degenerate():
    with pytest.raises(DegenerateSeedError):
        generate_seed(SeedSpec("cmc", grid((0, 1, 0, 1), 11), alpha0=0.0))


# ---------------------------------------------------------------------------
# pseudospherical family
# ---------------------------------------------------------------------------


def test_kink_satisfies_pde_analytically():
    # oracle: closed-form derivatives of alpha = 2 arctan exp(z),
    # z = (x - v y)/sqrt(1 - v^2); residual of -a_xx + a_yy + sin a cos a
    v = 0.3
    gamma = 1.0 / np.sqrt(1.0 - v * v)
    g = grid((-3, 3, -3, 3), 101)
    X, Y = g.meshgrid()
    z = gamma * (X - v * Y)
    alpha = 2.0 * np.arctan(np.exp(z))
    sech, tanh = 1.0 / np.cosh(z), np.tanh(z)
    a_xx = -(gamma**2) * sech * tanh
    a_yy = -(v * gamma) ** 2 * sech * tanh
    res = -a_xx + a_yy + np.sin(alpha) * np.cos(alpha)
    assert np.max(np.abs(res)) < 1e-12


def test_kink_grid_residual_and_order():
    errs = []
    for n in (101, 201):
        g = generate_seed(SeedSpec("pseudospherical", grid((-3, 3, -3, 3), n), v=0.3))
        al = g.alpha.values
        res = (
            -diff_x(diff_x(al, g.grid), g.grid)
            + diff_y(diff_y(al, g.grid), g.grid)
            + np.sin(al) * np.cos(al)
        )
        errs.append(np.max(np.abs(res[3:-3, 3:-3])))
    assert errs[1] < 1e-3
    assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2


def test_kink_structure_and_center_value():
    g = generate_seed(SeedSpec("pseudospherical", grid((-2, 2, -2, 2), 41), v=0.0))
    assert g.kind == "second"
    assert np.all(g.xi.values == 0.0)
    assert np.all(g.h.values == 0.0)
    i0 = 20  # x = 0 node
    assert np.allclose(g.alpha.values[i0, :], np.pi / 2, atol=1e-15)
    # independent of y when v = 0
    assert np.all(g.alpha.values == g.alpha.values[:, :1])


def test_kink_velocity_validation():
    with pytest.raises(ParameterError):
        generate_seed(SeedSpec("pseudospherical", grid((0, 1, 0, 1), 11), v=1.0))


def test_pseudospherical_stresses():
    qn = 0.75
    g = generate_seed(SeedSpec("pseudospherical", grid((0.7, 1.3, -0.5, 0.5), 51), qn=qn, v=0.3))
    s = stresses(g)
    al = g.alpha.values
    assert np.allclose(s.T1, 0.5 * qn / np.tan(al), rtol=1e-13)
    assert np.allclose(s.T2, -0.5 * qn * np.tan(al), rtol=1e-13)


# ---------------------------------------------------------------------------
# liouville family
# ---------------------------------------------------------------------------


def test_liouville_equation_analytic_oracle():
    # xi = -log u with u = a(x^2+y^2) + 1/(8a): closed-form derivatives give
    # xi_xx + xi_yy + e^{2 xi}/2 = 0 and (e^-xi)_xy = 0 to roundoff
    a = 0.5
    g = grid((-1, 1, -1, 1), 201)
    X, Y = g.meshgrid()
    u = a * (X**2 + Y**2) + 1.0 / (8 * a)
    xi_xx = -2 * a / u + (2 * a * X) ** 2 / u**2
    xi_yy = -2 * a / u + (2 * a * Y) ** 2 / u**2
    res = xi_xx + xi_yy + 0.5 / u**2
    assert np.max(np.abs(res)) < 1e-12  # well under the 1e-6 gate


def test_liouville_h_equations_symbolic():
    # independent symbolic oracle for the closed-form h branch
    x, y, a, c1 = sp.symbols("x y a c1", positive=True, real=True)
    u = a * (x**2 + y**2) + 1 / (8 * a)
    xi = -sp.log(u)
    h = (2 * a * y**2 + 1 / (4 * a) + c1) / u - 1
    res_x = sp.simplify(sp.diff(h, x) - (h + 1) * sp.diff(xi, x))
    res_y = sp.simplify(sp.diff(h, y) - (h - 1) * sp.diff(xi, y))
    assert res_x == 0
    assert res_y == 0


def test_liouville_grid_residuals():
    for n, gate in ((101, None), (201, None)):
        g = generate_seed(SeedSpec("liouville", grid((-1, 1, -1, 1), n), a=0.5, c1=-0.2))
        rep = ResidualReport.from_fields(g.grid, governing_residuals(g))
        h2 = g.grid.hmax**2
        for name in ("governing-1", "governing-2", "governing-3"):
            assert rep[name].linf < 150 * h2, (n, name, rep[name].linf)


def test_liouville_structure_and_origin_value():
    a = 1.0 / (2.0 * np.sqrt(2.0))
    g = generate_seed(SeedSpec("liouville", grid((-1, 1, -1, 1), 101), a=a, c1=0.0))
    assert g.kind == "second"
    assert np.all(g.alpha.values == np.pi / 4)
    i0 = j0 = 50  # origin node
    u0 = 1.0 / (8 * a)
    assert np.exp(-g.xi.values[i0, j0]) == pytest.approx(u0, rel=1e-14)
    assert g.h.values[i0, j0] == pytest.approx(1.0, abs=1e-14)


def test_liouville_parameter_validation():
    with pytest.raises(ParameterError):
        generate_seed(SeedSpec("liouville", grid((0, 1, 0, 1), 11), a=-1.0))
    with pytest.raises(ParameterError):
        SeedSpec("liouville", grid((0, 1, 0, 1), 11), qn=0.0)
    with pytest.raises(ParameterError):
        SeedSpec("nope", grid((0, 1, 0, 1), 11))


# ---------------------------------------------------------------------------
# cross-family invariant
# ---------------------------------------------------------------------------

SEED_CONFIGS = {
    "cmc": ((0, 2, 0, 2), dict(alpha0=1.0)),
    "pseudospherical": ((0.7, 1.3, -0.5, 0.5), dict(v=0.3)),
    "liouville": ((-1, 1, -1, 1), dict(a=0.5, c1=-0.2)),
}


@pytest.mark.parametrize("family", sorted(SEED_CONFIGS))
def test_every_seed_passes_governing_residuals(family):
    dom, kw = SEED_CONFIGS[family]
    linfs = []
    for n in (51, 101):
        g = generate_seed(SeedSpec(family, grid(dom, n), qn=1.0, **kw))
        rep = ResidualReport.from_fields(g.grid, governing_residuals(g))
        linfs.append(max(s.linf for s in rep.entries.values()))
    assert linfs[1] < 150 * Grid2D.from_domain(*dom, 101, 101).hmax ** 2
    if linfs[1] > 1e-13:
        assert 1.8 <= np.log2(linfs[0] / linfs[1]) <= 2.2


# ---------------------------------------------------------------------------
# constant fields held as broadcast scalars
# ---------------------------------------------------------------------------

#: the transform windows and parameters of the acceptance suite
TRANSFORM_CONFIGS = {
    "cmc": ((0, 1, 0, 1), dict(alpha0=1.0), dict(m=1.0, lambda0=0.0, omega0=1.0, phi0=1.7)),
    "pseudospherical": ((0.8, 1.2, -0.3, 0.3), dict(v=0.3),
                        dict(m=0.3, lambda0=0.0, omega0=1.0, phi0=0.1)),
}


def _output_bytes(g, transform):
    """Every array and number of the coefficient build, verify and the
    transforms of ``g``, as bytes or repr, by name."""
    out = {}

    def put(name, value):
        if isinstance(value, np.ndarray):
            out[name] = (value.shape, value.tobytes())
        elif is_dataclass(value):
            for f in dataclass_fields(value):
                put(f"{name}.{f.name}", getattr(value, f.name))
        else:
            out[name] = repr(value)

    put("coefficients", coefficients_from_governing(g))
    put("verify", verify_governing(g))
    put("backlund", apply_backlund(g, **transform))
    if g.kind == "first":
        put("bianchi_darboux", bianchi_darboux(g, mbar=1.0))
    return out


@pytest.mark.parametrize("family", sorted(TRANSFORM_CONFIGS))
def test_constant_fields_are_broadcast_scalars_with_the_outputs_of_full_grids(family):
    # xi and h of cmc and the kink are constant: read-only views of one
    # scalar, with strides (0, 0), that hold no grid; every output equals
    # that of the same seed with full C-ordered copies, bit for bit
    dom, kw, transform = TRANSFORM_CONFIGS[family]
    g = generate_seed(SeedSpec(family, grid(dom, 41), **kw))
    for field in (g.xi, g.h):
        assert field.values.strides == (0, 0) and not field.values.flags.writeable
    assert g.alpha.values.flags.c_contiguous  # the cmc alpha varies along x: a full array
    full = replace(g, **{name: ScalarField(g.grid, np.array(getattr(g, name).values))
                         for name in ("alpha", "xi", "h")})
    assert full.xi.values.strides != (0, 0)
    got, want = _output_bytes(g, transform), _output_bytes(full, transform)
    assert list(got) == list(want) and len(got) > 60
    assert [k for k in want if got[k] != want[k]] == []
