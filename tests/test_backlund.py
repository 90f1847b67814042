"""Lax-pair integration and Backlund transformation tests."""

from dataclasses import fields, replace

import numpy as np
import pytest

import mosurf.backlund
import mosurf.frames
import mosurf.sweep
from mosurf.backlund import (
    _lax_matrix_x,
    _lax_matrix_y,
    admissible_initial,
    apply_backlund,
    backlund_governing,
    backlund_surface,
    bianchi_darboux,
    bianchi_darboux_identities,
    integrate_lax,
    lax_substeps,
    transform_diagnostics,
)
from mosurf.errors import ParameterError
from mosurf.fields import Grid2D
from mosurf.frames import (
    integrate_frame,
    mesh_curvatures,
    path_independence_error,
    reconstruct,
    reconstruct_surfaces,
)
from mosurf.kernel import (
    ResidualReport,
    coefficients_from_governing,
    governing_residuals,
    stresses,
)
from mosurf.seeds import SeedSpec, generate_seed

I3 = np.eye(3)
NAN, INF = float("nan"), float("inf")

# tuned configurations keeping the primed fields branch-valid and away from
# the metric degeneracies of each kind
CMC_DOMAIN = (0, 1, 0, 1)
CMC_BACKLUND = dict(m=1.0, lambda0=0.0, omega0=1.0, phi0=1.7)
PSEUDO_DOMAIN = (0.8, 1.2, -0.3, 0.3)
PSEUDO_BACKLUND = dict(m=0.3, lambda0=0.0, omega0=1.0, phi0=0.1)


def cmc(n=101):
    return generate_seed(SeedSpec("cmc", Grid2D.from_domain(*CMC_DOMAIN, n, n), alpha0=1.0))


def pseudo(n=101):
    return generate_seed(
        SeedSpec("pseudospherical", Grid2D.from_domain(*PSEUDO_DOMAIN, n, n), v=0.3)
    )


def test_admissible_initial_examples():
    w = admissible_initial(1.0, 1.0, 0.0, 1.0, 0.0)
    assert w.tolist() == [0.0, 0.0, 1.0, 0.0, 0.5]
    nu0 = w[4] - 1.0 * w[3] ** 2 / (2.0 * w[2])
    assert nu0 == 0.5
    assert 1.0 * w[2] * nu0 == 0.5  # M0
    w2 = admissible_initial(1.0, 1.0, 1.0, 1.0, 1.0)
    assert w2[4] == pytest.approx(1.5)
    # constraint holds exactly at the base node for random parameters
    rng = np.random.default_rng(11)
    for _ in range(25):
        m, qn, l0, o0, p0 = rng.uniform(0.2, 2.0, 5)
        w = admissible_initial(m, qn, l0, o0, p0)
        nu = w[4] - qn * w[3] ** 2 / (2 * w[2])
        quad = w[0] ** 2 + w[1] ** 2 + w[2] ** 2 - 2 * m * w[2] * nu
        assert abs(quad) < 1e-13


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_admissible_initial_validation():
    with pytest.raises(ParameterError):
        admissible_initial(0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        admissible_initial(1.0, 1.0, 0.0, 0.0, 0.0)
    for args in ((NAN, 1.0, 0.0, 1.0, 1.7), (1.0, 1.0, 0.0, INF, 1.7), (1.0, 1.0, -INF, 1.0, 1.7),
                 (1.0, 1.0, 0.0, 1.0, NAN)):
        with pytest.raises(ParameterError, match="must be finite"):
            admissible_initial(*args)


def test_zero_initial_vector_gives_zero_solution():
    g = cmc(n=21)
    c = coefficients_from_governing(g)
    lx = integrate_lax(c, 1.0, np.zeros(5))
    assert np.all(lx.lam == 0.0)
    assert np.all(lx.chi == 0.0)
    assert lx.singular.all()


def test_constraint_drift_is_tiny():
    g = cmc(n=201)
    c = coefficients_from_governing(g)
    lx = integrate_lax(c, 1.0, admissible_initial(1.0, g.qn, 0.0, 1.0, 0.5))
    assert lx.constraint_drift < 1e-8


@pytest.mark.parametrize("domain, n, steps", [
    ((0, 1, 0, 1), 17, 4),     # benchmark warm-up
    ((-3, 3, -3, 3), 31, 4),   # CI kink
    ((0, 2, 0, 2), 51, 4),     # README goldens
    ((0, 1, 0, 1), 41, 3),
    ((-3, 3, -3, 3), 201, 3),  # README kink
    ((0, 2, 0, 2), 201, 1),    # README session
    ((0, 1, 0, 1), 301, 1),    # benchmark transforms
])
def test_lax_step_rule(domain, n, steps):
    assert lax_substeps(Grid2D.from_domain(*domain, n, n)) == steps


def column_lax_x(p, Ho, A1, Abar1, m, qn):
    """The x-part of the Lax pair, w_x = L w on w = (lambda, mu, omega, phi, chi)."""
    z = np.zeros_like(p)
    return np.array([
        [z, -p, m * Abar1 - Ho, -m * qn * A1, m * Ho],
        [p, z, z, z, z],
        [Ho, z, z, z, z],
        [A1, z, z, z, z],
        [Abar1, z, z, z, z],
    ])


def column_lax_y(q, Ko, A2, Abar2, m, qn):
    """The y-part of the Lax pair, w_y = L w."""
    z = np.zeros_like(q)
    return np.array([
        [z, q, z, z, z],
        [-q, z, m * Abar2 - Ko, -m * qn * A2, m * Ko],
        [z, Ko, z, z, z],
        [z, A2, z, z, z],
        [z, Abar2, z, z, z],
    ])


@pytest.mark.parametrize("builder, column", [
    (_lax_matrix_x, column_lax_x),
    (_lax_matrix_y, column_lax_y),
], ids=["x", "y"])
def test_lax_builders_are_the_transposed_lax_pair(builder, column):
    # the sweep moves w as the one-row state w^T, so each builder writes the
    # transpose of the Lax pair's generator
    rng = np.random.default_rng(5)
    coeffs = [rng.uniform(-2.0, 2.0, (4, 3)) for _ in range(4)]
    got = builder(*coeffs, m=0.7, qn=-1.3)
    assert np.array_equal(got.swapaxes(0, 1), column(*coeffs, 0.7, -1.3))


def test_one_step_drift_is_rk4_truncation():
    # one RK4 step per interval on both grids: above round-off the drift
    # falls like step^4, at least 10x per halving of h
    drift = {}
    for n in (201, 401):
        g = generate_seed(SeedSpec("cmc", Grid2D.from_domain(0, 2, 0, 2, n, n), alpha0=1.0))
        assert lax_substeps(g.grid) == 1
        c = coefficients_from_governing(g)
        lx = integrate_lax(c, 1.0, admissible_initial(1.0, g.qn, 0.0, 1.0, 1.7))
        drift[n] = lx.constraint_drift
    assert drift[201] > 1e-13
    assert drift[201] / drift[401] >= 10.0


def test_integrate_lax_leaves_init_unchanged():
    g = cmc(n=21)
    c = coefficients_from_governing(g)
    init = admissible_initial(1.0, g.qn, 0.0, 1.0, 1.7)
    before = init.copy()
    first = integrate_lax(c, 1.0, init)
    second = integrate_lax(c, 1.0, init)
    assert np.array_equal(init, before)
    for name in ("lam", "mu", "omega", "phi", "chi"):
        a, b = getattr(first, name), getattr(second, name)
        assert a.tobytes() == b.tobytes(), name


def test_bundle_arrays_are_read_only():
    # the coefficient, stress, Lax and transform bundles keep the arrays
    # they built, read-only, like the values of a ScalarField
    g = cmc(n=21)
    c = coefficients_from_governing(g)
    s = stresses(g)
    lx = integrate_lax(c, 1.0, admissible_initial(1.0, g.qn, 0.0, 1.0, 1.7))
    res = apply_backlund(g, **CMC_BACKLUND)
    for bundle in (c, s, lx, res, res.raw_update):
        arrays = [f.name for f in fields(bundle)
                  if isinstance(getattr(bundle, f.name), np.ndarray)]
        assert arrays, type(bundle).__name__
        for name in arrays:
            assert not getattr(bundle, name).flags.writeable, name
    for a in (c.A1, s.T1, lx.lam, res.branch_invalid, res.raw_update.mask):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0


def test_arrays_read_by_norms_and_writers_are_c_ordered():
    # a sweep's output is stored in its march's order, but the Lax
    # components, the primed fields and r and rbar are C-ordered copies: a
    # residual's l2 norm sums in memory order, and the report of a transform
    # must equal that of its primed file read back, which is C-ordered
    g = cmc(n=21)
    c = coefficients_from_governing(g)
    lx = integrate_lax(c, 1.0, admissible_initial(1.0, g.qn, 0.0, 1.0, 1.7))
    primed = apply_backlund(g, **CMC_BACKLUND).primed_governing
    triple, _ = reconstruct_surfaces(integrate_frame(c, I3), c)
    arrays = {f.name: getattr(lx, f.name) for f in fields(lx)
              if isinstance(getattr(lx, f.name), np.ndarray)}
    arrays.update({f"primed {k}": getattr(primed, k).values for k in ("alpha", "xi", "h")})
    arrays.update(r=triple.r.values, rbar=triple.rbar.values)
    assert len(arrays) == 13
    for name, a in arrays.items():
        assert a.flags.c_contiguous, name


def test_lax_path_independence_order():
    # linear stage interpolation caps the two-sweep agreement at O(h^2)
    errs = []
    for n in (101, 201):
        g = cmc(n=n)
        c = coefficients_from_governing(g)
        lx = integrate_lax(c, 1.0, admissible_initial(1.0, g.qn, 0.0, 1.0, 1.7))
        errs.append(lx.path_independence)
    assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2


def test_lax_path_independence_negative_control():
    g = cmc(n=201)
    c = coefficients_from_governing(g)
    init = admissible_initial(1.0, g.qn, 0.0, 1.0, 0.5)
    lx = integrate_lax(c, 1.0, init)
    bad_c = replace(c, Ho=1.01 * c.Ho)
    lx_bad = integrate_lax(bad_c, 1.0, init)
    # valid-background discrepancy is O(h^2); corruption makes it O(1)
    assert lx_bad.path_independence > 100 * lx.path_independence


def test_backlund_surface_displacement_norm():
    g = cmc(n=41)
    res = apply_backlund(g, **CMC_BACKLUND)
    c = coefficients_from_governing(g)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    r_p = backlund_surface(triple, f, res.lax)
    disp = np.sqrt(((r_p.values - triple.r.values) ** 2).sum(axis=2))
    lx = res.lax
    expected = np.abs(lx.phi) * np.sqrt(lx.lam**2 + lx.mu**2 + lx.omega**2) / np.abs(lx.bigM)
    assert np.allclose(disp, expected, rtol=1e-10)


def test_backlund_governing_base_node_with_t_zero():
    # phi0 = omega0 h0 e^-xi0 = 1 makes t = 0 at the base node: alpha' = -alpha
    g = cmc(n=21)
    res = apply_backlund(g, m=0.7, lambda0=0.0, omega0=1.0, phi0=1.0)
    gp = res.primed_governing
    assert gp.alpha.values[0, 0] == pytest.approx(-g.alpha.values[0, 0], rel=1e-14)
    ratio = res.lax.phi[0, 0] / res.lax.omega[0, 0]
    assert gp.h.values[0, 0] == pytest.approx(
        ratio * np.exp(gp.xi.values[0, 0]), rel=1e-12
    )


def test_second_kind_alpha_rotation_identity():
    # e^{i alpha'} = e^{i alpha} (1 - i t)/(1 + i t) pointwise
    g = pseudo(n=101)
    res = apply_backlund(g, **PSEUDO_BACKLUND)
    lx = res.lax
    t = g.h.values - (lx.phi / lx.omega) * np.exp(g.xi.values)
    lhs = np.exp(1j * res.primed_governing.alpha.values)
    rhs = np.exp(1j * g.alpha.values) * (1.0 - 1j * t) / (1.0 + 1j * t)
    ok = ~res.branch_invalid
    assert np.max(np.abs((lhs - rhs)[ok])) < 1e-12


def theorem_coefficients(gp):
    al, xi, h = gp.alpha.values, gp.xi.values, gp.h.values
    ex = np.exp(xi)
    if gp.kind == "first":
        return (
            np.cosh(al) + h * np.sinh(al),
            -(np.sinh(al) + h * np.cosh(al)),
            ex * np.sinh(al),
            -ex * np.cosh(al),
        )
    return (
        np.cos(al) + h * np.sin(al),
        np.sin(al) - h * np.cos(al),
        ex * np.sin(al),
        -ex * np.cos(al),
    )


@pytest.mark.parametrize(
    "seed_fn,params",
    [(cmc, CMC_BACKLUND), (pseudo, PSEUDO_BACKLUND)],
    ids=["first-kind", "second-kind"],
)
def test_theorem_form_matches_raw_update(seed_fn, params):
    g = seed_fn(n=101)
    res = apply_backlund(g, **params)
    raw = res.raw_update
    ok = ~(res.branch_invalid | raw.mask)
    assert ok.all()
    A1t, A2t, Hot, Kot = theorem_coefficients(res.primed_governing)
    for thm, rawv in zip((A1t, A2t, Hot, Kot), (raw.A1, raw.A2, raw.Ho, raw.Ko)):
        assert np.max(np.abs(thm - rawv)) < 1e-8
    # the library's cross-check, built from the primed coefficients and eps
    assert transform_diagnostics(res)["theorem_vs_raw_max_dev"] < 1e-8


@pytest.mark.parametrize(
    "seed_fn,params",
    [(cmc, CMC_BACKLUND), (pseudo, PSEUDO_BACKLUND)],
    ids=["first-kind", "second-kind"],
)
def test_theorem_vs_raw_sees_a_broken_update(seed_fn, params):
    # negative control: one node of the raw update moved by 1e-3 shows in the
    # cross-check, so it compares two routes, not one value with itself
    res = apply_backlund(seed_fn(n=51), **params)
    assert not (res.branch_invalid | res.raw_update.mask)[20, 30]
    A1 = res.raw_update.A1.copy()
    A1[20, 30] += 1e-3
    broken = replace(res, raw_update=replace(res.raw_update, A1=A1))
    assert transform_diagnostics(res)["theorem_vs_raw_max_dev"] < 1e-8
    assert transform_diagnostics(broken)["theorem_vs_raw_max_dev"] > 1e-3 - 1e-8


@pytest.mark.parametrize(
    "seed_fn,params",
    [(cmc, CMC_BACKLUND), (pseudo, PSEUDO_BACKLUND)],
    ids=["first-kind", "second-kind"],
)
def test_primed_orthogonality_and_first_integrals(seed_fn, params):
    g = seed_fn(n=101)
    qn = g.qn
    res = apply_backlund(g, **params)
    raw = res.raw_update
    orth = raw.Abar1 * raw.Ko + raw.Ho * raw.Abar2 - qn * raw.A1 * raw.A2
    assert np.nanmax(np.abs(orth)) < 1e-8
    fi1 = 2 * raw.Abar1 * raw.Ho - qn * raw.A1**2 + qn
    sign = -qn if g.kind == "first" else qn
    fi2 = 2 * raw.Abar2 * raw.Ko - qn * raw.A2**2 + sign
    assert np.nanmax(np.abs(fi1)) < 1e-8
    assert np.nanmax(np.abs(fi2)) < 1e-8


@pytest.mark.parametrize(
    "seed_fn,params",
    [(cmc, CMC_BACKLUND), (pseudo, PSEUDO_BACKLUND)],
    ids=["first-kind", "second-kind"],
)
def test_kind_preservation_residual_order(seed_fn, params):
    linfs = []
    for n in (101, 201):
        res = apply_backlund(seed_fn(n=n), **params)
        rep = ResidualReport.from_fields(res.primed_governing.grid,
                                         governing_residuals(res.primed_governing))
        linfs.append(max(s.linf for s in rep.entries.values()))
    assert 1.8 <= np.log2(linfs[0] / linfs[1]) <= 2.2


def test_apply_backlund_rejects_zero_m():
    g = cmc(n=21)
    with pytest.raises(ParameterError):
        apply_backlund(g, m=0.0, lambda0=0.0, omega0=1.0, phi0=0.5)
    # the public Lax entry checks m itself
    init = admissible_initial(1.0, g.qn, 0.0, 1.0, 0.5)
    with pytest.raises(ParameterError, match="nonzero"):
        integrate_lax(coefficients_from_governing(g), 0.0, init)


# ---------------------------------------------------------------------------
# Bianchi-Darboux
# ---------------------------------------------------------------------------


def test_bianchi_darboux_identities():
    g = cmc(n=201)
    bd = bianchi_darboux(g, mbar=1.0)
    ok = ~(bd.branch_invalid | bd.lax.singular)
    assert ok.all()
    # both sweep orders, as for apply_backlund: their distance is reported
    assert 0.0 < bd.lax.path_independence < 1e-4
    assert transform_diagnostics(bd)["lax_path_independence"] == bd.lax.path_independence
    ex_p = np.exp(bd.primed_governing.xi.values)
    assert np.max(np.abs(ex_p - 1.0)) < 1e-6
    assert np.max(np.abs(bd.primed_governing.h.values - 1.0)) < 1e-6
    sigma = bd.lax.phi - 2.0 * bd.lax.omega
    lhs = np.exp(bd.primed_governing.alpha.values)
    rhs = -(bd.lax.phi / sigma) * np.exp(-g.alpha.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-6


@pytest.mark.parametrize("qn", [0.7, 2.0])
def test_bianchi_darboux_chi_identity_is_measured(qn):
    # the general Lax sweep keeps chi = qn phi to round-off, and the report
    # sees a departure from it at a single node
    grid = Grid2D.from_domain(*CMC_DOMAIN, 101, 101)
    g = generate_seed(SeedSpec("cmc", grid, qn=qn, alpha0=1.0))
    bd = bianchi_darboux(g, mbar=1.0)
    assert bianchi_darboux_identities(g, bd)["chi_minus_qn_phi_max_dev"] < 1e-12
    chi = bd.lax.chi.copy()
    chi[40, 60] += 1e-6
    shifted = replace(bd, lax=replace(bd.lax, chi=chi))
    dev = bianchi_darboux_identities(g, shifted)["chi_minus_qn_phi_max_dev"]
    assert dev == pytest.approx(1e-6, rel=1e-6)


def test_bianchi_darboux_lax_path_independence_order():
    # Bianchi-Darboux sweeps both orders like apply_backlund, and their
    # distance falls at the scheme's order (the acceptance ORDER_RANGE)
    errs = [bianchi_darboux(cmc(n=n), mbar=1.0).lax.path_independence for n in (101, 201)]
    assert 1.8 <= np.log2(errs[0] / errs[1]) <= 2.2


def test_bianchi_darboux_output_is_cmc():
    # the primed fields satisfy the sinh-Gordon system and the transformed
    # mesh, built by the caller from the background's frame, keeps mean
    # curvature -1/2
    g = cmc(n=101)
    bd = bianchi_darboux(g, mbar=1.0)
    rep = ResidualReport.from_fields(g.grid, governing_residuals(bd.primed_governing))
    assert rep["governing-1"].linf < 1e-10
    assert rep["governing-2"].linf < 1e-10
    assert rep["governing-3"].linf < 100 * g.grid.hmax**2
    c = coefficients_from_governing(g)
    f = integrate_frame(c, I3)
    triple, _ = reconstruct_surfaces(f, c)
    meanH, _ = mesh_curvatures(backlund_surface(triple, f, bd.lax))
    core = meanH.values[3:-3, 3:-3]
    assert np.nanmax(np.abs(core + 0.5)) < 1e-2


def test_bianchi_darboux_validation(monkeypatch):
    g = pseudo(n=21)
    with pytest.raises(ParameterError):
        bianchi_darboux(g, mbar=1.0)
    g2 = cmc(n=21)
    with pytest.raises(ParameterError):
        bianchi_darboux(g2, mbar=0.1)  # discriminant < 0
    # a 1st-kind transform of a cmc seed: its flagged (NaN) nodes do not hide
    # its finite ones, where xi = 0 and h = 1 fail
    grid = Grid2D.from_domain(0, 2, 0, 2, 51, 51)
    seed = generate_seed(SeedSpec("cmc", grid, qn=1.0, alpha0=1.0))
    primed = apply_backlund(seed, m=1.0, lambda0=-1.0, omega0=1.0, phi0=1.0).primed_governing
    assert primed.kind == "first" and np.isnan(primed.xi.values).any()
    with pytest.raises(ParameterError, match="xi = 0 and h = 1"):
        bianchi_darboux(primed, mbar=2.0)

    # a bad initial vector fails before the coefficient bundle is built
    def unreachable(g):
        raise AssertionError("coefficients built for a bad initial vector")

    monkeypatch.setattr(mosurf.backlund, "coefficients_from_governing", unreachable)
    with pytest.raises(ParameterError, match="omega0 must be nonzero"):
        bianchi_darboux(g2, mbar=1.0, lambda0=0.0, omega0=0.0)
    with pytest.raises(ParameterError, match="omega0 must be nonzero"):
        apply_backlund(g2, m=1.0, lambda0=0.0, omega0=0.0, phi0=0.5)


# ---------------------------------------------------------------------------
# the sweep contract and the guards in front of the sweeps
# ---------------------------------------------------------------------------


@pytest.fixture
def sweeps(monkeypatch):
    """The orders of the ``sweep_grid`` calls made by ``mosurf.frames`` and
    ``mosurf.backlund``, one entry a sweep."""
    orders, sweep_grid = [], mosurf.sweep.sweep_grid

    def counted(*args, **kwargs):
        orders.append(kwargs.get("order", "xy"))
        return sweep_grid(*args, **kwargs)

    for module in (mosurf.frames, mosurf.backlund):
        monkeypatch.setattr(module, "sweep_grid", counted)
    return orders


def test_each_entry_sweeps_its_count(sweeps):
    # every entry sweeps its system once per order, the stored xy sweep
    # first: reconstruct's joint frame + triple sweep, whose frame columns
    # the streamed yx frame sweep is compared with; the two Lax orders of
    # apply_backlund and bianchi_darboux, with no frame (r' is left to the
    # caller); the frame and its yx sweep of path_independence_error
    g = cmc(n=11)
    c = coefficients_from_governing(g)
    for run in (lambda: reconstruct(c),
                lambda: apply_backlund(g, **CMC_BACKLUND),
                lambda: bianchi_darboux(g, mbar=1.0),
                lambda: path_independence_error(c, I3)):
        sweeps.clear()
        run()
        assert sweeps == ["xy", "yx"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_apply_backlund_rejects_non_finite_initial_values_before_a_sweep(sweeps):
    g = cmc(n=11)
    for bad in (dict(omega0=NAN), dict(phi0=INF)):
        with pytest.raises(ParameterError, match="must be finite"):
            apply_backlund(g, **{**CMC_BACKLUND, **bad})
    assert sweeps == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bianchi_darboux_rejects_non_finite_parameters_before_a_sweep(sweeps):
    g = cmc(n=11)
    for kw in (dict(mbar=INF), dict(mbar=NAN), dict(mbar=1.0, omega0=NAN),
               dict(mbar=1.0, lambda0=INF)):
        with pytest.raises(ParameterError, match="must be finite"):
            bianchi_darboux(g, **kw)
    assert sweeps == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_chi0_is_rejected_before_a_sweep(sweeps):
    # chi0 overflows (phi0^2, or qn phi0^2 with the phi0 that Bianchi-Darboux
    # solves for), or its denominator 2 m omega0 underflows to 0
    g = cmc(n=11)
    with pytest.raises(ParameterError, match="chi0"):
        apply_backlund(g, **{**CMC_BACKLUND, "phi0": 1e160})
    with pytest.raises(ParameterError, match="chi0"):
        admissible_initial(1e-200, 1.0, 0.0, 1e-200, 1.0)
    huge = generate_seed(SeedSpec("cmc", Grid2D.from_domain(*CMC_DOMAIN, 11, 11), qn=1e308))
    with pytest.raises(ParameterError, match="chi0"):
        bianchi_darboux(huge, mbar=0.5e308)
    assert sweeps == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_m_sweeps_without_a_warning():
    # m = 1e308 overflows the Lax matrices and the quadric's scale: every
    # node is singular, and no numpy warning escapes
    c = coefficients_from_governing(cmc(n=11))
    lx = integrate_lax(c, 1e308, admissible_initial(1e308, c.qn, 0.0, 1.0, 1.7))
    assert lx.singular.all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_integrate_lax_rejects_non_finite_m_and_init_before_a_sweep(sweeps):
    c = coefficients_from_governing(cmc(n=11))
    init = admissible_initial(1.0, c.qn, 0.0, 1.0, 1.7)
    with pytest.raises(ParameterError, match="must be finite"):
        integrate_lax(c, NAN, init)
    for k in range(5):
        bad = init.copy()
        bad[k] = (NAN, INF)[k % 2]
        with pytest.raises(ParameterError, match="must be finite"):
            integrate_lax(c, 1.0, bad)
    assert sweeps == []
