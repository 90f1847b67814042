"""Lax-pair integration and the Backlund transformation for both kinds.

The linear system in w = (lambda, mu, omega, phi, chi) with spectral
parameter m is integrated over the grid with the two-pass RK4 sweep; its
coefficients and the load qn come from one :class:`kernel.CoefficientFields`,
which the Lax sweep and the coefficient update take alone.  Its
quadric constraint

    lambda^2 + mu^2 + omega^2 = 2 m omega nu,   nu = chi - qn phi^2 / (2 omega)

is conserved exactly by the continuous flow (for arbitrary coefficient
fields, compatible or not), so the reported drift isolates integrator
truncation.  A transform sweeps the Lax system in both orders and nothing
else: the xy solution is stored, and the yx one is compared with it as it is
made (``path_independence``).  The transformation itself is pointwise algebra:

    r' = r - (phi / (m omega nu)) (lambda X + mu Y + omega N),

with the coefficient update Hvec' = Hvec - (H/M) Mvec, Kvec' = Kvec - (K/M) Mvec,
Mvec = (omega, phi, chi), M = m omega nu.  :class:`LaxFields` holds w, nu and
M as read-only arrays.  The new governing fields (xi', alpha', h') follow from
closed forms written with the kind's sign eps (:data:`kernel.EPS`) and
satisfy the same governing system (kind preservation), which the tests verify
as residuals.  Primed fields are NaN where the transform is undefined; field
files keep those nodes as flagged ones, so a primed file is valid input to a
second transform.  r' needs the background's frame and r, so it is not part
of a transform's result: :func:`backlund_surface` builds it from the frame
grid and triple a caller holds.

The classical Bianchi-Darboux transformation of a cmc background sweeps the
same Lax system on its reduction chi = qn phi, which is measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import partial

import numpy as np

from .errors import ParameterError, SingularGridError
from .fields import Grid2D, ScalarField, Vec3Field, freeze_arrays, max_skipping_nan
from .kernel import EPS, CoefficientFields, GoverningFields, _forms, coefficients_from_governing
from .frames import SurfaceTriple
from .sweep import Reduce, sweep_grid

__all__ = [
    "LaxFields",
    "PrimedUpdate",
    "BacklundResult",
    "admissible_initial",
    "integrate_lax",
    "lax_substeps",
    "backlund_surface",
    "backlund_coefficients",
    "backlund_governing",
    "apply_backlund",
    "bianchi_darboux",
    "transform_diagnostics",
    "bianchi_darboux_identities",
]

#: nodes with |omega|, |nu| or |M| below this are flagged singular
EPS_SING = 1e-8

#: target RK4 step length of the Lax sweeps (see :func:`lax_substeps`).
#: RK4 breaks the Lax quadric only at O(step^4), so steps this short keep
#: the constraint drift far below any gate; the O(h^2) interpolation
#: accuracy does not depend on the step
LAX_STEP = 0.01

#: most RK4 steps per grid interval of the Lax sweeps; grids with
#: max(dx, dy) > 3 LAX_STEP take this many, so no grid does more work than
#: with a fixed 4
LAX_SUBSTEPS = 4


@dataclass(frozen=True)
class LaxFields:
    """Solution of the Lax system plus derived quantities.

    ``singular`` marks nodes where omega, nu or M = m omega nu fall below
    ``EPS_SING`` (the transformation is undefined there).
    ``constraint_drift`` is max |lambda^2+mu^2+omega^2 - 2 m omega nu| over
    the finite nodes relative to its initial magnitude (non-finite nodes are
    counted in ``singular``); it measures the RK4 truncation of sweeps that
    take :func:`lax_substeps` steps per interval.  ``path_independence`` is
    the max node-wise sup distance between the two sweep orders.
    """

    m: float
    qn: float
    lam: np.ndarray = dc_field(repr=False)
    mu: np.ndarray = dc_field(repr=False)
    omega: np.ndarray = dc_field(repr=False)
    phi: np.ndarray = dc_field(repr=False)
    chi: np.ndarray = dc_field(repr=False)
    nu: np.ndarray = dc_field(repr=False)
    bigM: np.ndarray = dc_field(repr=False)
    singular: np.ndarray = dc_field(repr=False)
    constraint_drift: float
    path_independence: float

    __post_init__ = freeze_arrays


@dataclass(frozen=True)
class PrimedUpdate:
    """Raw coefficient update Hvec' = Hvec - (H/M) Mvec (theorem sign conventions)."""

    Ho: np.ndarray
    A1: np.ndarray
    Abar1: np.ndarray
    Ko: np.ndarray
    A2: np.ndarray
    Abar2: np.ndarray
    mask: np.ndarray = dc_field(repr=False)

    __post_init__ = freeze_arrays


@dataclass(frozen=True)
class BacklundResult:
    """Everything produced by one Backlund application, r' aside (see
    :func:`backlund_surface`)."""

    lax: LaxFields
    primed_governing: GoverningFields
    raw_update: PrimedUpdate
    branch_invalid: np.ndarray = dc_field(repr=False)

    __post_init__ = freeze_arrays


def admissible_initial(
    m: float, qn: float, lambda0: float, omega0: float, phi0: float
) -> np.ndarray:
    """Initial 5-vector satisfying the quadric constraint exactly.

    Normalizes mu0 = 0 and solves the constraint for chi0:
    chi0 = (lambda0^2 + omega0^2)/(2 m omega0) + qn phi0^2/(2 omega0),
    which must be finite.
    """
    if not all(map(math.isfinite, (m, qn, lambda0, omega0, phi0))):
        raise ParameterError("m, qn and the initial values must be finite")
    if m == 0.0:
        raise ParameterError("the Backlund parameter m must be nonzero")
    if omega0 == 0.0:
        raise ParameterError("omega0 must be nonzero for an admissible initial vector")
    den = 2.0 * m * omega0  # a product of nonzero floats that may underflow to 0
    chi0 = ((lambda0 * lambda0 + omega0 * omega0) / den + qn * phi0 * phi0 / (2.0 * omega0)
            if den else math.inf)
    if not math.isfinite(chi0):
        raise ParameterError(f"chi0 of the admissible initial vector is not finite ({chi0})")
    return np.array([lambda0, 0.0, omega0, phi0, chi0])


def lax_substeps(grid: Grid2D) -> int:
    """RK4 steps per grid interval of a Lax sweep on ``grid``.

    Enough steps that none is longer than ``LAX_STEP``, at most
    ``LAX_SUBSTEPS``: min(LAX_SUBSTEPS, ceil(max(dx, dy) / LAX_STEP)).
    """
    return math.ceil(min(grid.hmax / LAX_STEP, LAX_SUBSTEPS))  # hmax / LAX_STEP may be inf


def _lax_matrix_x(p, Ho, A1, Abar1, *, m, qn, out=None):
    """The Lax generator along x in row form, component-first: the row
    w^T moves as w^T L, so L is the transpose of the generator of w' = G w.
    Into a zeroed ``out`` it writes only its nonzero entries."""
    L = np.zeros((5, 5) + np.shape(p)) if out is None else out
    np.negative(p, out=L[1, 0])
    np.subtract(m * Abar1, Ho, out=L[2, 0])
    np.multiply(-m * qn, A1, out=L[3, 0])
    np.multiply(m, Ho, out=L[4, 0])
    L[0, 1] = p
    L[0, 2] = Ho
    L[0, 3] = A1
    L[0, 4] = Abar1
    return L


def _lax_matrix_y(q, Ko, A2, Abar2, *, m, qn, out=None):
    """The Lax generator along y in row form."""
    L = np.zeros((5, 5) + np.shape(q)) if out is None else out
    L[1, 0] = q
    np.negative(q, out=L[0, 1])
    np.subtract(m * Abar2, Ko, out=L[2, 1])
    np.multiply(-m * qn, A2, out=L[3, 1])
    np.multiply(m, Ko, out=L[4, 1])
    L[1, 2] = Ko
    L[1, 3] = A2
    L[1, 4] = Abar2
    return L


def _sweep_lax(c: CoefficientFields, m: float, init: np.ndarray, order: str = "xy",
               reduce: Reduce | None = None) -> np.ndarray | None:
    """The Lax solution (nx, ny, 5) swept from ``init`` at the origin node,
    as the one-row state ``init[None]``; with ``reduce``, reduced by it
    (see :func:`sweep.sweep_grid`), and None."""
    cx = (c.p, c.Ho, c.A1, c.Abar1)
    cy = (c.q, c.Ko, c.A2, c.Abar2)
    gx, gy = partial(_lax_matrix_x, m=m, qn=c.qn), partial(_lax_matrix_y, m=m, qn=c.qn)
    w = sweep_grid(c.grid, cx, gx, cy, gy, init[None], order=order,
                   substeps=lax_substeps(c.grid), reduce=reduce)
    return None if w is None else w[:, :, 0]


def _lax_fields(m: float, qn: float, w: np.ndarray, path_err: float) -> LaxFields:
    """nu, M, the singular mask and the quadric drift of a Lax solution ``w``.

    The drift is taken relative to the quadric's magnitude at the origin
    node, where the solution holds its initial vector.
    """
    # one component-major copy: contiguous components compute faster than strided views
    lam, mu, om, ph, ch = np.moveaxis(w, 2, 0).copy()
    with np.errstate(all="ignore"):
        nu = ch - qn * ph * ph / (2.0 * om)
        bigM = m * om * nu
        # division-free form of lambda^2 + mu^2 + omega^2 - 2 m omega nu
        quad = lam * lam + mu * mu + om * om - 2.0 * m * om * ch + m * qn * ph * ph
        q0 = abs(2.0 * m * om[0, 0] * ch[0, 0] - m * qn * ph[0, 0] ** 2)
    singular = (
        ~np.isfinite(om)
        | ~np.isfinite(nu)
        | (np.abs(om) < EPS_SING)
        | (np.abs(nu) < EPS_SING)
        | (np.abs(bigM) < EPS_SING)
    )
    scale = q0 if q0 > 0 else 1.0
    drift = float(np.max(np.abs(quad), where=np.isfinite(quad), initial=0.0)) / scale
    return LaxFields(m, qn, lam, mu, om, ph, ch, nu, bigM, singular, drift, path_err)


def integrate_lax(c: CoefficientFields, m: float, init: np.ndarray) -> LaxFields:
    """Integrate the 5-component linear system of ``c`` (its load qn) from
    ``init`` at the origin node.

    The background coefficients must come from a valid membrane O surface for
    the two sweep orders to agree; ``path_independence`` records the actual
    discrepancy (it blows up on an incompatible background, a useful negative
    control).
    """
    if m == 0.0:
        raise ParameterError("the Backlund parameter m must be nonzero")
    init = np.asarray(init, dtype=float)
    if init.shape != (5,):
        raise ParameterError(f"init must be a 5-vector, got shape {init.shape}")
    if not (math.isfinite(m) and np.isfinite(init).all()):
        raise ParameterError("m and init must be finite")
    return _integrate_lax(c, m, init)


def _integrate_lax(c: CoefficientFields, m: float, init: np.ndarray) -> LaxFields:
    """:func:`integrate_lax` of a nonzero m and a float 5-vector ``init``.

    The xy sweep is stored; the yx sweep is reduced, each of its blocks
    compared with the same nodes of the xy solution as it is made.
    """
    out, maxima = _sweep_lax(c, m, init), []

    def block_max(where, nodes):  # nodes[..., 0, :] is w at the nodes out[where]
        a = out[where]
        # component by component: the two sweeps are stored in different
        # memory orders, and a 2-d difference of them reads faster than a 3-d one
        maxima.extend(max_skipping_nan(np.abs(a[..., k] - nodes[..., 0, k])) for k in range(5))

    _sweep_lax(c, m, init, "yx", block_max)
    return _lax_fields(m, c.qn, out, max_skipping_nan(np.array(maxima)))


def _nanwhere(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.where(mask, np.nan, values)


def backlund_surface(s: SurfaceTriple, f: np.ndarray, lx: LaxFields) -> Vec3Field:
    """r' = r - (phi/(m omega nu)) (lambda X + mu Y + omega N), NaN at singular nodes.

    ``f`` is the frame grid (X, Y, N) of :func:`frames.integrate_frame`.
    One component at a time: the frame grid is stored in its sweep's memory
    order, and a 2-d product with it reads faster than a 3-d one.
    """
    r = np.empty_like(s.r.values)
    with np.errstate(all="ignore"):
        factor = _nanwhere(lx.singular, lx.phi / lx.bigM)
        for k in range(3):
            X, Y, N = (f[:, :, k, a] for a in range(3))
            r[:, :, k] = s.r.values[:, :, k] - factor * (lx.lam * X + lx.mu * Y + lx.omega * N)
    return Vec3Field(s.r.grid, r)


def backlund_coefficients(c: CoefficientFields, lx: LaxFields) -> PrimedUpdate:
    """Primed coefficient six-tuple via the reflection update (theorem signs).

    H = m (nu Ho + omega Abar1 - qn phi A1 + qn phi^2 Ho / (2 omega)) and the
    K analogue; then every component of Hvec, Kvec is shifted by
    -(H/M) Mvec resp. -(K/M) Mvec with Mvec = (omega, phi, chi).
    """
    om, ph, ch, nu, bigM, m = lx.omega, lx.phi, lx.chi, lx.nu, lx.bigM, lx.m
    Ho, Ko, A1, A2, Ab1, Ab2, qn = c.Ho, c.Ko, c.A1, c.A2, c.Abar1, c.Abar2, c.qn
    with np.errstate(all="ignore"):
        H = m * (nu * Ho + om * Ab1 - qn * ph * A1 + qn * ph * ph * Ho / (2.0 * om))
        K = m * (nu * Ko + om * Ab2 - qn * ph * A2 + qn * ph * ph * Ko / (2.0 * om))
        rH = H / bigM
        rK = K / bigM
        mask = lx.singular | ~np.isfinite(rH) | ~np.isfinite(rK)
        rH = _nanwhere(mask, rH)
        rK = _nanwhere(mask, rK)
        return PrimedUpdate(
            Ho=Ho - rH * om, A1=A1 - rH * ph, Abar1=Ab1 - rH * ch,
            Ko=Ko - rK * om, A2=A2 - rK * ph, Abar2=Ab2 - rK * ch,
            mask=mask,
        )


def backlund_governing(g: GoverningFields, lx: LaxFields) -> tuple[GoverningFields, np.ndarray]:
    """Primed (xi', alpha', h') of the same kind, plus the invalid-node mask.

    With t = h - (phi/omega) e^xi and the kind's sign eps:
    e^xi' = (qn/2)(omega/nu) e^-xi (1 - eps t^2), h' = eps t + (phi/omega) e^xi',
    and alpha' = -alpha + log((1-t)/(1+t)) for the 1st kind, which also needs
    |t| < 1, or alpha' = alpha - 2 arctan(t) for the 2nd.  Nodes where the
    e^xi' argument is not positive are invalid too; invalid nodes become NaN.
    """
    qn = g.qn
    eps = EPS[g.kind]
    al, xi, h = g.alpha.values, g.xi.values, g.h.values
    om, ph, nu = lx.omega, lx.phi, lx.nu
    with np.errstate(all="ignore"):
        t = h - (ph / om) * np.exp(xi)
        ex_p = 0.5 * qn * (om / nu) * np.exp(-xi) * (1.0 - eps * t * t)
        invalid = lx.singular | ~np.isfinite(t) | ~(ex_p > 0.0)
        if g.kind == "first":
            invalid |= np.abs(t) >= 1.0
            ratio = (1.0 - t) / (1.0 + t)
            al_p = -al + np.log(np.where(invalid | ~(ratio > 0), np.nan, ratio))
        else:
            al_p = al - 2.0 * np.arctan(_nanwhere(invalid, t))
        xi_p = np.log(_nanwhere(invalid, ex_p))
        h_p = eps * t + (ph / om) * np.exp(xi_p)
    grid = g.grid
    primed = GoverningFields(
        kind=g.kind,
        qn=qn,
        alpha=ScalarField(grid, al_p),
        xi=ScalarField(grid, xi_p),
        h=ScalarField(grid, _nanwhere(invalid, h_p)),
    )
    return primed, invalid


def _transform(g: GoverningFields, c: CoefficientFields, lx: LaxFields,
               name: str) -> BacklundResult:
    """Primed fields and raw update of a Lax solution; pointwise, no sweep."""
    if lx.singular.all():
        raise SingularGridError(f"{name} undefined on every node")
    primed, invalid = backlund_governing(g, lx)
    return BacklundResult(lx, primed, backlund_coefficients(c, lx), invalid)


def apply_backlund(
    g: GoverningFields, m: float, lambda0: float, omega0: float, phi0: float
) -> BacklundResult:
    """One full Backlund application from an admissible initial vector.

    Builds coefficients, sweeps the Lax system in both orders, and assembles
    the primed governing fields and the raw coefficient update; it sweeps no
    frame (see :func:`backlund_surface` for r').
    Raises SingularGridError when every node is singular.
    """
    init = admissible_initial(m, g.qn, lambda0, omega0, phi0)
    c = coefficients_from_governing(g)
    lx = _integrate_lax(c, m, init)  # m was checked by admissible_initial
    return _transform(g, c, lx, "Backlund transformation")


# ---------------------------------------------------------------------------
# Bianchi-Darboux specialization (cmc backgrounds)
# ---------------------------------------------------------------------------


def bianchi_darboux(
    g: GoverningFields, mbar: float, lambda0: float = 0.0, omega0: float = 1.0
) -> BacklundResult:
    """Classical Bianchi-Darboux transformation of a cmc background.

    The Backlund transformation with m = 2 mbar / qn on the reduction
    chi = qn phi, which the Lax flow preserves.  phi0 is the larger root,
    omega0 + sqrt(disc), of the quadric constraint with chi0 = qn phi0; the
    discriminant disc must be nonnegative, which bounds mbar from below.
    The Lax system is swept in both orders, like :func:`apply_backlund`,
    from :func:`admissible_initial`, whose chi0 then equals qn phi0;
    :func:`bianchi_darboux_identities` measures max |chi - qn phi|.

    The result satisfies e^xi' = h' = 1 and e^alpha' = -(phi/sigma) e^-alpha
    with sigma = phi - 2 omega.
    """
    if g.kind != "first":
        raise ParameterError("Bianchi-Darboux requires a 1st-kind (cmc) background")
    xi_dev, h_dev = (max_skipping_nan(np.abs(v)) for v in (g.xi.values, g.h.values - 1.0))
    if xi_dev > 0.0 or h_dev > 0.0:  # over the nodes that are not flagged (NaN)
        raise ParameterError("Bianchi-Darboux requires xi = 0 and h = 1 exactly")
    if not all(map(math.isfinite, (mbar, lambda0, omega0))):
        raise ParameterError("mbar, lambda0 and omega0 must be finite")
    if mbar == 0.0:
        raise ParameterError("mbar must be nonzero")
    qn = g.qn
    m = 2.0 * mbar / qn
    # constraint with chi0 = qn phi0: phi0^2 - 2 omega0 phi0 + (lambda0^2+omega0^2)/(2 mbar) = 0
    disc = omega0 * omega0 - (lambda0 * lambda0 + omega0 * omega0) / (2.0 * mbar)
    if disc < 0.0:
        raise ParameterError(
            f"no admissible phi0 for mbar={mbar}: constraint discriminant {disc:.3e} < 0"
        )
    phi0 = omega0 + math.sqrt(disc)
    init = admissible_initial(m, qn, lambda0, omega0, phi0)
    c = coefficients_from_governing(g)
    lx = _integrate_lax(c, m, init)
    return _transform(g, c, lx, "Bianchi-Darboux transformation")


# ---------------------------------------------------------------------------
# diagnostics of a transform
# ---------------------------------------------------------------------------


def transform_diagnostics(res: BacklundResult) -> dict[str, float | int]:
    """Lax drift, singular/invalid node counts and the theorem-form cross-check.

    ``lax_path_independence`` is the sup distance of the two Lax sweep orders.
    ``theorem_vs_raw_max_dev`` compares the raw reflection update with the
    theorem's coefficients (A1, -eps A2, Ho, -eps Ko), evaluated pointwise
    here from the primed governing fields (:func:`kernel._forms`), over the
    nodes valid for both.  Raises SingularGridError when no such node is left.
    """
    raw = res.raw_update
    ok = ~(res.branch_invalid | raw.mask)
    if not ok.any():
        raise SingularGridError("no valid nodes after the Backlund transformation")
    _, _, A1, A2, Ho, Ko = _forms(res.primed_governing)
    eps = EPS[res.primed_governing.kind]
    thm = (A1, -eps * A2, Ho, -eps * Ko)
    raws = (raw.A1, raw.A2, raw.Ho, raw.Ko)
    with np.errstate(all="ignore"):
        dev = max(max_skipping_nan(np.abs(t - r)[ok]) for t, r in zip(thm, raws))
    return {
        "constraint_drift": res.lax.constraint_drift,
        "lax_path_independence": res.lax.path_independence,
        "singular_nodes": int(res.lax.singular.sum()),
        "branch_invalid_nodes": int(res.branch_invalid.sum()),
        "theorem_vs_raw_max_dev": dev,
    }


def bianchi_darboux_identities(g: GoverningFields, res: BacklundResult) -> dict[str, float]:
    """Max deviations from e^xi' = 1, h' = 1, e^alpha' = -(phi/sigma) e^-alpha
    and the reduction chi = qn phi.

    ``g`` is the background of the Bianchi-Darboux result ``res``; nodes
    that are branch-invalid or singular are skipped.
    """
    gp = res.primed_governing
    ok = ~(res.branch_invalid | res.lax.singular)
    phi = res.lax.phi
    sigma = phi - 2.0 * res.lax.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        e_alpha_dev = np.exp(gp.alpha.values) + (phi / sigma) * np.exp(-g.alpha.values)
    chi_dev = res.lax.chi - res.lax.qn * phi
    return {
        "e_xi_prime_max_dev": max_skipping_nan(np.abs(np.exp(gp.xi.values) - 1.0)[ok]),
        "h_prime_max_dev": max_skipping_nan(np.abs(gp.h.values - 1.0)[ok]),
        "e_alpha_prime_identity_max_dev": max_skipping_nan(np.abs(e_alpha_dev)[ok]),
        "chi_minus_qn_phi_max_dev": max_skipping_nan(np.abs(chi_dev)[ok]),
    }
