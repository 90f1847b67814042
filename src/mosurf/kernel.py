"""Coefficients, stresses and pointwise equation residuals for both kinds.

The unknowns are the governing triple (alpha, xi, h) together with the
constant normal load qn.  The two kinds differ only by a sign eps = +1
(1st kind) or -1 (2nd kind), held in ``EPS``: with (S, C) = (sinh, cosh)
resp. (sin, cos) of alpha, S' = C, C' = eps S and C^2 - eps S^2 = 1, and
every formula below is written once in terms of (S, C, eps).  This module
maps them to

* first/third fundamental form coefficients A1, A2, Ho, Ko,
* stress resultants T1, T2 and the Combescure dual coefficients
  Abar1 = T2 A1, Abar2 = T1 A2,
* net rotation coefficients p, q,

in one build, :func:`coefficients_from_governing`, whose read-only
:class:`CoefficientFields` holds every array as it was computed and the
triple's kind and qn; its pointwise part (A1, A2, Ho, Ko) is :func:`_forms`.
:func:`stresses` is a view of that build's T1, T2, flagged where they are NaN
at a finite triple node.  It also evaluates every equation of the theory,
one function per family that takes the triple or the bundle alone and
returns its residual arrays by registry name: the governing system, the
Mainardi-Codazzi/net/Gauss relations, the membrane equilibrium equations,
the first integrals with their quadric constraint, and the orthogonality
relation Abar1 Ko + Ho Abar2 = qn A1 A2,
the membrane form of the Omega-surface 4-vector condition (the curvature-ratio
Omega identities are in :mod:`mosurf.omega`).  :func:`residual_stats` reduces
an array to norms.

Flagged-node policy: nodes where a division guard trips (vanishing
denominators at curvature-line degeneracies) or a value overflows are set to
NaN, without a numpy warning, and excluded from the reported norms; every
report entry carries its exclusion count.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ParameterError
from .fields import Grid2D, ScalarField, diff_x, diff_y, freeze_arrays

__all__ = [
    "GoverningFields",
    "CoefficientFields",
    "StressFields",
    "ResidualStats",
    "ResidualReport",
    "residual_stats",
    "coefficients_from_governing",
    "stresses",
    "governing_residuals",
    "gauss_codazzi_residuals",
    "equilibrium_residuals",
    "first_integral_check",
    "orthogonality_check",
    "principal_curvatures",
]

#: the sign eps of each kind: (S, C) = (sinh, cosh) for +1, (sin, cos) for -1
EPS = {"first": 1.0, "second": -1.0}

#: absolute guard on denominators; fields in this problem class are O(1)
EPS_DIV = 1e-12


@dataclass(frozen=True)
class GoverningFields:
    """The triple (alpha, xi, h) on a shared grid, plus kind and load."""

    kind: str
    qn: float
    alpha: ScalarField
    xi: ScalarField
    h: ScalarField

    def __post_init__(self) -> None:
        if self.kind not in EPS:
            raise ParameterError(f"kind must be 'first' or 'second', got {self.kind!r}")
        if self.qn == 0.0:
            raise ParameterError("qn must be nonzero")
        if not (self.alpha.grid == self.xi.grid == self.h.grid):
            raise ParameterError("alpha, xi, h must share one grid")

    @property
    def grid(self) -> Grid2D:
        return self.alpha.grid


@dataclass(frozen=True)
class CoefficientFields:
    """Fundamental-form coefficients, stresses, dual and rotation coefficients
    of one triple, read-only, with the triple's grid, kind and load qn.

    ``flagged`` marks nodes where a guard tripped; their values are NaN.
    """

    grid: Grid2D
    kind: str
    qn: float
    A1: np.ndarray = dc_field(repr=False)
    A2: np.ndarray = dc_field(repr=False)
    Ho: np.ndarray = dc_field(repr=False)
    Ko: np.ndarray = dc_field(repr=False)
    T1: np.ndarray = dc_field(repr=False)
    T2: np.ndarray = dc_field(repr=False)
    Abar1: np.ndarray = dc_field(repr=False)
    Abar2: np.ndarray = dc_field(repr=False)
    p: np.ndarray = dc_field(repr=False)
    q: np.ndarray = dc_field(repr=False)
    flagged: np.ndarray = dc_field(repr=False)

    __post_init__ = freeze_arrays

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.sum())


@dataclass(frozen=True)
class StressFields:
    """In-plane normal stress resultants T1, T2 (units of qn * length), read-only."""

    grid: Grid2D
    T1: np.ndarray = dc_field(repr=False)
    T2: np.ndarray = dc_field(repr=False)
    flagged: np.ndarray = dc_field(repr=False)

    __post_init__ = freeze_arrays


@dataclass(frozen=True)
class ResidualStats:
    """L-infinity and node-quadrature L2 norms of one residual field."""

    linf: float
    l2: float
    excluded: int = 0


@dataclass
class ResidualReport:
    """Named residual norms plus grid metadata."""

    grid: Grid2D
    entries: dict[str, ResidualStats] = dc_field(default_factory=dict)

    @classmethod
    def from_fields(cls, grid: Grid2D, fields: dict[str, np.ndarray]) -> "ResidualReport":
        """Report with one entry per named residual array, in ``fields`` order."""
        return cls(grid, {name: residual_stats(v, grid) for name, v in fields.items()})

    def __getitem__(self, name: str) -> ResidualStats:
        return self.entries[name]


#: boundary band excluded from reported residual norms.  One-sided stencil
#: closures have a different O(h^2) error constant than the central interior,
#: so residuals that nest same-direction derivatives lose an order of
#: convergence in the outermost rows/columns; fields produced by sweep
#: integration over FD-built coefficients additionally carry a localized
#: boundary kick whose second differences only converge outside a 3-node band.
REPORT_MARGIN = 3


def residual_stats(values: np.ndarray, grid: Grid2D) -> ResidualStats:
    """Masked norms over the interior sub-grid; NaN sentinels excluded and counted."""
    mx = min(REPORT_MARGIN, (grid.nx - 1) // 2)
    my = min(REPORT_MARGIN, (grid.ny - 1) // 2)
    core = values[mx : grid.nx - mx, my : grid.ny - my]
    finite = np.isfinite(core)
    excluded = int(core.size - finite.sum())
    if excluded == core.size:
        return ResidualStats(0.0, 0.0, excluded)
    v = np.where(finite, core, 0.0)
    linf = float(np.max(np.abs(v)))
    l2 = float(np.sqrt((v * v).sum(axis=0).sum() * grid.dx * grid.dy))
    return ResidualStats(linf, l2, excluded)


def _sc(kind: str, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(S, C, eps): (sinh, cosh, +1) for the 1st kind, (sin, cos, -1) for the 2nd.

    S' = C, C' = eps S and C^2 - eps S^2 = 1.
    """
    if kind == "first":
        return np.sinh(alpha), np.cosh(alpha), EPS[kind]
    return np.sin(alpha), np.cos(alpha), EPS[kind]


def _forms(g: GoverningFields) -> tuple[np.ndarray, ...]:
    """(S, C, A1, A2, Ho, Ko) of a triple, pointwise: A1 = C + h S,
    A2 = S + eps h C, Ho = e^xi S and Ko = eps e^xi C, NaN where not finite."""
    h = g.h.values
    with np.errstate(all="ignore"):
        S, C, eps = _sc(g.kind, g.alpha.values)
        A1 = C + h * S
        A2 = S + eps * h * C
        ex = np.exp(g.xi.values)
        Ho = ex * S
        Ko = eps * ex * C
    for v in (A1, A2, Ho, Ko):
        v[~np.isfinite(v)] = np.nan
    return S, C, A1, A2, Ho, Ko


def coefficients_from_governing(g: GoverningFields) -> CoefficientFields:
    """All coefficient fields and stresses implied by (alpha, xi, h, qn).

    The stresses are T1 = (qn/2) e^-xi (2 h S + (1 + eps h^2) C) / A2 and
    T2 = (qn/2) e^-xi (2 h C + (eps + h^2) S) / A1; nodes where |A1| or |A2|
    falls below ``EPS_DIV`` are flagged, and they and the nodes where a stress
    overflows read NaN there.
    p and q use the closed forms from the governing structure,
    p = eps (alpha_y + xi_y S/C) and q = alpha_x + eps xi_x C/S
    (S/C is evaluated as tanh(alpha) for the 1st kind),
    rather than discrete ratios like (A1)_y / A2; the discrete ratios are kept
    as residual checks in :func:`gauss_codazzi_residuals` so the two routes
    stay independent.  Every array is built once and kept as it is built.
    """
    grid = g.grid
    al, xi, h = g.alpha.values, g.xi.values, g.h.values
    S, C, A1, A2, Ho, Ko = _forms(g)
    eps = EPS[g.kind]
    with np.errstate(all="ignore"):
        guard = (np.abs(A2) < EPS_DIV) | (np.abs(A1) < EPS_DIV)  # a stress denominator vanishes
        # the parenthesized ratio keeps T1 = T2 = qn bit-exact on the cmc family
        half_load = 0.5 * g.qn * np.exp(-xi)
        T1 = half_load * ((2.0 * h * S + (1.0 + eps * h * h) * C) / A2)
        T2 = half_load * ((2.0 * h * C + (eps + h * h) * S) / A1)
        del half_load
        T1[guard | np.isinf(T1)] = np.nan  # an overflow reads NaN; a NaN keeps its bits
        T2[guard | np.isinf(T2)] = np.nan
        # tanh(alpha) rather than S/C for the 1st kind: they differ in the last bits
        ratio = np.tanh(al) if g.kind == "first" else S / C
        p = eps * (diff_y(al, grid) + diff_y(xi, grid) * ratio)
        del ratio
        q = diff_x(al, grid) + eps * diff_x(xi, grid) * (C / S)
        del S, C
        Abar1 = T2 * A1
        Abar2 = T1 * A2
    # NaN sentinels stay local to the field they break: a stress singularity
    # poisons Abar1/Abar2 but leaves the frame coefficients p, q, Ho, Ko usable.
    flagged = guard
    for v in (A1, A2, Ho, Ko, Abar1, Abar2, p, q):
        bad = ~np.isfinite(v)
        v[bad] = np.nan
        flagged |= bad
    return CoefficientFields(grid, g.kind, g.qn, A1, A2, Ho, Ko, T1, T2, Abar1, Abar2, p, q,
                             flagged)


def stresses(g: GoverningFields) -> StressFields:
    """The stresses of :func:`coefficients_from_governing`, flagged where T1 or
    T2 is NaN although the triple is finite: where its |A1| or |A2| guard
    tripped or a stress overflowed.  The NaN nodes of the triple (the flagged
    nodes of a primed file) read NaN and are not counted."""
    c = coefficients_from_governing(g)
    finite = np.isfinite(g.alpha.values) & np.isfinite(g.xi.values) & np.isfinite(g.h.values)
    return StressFields(g.grid, c.T1, c.T2, (np.isnan(c.T1) | np.isnan(c.T2)) & finite)


def principal_curvatures(c: CoefficientFields) -> tuple[np.ndarray, np.ndarray]:
    """kappa1 = -Ho/A1, kappa2 = -Ko/A2 (NaN where flagged)."""
    with np.errstate(all="ignore"):
        k1 = -c.Ho / c.A1
        k2 = -c.Ko / c.A2
    return k1, k2


# ---------------------------------------------------------------------------
# residual fields
# ---------------------------------------------------------------------------


def governing_residuals(g: GoverningFields) -> dict[str, np.ndarray]:
    """Residual arrays of the three governing equations of the field's kind.

    ``governing-1`` combines the two first-order h equations as a pointwise
    max of absolute residuals; ``governing-2`` is the xi cross-derivative
    equation; ``governing-3`` the second-order alpha-xi equation.  C/S, S/C
    and each first derivative are formed once, and each temporary is freed
    after its last read, so the family holds a few grids beyond its result.
    """
    grid = g.grid
    al = g.alpha.values
    xi = g.xi.values
    h = g.h.values
    with np.errstate(all="ignore"):
        S, C, eps = _sc(g.kind, al)
        source = np.exp(2.0 * xi) * S * C
        cs = C / S
        sc = S / C
        del S, C
        xi_x, xi_y = diff_x(xi, grid), diff_y(xi, grid)
        res_h = np.abs(diff_x(h, grid) - (h + cs) * xi_x)
        np.maximum(res_h, np.abs(diff_y(h, grid) - (h + eps * sc) * xi_y), out=res_h)
        al_x, al_y = diff_x(al, grid), diff_y(al, grid)
        res_xi = diff_y(xi_x, grid) - xi_x * xi_y - cs * al_y * xi_x - eps * sc * al_x * xi_y
        res_al = diff_y(al_y + xi_y * sc, grid)
        del al_y, sc, xi_y
        # (Px)_x + (Py)_y + e^(2 xi) S C, summed in that order
        np.add(diff_x(eps * al_x + xi_x * cs, grid), res_al, out=res_al)
        res_al += source
    return {"governing-1": res_h, "governing-2": res_xi, "governing-3": res_al}


def gauss_codazzi_residuals(c: CoefficientFields) -> dict[str, np.ndarray]:
    """Mainardi-Codazzi, net and Gauss equation residual arrays."""
    grid = c.grid
    A1, A2, Ho, Ko = c.A1, c.A2, c.Ho, c.Ko
    Ab1, Ab2, p, q = c.Abar1, c.Abar2, c.p, c.q
    return {
        "codazzi-H": diff_y(Ho, grid) - p * Ko,
        "codazzi-K": diff_x(Ko, grid) - q * Ho,
        "net-A1": diff_y(A1, grid) - p * A2,
        "net-A2": diff_x(A2, grid) - q * A1,
        "net-Abar1": diff_y(Ab1, grid) - p * Ab2,
        "net-Abar2": diff_x(Ab2, grid) - q * Ab1,
        "gauss": diff_y(p, grid) + diff_x(q, grid) + Ho * Ko,
    }


def equilibrium_residuals(c: CoefficientFields) -> dict[str, np.ndarray]:
    """In-plane and out-of-plane equilibrium residual arrays.

    The in-plane equations are the scalar form of the dual net relations
    (Abar2)_x = q Abar1 and (Abar1)_y = p Abar2 with Abar1 = T2 A1,
    Abar2 = T1 A2: expanding the products gives
    ``(T1)_x + (log A2)_x (T1 - T2) = 0`` and
    ``(T2)_y + (log A1)_y (T2 - T1) = 0``.
    The metric-coefficient logs are computed as derivative ratios so sign
    changes of A1, A2 are harmless.
    """
    grid = c.grid
    A1, A2, T1, T2 = c.A1, c.A2, c.T1, c.T2
    k1, k2 = principal_curvatures(c)
    with np.errstate(all="ignore"):
        res1 = diff_x(T1, grid) + (diff_x(A2, grid) / A2) * (T1 - T2)
        res2 = diff_y(T2, grid) + (diff_y(A1, grid) / A1) * (T2 - T1)
        res3 = k1 * T1 + k2 * T2 + c.qn
    return {"equilibrium-1": res1, "equilibrium-2": res2, "equilibrium-3": res3}


def first_integral_check(c: CoefficientFields) -> dict[str, np.ndarray]:
    """First integrals normalized to (-qn, eps qn) and the quadric constraint.

    2 Abar1 Ho - qn A1^2 = -qn, 2 Abar2 Ko - qn A2^2 = eps qn and
    Ko^2 - eps Ho^2 = (Ho A2 - Ko A1)^2.  All three are derivative-free algebra.
    """
    eps, qn = EPS[c.kind], c.qn
    A1, A2, Ho, Ko, Ab1, Ab2 = c.A1, c.A2, c.Ho, c.Ko, c.Abar1, c.Abar2
    with np.errstate(all="ignore"):
        fi1 = 2.0 * Ab1 * Ho - qn * A1 * A1 + qn
        cross = Ho * A2 - Ko * A1
        fi2 = 2.0 * Ab2 * Ko - qn * A2 * A2 - eps * qn
        constraint = Ko * Ko - eps * Ho * Ho - cross * cross
    return {"first-integral-1": fi1, "first-integral-2": fi2, "constraint": constraint}


def orthogonality_check(c: CoefficientFields) -> dict[str, np.ndarray]:
    """Residual of Abar1 Ko + Ho Abar2 - qn A1 A2 (pure pointwise algebra).

    Evaluated as the 4-vector form H1 K2 + H2 K1 + H3 Kc + K3 Hc of the
    membrane data (H1, K1) = (A1, A2), (H2, K2) = -(qn/2)(A1, A2),
    (H3, K3) = (Abar1, Abar2), (Hc, Kc) = (Ho, Ko), in that term order.
    """
    A1, A2, Ho, Ko = c.A1, c.A2, c.Ho, c.Ko
    half = -0.5 * c.qn
    with np.errstate(all="ignore"):
        res = A1 * (half * A2) + (half * A1) * A2 + c.Abar1 * Ko + c.Abar2 * Ho
    return {"orthogonality": res}
