"""Seed solutions (alpha, xi, h) of the governing systems for both kinds.

Three closed-form/ODE families are provided:

* ``cmc`` (1st kind): xi = 0, h = 1, alpha = a(x) with
  ``a'' + sinh(a) cosh(a) = 0`` -- a surface of constant mean curvature -1/2
  in conformal curvature-line coordinates (elliptic sinh-Gordon reduction).
* ``pseudospherical`` (2nd kind): xi = 0, h = 0, ``alpha = 2 arctan exp(z)``
  with ``z = (x - v y)/sqrt(1 - v^2)``, the sine-Gordon kink; a surface of
  constant Gauss curvature -1.
* ``liouville`` (2nd kind): alpha = pi/4 and ``exp(-xi) = a (x^2+y^2) + 1/(8a)``
  with the h branch integrated in closed form; the xi equation is the
  Liouville equation with separated variables.

Each family's builder returns its (alpha, xi, h) node arrays;
:func:`generate_seed` checks that they are finite and gives them the family's
kind, ``FAMILY_KINDS``, the one map from family to kind.

The constant fields (xi and h of ``cmc`` and ``pseudospherical``) are held as
broadcast scalars: read-only ``np.broadcast_to`` views with strides (0, 0),
which use no grid of memory and give every output of full arrays, bit for
bit.  The cmc alpha, which varies along x only, stays a full C-ordered array:
a strides-(8, 0) view would give derived temporaries another memory order,
over which the residual norms would sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeedError, FieldFormatError, ParameterError
from .fields import Grid2D, ScalarField
from .kernel import GoverningFields

__all__ = [
    "SeedSpec",
    "FAMILY_KINDS",
    "generate_seed",
    "sinh_gordon_profile",
]

FAMILY_KINDS = {"cmc": "first", "pseudospherical": "second", "liouville": "second"}

#: the (alpha, xi, h) node arrays a family's builder returns
Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]

#: RK4 steps of the cmc profile per grid interval (step dx/4)
PROFILE_SUBSTEPS = 4


@dataclass(frozen=True)
class SeedSpec:
    """Seed family, load and family-specific parameters.

    alpha0 is the cmc profile amplitude at the left edge, v the kink velocity
    (|v| < 1), (a, c1) the Liouville separation coefficient (a > 0) and the
    integration constant of its h branch.
    """

    family: str
    grid: Grid2D
    qn: float = 1.0
    alpha0: float = 1.0
    v: float = 0.0
    a: float = 0.5
    c1: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_KINDS:
            raise ParameterError(
                f"unknown seed family {self.family!r}; expected one of {sorted(FAMILY_KINDS)}"
            )
        if self.qn == 0.0:
            raise ParameterError("the normal load qn must be nonzero")

    @property
    def kind(self) -> str:
        return FAMILY_KINDS[self.family]

    def header(self) -> dict:
        """The field-file ``seed`` entry; :meth:`from_header` reads it back."""
        g = self.grid
        return {"family": self.family, "qn": self.qn,
                "domain": [g.x0, float(g.xs[-1]), g.y0, float(g.ys[-1])],
                "alpha0": self.alpha0, "v": self.v, "a": self.a, "c1": self.c1}

    @classmethod
    def from_header(cls, header: dict, nx: int, ny: int) -> "SeedSpec":
        """The seed of a field-file ``seed`` entry on an nx x ny grid of its domain.

        The header is file content, so a missing or invalid entry raises
        FieldFormatError.  Its numbers follow the field header's rule: finite
        JSON numbers (int or float), so strings and booleans are rejected.
        """
        from .fileio import _number  # imported here: only verify --refine reads a seed header

        bad = "bad seed header"
        try:
            x0, x1, y0, y1 = (_number(v, "domain entry", bad) for v in header["domain"])
            params = {k: _number(header[k], k, bad) for k in ("qn", "alpha0", "v", "a", "c1")}
            grid = Grid2D.from_domain(x0, x1, y0, y1, nx, ny)
            return cls(header["family"], grid, **params)
        except KeyError as exc:
            raise FieldFormatError(f"seed header has no {exc} entry") from exc
        except FieldFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise FieldFormatError(f"{bad}: {exc}") from exc


def sinh_gordon_profile(alpha0: float, dx: float, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Node values ``(a, a')`` of ``a'' = -sinh(a) cosh(a)``, ``a = alpha0``, ``a' = 0`` at node 0.

    Classical RK4 with ``PROFILE_SUBSTEPS`` steps per grid interval, so the
    ODE error is far below the finite-difference residual tolerances used
    elsewhere. Conserves ``a'^2 + sinh^2 a`` to ~1e-12.
    """
    a = np.empty(nx)
    b = np.empty(nx)
    a[0], b[0] = alpha0, 0.0
    h = dx / PROFILE_SUBSTEPS

    # RK4 on Python floats; np.sinh/np.cosh rather than math's, which differ
    # from numpy's in the last bit on many inputs and would move every cmc seed
    def rhs(av, bv):
        return bv, -float(np.sinh(av)) * float(np.cosh(av))

    av, bv = float(alpha0), 0.0
    # a diverging profile overflows quietly: generate_seed rejects it
    with np.errstate(over="ignore"):
        for i in range(1, nx):
            for _ in range(PROFILE_SUBSTEPS):
                k1a, k1b = rhs(av, bv)
                k2a, k2b = rhs(av + 0.5 * h * k1a, bv + 0.5 * h * k1b)
                k3a, k3b = rhs(av + 0.5 * h * k2a, bv + 0.5 * h * k2b)
                k4a, k4b = rhs(av + h * k3a, bv + h * k3b)
                av = av + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
                bv = bv + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            a[i], b[i] = av, bv
    return a, b


def _seed_cmc(spec: SeedSpec) -> Arrays:
    """Constant-mean-curvature seed of the 1st kind (xi = 0, h = 1).

    The stresses are isotropic and homogeneous, T1 = T2 = qn.
    """
    if spec.alpha0 == 0.0:
        raise DegenerateSeedError(
            "alpha0 = 0 gives a flat degenerate seed (vanishing third fundamental form)"
        )
    g = spec.grid
    profile, _ = sinh_gordon_profile(spec.alpha0, g.dx, g.nx)
    alpha = np.repeat(profile[:, None], g.ny, axis=1)
    return alpha, np.broadcast_to(0.0, g.shape), np.broadcast_to(1.0, g.shape)


def _seed_pseudospherical(spec: SeedSpec) -> Arrays:
    """Sine-Gordon kink seed of the 2nd kind (xi = 0, h = 0).

    beta = 2 alpha is the Lorentz-boosted kink of ``beta_xx - beta_yy = sin beta``.
    """
    if not abs(spec.v) < 1.0:
        raise ParameterError(f"kink velocity must satisfy |v| < 1, got {spec.v}")
    g = spec.grid
    X, Y = g.meshgrid()
    z = (X - spec.v * Y) / np.sqrt(1.0 - spec.v * spec.v)
    with np.errstate(over="ignore"):  # exp overflow saturates arctan at pi/2
        alpha = 2.0 * np.arctan(np.exp(z))
    zero = np.broadcast_to(0.0, g.shape)
    return alpha, zero, zero


def _seed_liouville(spec: SeedSpec) -> Arrays:
    """Separated Liouville seed of the 2nd kind (alpha = pi/4).

    ``u = exp(-xi) = a (x^2 + y^2) + 1/(8a)`` and
    ``h = (2 a y^2 + 1/(4a) + c1)/u - 1`` solve the h equations exactly.
    With c1 = 0 the column x = 0 has h = 1, where the stress T1 is singular;
    a small negative c1 (> -1/(4a)) keeps the whole grid regular.
    """
    if not spec.a > 0.0:
        raise ParameterError(f"liouville coefficient a must be positive, got {spec.a}")
    g = spec.grid
    a, c1 = spec.a, spec.c1
    X, Y = g.meshgrid()
    u = a * (X * X + Y * Y) + 1.0 / (8.0 * a)  # >= 1/(8a) > 0
    h = (2.0 * a * Y * Y + 1.0 / (4.0 * a) + c1) / u - 1.0
    return np.full(g.shape, np.pi / 4.0), -np.log(u), h


_GENERATORS = {
    "cmc": _seed_cmc,
    "pseudospherical": _seed_pseudospherical,
    "liouville": _seed_liouville,
}


def generate_seed(spec: SeedSpec) -> GoverningFields:
    """The seed of ``spec``, of its family's kind; a non-finite seed raises
    DegenerateSeedError."""
    arrays = _GENERATORS[spec.family](spec)
    # min and max carry any NaN or infinity, without a full-grid mask
    extremes = [r(v) for v in arrays for r in (np.min, np.max)]
    if not np.isfinite(extremes).all():
        raise DegenerateSeedError(f"the {spec.family} seed has non-finite values on this grid")
    alpha, xi, h = (ScalarField(spec.grid, v) for v in arrays)
    return GoverningFields(kind=spec.kind, qn=spec.qn, alpha=alpha, xi=xi, h=h)
