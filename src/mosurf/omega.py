"""Checks that membrane O surfaces sit inside Demoulin's Omega-surface class.

With kappa1 = -Ho/A1, kappa2 = -Ko/A2 the curvature-ratio identities

    R1 = (kappa1)_x / (kappa1 - kappa2) * A1/A2,
    R2 = (kappa2)_y / (kappa1 - kappa2) * A2/A1,

equal (-eps alpha_x, alpha_y), with the sign eps = +1 (1st kind) or -1 (2nd
kind, :data:`kernel.EPS`) of the coefficient bundle's kind.  So the Omega
equation (R1)_y + eps^2 (R2)_x = 0 holds with Demoulin's eps^2 equal to that
sign, and no complex arithmetic is needed.

The 4-vector orthogonality form H1 K2 + H2 K1 + H3 Kc + K3 Hc reduces on
membrane data to Abar1 Ko + Ho Abar2 - qn A1 A2; that residual is the
``orthogonality`` entry of the kernel (:func:`kernel.orthogonality_check`).
"""

from __future__ import annotations

import numpy as np

from .fields import diff_x, diff_y
from .kernel import EPS, CoefficientFields, GoverningFields, principal_curvatures

__all__ = ["omega_ratios", "umbilic_count"]

#: relative umbilic guard: |kappa1 - kappa2| at or below this times
#: max(|kappa1|, |kappa2|) at the same node
EPS_UMBILIC = 1e-6


def _umbilic(k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """The umbilic nodes: kappa1 - kappa2 is finite and at most
    ``EPS_UMBILIC`` times max(|kappa1|, |kappa2|) at that node."""
    with np.errstate(all="ignore"):
        bound = np.maximum(np.abs(k1), np.abs(k2))
        bound *= EPS_UMBILIC
        dk = k1 - k2
        return np.isfinite(dk) & (np.abs(dk) <= bound)


def umbilic_count(c: CoefficientFields) -> int:
    """The number of umbilic nodes of ``c``, those the Omega ratios exclude
    although kappa1 - kappa2 is finite there."""
    return int(_umbilic(*principal_curvatures(c)).sum())


def omega_ratios(c: CoefficientFields, g: GoverningFields) -> dict[str, np.ndarray]:
    """Residual arrays of the Omega-surface Corollary identities of ``c``,
    with alpha from ``g``, the triple that ``c`` was built from.

    The ratios are NaN where kappa1 - kappa2 is not finite and at the
    umbilic nodes; membrane O surfaces of either kind are umbilic-free
    wherever the coefficients are finite, so this per-node guard only trips
    on degenerate data.
    """
    grid, eps, A1, A2 = c.grid, EPS[c.kind], c.A1, c.A2
    k1, k2 = principal_curvatures(c)
    umbilic = _umbilic(k1, k2)
    with np.errstate(all="ignore"):
        dk = k1 - k2
        dk[umbilic | ~np.isfinite(dk)] = np.nan
        del umbilic
        R1 = diff_x(k1, grid) / dk * (A1 / A2)
        del k1
        R2 = diff_y(k2, grid) / dk * (A2 / A1)
        del k2, dk
        combined = diff_y(R1, grid) + eps * diff_x(R2, grid)
        # the ratios become the residuals in place once combined has read them
        R1 += eps * diff_x(g.alpha.values, grid)
        R2 -= diff_y(g.alpha.values, grid)
    return {"omega-1": R1, "omega-2": R2, "omega-combined": combined}
