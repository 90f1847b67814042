"""Checks that membrane O surfaces sit inside Demoulin's Omega-surface class.

With kappa1 = -Ho/A1, kappa2 = -Ko/A2 the curvature-ratio identities

    R1 = (kappa1)_x / (kappa1 - kappa2) * A1/A2,
    R2 = (kappa2)_y / (kappa1 - kappa2) * A2/A1,

equal (-eps alpha_x, alpha_y), with the kind's sign eps = +1 (1st kind) or
-1 (2nd kind) of :data:`kernel.EPS`.  So the Omega equation
(R1)_y + eps^2 (R2)_x = 0 holds with Demoulin's eps^2 equal to that sign,
and no complex arithmetic is needed.

The 4-vector orthogonality form H1 K2 + H2 K1 + H3 Kc + K3 Hc reduces on
membrane data to Abar1 Ko + Ho Abar2 - qn A1 A2; that residual is the
``orthogonality`` entry of the kernel (:func:`kernel.orthogonality_check`).
"""

from __future__ import annotations

import numpy as np

from .fields import diff_x, diff_y
from .kernel import EPS, CoefficientFields, GoverningFields, principal_curvatures

__all__ = ["omega_ratios"]

#: relative umbilic guard: |kappa1 - kappa2| at or below this times
#: max(|kappa1|, |kappa2|) at the same node
EPS_UMBILIC = 1e-6


def omega_ratios(c: CoefficientFields, g: GoverningFields) -> dict[str, np.ndarray]:
    """Residual arrays of the Omega-surface Corollary identities.

    Umbilic nodes (|kappa1 - kappa2| not finite, or at most ``EPS_UMBILIC``
    times max(|kappa1|, |kappa2|) at that node) are NaN; membrane O surfaces
    of either kind are umbilic-free wherever the coefficients are finite, so
    this per-node guard only trips on degenerate data.
    """
    grid = c.grid
    k1, k2 = principal_curvatures(c)
    dk = k1 - k2
    scale = np.maximum(np.abs(k1), np.abs(k2))
    umbilic = ~np.isfinite(dk) | (np.abs(dk) <= EPS_UMBILIC * scale)
    del scale
    dk[umbilic] = np.nan
    A1, A2 = c.A1, c.A2
    with np.errstate(divide="ignore", invalid="ignore"):
        R1 = diff_x(k1, grid) / dk * (A1 / A2)
        del k1
        R2 = diff_y(k2, grid) / dk * (A2 / A1)
        del k2, dk
    eps = EPS[g.kind]
    combined = diff_y(R1, grid) + eps * diff_x(R2, grid)
    # the ratios become the residuals in place once combined has read them
    R1 += eps * diff_x(g.alpha.values, grid)
    R2 -= diff_y(g.alpha.values, grid)
    return {"omega-1": R1, "omega-2": R2, "omega-combined": combined}
