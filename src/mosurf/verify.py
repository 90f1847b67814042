"""Full residual verification of a governing triple against every equation.

The equation registry is fixed and versioned so reports are schema-stable:
thirteen core identifiers (governing system, Mainardi-Codazzi, net relations
for both the metric and dual coefficients, Gauss equation, membrane
equilibrium) plus six extended entries (first integrals, quadric constraint,
orthogonality, Omega-surface ratios).  :func:`verify_refined` is the
``verify`` command's one entry: the report of a triple and, under grid
refinement of its seed, the measured convergence order of each entry; it
owns the rules of refinement too.  Reports hold norms, not verdicts.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import FieldFormatError, ParameterError
from .kernel import (
    GoverningFields,
    ResidualReport,
    coefficients_from_governing,
    equilibrium_residuals,
    first_integral_check,
    gauss_codazzi_residuals,
    governing_residuals,
    orthogonality_check,
    residual_stats,
)
from .omega import omega_ratios
from .seeds import SeedSpec, generate_seed

__all__ = [
    "REGISTRY_VERSION",
    "CORE_EQUATIONS",
    "EXTENDED_EQUATIONS",
    "ALGEBRAIC_EQUATIONS",
    "verify_governing",
    "convergence_orders",
    "verify_refined",
]

REGISTRY_VERSION = 1

CORE_EQUATIONS = (
    "governing-1",
    "governing-2",
    "governing-3",
    "codazzi-H",
    "codazzi-K",
    "net-A1",
    "net-A2",
    "net-Abar1",
    "net-Abar2",
    "gauss",
    "equilibrium-1",
    "equilibrium-2",
    "equilibrium-3",
)

EXTENDED_EQUATIONS = (
    "first-integral-1",
    "first-integral-2",
    "constraint",
    "orthogonality",
    "omega-1",
    "omega-2",
)

#: entries that are pure pointwise algebra (no grid derivatives): identities of
#: the coefficient build on every triple, so they read round-off, not O(h^2)
ALGEBRAIC_EQUATIONS = (
    "equilibrium-3",
    "first-integral-1",
    "first-integral-2",
    "constraint",
    "orthogonality",
)


def verify_governing(g: GoverningFields) -> ResidualReport:
    """All 19 registry residuals of one governing triple, then ``omega-combined``.

    Each family is reduced to norms before the next one runs.  The governing
    family reads the triple alone and runs before the coefficient bundle is
    built, so beyond the triple the peak memory is the larger of the governing
    family's arrays and the bundle plus one other family's residual arrays.
    """
    report = ResidualReport(g.grid)

    def add(residuals: dict[str, np.ndarray]) -> None:
        report.entries.update((name, residual_stats(v, g.grid)) for name, v in residuals.items())

    add(governing_residuals(g))
    c = coefficients_from_governing(g)
    add(gauss_codazzi_residuals(c))
    add(equilibrium_residuals(c))
    add(first_integral_check(c))
    add(orthogonality_check(c))
    add(omega_ratios(c, g))
    return report


#: residual norms at or below this are treated as exact (no error term)
EXACT_FLOOR = 1e-12


def convergence_orders(reports: list[ResidualReport]) -> dict[str, float | None]:
    """Measured L-infinity order between consecutive grid-halved reports.

    Entries whose residuals sit at or below ``EXACT_FLOOR`` on either grid are
    exact identities (reported as None: there is no error term to measure).
    With more than two reports the last pair is used.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to measure an order")
    coarse, fine = reports[-2], reports[-1]
    orders: dict[str, float | None] = {}
    for name in fine.entries:
        a = coarse[name].linf
        b = fine[name].linf
        if b <= EXACT_FLOOR or a <= EXACT_FLOOR:
            orders[name] = None
        else:
            orders[name] = float(np.log2(a / b))
    return orders


def verify_refined(g: GoverningFields, seed: dict | None, levels: int
                   ) -> tuple[ResidualReport, dict[str, float | None] | None]:
    """The report of ``g`` and, if ``levels`` > 0, the :func:`convergence_orders`
    of ``levels`` halvings (n -> 2n - 1 a side) of its grid, on which the
    field-file seed header ``seed`` is regenerated; the orders read the last
    two grids only, so only those are seeded and verified.

    Before any residual is evaluated, a negative ``levels`` or a finest grid
    of more than ``sys.maxsize`` nodes raises ParameterError, and a missing
    header, or one that gives no seed on a refined grid, FieldFormatError:
    the header is file content.
    """
    def halved(k: int) -> list[int]:
        # 2^k (n - 1) + 1 nodes a side; k is capped at 64, where one side
        # alone is too many, so that no huge int is formed
        return [((n - 1) << min(k, 64)) + 1 for n in g.grid.shape]

    if levels < 0:
        raise ParameterError(f"refinement levels must be >= 0, got {levels}")
    nx, ny = halved(levels)
    if nx * ny > sys.maxsize:
        raise ParameterError(f"{levels} refinement levels ask for a grid of more than "
                             f"{sys.maxsize} nodes")
    if levels > 0 and seed is None:
        raise FieldFormatError("refinement requires a seed header to regenerate fields")
    try:
        seeds = [generate_seed(SeedSpec.from_header(seed, *halved(k)))
                 for k in range(max(1, levels - 1), levels + 1)]
    except ParameterError as exc:
        raise FieldFormatError(f"bad seed header: {exc}") from exc
    reports = [verify_governing(g)]
    while seeds:  # each seed is dropped once it is verified
        reports.append(verify_governing(seeds.pop(0)))
    return reports[0], convergence_orders(reports) if levels else None
