"""Uniform rectangular grids, scalar/vector fields, and finite-difference calculus.

Conventions used throughout the package:

* a field value array has shape ``(nx, ny)`` and is indexed ``[i, j]`` with
  ``i`` the x index and ``j`` the y index;
* serialization is row-major in x-fastest order, i.e. ``values.ravel(order="F")``;
* :class:`ScalarField` and :class:`Vec3Field`, like the internal bundles
  (:func:`freeze_arrays`), hold read-only views of the arrays they are given
  and do not copy them (only a non-float array is converted).

Derivatives are second-order central stencils in the interior with
second-order one-sided closures on the boundary rows/columns, so every
derivative-based residual in the package is uniformly O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .errors import FieldFormatError, GridError

__all__ = [
    "Grid2D",
    "ScalarField",
    "Vec3Field",
    "partial_x",
    "partial_y",
    "freeze_arrays",
    "max_skipping_nan",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor-product grid with nodes ``x_i = x0 + i dx``, ``y_j = y0 + j dy``."""

    nx: int
    ny: int
    x0: float = 0.0
    y0: float = 0.0
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 3 or self.ny < 3:
            raise GridError(
                f"grid too small for central differences: {self.nx} x {self.ny} (need >= 3 x 3)"
            )
        if not (self.dx > 0.0 and self.dy > 0.0):
            raise GridError(f"grid spacings must be positive: dx={self.dx}, dy={self.dy}")
        # the second-difference stencils weigh by 1/h^2; a spacing whose
        # weight overflows (h = 1e-300) or vanishes (h = 1e307) is absurd
        with np.errstate(over="ignore", divide="ignore"):
            weights = 1.0 / np.square([float(self.dx), float(self.dy)])
        if not (np.isfinite(weights).all() and (weights > 0.0).all()):
            raise GridError(
                f"grid spacings out of range (1/h^2 must be finite and nonzero): "
                f"dx={self.dx}, dy={self.dy}"
            )

    @classmethod
    def from_domain(
        cls, x0: float, x1: float, y0: float, y1: float, nx: int, ny: int
    ) -> "Grid2D":
        """Grid covering ``[x0, x1] x [y0, y1]`` inclusively with nx x ny nodes."""
        if not (x1 > x0 and y1 > y0):
            raise GridError(f"empty domain: [{x0}, {x1}] x [{y0}, {y1}]")
        return cls(nx, ny, x0, y0, (x1 - x0) / (nx - 1), (y1 - y0) / (ny - 1))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays ``(X, Y)`` of shape ``(nx, ny)``."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    @property
    def hmax(self) -> float:
        return max(self.dx, self.dy)


def max_skipping_nan(values: np.ndarray) -> float:
    """Max of the entries that are not NaN, NaN only if all are: numpy's
    ``nanmax`` to the bit (it is ``fmax.reduce``), with no mask and without
    its all-NaN warning."""
    return float(np.fmax.reduce(values, axis=None))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def freeze_arrays(bundle) -> None:
    """``__post_init__`` of a frozen dataclass: its arrays become read-only views."""
    for f in fields(bundle):
        v = getattr(bundle, f.name)
        if isinstance(v, np.ndarray):
            object.__setattr__(bundle, f.name, _freeze(v.view()))


@dataclass(frozen=True)
class _NodeField:
    """Values on every node of a :class:`Grid2D`, shape ``grid.shape + TRAILING``."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    TRAILING: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        expected = self.grid.shape + self.TRAILING
        if v.shape != expected:
            raise FieldFormatError(
                f"{type(self).__name__} shape {v.shape} does not match grid "
                f"{self.grid.shape}: expected {expected}"
            )
        object.__setattr__(self, "values", _freeze(v.view()))


class ScalarField(_NodeField):
    """A real scalar sampled on every node of a :class:`Grid2D`."""


class Vec3Field(_NodeField):
    """A 3-vector sampled on every node of a :class:`Grid2D`."""

    TRAILING = (3,)


def _diff(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order derivative along ``axis``: central interior, one-sided boundary.

    The one-sided closures are written as differences of differences so that
    constant fields differentiate to exactly zero in floating point.
    """
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (4.0 * (v[1] - v[0]) - (v[2] - v[0])) / (2.0 * h)
    out[-1] = (4.0 * (v[-1] - v[-2]) - (v[-1] - v[-3])) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def partial_x(f: ScalarField) -> ScalarField:
    """d/dx of a scalar field; exact on polynomials of degree <= 2 in x."""
    return ScalarField(f.grid, _diff(f.values, f.grid.dx, axis=0))


def partial_y(f: ScalarField) -> ScalarField:
    """d/dy of a scalar field; exact on polynomials of degree <= 2 in y."""
    return ScalarField(f.grid, _diff(f.values, f.grid.dy, axis=1))


def diff_x(values: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Array-level d/dx for internal use (NaN entries poison their stencils)."""
    return _diff(values, grid.dx, axis=0)


def diff_y(values: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Array-level d/dy for internal use."""
    return _diff(values, grid.dy, axis=1)
