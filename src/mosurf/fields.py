"""Uniform rectangular grids, scalar/vector fields, and finite-difference calculus.

Conventions used throughout the package:

* a field value array has shape ``(nx, ny)`` and is indexed ``[i, j]`` with
  ``i`` the x index and ``j`` the y index;
* serialization is row-major in x-fastest order, i.e. ``values.ravel(order="F")``;
* fields are immutable after construction, every operation returns a new field.

Derivatives are second-order central stencils in the interior with
second-order one-sided closures on the boundary rows/columns, so every
derivative-based residual in the package is uniformly O(h^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FieldFormatError, GridError

__all__ = [
    "Grid2D",
    "ScalarField",
    "Vec3Field",
    "partial_x",
    "partial_y",
    "norms",
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

    def refined(self) -> "Grid2D":
        """Same domain with both spacings halved (nx -> 2 nx - 1)."""
        return Grid2D(2 * self.nx - 1, 2 * self.ny - 1, self.x0, self.y0, self.dx / 2, self.dy / 2)

    @property
    def hmax(self) -> float:
        return max(self.dx, self.dy)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """A real scalar sampled on every node of a :class:`Grid2D`."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise FieldFormatError(
                f"field shape {v.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "values", _freeze(v.copy()))

    @classmethod
    def from_function(cls, grid: Grid2D, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField":
        X, Y = grid.meshgrid()
        return cls(grid, np.broadcast_to(np.asarray(fn(X, Y), dtype=float), grid.shape))

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls.constant(grid, 0.0)

    def like(self, values: np.ndarray) -> "ScalarField":
        """New field on the same grid."""
        return ScalarField(self.grid, values)

    def assert_finite(self, name: str = "field") -> "ScalarField":
        bad = ~np.isfinite(self.values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            flat = j * self.grid.nx + i  # x-fastest flat index
            raise FieldFormatError(
                f"non-finite value in {name!r} at node (i={i}, j={j}), flat index {flat}"
            )
        return self


@dataclass(frozen=True)
class Vec3Field:
    """A 3-vector sampled on every node of a :class:`Grid2D`."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape + (3,):
            raise FieldFormatError(
                f"vector field shape {v.shape} does not match grid {self.grid.shape} + (3,)"
            )
        object.__setattr__(self, "values", _freeze(v.copy()))


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
    return f.like(_diff(f.values, f.grid.dx, axis=0))


def partial_y(f: ScalarField) -> ScalarField:
    """d/dy of a scalar field; exact on polynomials of degree <= 2 in y."""
    return f.like(_diff(f.values, f.grid.dy, axis=1))


def diff_x(values: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Array-level d/dx for internal use (NaN entries poison their stencils)."""
    return _diff(values, grid.dx, axis=0)


def diff_y(values: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Array-level d/dy for internal use."""
    return _diff(values, grid.dy, axis=1)


def norms(f: ScalarField) -> tuple[float, float]:
    """``(linf, l2)`` with ``l2 = sqrt(sum f_ij^2 dx dy)``.

    Summation order is fixed (per x-row, then across rows) so results are
    reproducible across runs.
    """
    v = f.values
    linf = float(np.max(np.abs(v))) if v.size else 0.0
    l2 = float(np.sqrt((v * v).sum(axis=0).sum() * f.grid.dx * f.grid.dy))
    return linf, l2
