"""Grid, field and finite-difference calculus tests."""

import numpy as np
import pytest

from mosurf.errors import FieldFormatError, GridError
from mosurf.fields import Grid2D, ScalarField, Vec3Field, partial_x, partial_y


def test_grid_validation():
    with pytest.raises(GridError):
        Grid2D(2, 10)
    with pytest.raises(GridError):
        Grid2D(10, 2)
    with pytest.raises(GridError):
        Grid2D(10, 10, dx=0.0)
    with pytest.raises(GridError):
        Grid2D.from_domain(1.0, 1.0, 0.0, 1.0, 5, 5)
    # the stencil weight 1/h^2 must be finite and nonzero
    for h in (1e-300, 1e307):
        with pytest.raises(GridError, match="out of range"):
            Grid2D(10, 10, dx=h)
        with pytest.raises(GridError, match="out of range"):
            Grid2D(10, 10, dy=h)
    with pytest.raises(GridError):
        Grid2D.from_domain(0.0, 1e308, 0.0, 1.0, 5, 5)
    assert Grid2D(10, 10, dx=1e-150, dy=1e150).dx == 1e-150


def test_grid_from_domain():
    g = Grid2D.from_domain(0.0, 2.0, -1.0, 1.0, 201, 101)
    assert g.dx == pytest.approx(0.01)
    assert g.dy == pytest.approx(0.02)
    assert g.xs[-1] == pytest.approx(2.0)
    assert g.ys[0] == -1.0


def test_field_shape_checks():
    g = Grid2D(5, 4)
    with pytest.raises(FieldFormatError):
        ScalarField(g, np.zeros((4, 5)))
    with pytest.raises(FieldFormatError):
        Vec3Field(g, np.zeros((5, 4)))


def test_fields_are_immutable():
    g = Grid2D(5, 5)
    f = ScalarField.zeros(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_derivative_of_constant_is_zero():
    g = Grid2D.from_domain(0, 1, 0, 1, 7, 9)
    f = ScalarField.constant(g, 3.7)
    assert np.all(partial_x(f).values == 0.0)
    assert np.all(partial_y(f).values == 0.0)


def test_linear_exactness_everywhere():
    g = Grid2D.from_domain(0, 2, 0, 3, 11, 13)
    fx = ScalarField.from_function(g, lambda x, y: x)
    fy = ScalarField.from_function(g, lambda x, y: y)
    assert np.allclose(partial_x(fx).values, 1.0, atol=1e-14)
    assert np.allclose(partial_y(fy).values, 1.0, atol=1e-14)


def test_quadratic_exactness_including_boundary():
    # both the central stencil and the 3-point one-sided closure are exact
    # on degree-2 polynomials
    g = Grid2D.from_domain(-1, 1, -1, 1, 9, 9)
    f = ScalarField.from_function(g, lambda x, y: 2.0 * x * x - x + 0.5)
    X, _ = g.meshgrid()
    assert np.allclose(partial_x(f).values, 4.0 * X - 1.0, atol=1e-12)


def test_analytic_derivative_convergence():
    errs = []
    for n in (101, 201):
        g = Grid2D.from_domain(0, 2 * np.pi, 0, 2 * np.pi, n, 11)
        f = ScalarField.from_function(g, lambda x, y: np.sin(x))
        X, _ = g.meshgrid()
        errs.append(np.max(np.abs(partial_x(f).values - np.cos(X))))
    assert errs[0] < 5e-3
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_partial_y_analytic():
    g = Grid2D.from_domain(0, 1, 0, 2 * np.pi, 5, 101)
    f = ScalarField.from_function(g, lambda x, y: np.cos(y))
    _, Y = g.meshgrid()
    assert np.max(np.abs(partial_y(f).values + np.sin(Y))) < 5e-3


def test_derivative_linearity():
    rng = np.random.default_rng(42)
    g = Grid2D.from_domain(0, 1, 0, 1, 12, 9)
    f = ScalarField(g, rng.standard_normal(g.shape))
    h = ScalarField(g, rng.standard_normal(g.shape))
    a, b = 2.25, -0.5  # exactly representable scalings
    combo = ScalarField(g, a * f.values + b * h.values)
    lhs = partial_x(combo).values
    rhs = a * partial_x(f).values + b * partial_x(h).values
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)
