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
    # the trailing shape is checked too: () for scalars, (3,) for vectors
    for trailing in ((2,), (3, 1), (4,)):
        with pytest.raises(FieldFormatError):
            Vec3Field(g, np.zeros((5, 4) + trailing))
    with pytest.raises(FieldFormatError):
        ScalarField(g, np.zeros((5, 4, 3)))
    with pytest.raises(FieldFormatError):
        ScalarField(g, np.zeros((5, 4, 1)))


def test_fields_are_immutable():
    g = Grid2D(5, 5)
    for f in (ScalarField(g, np.zeros(g.shape)), Vec3Field(g, np.zeros(g.shape + (3,)))):
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


def test_fields_hold_views_of_float_arrays():
    g = Grid2D(5, 4)
    for values in (np.arange(20.0).reshape(5, 4), np.arange(60.0).reshape(5, 4, 3)):
        f = (ScalarField if values.ndim == 2 else Vec3Field)(g, values)
        assert np.shares_memory(f.values, values)
        assert values.flags.writeable  # the caller's array is not frozen
        values[0, 0] = -1.0
        assert np.all(f.values[0, 0] == -1.0)


def test_fields_convert_int_arrays():
    g = Grid2D(5, 4)
    ints = np.arange(20).reshape(5, 4)
    f = ScalarField(g, ints)
    assert f.values.dtype == np.float64 and not np.shares_memory(f.values, ints)
    assert np.array_equal(f.values, ints)
    v = Vec3Field(g, np.ones((5, 4, 3), dtype=np.int32))
    assert v.values.dtype == np.float64 and np.all(v.values == 1.0)


def test_derivative_of_constant_is_zero():
    g = Grid2D.from_domain(0, 1, 0, 1, 7, 9)
    f = ScalarField(g, np.full(g.shape, 3.7))
    assert np.all(partial_x(f).values == 0.0)
    assert np.all(partial_y(f).values == 0.0)


def test_linear_exactness_everywhere():
    g = Grid2D.from_domain(0, 2, 0, 3, 11, 13)
    X, Y = g.meshgrid()
    fx, fy = ScalarField(g, X), ScalarField(g, Y)
    assert np.allclose(partial_x(fx).values, 1.0, atol=1e-14)
    assert np.allclose(partial_y(fy).values, 1.0, atol=1e-14)


def test_quadratic_exactness_including_boundary():
    # both the central stencil and the 3-point one-sided closure are exact
    # on degree-2 polynomials
    g = Grid2D.from_domain(-1, 1, -1, 1, 9, 9)
    X, _ = g.meshgrid()
    f = ScalarField(g, 2.0 * X * X - X + 0.5)
    assert np.allclose(partial_x(f).values, 4.0 * X - 1.0, atol=1e-12)


def test_analytic_derivative_convergence():
    errs = []
    for n in (101, 201):
        g = Grid2D.from_domain(0, 2 * np.pi, 0, 2 * np.pi, n, 11)
        X, _ = g.meshgrid()
        f = ScalarField(g, np.sin(X))
        errs.append(np.max(np.abs(partial_x(f).values - np.cos(X))))
    assert errs[0] < 5e-3
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_partial_y_analytic():
    g = Grid2D.from_domain(0, 1, 0, 2 * np.pi, 5, 101)
    _, Y = g.meshgrid()
    f = ScalarField(g, np.cos(Y))
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
