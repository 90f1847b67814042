"""Direct tests of the two-pass RK4 sweep."""

import numpy as np
import pytest

from mosurf.fields import Grid2D
from mosurf.sweep import sweep_grid

# d/dx = a(x) = A + C x and d/dy = b(y) = B + D y; linear interpolation of
# the node coefficients is exact for them, so the sweep is plain RK4
A, B, C, D = 0.7, -1.3, 0.9, 0.6


def scalar_generator(k):
    """1x1 generator of d(state) = k state."""
    return np.asarray(k)[..., None, None]


def exp_sweep(n, state0, order):
    grid = Grid2D.from_domain(0, 1, 0, 1, n, n)
    X, Y = grid.meshgrid()
    out = sweep_grid(grid, (A + C * X,), scalar_generator, (B + D * Y,), scalar_generator,
                     state0, order=order)
    exact = np.exp(A * X + C * X**2 / 2 + B * Y + D * Y**2 / 2)
    return out.reshape(grid.shape), exact


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_scalar_generators_give_exponential(order):
    errs = {}
    for n in (11, 21):
        vec, exact = exp_sweep(n, np.ones(1), order)
        mat, _ = exp_sweep(n, np.ones((1, 1)), order)
        assert np.array_equal(vec, mat)
        errs[n] = np.max(np.abs(vec / exact - 1.0))
    assert errs[21] < 1e-6
    assert np.log2(errs[11] / errs[21]) > 3.8  # RK4: fourth order


def rotation_generator(a):
    """2x2 generator of d(state) = a J state, J the quarter turn."""
    a = np.asarray(a)
    G = np.zeros(a.shape + (2, 2))
    G[..., 0, 1] = -a
    G[..., 1, 0] = a
    return G


@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("state0", [
    np.array([1.0, -0.5]),
    np.array([[1.0, -0.5], [0.25, 2.0], [-1.5, 0.0]]),
], ids=["vector", "matrix"])
def test_sweep_leaves_state0_unchanged(state0, order):
    # the stages advance the march's own copy in place; the caller's array
    # must not be written, so a second call gives the same bits
    grid = Grid2D.from_domain(0, 1, 0, 1, 9, 7)
    X, Y = grid.meshgrid()
    before = state0.copy()
    runs = [sweep_grid(grid, (A + C * X,), rotation_generator, (B + D * Y,),
                       rotation_generator, state0, order=order, substeps=2)
            for _ in range(2)]
    assert np.array_equal(state0, before)
    assert runs[0].tobytes() == runs[1].tobytes()
    assert np.array_equal(runs[0][0, 0], before)
    assert not np.array_equal(runs[0][-1, -1], before)


def test_sweep_rejects_unknown_order():
    with pytest.raises(ValueError):
        exp_sweep(5, np.ones(1), "zz")
