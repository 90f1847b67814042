"""Direct tests of the two-pass RK4 sweep."""

from functools import partial

import numpy as np
import pytest

from mosurf import backlund, frames, sweep
from mosurf.fields import Grid2D
from mosurf.sweep import sweep_grid

# d/dx = a(x) = A + C x and d/dy = b(y) = B + D y; linear interpolation of
# the node coefficients is exact for them, so the sweep is plain RK4
A, B, C, D = 0.7, -1.3, 0.9, 0.6


def scalar_generator(k, out=None):
    """1x1 generator of d(state) = k state, component-first."""
    if out is None:
        return np.asarray(k)[None, None]
    out[0, 0] = k
    return out


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
        got, exact = exp_sweep(n, np.ones((1, 1)), order)
        errs[n] = np.max(np.abs(got / exact - 1.0))
    assert errs[21] < 1e-6
    assert np.log2(errs[11] / errs[21]) > 3.8  # RK4: fourth order


def rotation_generator(a, out=None):
    """2x2 generator of d(state) = a J state, J the quarter turn."""
    a = np.asarray(a)
    G = np.zeros((2, 2) + a.shape) if out is None else out
    G[0, 1] = -a
    G[1, 0] = a
    return G


@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("state0", [
    np.array([[1.0, -0.5]]),
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
        exp_sweep(5, np.ones((1, 1)), "zz")


# -- the frozen arithmetic: step matrices on the first row, staged columns --

def step_matrix_row(state0, h, gen, line, substeps):
    """Frozen first-row march by RK4 step matrices.

    The start, midpoint and end generators of every (interval, substep) step
    come from one builder call per stage kind, the steps in order on the last
    axis.  With U = G[:, :n]: A1 = I + hs/2 Ua, A2 = I + hs/2 A1 Um,
    A3 = I + hs A2 Um, Q = hs/6 (Ga + 2 (A1 + A2) Gm + A3 Gb), and each step
    is S += S[:, :n] Q.  Returns the states at the line's nodes after the first.
    """
    hs = h / substeps
    c = np.stack(line)
    c0, c1 = c[:, :-1, None], c[:, 1:, None]

    def build(coeffs):
        g = gen(*coeffs)
        return g.reshape(g.shape[:2] + (-1,))

    def stage(thetas):
        return build(np.concatenate(
            [c1 if t >= 1.0 else (1.0 - t) * c0 + t * c1 for t in thetas], axis=-1))

    gm = stage([(s + 0.5) / substeps for s in range(substeps)])
    gb = stage([(s + 1.0) / substeps for s in range(substeps)])
    ga = np.concatenate([build(c[:, :1]), gb[:, :, :-1]], axis=2)
    n, d = gb.shape[:2]

    def mul(a, b):
        return np.einsum("ijt,jkt->ikt", a, b)

    eye = np.eye(n)[..., None]
    a1 = eye + (0.5 * hs) * ga[:, :n]
    a2 = eye + (0.5 * hs) * mul(a1, gm[:, :n])
    a3 = eye + hs * mul(a2, gm[:, :n])
    q = (hs / 6.0) * (ga + 2.0 * mul(a1 + a2, gm) + mul(a3, gb))
    state, rows = state0, []
    for t in range(q.shape[2]):
        state = state + np.matmul(state[:, :n], q[:, :, t])
        if (t + 1) % substeps == 0:
            rows.append(state)
    return np.array(rows)


def per_interval_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order, substeps,
                       rule, layout, step_matrices=False):
    """Two-pass RK4 sweep that builds the generators of one RK4 step at a time.

    ``rule`` is the state's product rule and ``layout`` is "component" (state
    shape + (m,), batch axis last) or "node" ((m,) + state shape, batch axis
    first); the row march has no batch axis in the node layout.  In the
    component layout a step's midpoint and end generators come from one
    builder call over both points, so, as in the sweep's blocks, every
    generator after a line's first is a strided slice.
    With ``step_matrices`` the first row is marched by ``step_matrix_row``.
    """

    def march(state0, h, gen, nodes, rule):
        hs = h / substeps
        state = np.array(state0, dtype=float, order="C")
        k1, k2, k3, k4, arg, acc = (np.empty_like(state) for _ in range(6))

        def point(c0, c1, theta):
            return c1 if theta >= 1.0 else (1.0 - theta) * c0 + theta * c1

        def pair(c0, c1, s):
            cm, cb = point(c0, c1, (s + 0.5) / substeps), point(c0, c1, (s + 1.0) / substeps)
            if layout == "node":
                return gen(*cm), gen(*cb)
            g = gen(*np.stack([cm, cb], axis=1))
            return g[:, :, 0], g[:, :, 1]

        def stage(k, scale):
            return np.add(state, np.multiply(k, scale, out=arg), out=arg)

        c0 = next(nodes)
        ga = gen(*c0)
        for c1 in nodes:
            for s in range(substeps):
                gm, gb = pair(c0, c1, s)
                rule(ga, state, k1)
                rule(gm, stage(k1, 0.5 * hs), k2)
                rule(gm, stage(k2, 0.5 * hs), k3)
                rule(gb, stage(k3, hs), k4)
                np.multiply(k2, 2.0, out=acc)
                acc += k1
                acc += np.multiply(k3, 2.0, out=arg)
                acc += k4
                acc *= hs / 6.0
                state += acc
                ga = gb
            c0 = c1
            yield state

    state0 = np.asarray(state0, dtype=float)
    out = np.empty(grid.shape + state0.shape)
    fill, hx, hy = out, grid.dx, grid.dy
    if order == "yx":
        fill, hx, hy = out.swapaxes(0, 1), grid.dy, grid.dx
        coeffs_x, gen_x, coeffs_y, gen_y = (
            tuple(v.T for v in coeffs_y), gen_y, tuple(v.T for v in coeffs_x), gen_x)
    fill[0, 0] = state0
    columns = (np.stack([v[:, j] for v in coeffs_y]) for j in range(fill.shape[1]))
    if layout == "component":
        if step_matrices:
            fill[1:, 0] = step_matrix_row(state0, hx, gen_x, [v[:, 0] for v in coeffs_x],
                                          substeps)
        else:
            row = (np.stack([v[i, :1] for v in coeffs_x]) for i in range(fill.shape[0]))
            for i, state in enumerate(march(state0[..., None], hx, gen_x, row, rule), 1):
                fill[i, 0] = state[..., 0]
        cols = np.moveaxis(fill, 0, -1)
        for j, batch in enumerate(march(cols[0], hy, gen_y, columns, rule), 1):
            cols[j] = batch
    else:
        row = np.stack([v[:, 0] for v in coeffs_x], axis=-1)
        for i, state in enumerate(march(state0, hx, gen_x, iter(row), rule), 1):
            fill[i, 0] = state
        for j, batch in enumerate(march(fill[:, 0], hy, gen_y, columns, rule), 1):
            fill[:, j] = batch
    return out


def component_rule(G, S, out):
    """The component-first product: a dense (n, d) + batch generator,
    ``einsum`` over the leading axes."""
    return np.einsum("aj...,jk...->ak...", S[:, : G.shape[0]], G, out=out)


def reference_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order, substeps):
    """Frozen sweep: the first row by step matrices, the columns by staged
    per-interval steps on the component-first contract.  ``sweep_grid`` must
    reproduce its every bit, whatever its block sizes."""
    return per_interval_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order,
                              substeps, component_rule, "component", step_matrices=True)


def staged_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order, substeps):
    """The sweep before the first row took step matrices: staged RK4 steps on
    every line, the row as one component-major line (m = 1)."""
    return per_interval_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order,
                              substeps, component_rule, "component")


def node_major_sweep(grid, coeffs_x, gen_x, coeffs_y, gen_y, state0, order, substeps):
    """The node-major contract the sweep had before: generators (..., n, d),
    states with the batch axis first, ``matmul`` for the products."""

    def node_major(gen):  # contiguous, as the old builders wrote them
        return lambda *c: np.ascontiguousarray(np.moveaxis(gen(*c), (0, 1), (-2, -1)))

    def rule(G, S, out):
        return np.matmul(S[..., : G.shape[-2]], G, out=out)

    return per_interval_sweep(grid, coeffs_x, node_major(gen_x), coeffs_y, node_major(gen_y),
                              state0, order, substeps, rule, "node")


def lax_like_x(p, Ho, A1, Abar1, m=0.8, qn=1.3, out=None):
    """The 5x5 Lax generator pattern along x, in row form: the generator of
    the one-row state of a vector system."""
    L = np.zeros((5, 5) + np.shape(p)) if out is None else out
    L[1, 0] = -p
    L[2, 0] = m * Abar1 - Ho
    L[3, 0] = -m * qn * A1
    L[4, 0] = m * Ho
    L[0, 1] = p
    L[0, 2] = Ho
    L[0, 3] = A1
    L[0, 4] = Abar1
    return L


def triple_like_y(q, Ko, A2, Abar2, out=None):
    """A 3x6 generator (frame plus surface triple, matrix state)."""
    G = np.zeros((3, 6) + np.shape(q)) if out is None else out
    G[0, 1] = -q
    G[1, 0] = q
    G[1, 2] = Ko
    G[2, 1] = -Ko
    G[1, 3] = Ko
    G[1, 4] = A2
    G[1, 5] = Abar2
    return G


#: coefficient slots that may be NaN: an Abar, which only the rbar column of
#: the matrix state reads (as at a stress-flagged node), and p/q, a frame one
TRIPLE_ONLY, FRAME = 3, 0


def random_coefficients(grid, nan_node=None, slot=TRIPLE_ONLY):
    rng = np.random.default_rng(grid.nx * 1000 + grid.ny)
    cs = [rng.uniform(-2.0, 2.0, grid.shape) for _ in range(8)]
    if nan_node is not None:
        cs[slot][nan_node] = np.nan
        cs[slot + 4][nan_node] = np.nan
    return tuple(cs[:4]), tuple(cs[4:])


#: "vector" is a vector system, the Lax shape, swept as its one-row state
STATES = {
    "vector": (np.array([[0.3, -0.1, 1.0, 1.7, 0.9]]), lax_like_x, lax_like_x),
    "matrix": (np.hstack([np.eye(3), np.eye(3)[:, 2:], np.zeros((3, 2))]),
               triple_like_y, triple_like_y),
}

#: intervals per column block in the block-boundary tests (``blocked_sweep``)
BLOCK = 32

# lines of 2 intervals, one block, one block and one or two intervals,
# two blocks and one interval
LINES = [3, BLOCK + 1, BLOCK + 2, BLOCK + 3, 2 * BLOCK + 2]


def blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, order, substeps,
                  intervals=BLOCK, stream=False):
    """``sweep_grid`` with ``sweep.BLOCK_FLOATS`` set so that its column march
    cuts blocks of ``intervals`` intervals: a block holds a midpoint and an
    end generator per substep.  Checks that the march cut them so.

    With ``stream`` the sweep hands its blocks to a reduction instead of
    storing them, and the grid is rebuilt by ``out[where] = nodes``.  The
    blocks are checked: the first covers step 0 alone, the steps of the
    next follow on to the end of the line, and none is longer than the
    march's."""
    xy = order == "xy"
    gen, k, lines, length = (gen_y, len(cy), grid.nx, grid.ny) if xy else (
        gen_x, len(cx), grid.ny, grid.nx)
    floats = gen(*[np.zeros(lines)] * k).size
    monkeypatch.setattr(sweep, "BLOCK_FLOATS", 2 * substeps * floats * intervals)
    blocks = []

    def column_gen(*coeffs, out=None):  # a block's builder calls write into ``out``
        if out is not None:
            blocks.append(out.shape[2])
        return gen(*coeffs, out=out)

    gen_x, gen_y = (gen_x, column_gen) if xy else (column_gen, gen_y)
    if not stream:
        out = sweep_grid(grid, cx, gen_x, cy, gen_y, state0, order=order, substeps=substeps)
        assert max(blocks) == min(intervals, length - 1)
        return out
    # the march's layout, step-major with the lines last, like a stored grid
    out = np.moveaxis(np.full((length,) + state0.shape + (lines,), np.nan), -1, 0)
    out = out if xy else out.swapaxes(0, 1)
    steps = []  # the step indices (y for "xy", x for "yx") each block covers

    def keep(where, nodes):
        assert out[where].shape == nodes.shape
        assert where[0 if xy else 1] == slice(None), "a block covers every line"
        steps.append(range(length)[where[1 if xy else 0]])
        out[where] = nodes

    assert sweep_grid(grid, cx, gen_x, cy, gen_y, state0, order=order, substeps=substeps,
                      reduce=keep) is None
    assert max(blocks) == min(intervals, length - 1)
    assert steps[0] == range(1), "the first row goes first, alone"
    assert [s.start for s in steps[1:]] == [s.stop for s in steps[:-1]], steps
    assert steps[-1].stop == length, steps
    assert max(len(s) for s in steps[1:]) <= min(intervals, length - 1)
    return out


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("n", LINES)
def test_block_sweep_matches_per_interval_reference(monkeypatch, kind, order, n):
    state0, gen_x, gen_y = STATES[kind]
    for shape in ((n, 4), (5, n)):
        grid = Grid2D.from_domain(0, 1, 0, 1, *shape)
        cx, cy = random_coefficients(grid)
        for substeps in (1, 2, 3, 4):
            want = reference_sweep(grid, cx, gen_x, cy, gen_y, state0, order, substeps)
            for stream in (False, True):
                got = blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, order,
                                    substeps, stream=stream)
                # stored in the march's order: step-major, the lines last
                assert np.moveaxis(got, 0 if order == "xy" else 1, -1).flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (shape, substeps, stream)


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("order", ["xy", "yx"])
def test_block_sweep_spreads_nan_like_reference(monkeypatch, kind, order):
    # a NaN coefficient poisons the same nodes and components as before, on
    # a column and on the first row of either order
    state0, gen_x, gen_y = STATES[kind]
    grid = Grid2D.from_domain(0, 1, 0, 1, BLOCK + 3, 9)
    for nan_node in ((BLOCK - 1, 4), (BLOCK - 1, 0), (0, 5)):
        cx, cy = random_coefficients(grid, nan_node)
        want = reference_sweep(grid, cx, gen_x, cy, gen_y, state0, order, 2)
        for stream in (False, True):
            got = blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, order, 2,
                                stream=stream)
            assert np.isnan(got).any() and not np.isnan(got).all()
            assert got.tobytes() == want.tobytes(), (nan_node, stream)


def test_block_sweep_capped_by_block_floats(monkeypatch):
    # a smaller budget cuts shorter blocks, down to one interval; the
    # arithmetic stays the same
    state0, gen_x, gen_y = STATES["vector"]
    grid = Grid2D.from_domain(0, 1, 0, 1, 11, 2 * BLOCK + 2)
    cx, cy = random_coefficients(grid)
    want = reference_sweep(grid, cx, gen_x, cy, gen_y, state0, "xy", 2)
    for intervals in (1, 2, 3):
        for stream in (False, True):
            got = blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, "xy", 2,
                                intervals, stream)
            assert got.tobytes() == want.tobytes(), (intervals, stream)


# -- other arithmetic of the same sweep agrees to round-off ----------------

def assert_close_with_nan_mask(got, want, nan_node):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert nan.any() == (nan_node is not None) and not nan.all()
    assert np.isfinite(want[~nan]).all()
    # relative to the largest entry: single entries can cancel to ~1e-4
    err = np.max(np.abs(got[~nan] - want[~nan])) / np.max(np.abs(want[~nan]))
    assert err <= 1e-13, err


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
def test_sweep_matches_node_major_products(monkeypatch, kind, order, substeps):
    # einsum over the leading axes rounds differently from the node-major
    # matmul (BLAS), but only in the last bits, and it spreads a NaN
    # coefficient to the same nodes and components
    state0, gen_x, gen_y = STATES[kind]
    for shape, nan_node in (((BLOCK + 3, 9), None), ((7, BLOCK + 2), (3, BLOCK - 1))):
        grid = Grid2D.from_domain(0, 1, 0, 1, *shape)
        cx, cy = random_coefficients(grid, nan_node)
        got = blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, order, substeps)
        want = node_major_sweep(grid, cx, gen_x, cy, gen_y, state0, order, substeps)
        assert_close_with_nan_mask(got, want, nan_node)


@pytest.mark.parametrize("kind", sorted(STATES))
@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
def test_row_step_matrices_match_staged_steps(monkeypatch, kind, order, substeps):
    # a step matrix rounds differently from the four staged stages, and
    # spreads a NaN coefficient on the first row of either order, or up a
    # column, to the same nodes and components; a NaN that only the rbar
    # column reads leaves the frame, N and r finite
    state0, gen_x, gen_y = STATES[kind]
    grid = Grid2D.from_domain(0, 1, 0, 1, BLOCK + 3, 9)
    for nan_node in (None, (BLOCK - 1, 0), (0, 5), (3, 4)):
        for slot in (TRIPLE_ONLY, FRAME):
            cx, cy = random_coefficients(grid, nan_node, slot)
            got = blocked_sweep(monkeypatch, grid, cx, gen_x, cy, gen_y, state0, order,
                                substeps)
            want = staged_sweep(grid, cx, gen_x, cy, gen_y, state0, order, substeps)
            assert_close_with_nan_mask(got, want, nan_node)
            if kind == "matrix" and slot == TRIPLE_ONLY:
                assert np.isfinite(got[..., :5]).all()


# -- the library builders' out= contract ------------------------------------

LIBRARY_BUILDERS = {
    "skew_x": (frames._skew_x, 2),
    "skew_y": (frames._skew_y, 2),
    "triple_x": (frames._with_triple_x, 4),
    "triple_y": (frames._with_triple_y, 4),
    "lax_x": (partial(backlund._lax_matrix_x, m=0.8, qn=1.3), 4),
    "lax_y": (partial(backlund._lax_matrix_y, m=-1.7, qn=0.6), 4),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_BUILDERS))
def test_library_builder_writes_its_generator_into_zeroed_out(name):
    # a march zeroes its generator buffers once and lets every block's builder
    # calls write into them: a builder must write the generator it returns,
    # into a full block and into a shorter last-block view, and leave the
    # entries it does not write (zeros) and the rest of the buffer alone
    gen, k = LIBRARY_BUILDERS[name]
    rng = np.random.default_rng(len(name))
    block, m = 7, 5

    def draw(b):
        return [rng.uniform(-2.0, 2.0, (b, m)) for _ in range(k)]

    coeffs = draw(block)
    coeffs[-1][2, 3] = np.nan
    want = gen(*coeffs)
    buf = np.zeros(want.shape)
    assert gen(*coeffs, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    for b in (block, 3, 1):  # later blocks reuse the buffer, a last one a view
        tail = buf[:, :, b:].copy()
        c = draw(b)
        gen(*c, out=buf[:, :, :b])
        assert buf[:, :, :b].tobytes() == gen(*c).tobytes(), b
        assert buf[:, :, b:].tobytes() == tail.tobytes(), b
