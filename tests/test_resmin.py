"""Directional substeps: block assembly, saddle solve, residual norms, loads.

The oracle is a dense assembled 2D block solve of the same saddle system;
loads are checked against the contraction with dense basis matrices.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitmin import full2d, stepping
from splitmin.acceptance import _dense_substep
from splitmin.assembly import advection, block, mass
from splitmin.exceptions import ParameterError
from splitmin.kron import BandedLU, BandLayout, OpCounter
from splitmin.problems import ProductSum, Wind, WindComponent, manufactured, pollution
from splitmin.resmin import (LoadAssembler, SolutionState, build_directional,
                             divide_other, residual_norms, substep)
from splitmin.splines import element_local, eval_matrix, gauss_rule, make_space
from splitmin.stepping import RunConfig, Stepper

from helpers import saddle_factor, saddle_solve


def _spaces(n_el=4, trial_pc=(2, 1), test_pc=(3, 0)):
    tx = make_space(*trial_pc, n_el, (0.0, 1.0))
    ty = make_space(*trial_pc, n_el, (0.0, 1.0))
    ts = make_space(*test_pc, n_el, (0.0, 1.0))
    return tx, ty, ts


def _build(direction, dt_eff=0.02, stabilized=True, n_el=4,
           trial_pc=(2, 1), test_pc=(3, 0)):
    tx, ty, ts = _spaces(n_el, trial_pc, test_pc)
    diffusion = (lambda x: 0.1 + 0.0 * x, lambda y: 0.2 + 0.1 * y)
    velocity = (lambda x: 1.0 + 0.5 * x, lambda y: 0.0 * y - 0.3)
    return build_directional(direction, tx, ty, ts, diffusion, velocity,
                             dt_eff, stabilized, OpCounter())


def test_one_step_block_combines_mass_stiffness_advection():
    op = _build("x", dt_eff=0.05)
    g_rect = block(advection, op.trial_split, op.test_split, lambda x: 1.0 + 0.5 * x)
    ref = (op.m_rect.to_dense()
           + 0.05 * (op.k_rect.to_dense() + g_rect.to_dense()))
    np.testing.assert_allclose(op.b_split.to_dense(), ref, atol=1e-14)


def test_zero_dt_reduces_one_step_block_to_mass():
    op = _build("y", dt_eff=0.0)
    np.testing.assert_allclose(op.b_split.to_dense(), op.m_rect.to_dense(),
                               atol=0.0)


@pytest.mark.parametrize("direction", ["x", "y"])
def test_set_wind_rescales_to_directly_assembled_blocks(direction):
    s = (lambda t: 1.0 + t, lambda t: 2.0 - 0.5 * t)
    wind = Wind(x=WindComponent(s=s[0], a=lambda x: 1.0 + x),
                y=WindComponent(s=s[1], b=lambda y: 1.0 + y))
    (ax, _), (_, by) = wind.factors
    tx, ty, ts = _spaces(n_el=5)
    diffusion = (lambda x: 0.1 + 0.0 * x, lambda y: 0.2 + 0.1 * y)
    op = build_directional(direction, tx, ty, ts, diffusion, (ax, by), 0.05,
                           scales=wind.scales(0.0))
    axis = "xy".index(direction)
    for t in (0.0, 0.3, 1.7, -2.0):
        op.set_wind(wind.scales(t))

        def direct(trial, test, d):
            """The advection block with axis d's coefficient s_d(t) (1 + z)."""
            coef = lambda z: s[d](t) * (1.0 + z)
            return block(advection, trial, test, coef)

        g_rect = direct(op.trial_split, op.test_split, axis)
        g_other = direct(op.trial_other, op.trial_other, 1 - axis)
        b_split = op.m_rect + 0.05 * (op.k_rect + g_rect)
        other_minus = op.m_other - 0.05 * (op.k_other + g_other)
        for got, ref in ((op.b_split.to_dense(), b_split),
                         (op.other_minus.toarray(), other_minus)):
            ref = ref.to_dense()
            err = np.max(np.abs(got - ref))
            assert err <= 1e-14 * np.max(np.abs(ref))


@st.composite
def _wind_sequences(draw):
    """An operator on random spaces and coefficients, and a run of wind scales.

    The scales take 0, negative values and sign flips, and end by returning
    to an earlier pair.
    """
    p = draw(st.integers(1, 3))
    c = draw(st.integers(0, p - 1))
    stabilized = draw(st.booleans())
    q = draw(st.sampled_from((p, p + 1))) if stabilized else p
    n_el = draw(st.integers(2, 7))
    tx, ty = (make_space(p, c, n_el, (0.0, 1.0 + k)) for k in (0.0, 0.5))
    direction = draw(st.sampled_from(("x", "y")))
    test = make_space(q, min(c, q - 1), n_el, ((0.0, 1.0), (0.0, 1.5))["xy".index(direction)])
    w0, w1 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-1.0, 1.0))
    diffusion = (lambda x: 0.05 + 0.1 * x * x, lambda y: 0.1 + 0.05 * y)
    velocity = (lambda x: w0 + w1 * x, lambda y: w1 - 0.5 * w0 * y)
    scale = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    scales = draw(st.lists(st.tuples(scale, scale), min_size=1, max_size=4))
    flip = (-scales[-1][0], -scales[-1][1])
    scales += [flip, (0.0, 0.0), scales[0]]
    return (direction, tx, ty, test, diffusion, velocity, stabilized,
            draw(st.floats(1e-3, 1.0)), scales)


def _backward_error(matrix: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """Normwise backward error of x for matrix x = rhs, column by column, its largest."""
    res = np.abs(matrix @ x - rhs).max(axis=0)
    scale = np.abs(matrix).sum(axis=1).max() * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return float(np.max(res / scale))


@settings(max_examples=40, deadline=None, database=None)
@given(_wind_sequences())
def test_set_wind_refactors_as_a_fresh_factor(case):
    # set_wind(s) factors exactly what an operator built at s factors; both
    # evaluate b0 + s b1, so against B = m + dt (k + s g) assembled directly
    # the solve is a backward-stable one
    direction, tx, ty, test, diffusion, velocity, stabilized, dt, scales = case
    counter = OpCounter()
    op = build_directional(direction, tx, ty, test, diffusion, velocity, dt,
                           stabilized, counter, scales=scales[0])
    axis = "xy".index(direction)

    def fresh_block(trial, test_space, d):
        return block(advection, trial, test_space, velocity[d])

    def solve(factor, rhs):
        return np.vstack(saddle_solve(factor, rhs)) if stabilized else factor.solve(rhs)

    g_rect = fresh_block(op.trial_split, op.test_split, axis)
    g_other = fresh_block(op.trial_other, op.trial_other, 1 - axis)
    other_ops = OpCounter()
    BandedLU(op.m_other, other_ops)
    rng = np.random.default_rng(3)
    for s in scales:
        before = counter.factor_ops
        op.set_wind(s)
        fresh_counter = OpCounter()
        fresh = build_directional(direction, tx, ty, test, diffusion, velocity, dt,
                                  stabilized, fresh_counter, scales=s)
        assert counter.factor_ops - before == fresh_counter.factor_ops - other_ops.factor_ops
        b = op.m_rect + dt * (op.k_rect + s[axis] * g_rect)
        rhs = rng.standard_normal((b.shape[0], 3))  # a saddle solves for (r, u)
        got = solve(op.split_factor, rhs)
        assert np.array_equal(got, solve(fresh.split_factor, rhs))
        if stabilized:
            a = op.a_split.to_dense()
            matrix = np.block([[a, b.to_dense()], [b.to_dense().T, np.zeros((b.n_cols,) * 2)]])
            rhs = np.vstack([rhs, np.zeros((b.n_cols, 3))])
        else:
            matrix = b.to_dense()
        assert _backward_error(matrix, got, rhs) <= 1e-14
        other_minus = op.m_other - dt * (op.k_other + s[1 - axis] * g_other)
        x = rng.standard_normal((other_minus.n_cols, 2))
        assert np.array_equal(op.other_minus @ x, other_minus.apply(x))


@pytest.mark.parametrize("direction", ["x", "y"])
def test_substep_matches_dense_saddle_solve(direction):
    op = _build(direction)
    a, b = op.a_split.to_dense(), op.b_split.to_dense()
    mo = op.m_other.to_dense()
    m, n = b.shape
    rng = np.random.default_rng(101)
    if direction == "x":
        rhs = rng.standard_normal((m, mo.shape[0]))
        top = np.hstack([np.kron(a, mo), np.kron(b, mo)])
        bot = np.hstack([np.kron(b.T, mo), np.zeros((n * mo.shape[0],) * 2)])
        vec = np.concatenate([rhs.ravel(), np.zeros(n * mo.shape[0])])
        sol = np.linalg.solve(np.vstack([top, bot]), vec)
        r_ref = sol[:m * mo.shape[0]].reshape(m, mo.shape[0])
        u_ref = sol[m * mo.shape[0]:].reshape(n, mo.shape[0])
    else:
        rhs = rng.standard_normal((mo.shape[0], m))
        top = np.hstack([np.kron(mo, a), np.kron(mo, b)])
        bot = np.hstack([np.kron(mo, b.T), np.zeros((n * mo.shape[0],) * 2)])
        vec = np.concatenate([rhs.ravel(), np.zeros(mo.shape[0] * n)])
        sol = np.linalg.solve(np.vstack([top, bot]), vec)
        r_ref = sol[:mo.shape[0] * m].reshape(mo.shape[0], m)
        u_ref = sol[mo.shape[0] * m:].reshape(mo.shape[0], n)
    state = substep(op, divide_other(op, op.layout(rhs)))
    np.testing.assert_allclose(op.layout(state.u), u_ref, atol=1e-10)
    np.testing.assert_allclose(op.layout(state.r), r_ref, atol=1e-10)


@st.composite
def _substep_cases(draw):
    """A substep on random spaces and coefficients whose test space holds the trial space."""
    p = draw(st.integers(1, 3))
    c = draw(st.integers(0, p - 1))
    q = draw(st.sampled_from((p, p + 1)))
    cq = draw(st.integers(0, min(c, q - 1)))
    mesh = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    intervals = ((x0 := draw(st.floats(-2.0, 2.0)), x0 + draw(st.floats(0.5, 1.5))),
                 (y0 := draw(st.floats(-2.0, 2.0)), y0 + draw(st.floats(2.0, 4.0))))
    tx, ty = (make_space(p, c, n, iv) for n, iv in zip(mesh, intervals))
    direction = draw(st.sampled_from(("x", "y")))
    axis = "xy".index(direction)
    test = make_space(q, cq, mesh[axis], intervals[axis])
    d0, d1, w0, w1 = (draw(st.floats(lo, hi)) for lo, hi in
                      ((1e-3, 1.0), (0.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)))
    diffusion = (lambda x: d0 + d1 * x * x, lambda y: d1 + d0 * y * y)
    wind = (lambda x: w0 + w1 * x, lambda y: w1 - w0 * 0.5 * y)
    op = build_directional(direction, tx, ty, test, diffusion, wind,
                           draw(st.floats(1e-3, 1.0)), True, OpCounter())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = ((op.b_split.shape[0], ty.dim - 2) if direction == "x"
             else (tx.dim - 2, op.b_split.shape[0]))
    return op, rng.standard_normal(shape)


@settings(max_examples=60, deadline=None, database=None)
@given(_substep_cases())
def test_substep_matches_dense_solve_on_random_spaces(case):
    # criterion 1's check and tolerance, over the space pairs, meshes, dt and
    # coefficients the fixed grid of criterion 1 does not reach
    op, rhs = case
    dense = _dense_substep(op, rhs)
    u = op.layout(substep(op, divide_other(op, op.layout(rhs))).u)
    rel = np.linalg.norm(u - dense) / np.linalg.norm(dense)
    assert rel <= 1e-9


@pytest.mark.parametrize("direction", ["x", "y"])
def test_substep_satisfies_saddle_equations(direction):
    op = _build(direction, n_el=6)
    rng = np.random.default_rng(55)
    if direction == "x":
        rhs = rng.standard_normal((op.b_split.shape[0], op.m_other.shape[0]))
    else:
        rhs = rng.standard_normal((op.m_other.shape[0], op.b_split.shape[0]))
    state = substep(op, divide_other(op, op.layout(rhs)))
    state = SolutionState(u=op.layout(state.u), r=op.layout(state.r))
    a, b = op.a_split.to_dense(), op.b_split.to_dense()
    mo = op.m_other.to_dense()
    if direction == "x":
        first = a @ state.r @ mo.T + b @ state.u @ mo.T - rhs
        second = b.T @ state.r @ mo.T
    else:
        first = mo @ state.r @ a.T + mo @ state.u @ b.T - rhs
        second = mo @ state.r @ b
    scale = np.linalg.norm(rhs)
    assert np.linalg.norm(first) / scale < 1e-10
    assert np.linalg.norm(second) / scale < 1e-10


@pytest.mark.parametrize("direction", ["x", "y"])
def test_stabilized_substep_solve_ops_are_pinned(direction):
    # dividing the other direction's mass out of the m test columns, then the
    # condensed saddle on n_other: one product condenses the local test rows
    # (2 nnz operations per column), one banded solve
    tx, ty = make_space(2, 1, 7, (0.0, 1.0)), make_space(2, 1, 5, (0.0, 1.0))
    test = make_space(3, 0, 7 if direction == "x" else 5, (0.0, 1.0))
    counter = OpCounter()
    op = build_directional(direction, tx, ty, test, (1e-2, 1e-2), (1.0, 0.5), 0.1,
                           True, counter)
    m, n = op.m_rect.shape
    n_other = op.m_other.n_rows
    c_other = BandLayout(op.m_other.rows, op.m_other.cols, n_other).solve_ops_per_column
    c_saddle = op.split_factor._layout.solve_ops_per_column
    # the product also scatters the kept rows: a copy, not counted
    condense = op.split_factor._condense.nnz - op.split_factor._kept
    assert condense > 0 and op.split_factor._layout.n == m + n - 2 * test.n_elements
    rhs = np.ones((m, n_other)) if direction == "x" else np.ones((n_other, m))
    before = counter.solve_ops
    state = substep(op, divide_other(op, op.layout(rhs)))
    assert counter.solve_ops - before == m * c_other + n_other * (c_saddle + 2 * condense)
    assert op.layout(state.u).shape == ((n, n_other) if direction == "x" else (n_other, n))


def test_unstabilized_substep_solves_square_system():
    # a Galerkin factor on both axes: once the other direction's mass is
    # divided out of the grid, the split solve is the whole Kronecker solve
    rng = np.random.default_rng(9)
    for direction in ("x", "y"):
        op = _build(direction, stabilized=False)
        b, mo = op.b_split.to_dense(), op.m_other.to_dense()
        big, shape = ((np.kron(b, mo), (b.shape[0], mo.shape[0])) if direction == "x"
                      else (np.kron(mo, b), (mo.shape[0], b.shape[0])))
        rhs = rng.standard_normal(shape)
        state = substep(op, divide_other(op, op.layout(rhs)))
        assert state.r is None
        ref = np.linalg.solve(big, rhs.ravel()).reshape(shape)
        np.testing.assert_allclose(op.layout(state.u), ref, atol=1e-10)


def test_unstabilized_path_ignores_the_test_space():
    # with stabilization off, the test space collapses onto the trial space
    op = _build("y", stabilized=False)
    assert op.test_split.degree == op.trial_split.degree
    assert op.b_split.shape[0] == op.b_split.shape[1]


def test_residual_norms_match_dense_quadratic_forms():
    for direction in ("x", "y"):
        op = _build(direction)
        rng = np.random.default_rng(77)
        shape = ((op.b_split.shape[0], op.m_other.shape[0]) if direction == "x"
                 else (op.m_other.shape[0], op.b_split.shape[0]))
        r = rng.standard_normal(shape)
        l2, h1 = residual_norms(op, r)
        mt, mo = op.m_test.to_dense(), op.m_other.to_dense()
        gr = op.a_split.to_dense()
        if direction == "x":
            big_l2 = np.kron(mt, mo)
            big_h1 = np.kron(gr, mo)
        else:
            big_l2 = np.kron(mo, mt)
            big_h1 = np.kron(mo, gr)
        v = r.ravel()
        np.testing.assert_allclose(l2, np.sqrt(v @ big_l2 @ v), atol=1e-12)
        np.testing.assert_allclose(h1, np.sqrt(v @ big_h1 @ v), atol=1e-12)
        assert h1 >= l2  # the V-norm dominates the L2 norm


def test_galerkin_test_space_gives_zero_residual():
    op = _build("x", trial_pc=(2, 1), test_pc=(2, 1))
    rng = np.random.default_rng(23)
    rhs = rng.standard_normal((op.b_split.shape[0], op.m_other.shape[0]))
    state = substep(op, rhs)
    l2, h1 = residual_norms(op, state.r)
    assert l2 < 1e-10 and h1 < 1e-10


def test_load_assembler_separable_integrand():
    sx = make_space(2, 1, 4, (0.0, 1.0))
    sy = make_space(3, 0, 4, (0.0, 1.0))
    loads = LoadAssembler(sx, sy)
    got = loads.load(lambda x, y, t: np.sin(x) * (2.0 + y) * (1.0 + t), 0.5)
    # separable f factors into two 1D integrals per basis pair
    px, wx = gauss_rule(sx, 8)
    py, wy = gauss_rule(sy, 8)
    ix = (wx * np.sin(px)) @ eval_matrix(sx, px)[0].toarray()[:, 1:-1]
    iy = (wy * (2.0 + py)) @ eval_matrix(sy, py)[0].toarray()[:, 1:-1]
    np.testing.assert_allclose(got, 1.5 * np.outer(ix, iy), atol=1e-9)


def _dense_load(space_x, space_y, f, t):
    """W_x^T F W_y through dense (points, dim) basis matrices, interior block."""
    px, wx = gauss_rule(space_x, space_x.degree + 1)
    py, wy = gauss_rule(space_y, space_y.degree + 1)
    bx = wx[:, None] * eval_matrix(space_x, px)[0].toarray()
    by = wy[:, None] * eval_matrix(space_y, py)[0].toarray()
    vals = np.broadcast_to(np.asarray(f(px[:, None], py[None, :], t), dtype=float),
                           (px.size, py.size))
    return (bx.T @ vals @ by)[1:-1, 1:-1]


_FORCINGS = (lambda x, y, t: np.sin(3.0 * x - y) * (1.0 + x * y) + t,
             lambda x, y, t: np.cos(x) * (2.0 - t),
             lambda x, y, t: 2.5)


@st.composite
def _load_cases(draw):
    """The spaces of one direction's loads: test space in x, trial space in y.

    Stabilized pairs take a test space of degree p or p+1 and continuity at
    most the trial's; Galerkin pairs test with the trial space itself.
    """
    p = draw(st.integers(0, 4))
    c = draw(st.integers(-1, p - 1))
    if draw(st.booleans()):
        q = draw(st.integers(p, p + 1))
        cq = draw(st.integers(-1, min(c, q - 1)))
    else:
        q, cq = p, c
    mesh = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    intervals = ((x0 := draw(st.floats(-2.0, 2.0)), x0 + draw(st.floats(0.5, 1.5))),
                 (y0 := draw(st.floats(-2.0, 2.0)), y0 + draw(st.floats(2.0, 4.0))))
    test_x = make_space(q, cq, mesh[0], intervals[0])
    trial_y = make_space(p, c, mesh[1], intervals[1])
    return test_x, trial_y, draw(st.sampled_from(_FORCINGS)), draw(st.floats(0.0, 2.0))


@settings(max_examples=80, deadline=None, database=None)
@given(_load_cases(), st.booleans())
def test_load_matches_dense_contraction_on_random_spaces(case, swapped):
    sx, sy, f, t = case
    if swapped:  # trial space in x, test space in y, as a y substep loads
        sx, sy = sy, sx
    loads = LoadAssembler(sx, sy)
    # the perfbench mass balance counts degree+1 Gauss points per element
    assert loads.px.size == (sx.degree + 1) * sx.n_elements
    assert loads.py.size == (sy.degree + 1) * sy.n_elements
    got, ref = loads.load(f, t), _dense_load(sx, sy, f, t)
    assert got.shape == ref.shape == (max(sx.dim - 2, 0), max(sy.dim - 2, 0))
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * np.max(np.abs(ref), initial=0.0)


_PRODUCT_FORCINGS = (
    ProductSum((WindComponent(lambda t: 1.0 + t, lambda x: np.sin(3.0 * x),
                              lambda y: 1.0 + y * y),)),
    # None factors are 1; the second product has no x or t factor
    ProductSum((WindComponent(np.cos, np.exp, np.sin), WindComponent(b=lambda y: y - 0.5))),
)


@settings(max_examples=80, deadline=None, database=None)
@given(_load_cases(), st.sampled_from(_PRODUCT_FORCINGS), st.booleans())
def test_product_load_matches_gauss_grid_load(case, products, swapped):
    sx, sy, _, t = case
    if swapped:  # trial space in x, test space in y, as a y substep loads
        sx, sy = sy, sx
    loads = LoadAssembler(sx, sy)
    got = loads.load(products, t)
    # the same data as a plain callable takes the Gauss-grid path
    ref = loads.load(lambda x, y, t: products(x, y, t), t)
    assert got.shape == ref.shape == (max(sx.dim - 2, 0), max(sy.dim - 2, 0))
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * np.max(np.abs(ref), initial=0.0)
    # a second load reads the kept 1D loads
    assert np.array_equal(loads.load(products, t), got)


def test_product_forcing_rejects_a_support_box():
    sx = make_space(2, 1, 4, (0.0, 1.0))
    loads = LoadAssembler(sx, sx)
    with pytest.raises(ParameterError, match="support"):
        loads.load(_PRODUCT_FORCINGS[0], 0.0, ((0.0, 0.5), (0.0, 0.5)))
    problem = dataclasses.replace(manufactured(), forcing_support=((0.0, 0.5), (0.0, 0.5)))
    stepper = Stepper(problem, RunConfig(mesh=(4, 4), n_steps=1))
    with pytest.raises(ParameterError, match="support"):
        stepper.step(stepper.initial_state())


def _pollution_load_spaces(n):
    """The two substeps' load spaces of a (2,1)/(3,0) pollution run on an n x n mesh."""
    (x0, x1), (y0, y1) = pollution().domain
    trial_y, test_x = make_space(2, 1, n, (y0, y1)), make_space(3, 0, n, (x0, x1))
    trial_x, test_y = make_space(2, 1, n, (x0, x1)), make_space(3, 0, n, (y0, y1))
    return (test_x, trial_y), (trial_x, test_y)


def test_the_two_substeps_loads_contract_in_opposite_orders():
    # the test space has more functions and Gauss points, so each load
    # contracts its trial direction first
    (x_load, y_load) = (LoadAssembler(*spaces) for spaces in _pollution_load_spaces(50))
    assert (x_load._x_first, y_load._x_first) == (False, True)


@pytest.mark.parametrize("n", (8, 50))
def test_y_operator_loads_are_the_transposed_xy_loads(n):
    # a y operator works on (y, x) grids: its loads are the (x, y) loads of
    # the same spaces and division, transposed bit for bit; pollution's
    # forcing is support-cut or whole, manufactured's and the others products
    plume, product = pollution(), manufactured()
    for problem, forcings in (
            (plume, [(plume.forcing, plume.forcing_support), (plume.forcing, None)]),
            (product, [(f, None) for f in (product.forcing, *_PRODUCT_FORCINGS)])):
        trial_x, trial_y = (make_space(2, 1, n, interval) for interval in problem.domain)
        test_y = make_space(3, 0, n, problem.domain[1])
        (ax, _), (_, by) = problem.wind.factors
        op = build_directional("y", trial_x, trial_y, test_y,
                               (problem.diffusion_x, problem.diffusion_y), (ax, by), 0.5)
        xy = LoadAssembler(trial_x, test_y, (0, op.other_lu))
        for f, support in forcings:
            for t in (0.0, 0.7):
                got = op.loads.load(f, t, support)
                assert got.shape == (test_y.dim - 2, trial_x.dim - 2)
                assert np.array_equal(got, xy.load(f, t, support).T)
        # the full Gauss grids stay x and y: perfbench's mass balance reads their sizes
        assert op.loads.px.size == (trial_x.degree + 1) * n
        assert op.loads.py.size == (test_y.degree + 1) * n


# chimneys inside; with a box across the element boundary at 2500 in both
# directions on every mesh below; on the domain edge; in a corner; with a
# box through a corner; and outside the domain
_CHIMNEYS = ((1500.0, 1500.0), (2510.0, 2490.0), (0.0, 2500.0), (5000.0, 5000.0),
             (4990.0, 12.5), (-100.0, 2500.0), (6000.0, -40.0))


@pytest.mark.parametrize("n", (8, 50, 64, 200))
def test_support_load_equals_full_grid_load(n):
    for p0 in _CHIMNEYS:
        problem = pollution(p0)
        for spaces in _pollution_load_spaces(n):
            loads = LoadAssembler(*spaces)
            full = loads.load(problem.forcing, 3.0)
            cut = loads.load(problem.forcing, 3.0, problem.forcing_support)
            assert np.array_equal(cut, full)
            if min(p0) < -25.0 or max(p0) > 5025.0:
                assert not np.any(full)
            # the full grids stay in place: perfbench reads their sizes
            assert loads.px.size == (spaces[0].degree + 1) * n


@pytest.mark.parametrize("transposed", (False, True))
def test_cut_load_is_made_again_only_for_new_samples(transposed):
    # a steady chimney's cut returns the same read-only grid, with no more
    # line divides; the same disc scaled in time is made again on every
    # call, bit for bit what a fresh assembler makes
    problem = pollution()
    steady, support = problem.forcing, problem.forcing_support

    def pulsing(x, y, t):
        return (1.0 + t) * steady(x, y, t)

    spaces = _pollution_load_spaces(50)[0]
    counter = OpCounter()
    divide = (1, BandedLU(block(mass, spaces[1], spaces[1]), counter))

    def assembler():
        return LoadAssembler(*spaces, divide, transposed)

    loads = assembler()
    first = loads.load(steady, 0.0, support)
    assert np.any(first) and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    before = counter.solve_ops
    assert loads.load(steady, 5.0, support) is first
    assert counter.solve_ops == before
    for t in (1.0, 2.0, 3.0):
        before = counter.solve_ops
        grid = loads.load(pulsing, t, support)
        assert counter.solve_ops > before
        assert np.array_equal(grid, assembler().load(pulsing, t, support))
    again = loads.load(steady, 0.0, support)
    assert again is not first and np.array_equal(again, first)
    # a full-grid load keeps no samples: it is made on every call
    whole = loads.load(steady, 0.0)
    assert whole.flags.writeable and loads.load(steady, 0.0) is not whole


@pytest.mark.parametrize("n", (8, 50, 64, 200))
def test_pollution_forcing_vanishes_outside_its_support(n):
    for p0 in _CHIMNEYS:
        problem = pollution(p0)
        (bx0, bx1), (by0, by1) = problem.forcing_support
        for spaces in _pollution_load_spaces(n):
            px, py = (gauss_rule(s, s.degree + 1)[0] for s in spaces)
            vals = problem.forcing(px[:, None], py[None, :], 0.0)
            inside = (((bx0 <= px) & (px <= bx1))[:, None]
                      & ((by0 <= py) & (py <= by1))[None, :])
            assert np.all(vals[~inside] == 0.0)


def test_constant_load_is_positive_for_interior_functions():
    sx = make_space(2, 1, 4, (0.0, 1.0))
    loads = LoadAssembler(sx, sx)
    grid = loads.load(lambda x, y, t: 1.0, 0.0)
    assert grid.shape == (sx.dim - 2, sx.dim - 2)
    assert np.all(grid > 0.0)


def test_invalid_direction_and_incompatible_degrees_rejected(monkeypatch):
    tx, ty, ts = _spaces()
    with pytest.raises(ParameterError):
        build_directional("z", tx, ty, ts, (0.1, 0.1), (1.0, 0.0), 0.01)

    # a test space that does not hold the trial space, by a lower degree or a
    # higher continuity: both steppers raise before assembling
    def no_assembly(*args):
        raise AssertionError("an incompatible pair was assembled")

    monkeypatch.setattr(stepping, "build_directional", no_assembly)
    monkeypatch.setattr(full2d, "assemble_2d_saddle", no_assembly)
    for trial, test in (((2, 1), (1, 0)), ((2, 0), (2, 1))):
        config = RunConfig(mesh=(4, 4), trial=trial, test=test)
        for stepper in (Stepper, full2d.RotatingFlowStepper):
            with pytest.raises(ParameterError, match="coarser"):
                stepper(manufactured(), config)
