"""General 2D assembly and the monolithic rotating-flow stepper.

Oracles: a global dense tensor-quadrature route for the advection matrix,
1D Kronecker products for separable coefficients, and dense numpy solves for
the sparse factorization.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from splitmin.assembly import advection, mass, stiffness
from splitmin.exceptions import ParameterError, SingularMatrixError
from splitmin.full2d import (RotatingFlowStepper, Space2D, assemble_2d_load,
                             assemble_2d_operators, assemble_2d_saddle,
                             sparse_lu,
                             _assemble_advection_2d)
from splitmin.problems import get_problem
from splitmin.resmin import SolutionState
from splitmin.splines import eval_matrix, gauss_rule, make_space


def _space2d(pc, n, interval=(0.0, 1.0)):
    return Space2D(make_space(*pc, n, interval), make_space(*pc, n, interval))


def test_space2d_dimensions():
    s = _space2d((2, 1), 4)
    assert s.dim == 36
    assert s.interior_shape == (4, 4)
    assert s.interior_dim == 16


def _dense_advection_reference(trial, test, beta, n_points):
    """Global tensor-quadrature assembly without per-element compaction."""
    px, wx = gauss_rule(trial.x, n_points)
    py, wy = gauss_rule(trial.y, n_points)
    tvx, tdx = eval_matrix(trial.x, px)
    tvy, tdy = eval_matrix(trial.y, py)
    svx, _ = eval_matrix(test.x, px)
    svy, _ = eval_matrix(test.y, py)
    X, Y = px[:, None], py[None, :]
    W = wx[:, None] * wy[None, :]
    bx, by = beta(X, Y)
    bx = np.broadcast_to(np.asarray(bx, dtype=float), W.shape)
    by = np.broadcast_to(np.asarray(by, dtype=float), W.shape)
    t1 = np.einsum("ab,ak,bl,ai,bj->klij", W * bx, svx, svy, tdx, tvy,
                   optimize=True)
    t2 = np.einsum("ab,ak,bl,ai,bj->klij", W * by, svx, svy, tvx, tdy,
                   optimize=True)
    return (t1 + t2).reshape(test.dim, trial.dim)


def test_advection_2d_matches_dense_quadrature_route():
    trial = _space2d((1, 0), 2)
    test = _space2d((2, 1), 2)
    beta = lambda x, y: (x * y, 0.3 - y)
    got = _assemble_advection_2d(trial, test, beta).toarray()
    ref = _dense_advection_reference(trial, test, beta, 6)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_advection_2d_scalar_wind_components_broadcast():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    beta = lambda x, y: (1.0, -0.5)
    got = _assemble_advection_2d(trial, test, beta).toarray()
    ref = _dense_advection_reference(trial, test, beta, 7)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_separable_wind_reduces_to_kronecker_of_1d_blocks():
    trial = _space2d((2, 1), 4)
    test = _space2d((3, 0), 4)
    alpha = 0.07
    bx0, by0 = 1.3, -0.4
    gram, m_test, m_rect, w_rect = assemble_2d_operators(
        trial, test, alpha, lambda x, y: (bx0, by0))

    def interior(mat):
        return mat.interior().to_dense()

    mx = interior(mass(trial.x, test.x))
    my = interior(mass(trial.y, test.y))
    kx = interior(stiffness(trial.x, test.x))
    ky = interior(stiffness(trial.y, test.y))
    gx = interior(advection(trial.x, test.x))
    gy = interior(advection(trial.y, test.y))
    ref_w = (alpha * (np.kron(kx, my) + np.kron(mx, ky))
             + bx0 * np.kron(gx, my) + by0 * np.kron(mx, gy))
    np.testing.assert_allclose(w_rect.toarray(), ref_w, atol=1e-12)
    np.testing.assert_allclose(m_rect.toarray(), np.kron(mx, my), atol=1e-13)

    mxt = interior(mass(test.x, test.x))
    myt = interior(mass(test.y, test.y))
    kxt = interior(stiffness(test.x, test.x))
    kyt = interior(stiffness(test.y, test.y))
    np.testing.assert_allclose(m_test.toarray(), np.kron(mxt, myt), atol=1e-13)
    np.testing.assert_allclose(gram.toarray(),
                               np.kron(mxt, myt) + np.kron(kxt, myt)
                               + np.kron(mxt, kyt), atol=1e-12)


def test_saddle_matrix_blocks_and_symmetry():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    system = assemble_2d_saddle(trial, test, 0.01, lambda x, y: (y, -x), 0.05)
    m = test.interior_dim
    n = trial.interior_dim
    dense = system.matrix.toarray()
    assert dense.shape == (m + n, m + n)
    np.testing.assert_allclose(dense[:m, :m], system.gram.toarray(), atol=0.0)
    np.testing.assert_allclose(dense[:m, m:], system.b.toarray(), atol=0.0)
    np.testing.assert_allclose(dense[m:, :m], system.b.toarray().T, atol=0.0)
    np.testing.assert_allclose(dense[m:, m:], 0.0, atol=0.0)
    np.testing.assert_allclose(
        system.b.toarray(),
        (system.m_rect + 0.05 * system.w_rect).toarray(), atol=1e-14)


def test_load_grid_matches_dense_quadrature():
    test = _space2d((2, 1), 3)
    f = lambda x, y, t: np.sin(x + t) * (1.0 + y)
    got = assemble_2d_load(test, f, 0.25)
    px, wx = gauss_rule(test.x, 9)
    py, wy = gauss_rule(test.y, 9)
    vx = eval_matrix(test.x, px)[0][:, 1:-1]
    vy = eval_matrix(test.y, py)[0][:, 1:-1]
    fv = f(px[:, None], py[None, :], 0.25)
    ref = vx.T @ (wx[:, None] * fv * wy[None, :]) @ vy
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_sparse_lu_matches_dense_solve():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    system = assemble_2d_saddle(trial, test, 0.01, lambda x, y: (y, -x), 0.05)
    rng = np.random.default_rng(90)
    rhs = rng.standard_normal(system.matrix.shape[0])
    got = sparse_lu(system.matrix).solve(rhs)
    ref = np.linalg.solve(system.matrix.toarray(), rhs)
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_sparse_lu_raises_on_singular_matrix():
    singular = sp.csc_matrix((4, 4))
    with pytest.raises(SingularMatrixError):
        sparse_lu(singular)


def test_zero_dt_step_is_identity_on_representable_data():
    trial = _space2d((2, 1), 4)
    test = _space2d((3, 0), 4)
    system = assemble_2d_saddle(trial, test, 0.01, lambda x, y: (y, -x), 0.0)
    rng = np.random.default_rng(91)
    u0 = rng.standard_normal(trial.interior_dim)
    rhs = np.concatenate([system.m_rect @ u0, np.zeros(trial.interior_dim)])
    sol = sparse_lu(system.matrix).solve(rhs)
    np.testing.assert_allclose(sol[:test.interior_dim], 0.0, atol=1e-10)
    np.testing.assert_allclose(sol[test.interior_dim:], u0, atol=1e-10)


def test_mesh_mismatch_rejected():
    trial = Space2D(make_space(2, 1, 4, (0.0, 1.0)),
                    make_space(2, 1, 4, (0.0, 1.0)))
    test = Space2D(make_space(3, 0, 5, (0.0, 1.0)),
                   make_space(3, 0, 4, (0.0, 1.0)))
    with pytest.raises(ParameterError):
        assemble_2d_operators(trial, test, 0.01, None)


def test_rotating_stepper_single_step_matches_dense_solve():
    problem = get_problem("circular-wind")
    stepper = RotatingFlowStepper(problem, (4, 4), (2, 1), (3, 0), tau=0.1)
    state = stepper.initial_state()
    dense = stepper.system.matrix.toarray()
    rhs = np.concatenate([stepper.b_rhs @ state.u.ravel(),
                          np.zeros(stepper.trial.interior_dim)])
    ref = np.linalg.solve(dense, rhs)
    m = stepper.system.test_shape[0] * stepper.system.test_shape[1]
    out = stepper.step(state)
    np.testing.assert_allclose(out.u.ravel(), ref[m:], atol=1e-9)
    np.testing.assert_allclose(out.r.ravel(), ref[:m], atol=1e-9)
    assert out.time == pytest.approx(0.1)
    l2, h1 = stepper.last_residual_norms
    assert h1 >= l2 >= 0.0


def test_rotating_stepper_conserves_mass_norm_approximately():
    problem = get_problem("circular-wind")
    stepper = RotatingFlowStepper(problem, (12, 12), (2, 1), (3, 0), tau=0.1)
    state = stepper.initial_state()
    from splitmin.reporting import solution_l2_norm
    n0 = solution_l2_norm(state.u, stepper.trial_x, stepper.trial_y)
    for _ in range(10):
        state = stepper.step(state)
        n = solution_l2_norm(state.u, stepper.trial_x, stepper.trial_y)
        assert n <= 1.01 * n0
    assert np.all(np.isfinite(state.u))


def test_rotating_stepper_requires_a_2d_wind():
    with pytest.raises(ParameterError):
        RotatingFlowStepper(get_problem("manufactured"), (4, 4), (2, 1),
                            (3, 0), tau=0.1)


def test_forced_monolithic_step_uses_trapezoidal_loads():
    # pollution has a separable wind, so fake a steady rotating variant by
    # checking the forcing path with the circular problem plus a source
    problem = get_problem("circular-wind")
    import dataclasses
    forced = dataclasses.replace(problem,
                                 forcing=lambda x, y, t: (1.0 + t) + 0.0 * x)
    stepper = RotatingFlowStepper(forced, (4, 4), (2, 1), (3, 0), tau=0.2)
    state = SolutionState(u=np.zeros(stepper.trial.interior_shape), time=0.0)
    out = stepper.step(state)
    load0 = assemble_2d_load(stepper.test, forced.forcing, 0.0)
    load1 = assemble_2d_load(stepper.test, forced.forcing, 0.2)
    rhs = np.concatenate([0.5 * 0.2 * (load0 + load1).ravel(),
                          np.zeros(stepper.trial.interior_dim)])
    ref = np.linalg.solve(stepper.system.matrix.toarray(), rhs)
    m = stepper.trial.interior_dim
    np.testing.assert_allclose(out.u.ravel(),
                               ref[stepper.system.m_test.shape[0]:],
                               atol=1e-10)
