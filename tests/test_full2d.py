"""General 2D assembly and the monolithic rotating-flow stepper.

Oracles: a global dense tensor-quadrature route for the advection and
weighted stiffness terms, 1D Kronecker products for separable coefficients,
the ``scipy.sparse.kron``/``bmat`` assembly of ``helpers.kron_saddle`` for
the saddle's pattern and entries, and dense numpy solves for the sparse
factorization.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from helpers import kron_operators, kron_saddle
from splitmin import full2d
from splitmin.assembly import advection, block, mass, stiffness
from splitmin.exceptions import ParameterError, SingularMatrixError
from splitmin.full2d import RotatingFlowStepper, Space2D, assemble_2d_saddle, sparse_lu
from splitmin.problems import Wind, WindComponent, circular_wind, get_problem
from splitmin.reporting import solution_norms
from splitmin.resmin import LoadAssembler, SolutionState
from splitmin.splines import eval_matrix, gauss_rule, make_space
from splitmin.stepping import RunConfig

_ROTATION = circular_wind().wind


def _general(problem, n, tau):
    """The general-path stepper on n x n elements, trial (2,1), test (3,0)."""
    return RotatingFlowStepper(problem, RunConfig(mesh=(n, n), trial=(2, 1),
                                                  test=(3, 0), tau=tau))


def _saddle(stepper):
    """The stepper's saddle matrix and its Crank-Nicolson right-hand-side
    operator M - (tau/2) W, from the sp.kron/bmat oracle."""
    problem, config = stepper.problem, stepper.config
    return kron_saddle(stepper.trial, stepper.test,
                       (problem.diffusion_x, problem.diffusion_y),
                       problem.wind, config.t0, 0.5 * config.tau)


def _operators(trial, test, diffusion, wind):
    """Dense (gram, m_rect, w_rect) read off the program's assembly at
    dt_eff = 0 and 1, where B = M and B = M + W."""
    m = test.interior_dim
    b0, b1 = (assemble_2d_saddle(trial, test, diffusion, wind, 0.0, dt).toarray()
              for dt in (0.0, 1.0))
    return b1[:m, :m], b0[:m, m:], b1[:m, m:] - b0[:m, m:]


def _space2d(pc, n, interval=(0.0, 1.0)):
    return Space2D(make_space(*pc, n, interval), make_space(*pc, n, interval))


def test_space2d_dimensions():
    s = _space2d((2, 1), 4)
    assert s.interior_shape == (4, 4)
    assert s.interior_dim == 16


def _dense_reference(trial, test, terms, n_points):
    """Global tensor-quadrature assembly without per-element compaction.

    Returns the interior-eliminated test x trial matrix.  Each term is
    (c(x, y), trial derivative orders (dx, dy), test derivative orders
    (dx, dy)) of the integral of c * D u * D psi.
    """
    px, wx = gauss_rule(trial.x, n_points)
    py, wy = gauss_rule(trial.y, n_points)
    tx, ty, sx, sy = ([m.toarray() for m in eval_matrix(space, pts)]
                      for space, pts in ((trial.x, px), (trial.y, py),
                                         (test.x, px), (test.y, py)))
    W = wx[:, None] * wy[None, :]
    out = 0.0
    for c, (i, j), (k, l) in terms:
        cw = W * np.broadcast_to(np.asarray(c(px[:, None], py[None, :]),
                                            dtype=float), W.shape)
        out = out + np.einsum("ab,ak,bl,ai,bj->klij", cw, sx[k], sy[l],
                              tx[i], ty[j], optimize=True)
    return out[1:-1, 1:-1, 1:-1, 1:-1].reshape(test.interior_dim,
                                                trial.interior_dim)


def _dense_advection_reference(trial, test, beta, n_points):
    return _dense_reference(
        trial, test, [(lambda x, y: beta(x, y)[0], (1, 0), (0, 0)),
                      (lambda x, y: beta(x, y)[1], (0, 1), (0, 0))], n_points)


def _advection_only(trial, test, wind):
    return _operators(trial, test, (0.0, 0.0), wind)[2]


def test_advection_2d_matches_dense_quadrature_route():
    trial = _space2d((1, 0), 2)
    test = _space2d((2, 1), 2)
    wind = Wind(WindComponent(a=lambda x: x, b=lambda y: y),
                WindComponent(b=lambda y: 0.3 - y))
    got = _advection_only(trial, test, wind)
    ref = _dense_advection_reference(trial, test, lambda x, y: (x * y, 0.3 - y), 6)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_advection_2d_scalar_wind_components_broadcast():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    wind = Wind(WindComponent(), WindComponent(b=lambda y: np.full_like(y, -0.5)))
    got = _advection_only(trial, test, wind)
    ref = _dense_advection_reference(trial, test, lambda x, y: (1.0, -0.5), 7)
    np.testing.assert_allclose(got, ref, atol=1e-12)


def test_variable_diffusion_enters_the_general_operator(monkeypatch):
    # the general path must read diffusion_x/diffusion_y, not one constant
    problem = dataclasses.replace(circular_wind(),
                                  diffusion_x=lambda x: 0.2 + 0.1 * x * x,
                                  diffusion_y=lambda y: 0.3 + 0.05 * y)
    assembled, assemble = [], full2d.assemble_2d_saddle

    def recorded(*args):
        assembled.append(assemble(*args))
        return assembled[-1]

    monkeypatch.setattr(full2d, "assemble_2d_saddle", recorded)
    stepper = _general(problem, 3, tau=0.1)
    ref = _dense_reference(
        stepper.trial, stepper.test,
        [(lambda x, y: 0.2 + 0.1 * x * x + 0.0 * y, (1, 0), (1, 0)),
         (lambda x, y: 0.3 + 0.05 * y + 0.0 * x, (0, 1), (0, 1)),
         (lambda x, y: y + 0.0 * x, (1, 0), (0, 0)),
         (lambda x, y: -x + 0.0 * y, (0, 1), (0, 0))], 7)
    # the saddle's B = M + (tau/2) W, the mass from the same quadrature route
    ref = _dense_reference(stepper.trial, stepper.test,
                           [(lambda x, y: 1.0 + 0.0 * x * y, (0, 0), (0, 0))], 7) + 0.05 * ref
    m = stepper.test.interior_dim
    np.testing.assert_allclose(assembled[0].toarray()[:m, m:], ref,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_separable_wind_reduces_to_kronecker_of_1d_blocks():
    trial = _space2d((2, 1), 4)
    test = _space2d((3, 0), 4)
    alpha = 0.07
    bx0, by0 = 1.3, -0.4
    gram, m_rect, w_rect = _operators(
        trial, test, (alpha, alpha),
        Wind(WindComponent(s=lambda t: bx0), WindComponent(s=lambda t: by0)))

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
    np.testing.assert_allclose(w_rect, ref_w, atol=1e-12)
    np.testing.assert_allclose(m_rect, np.kron(mx, my), atol=1e-13)

    mxt = interior(mass(test.x, test.x))
    myt = interior(mass(test.y, test.y))
    kxt = interior(stiffness(test.x, test.x))
    kyt = interior(stiffness(test.y, test.y))
    np.testing.assert_allclose(gram,
                               np.kron(mxt, myt) + np.kron(kxt, myt)
                               + np.kron(mxt, kyt), atol=1e-12)


def _assert_matches_oracle(got, ref, magnitude):
    """Same nonzero set, and entries within 1e-14 of their row's magnitude:
    the row's largest sum of term magnitudes (rows of M - dt W can cancel to
    1e-6 of their terms)."""
    got, ref = got.toarray(), ref.toarray()
    np.testing.assert_array_equal(got != 0.0, ref != 0.0)
    row = np.max(np.abs(magnitude.toarray()), axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-14 * row)


def test_saddle_matrix_blocks_and_symmetry():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    args = (trial, test, (0.01, 0.01), _ROTATION, 0.0, 0.05)
    matrix = assemble_2d_saddle(*args)
    gram, m_rect, w_rect = kron_operators(*args[:5])
    scale = kron_saddle(*args, magnitude=True)[0].toarray()
    b = (m_rect + 0.05 * w_rect).toarray()
    m = test.interior_dim
    n = trial.interior_dim
    assert matrix.format == "csc" and matrix.shape == (m + n, m + n)
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    assert matrix.has_canonical_format
    dense = matrix.toarray()
    for got, ref, rows in ((dense[:m, :m], gram.toarray(), slice(None, m)),
                           (dense[:m, m:], b, slice(None, m)),
                           (dense[m:, :m], b.T, slice(m, None))):
        _assert_matches_oracle(sp.csr_matrix(got), sp.csr_matrix(ref),
                               sp.csr_matrix(scale[rows]))
    np.testing.assert_array_equal(dense[m:, m:], 0.0)
    _assert_matches_oracle(matrix, matrix.T, sp.csr_matrix(scale))


def test_sparse_lu_matches_dense_solve():
    trial = _space2d((2, 1), 3)
    test = _space2d((3, 0), 3)
    matrix = assemble_2d_saddle(trial, test, (0.01, 0.01), _ROTATION, 0.0, 0.05)
    rng = np.random.default_rng(90)
    rhs = rng.standard_normal(matrix.shape[0])
    got = sparse_lu(matrix).solve(rhs)
    ref = np.linalg.solve(matrix.toarray(), rhs)
    np.testing.assert_allclose(got, ref, atol=1e-9)


def test_sparse_lu_raises_on_singular_matrix():
    singular = sp.csc_matrix((4, 4))
    with pytest.raises(SingularMatrixError):
        sparse_lu(singular)


_STEADY_WINDS = {  # each scaled by a drawn w; beta = (a_x b_x, a_y b_y)
    "rotation": lambda w: Wind(WindComponent(b=lambda y: w * y),
                               WindComponent(a=lambda x: -w * x)),
    "shear": lambda w: Wind(WindComponent(b=lambda y: w * (1.0 + y))),
    "constant": lambda w: Wind(WindComponent(), WindComponent(b=lambda y: 0.0 * y - w)),
}


@st.composite
def _saddle_cases(draw):
    """The assembly arguments of a general-path saddle on random spaces whose
    test space holds the trial space, and a seed for its right-hand side."""
    p = draw(st.integers(1, 3))
    c = draw(st.integers(0, p - 1))
    q = draw(st.sampled_from((p, p + 1)))
    cq = draw(st.integers(0, min(c, q - 1)))
    mesh = (draw(st.integers(2, 8)), draw(st.integers(2, 8)))
    intervals = ((x0 := draw(st.floats(-2.0, 2.0)), x0 + draw(st.floats(0.5, 1.5))),
                 (y0 := draw(st.floats(-2.0, 2.0)), y0 + draw(st.floats(0.5, 1.5))))
    trial, test = (Space2D(*(make_space(deg, cont, n, iv)
                             for n, iv in zip(mesh, intervals)))
                   for deg, cont in ((p, c), (q, cq)))
    d0, d1 = draw(st.floats(1e-3, 1.0)), draw(st.floats(0.0, 1.0))
    diffusion = draw(st.sampled_from((
        (d0, d0), (lambda x: d0 + d1 * x * x, lambda y: d1 + d0 * y * y))))
    wind = _STEADY_WINDS[draw(st.sampled_from(sorted(_STEADY_WINDS)))](
        draw(st.floats(-2.0, 2.0)))
    return ((trial, test, diffusion, wind, 0.0, draw(st.floats(1e-3, 1.0))),
            draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=40, deadline=None, database=None)
@given(_saddle_cases())
def test_assembly_matches_kron_oracle_on_random_saddles(case):
    # pattern and entries of the Kronecker-pattern layout against sp.kron/bmat;
    # a Galerkin pair assembles B alone, the saddle's upper right block
    args, _ = case
    trial, test = args[:2]
    matrix = assemble_2d_saddle(*args)
    saddle = kron_saddle(*args)[0]
    scale = kron_saddle(*args, magnitude=True)[0]
    m = test.interior_dim
    if matrix.shape[0] == trial.interior_dim:
        assert trial.x.continuity == test.x.continuity and trial.x.degree == test.x.degree
        saddle, scale = saddle[:m, m:], scale[:m, m:]
    _assert_matches_oracle(matrix, saddle, scale)


def _galerkin_4x6():
    # (2,0)/(2,0) on 4 x 6 elements, a saddle of 154 x 154 with B 77 x 77:
    # factored as a saddle with diagonal pivots, its relative residual was
    # 2.3e-12, over the 1e-12 bound
    x0, y0 = -0.006187219760613871, 1.858766849818728
    d0, d1, w = 0.06926615959657528, 0.8952829576253233, -0.48952193104297503
    space = Space2D(make_space(2, 0, 4, (x0, x0 + 0.5647818292693083)),
                    make_space(2, 0, 6, (y0, y0 + 0.8062255634674319)))
    diffusion = (lambda x: d0 + d1 * x * x, lambda y: d1 + d0 * y * y)
    return ((space, space, diffusion, _STEADY_WINDS["rotation"](w), 0.0,
             0.45212217568988305), 4066722294)


@settings(max_examples=40, deadline=None, database=None)
@given(_saddle_cases())
@example(_galerkin_4x6())
def test_sparse_lu_matches_dense_solve_on_random_saddles(case):
    # the symmetric ordering pivots on the diagonal: check it against a dense
    # partial-pivoting solve over spaces, meshes, winds, diffusion and dt.  A
    # Galerkin pair goes the program's route: B alone, r = 0
    args, seed = case
    trial, test = args[:2]
    matrix = assemble_2d_saddle(*args)
    saddle = kron_saddle(*args)[0].toarray()
    rhs = np.random.default_rng(seed).standard_normal(saddle.shape[0])
    m = test.interior_dim
    galerkin = matrix.shape[0] == trial.interior_dim
    if galerkin:
        rhs[m:] = 0.0
        got = np.concatenate([np.zeros(m), sparse_lu(matrix).solve(rhs[:m])])
    else:
        got = sparse_lu(matrix).solve(rhs)
    dense, b = (matrix.toarray(), rhs[:m]) if galerkin else (saddle, rhs)
    # backward stable: the residual is rounding on the scale of |M| |x| + |b|
    x = got[m:] if galerkin else got
    scale = np.linalg.norm(dense, np.inf) * np.max(np.abs(x)) + np.max(np.abs(b))
    assert np.max(np.abs(dense @ x - b)) <= 1e-12 * scale
    # two backward-stable solves differ by up to about kappa * eps; small
    # elements make |x| large, so the bound is relative to max |x|
    ref = np.linalg.solve(saddle, rhs)
    kappa = 1.0 / scipy.linalg.lapack.dgecon(scipy.linalg.lu_factor(saddle)[0],
                                             np.linalg.norm(saddle, 1))[0]
    np.testing.assert_allclose(got, ref, rtol=0.0,
                               atol=max(1e-9, 1e-13 * kappa) * np.max(np.abs(ref)))


def test_sparse_lu_passes_over_tiny_diagonal_pivots():
    # taking the 1e-14 pivot (threshold 0) leaves a relative residual of
    # 1.8e-4 on matrix @ ones; below 1e-4 of its column it is passed over
    near_singular = np.array([[1e-14, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    rhs = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(sparse_lu(sp.csc_matrix(near_singular)).solve(rhs),
                               np.linalg.solve(near_singular, rhs), rtol=1e-12)


@pytest.mark.parametrize("error, raises", [(1e-6, True), (np.nan, True),
                                           (1e-11, False)])
def test_sparse_lu_guard_rejects_an_inaccurate_factor(monkeypatch, error, raises):
    # a factor whose solves are off by the relative error: the residual on
    # matrix @ ones is that error, so above 1e-8 (or NaN) construction raises
    class Inaccurate:
        def __init__(self, lu):
            self.lu, self.nnz = lu, lu.nnz

        def solve(self, rhs):
            return self.lu.solve(rhs) * (1.0 + error)

    monkeypatch.setattr(full2d, "splu", lambda *a, **k: Inaccurate(splu(*a, **k)))
    matrix = assemble_2d_saddle(_space2d((2, 1), 3), _space2d((3, 0), 3),
                                (0.01, 0.01), _ROTATION, 0.0, 0.05)
    if raises:
        with pytest.raises(SingularMatrixError, match="relative residual"):
            sparse_lu(matrix)
    else:
        assert sparse_lu(matrix).fill_nnz > 0


def test_assembly_peak_memory_is_near_its_output():
    # the layout writes straight into the returned arrays: at 24^2,
    # (2,1)/(3,0), the sp.kron/bmat assembly peaked at 4.9 times their bytes
    trial, test = _space2d((2, 1), 24), _space2d((3, 0), 24)
    assemble_2d_saddle(trial, test, (0.01, 0.01), _ROTATION, 0.0, 0.05)  # warm imports
    tracemalloc.start()
    try:
        out = assemble_2d_saddle(trial, test, (0.01, 0.01), _ROTATION, 0.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(a.nbytes for a in (out.data, out.indices, out.indptr))
    assert peak <= 2.5 * size


def test_circular_wind_saddle_keeps_symmetric_ordering_fill():
    # at 16^2, (4,3)/(5,0), minimum degree on A+A^T fills L+U with about
    # 0.96M nonzeros and the unsymmetric COLAMD ordering with 12.9M
    stepper = RotatingFlowStepper(get_problem("circular-wind"),
                                  RunConfig(mesh=(16, 16), trial=(4, 3),
                                            test=(5, 0), tau=0.1))
    assert 0 < stepper.factor.fill_nnz < 2_000_000


def _galerkin_stepper(n):
    return RotatingFlowStepper(get_problem("circular-wind"),
                               RunConfig(problem="circular-wind", mesh=(n, n), trial=(2, 0),
                                         test=(2, 0), tau=0.1, stabilized=False))


def test_galerkin_pair_factors_b_alone_with_small_fill():
    # factored as a saddle, (2,0)/(2,0) at 32^2 filled L+U with 29.8M
    # nonzeros; B alone fills about 0.20M
    stepper = _galerkin_stepper(32)
    assert stepper.galerkin
    assert 0 < stepper.factor.fill_nnz < 1_000_000


def test_galerkin_steps_equal_the_dense_saddle_solve():
    # B alone gives the saddle's u, and r = 0 as the saddle's own solve does
    stepper = _galerkin_stepper(16)
    saddle, b_rhs = _saddle(stepper)
    saddle = saddle.toarray()
    lu = scipy.linalg.lu_factor(saddle)
    m = stepper.test.interior_dim
    state = stepper.initial_state()
    for _ in range(3):
        rhs = np.concatenate([b_rhs @ state.u.ravel(), np.zeros(m)])
        ref = scipy.linalg.lu_solve(lu, rhs)
        # one refinement: unrefined, the dense solve of this saddle (condition
        # 7.9e8) is itself 2.2e-12 off, while B's (condition 190) is not
        ref += scipy.linalg.lu_solve(lu, rhs - saddle @ ref)
        state = stepper.step(state)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(state.u.ravel() - ref[m:])) <= 1e-12 * scale
        assert np.max(np.abs(ref[:m])) <= 1e-12 * scale
        np.testing.assert_array_equal(state.r, 0.0)
        assert stepper.last_residual_norms == (0.0, 0.0)


def test_stabilized_run_with_the_trial_space_as_test_space_is_the_galerkin_run():
    # test = trial is the Galerkin pair whether or not the run is stabilized:
    # B alone is assembled and factored, r = 0, and u is the same bit for bit
    config = RunConfig(problem="circular-wind", mesh=(6, 6), trial=(2, 1), test=(2, 1),
                       tau=0.1)
    stabilized = RotatingFlowStepper(get_problem("circular-wind"), config)
    galerkin = RotatingFlowStepper(get_problem("circular-wind"),
                                   dataclasses.replace(config, stabilized=False))
    assert stabilized.test == stabilized.trial and stabilized.galerkin and galerkin.galerkin
    n = stabilized.trial.interior_dim
    assert assemble_2d_saddle(stabilized.trial, stabilized.test, (0.01, 0.01), _ROTATION,
                              0.0, 0.05).shape == (n, n)
    assert stabilized.factor.fill_nnz == galerkin.factor.fill_nnz
    a, b = stabilized.initial_state(), galerkin.initial_state()
    for _ in range(3):
        a, b = stabilized.step(a), galerkin.step(b)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.r, 0.0)
        assert stabilized.last_residual_norms == (0.0, 0.0)


def test_zero_dt_step_is_identity_on_representable_data():
    trial = _space2d((2, 1), 4)
    test = _space2d((3, 0), 4)
    matrix = assemble_2d_saddle(trial, test, (0.01, 0.01), _ROTATION, 0.0, 0.0)
    m_rect = kron_operators(trial, test, (0.01, 0.01), _ROTATION, 0.0)[1]
    rng = np.random.default_rng(91)
    u0 = rng.standard_normal(trial.interior_dim)
    rhs = np.concatenate([m_rect @ u0, np.zeros(trial.interior_dim)])
    sol = sparse_lu(matrix).solve(rhs)
    np.testing.assert_allclose(sol[:test.interior_dim], 0.0, atol=1e-10)
    np.testing.assert_allclose(sol[test.interior_dim:], u0, atol=1e-10)


def test_mesh_mismatch_rejected():
    trial = Space2D(make_space(2, 1, 4, (0.0, 1.0)),
                    make_space(2, 1, 4, (0.0, 1.0)))
    test = Space2D(make_space(3, 0, 5, (0.0, 1.0)),
                   make_space(3, 0, 4, (0.0, 1.0)))
    with pytest.raises(ParameterError):
        assemble_2d_saddle(trial, test, (0.01, 0.01), Wind(), 0.0, 0.05)


def test_rotating_stepper_single_step_matches_dense_solve():
    problem = get_problem("circular-wind")
    stepper = _general(problem, 4, tau=0.1)
    state = stepper.initial_state()
    dense, b_rhs = _saddle(stepper)
    dense = dense.toarray()
    rhs = np.concatenate([b_rhs @ state.u.ravel(),
                          np.zeros(stepper.trial.interior_dim)])
    ref = np.linalg.solve(dense, rhs)
    m = stepper.test.interior_dim
    out = stepper.step(state)
    np.testing.assert_allclose(out.u.ravel(), ref[m:], atol=1e-9)
    np.testing.assert_allclose(out.r.ravel(), ref[:m], atol=1e-9)
    assert out.time == pytest.approx(0.1)
    l2, h1 = stepper.last_residual_norms
    assert h1 >= l2 >= 0.0


@pytest.mark.parametrize("trial_pc, test_pc", [((2, 1), (3, 0)), ((1, 0), (2, 0))])
def test_residual_norms_are_the_test_space_quadratic_forms(trial_pc, test_pc):
    # L2 and H1 of r against its 2D quadratic forms: M_test = Mx (x) My and
    # the gram that the saddle is assembled from
    problem = get_problem("circular-wind")
    stepper = RotatingFlowStepper(problem, RunConfig(mesh=(6, 4), trial=trial_pc,
                                                     test=test_pc, tau=0.05))
    test = stepper.test
    m_test = sp.kron(block(mass, test.x, test.x).to_csr(),
                     block(mass, test.y, test.y).to_csr())
    gram = kron_operators(stepper.trial, test,
                          (problem.diffusion_x, problem.diffusion_y),
                          problem.wind, 0.0)[0]
    state = stepper.initial_state()
    for _ in range(3):
        state = stepper.step(state)
        r = state.r.ravel()
        l2, h1 = stepper.last_residual_norms
        assert h1 > l2 > 0.0
        assert abs(l2 - np.sqrt(r @ (m_test @ r))) <= 1e-13 * l2
        assert abs(h1 - np.sqrt(r @ (gram @ r))) <= 1e-13 * h1


def test_rotating_stepper_conserves_mass_norm_approximately():
    problem = get_problem("circular-wind")
    stepper = _general(problem, 12, tau=0.1)
    state = stepper.initial_state()
    n0 = solution_norms(state.u, stepper.trial_x, stepper.trial_y)[0]
    for _ in range(10):
        state = stepper.step(state)
        n = solution_norms(state.u, stepper.trial_x, stepper.trial_y)[0]
        assert n <= 1.01 * n0
    assert np.all(np.isfinite(state.u))


def test_rotating_stepper_requires_a_steady_wind():
    with pytest.raises(ParameterError, match="time-dependent wind"):
        _general(get_problem("pollution"), 4, tau=0.1)
    # a steady separable wind runs on the general path too, as timing does
    stepper = _general(get_problem("manufactured"), 4, tau=0.1)
    state = stepper.step(stepper.initial_state())
    assert state.time == pytest.approx(0.1)
    assert np.all(np.isfinite(state.u)) and np.any(state.u != 0.0)


def test_forced_monolithic_step_uses_trapezoidal_loads():
    problem = get_problem("circular-wind")
    forced = dataclasses.replace(problem,
                                 forcing=lambda x, y, t: (1.0 + t) + 0.0 * x)
    stepper = _general(forced, 4, tau=0.2)
    state = SolutionState(u=np.zeros(stepper.trial.interior_shape), time=0.0)
    out = stepper.step(state)
    loads = LoadAssembler(stepper.test.x, stepper.test.y)
    load0 = loads.load(forced.forcing, 0.0)
    load1 = loads.load(forced.forcing, 0.2)
    rhs = np.concatenate([0.5 * 0.2 * (load0 + load1).ravel(),
                          np.zeros(stepper.trial.interior_dim)])
    ref = np.linalg.solve(_saddle(stepper)[0].toarray(), rhs)
    np.testing.assert_allclose(out.u.ravel(),
                               ref[stepper.test.interior_dim:],
                               atol=1e-10)
