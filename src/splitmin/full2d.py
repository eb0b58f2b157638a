"""General (non-Kronecker) 2D residual-minimization solver.

For winds that couple the directions, e.g. the rigid rotation (y, -x), the
per-direction splitting does not apply; this module assembles the full 2D
saddle system

    [[A, B], [B^T, 0]] [r; u] = [rhs; 0]

with A the test-space Gram of the full H1 inner product (L2 plus both
gradient terms) and B the rectangular one-step operator

    B = M + dt_eff * W,    W u = alpha (grad u, grad psi) + (beta . grad u, psi),

and factorizes it once with a sparse LU (reused across steps while beta is
time-independent).  Separable contributions (mass, constant diffusion, Gram)
are Kronecker products of 1D matrices; only the advection term and the loads
need 2D quadrature, contracted over all elements at once from the 1D element
tables.

All matrices are homogeneous-Dirichlet eliminated; 2D dof order is
row-major, index = ix * n_y + iy over interior 1D indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import _nq, mass, stiffness
from .exceptions import ParameterError, SingularMatrixError
from .resmin import SolutionState
from .splines import ElementTable, SplineSpace, element_table, make_space

__all__ = ["Space2D", "SaddleSystem", "assemble_2d_operators",
           "assemble_2d_saddle", "assemble_2d_load", "sparse_lu",
           "RotatingFlowStepper"]


@dataclass(frozen=True)
class Space2D:
    x: SplineSpace
    y: SplineSpace

    @property
    def dim(self) -> int:
        return self.x.dim * self.y.dim

    @property
    def interior_dim(self) -> int:
        return (self.x.dim - 2) * (self.y.dim - 2)

    @property
    def interior_shape(self) -> tuple[int, int]:
        return (self.x.dim - 2, self.y.dim - 2)


def _check_meshes(trial: Space2D, test: Space2D) -> None:
    for t, v, label in ((trial.x, test.x, "x"), (trial.y, test.y, "y")):
        if t.n_elements != v.n_elements or t.interval != v.interval:
            raise ParameterError(
                f"trial and test meshes must coincide in {label} for the 2D "
                f"assembly ({t.n_elements} vs {v.n_elements} elements)")


def _interior_kron(ax, ay) -> sp.csr_matrix:
    """Kronecker product of two interior-eliminated 1D operators."""
    return sp.kron(sp.csr_matrix(ax), sp.csr_matrix(ay), format="csr")


def _element_dofs(tx: ElementTable, ty: ElementTable, n_y: int) -> np.ndarray:
    """2D index of each element's active functions, shaped (Ex, Ey, px+1, py+1)."""
    ix = tx.firsts[:, None] + np.arange(tx.values.shape[2])
    iy = ty.firsts[:, None] + np.arange(ty.values.shape[2])
    return ix[:, None, :, None] * n_y + iy[None, :, None, :]


def _tensor_rule(tx: ElementTable, ty: ElementTable):
    """Points and weights of the 2D rule on every element, shaped (Ex, Ey, nqx, nqy)."""
    X = tx.points[:, None, :, None]
    Y = ty.points[None, :, None, :]
    return X, Y, tx.weights[:, None, :, None] * ty.weights[None, :, None, :]


def _assemble_advection_2d(trial: Space2D, test: Space2D,
                           beta_field: Callable) -> sp.csr_matrix:
    """Full (non-eliminated) advection matrix (beta . grad u, psi)."""
    nqx = max(_nq(trial.x.degree, test.x.degree), _nq(test.x.degree, test.x.degree))
    nqy = max(_nq(trial.y.degree, test.y.degree), _nq(test.y.degree, test.y.degree))
    bx, by = element_table(trial.x, nqx), element_table(trial.y, nqy)
    tx, ty = element_table(test.x, nqx), element_table(test.y, nqy)
    X, Y, W = _tensor_rule(bx, by)
    beta_x, beta_y = beta_field(X, Y)
    wbx = W * np.broadcast_to(np.asarray(beta_x, dtype=float), W.shape)
    wby = W * np.broadcast_to(np.asarray(beta_y, dtype=float), W.shape)
    blk = np.einsum("xyab,xak,ybl,xai,ybj->xyklij", wbx, tx.values, ty.values,
                    bx.derivatives, by.values, optimize=True)
    blk += np.einsum("xyab,xak,ybl,xai,ybj->xyklij", wby, tx.values, ty.values,
                     bx.values, by.derivatives, optimize=True)
    rows = _element_dofs(tx, ty, test.y.dim)[:, :, :, :, None, None]
    cols = _element_dofs(bx, by, trial.y.dim)[:, :, None, None, :, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    mat = sp.coo_matrix((blk.ravel(), (rows.ravel(), cols.ravel())),
                        shape=(test.dim, trial.dim))
    return mat.tocsr()


def _interior_indices(space: Space2D) -> np.ndarray:
    nx, ny = space.x.dim, space.y.dim
    ix = np.arange(1, nx - 1)
    iy = np.arange(1, ny - 1)
    return (ix[:, None] * ny + iy[None, :]).ravel()


def assemble_2d_operators(trial: Space2D, test: Space2D, alpha: float,
                          beta_field: Optional[Callable]):
    """Return (gram, m_test, m_rect, w_rect), all interior-eliminated CSR.

    gram   test x test, (psi, phi) + (grad psi, grad phi)
    m_test test x test mass (the L2 part of gram)
    m_rect test x trial mass
    w_rect test x trial, alpha (grad u, grad psi) + (beta . grad u, psi)
    """
    _check_meshes(trial, test)

    def blocks(rows, cols):
        m = mass(cols, rows).interior().to_dense()
        k = stiffness(cols, rows).interior().to_dense()
        return m, k

    mx_tt, kx_tt = blocks(test.x, test.x)
    my_tt, ky_tt = blocks(test.y, test.y)
    m_test = _interior_kron(mx_tt, my_tt)
    gram = (m_test + _interior_kron(kx_tt, my_tt)
            + _interior_kron(mx_tt, ky_tt))

    mx_r, kx_r = blocks(test.x, trial.x)
    my_r, ky_r = blocks(test.y, trial.y)
    m_rect = _interior_kron(mx_r, my_r)
    w_rect = alpha * (_interior_kron(kx_r, my_r) + _interior_kron(mx_r, ky_r))
    if beta_field is not None:
        adv = _assemble_advection_2d(trial, test, beta_field)
        keep_rows = _interior_indices(test)
        keep_cols = _interior_indices(trial)
        w_rect = (w_rect + adv[keep_rows][:, keep_cols]).tocsr()
    return gram.tocsr(), m_test.tocsr(), m_rect.tocsr(), w_rect


class SaddleSystem(NamedTuple):
    matrix: sp.csc_matrix      # [[A, B], [B^T, 0]]
    gram: sp.csr_matrix
    m_test: sp.csr_matrix
    b: sp.csr_matrix
    m_rect: sp.csr_matrix
    w_rect: sp.csr_matrix
    test_shape: tuple[int, int]
    trial_shape: tuple[int, int]


def assemble_2d_saddle(trial: Space2D, test: Space2D, alpha: float,
                       beta_field: Optional[Callable],
                       dt_eff: float) -> SaddleSystem:
    gram, m_test, m_rect, w_rect = assemble_2d_operators(trial, test, alpha,
                                                         beta_field)
    b = (m_rect + dt_eff * w_rect).tocsr()
    saddle = sp.bmat([[gram, b], [b.T, None]], format="csc")
    return SaddleSystem(saddle, gram, m_test, b, m_rect, w_rect,
                        test.interior_shape, trial.interior_shape)


def assemble_2d_load(test: Space2D, f: Callable, t: float) -> np.ndarray:
    """Interior load grid (test_x - 2, test_y - 2): integral of f psi."""
    tx = element_table(test.x, _nq(test.x.degree, test.x.degree) + 1)
    ty = element_table(test.y, _nq(test.y.degree, test.y.degree) + 1)
    X, Y, W = _tensor_rule(tx, ty)
    fv = np.broadcast_to(np.asarray(f(X, Y, t), dtype=float), W.shape)
    blk = np.einsum("xyab,xak,ybl->xykl", W * fv, tx.values, ty.values,
                    optimize=True)
    out = np.bincount(_element_dofs(tx, ty, test.y.dim).ravel(), blk.ravel(),
                      minlength=test.dim)
    return out.reshape(test.x.dim, test.y.dim)[1:-1, 1:-1]


class _SparseFactor:
    def __init__(self, matrix):
        try:
            self._lu = splu(matrix.tocsc())
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def sparse_lu(matrix) -> _SparseFactor:
    return _SparseFactor(matrix)


class RotatingFlowStepper:
    """Monolithic Crank-Nicolson stepping of the full 2D saddle system.

    dt_eff = tau / 2 enters the one-step operator; the right side uses the
    mirrored operator M - dt_eff W.  The factorization is computed once and
    reused, which is valid while the wind is time-independent.
    """

    def __init__(self, problem, mesh: tuple[int, int], trial: tuple[int, int],
                 test: tuple[int, int], tau: float):
        if problem.velocity_field is None:
            raise ParameterError(
                f"problem {problem.name!r} does not define a 2D wind field")
        if problem.velocity_time_dependent:
            raise ParameterError("factor reuse requires a steady wind")
        (x0, x1), (y0, y1) = problem.domain
        p, c = trial
        q, cq = test
        self.trial = Space2D(make_space(p, c, mesh[0], (x0, x1)),
                             make_space(p, c, mesh[1], (y0, y1)))
        self.test = Space2D(make_space(q, cq, mesh[0], (x0, x1)),
                            make_space(q, cq, mesh[1], (y0, y1)))
        self.problem = problem
        self.tau = tau
        system = assemble_2d_saddle(self.trial, self.test, problem.alpha,
                                    problem.velocity_field, 0.5 * tau)
        self.system = system
        self.b_rhs = (system.m_rect - 0.5 * tau * system.w_rect).tocsr()
        self.factor = sparse_lu(system.matrix)
        self._m_test = system.test_shape[0] * system.test_shape[1]
        self.last_residual_norms = (0.0, 0.0)

    @property
    def trial_x(self) -> SplineSpace:
        return self.trial.x

    @property
    def trial_y(self) -> SplineSpace:
        return self.trial.y

    def initial_state(self) -> SolutionState:
        from .stepping import project_initial
        state = project_initial(self.problem.initial, self.trial.x, self.trial.y)
        state.time = self.problem.time_interval[0]
        return state

    def step(self, state: SolutionState) -> SolutionState:
        rhs_top = self.b_rhs @ state.u.ravel()
        if self.problem.forcing is not None:
            load = (assemble_2d_load(self.test, self.problem.forcing, state.time)
                    + assemble_2d_load(self.test, self.problem.forcing,
                                       state.time + self.tau))
            rhs_top = rhs_top + 0.5 * self.tau * load.ravel()
        rhs = np.concatenate([rhs_top, np.zeros(self.trial.interior_dim)])
        sol = self.factor.solve(rhs)
        rvec = sol[:self._m_test]
        r = rvec.reshape(self.system.test_shape)
        u = sol[self._m_test:].reshape(self.system.trial_shape)
        self.last_residual_norms = (
            float(np.sqrt(max(rvec @ (self.system.m_test @ rvec), 0.0))),
            float(np.sqrt(max(rvec @ (self.system.gram @ rvec), 0.0))))
        return SolutionState(u=u, r=r, time=state.time + self.tau)
