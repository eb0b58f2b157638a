"""General 2D residual-minimization solver.

For winds that couple the directions, e.g. the rigid rotation (y, -x), the
per-direction splitting does not apply; this module assembles the full 2D
saddle system

    [[A, B], [B^T, 0]] [r; u] = [rhs; 0]

with A the test-space Gram of the full H1 inner product (L2 plus both
gradient terms) and B the rectangular one-step operator

    B = M + dt_eff * W,    W u = (eps grad u, grad psi) + (beta . grad u, psi),

and factorizes it once with a sparse LU (reused across steps while beta is
time-independent).  Every block is a Kronecker product of the 1D blocks the
split path assembles.  With eps = (eps_x(x), eps_y(y)) and the wind in
product form, beta_x = s_x(t) a_x(x) b_x(y) and beta_y = s_y(t) a_y(x) b_y(y),

    W = K_x[eps_x] (x) M_y + M_x (x) K_y[eps_y]
        + s_x G_x[a_x] (x) M_y[b_x] + s_y M_x[a_y] (x) G_y[b_y],

with K, G and M the 1D stiffness, advection and (weighted) mass blocks.
Loads come from the split path's LoadAssembler on the test spaces, and the
residual norms from kron_norms on the 1D test blocks.  The stepper keeps the
factor and the right-hand-side operator, not the assembled saddle.

All matrices are homogeneous-Dirichlet eliminated; 2D dof order is
row-major, index = ix * n_y + iy over interior 1D indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import advection, block, mass, norm_blocks, stiffness
from .banded import BandedMatrix
from .exceptions import ParameterError, SingularMatrixError
from .kron import OpCounter, kron_norms
from .resmin import LoadAssembler, SolutionState
from .splines import SplineSpace
from .stepping import RunConfig, StepperBase

__all__ = ["Space2D", "SaddleSystem", "assemble_2d_operators",
           "assemble_2d_saddle", "sparse_lu", "RotatingFlowStepper"]


@dataclass(frozen=True)
class Space2D:
    x: SplineSpace
    y: SplineSpace

    @property
    def interior_dim(self) -> int:
        return (self.x.dim - 2) * (self.y.dim - 2)

    @property
    def interior_shape(self) -> tuple[int, int]:
        return (self.x.dim - 2, self.y.dim - 2)


def _kron(ax: BandedMatrix, ay: BandedMatrix) -> sp.csr_matrix:
    """Kronecker product of two 1D blocks from ``block``."""
    return sp.kron(ax.to_csr(), ay.to_csr(), format="csr")


def assemble_2d_operators(trial: Space2D, test: Space2D, diffusion, wind, t: float):
    """Return (gram, m_rect, w_rect), all interior-eliminated CSR.

    gram   test x test, (psi, phi) + (grad psi, grad phi)
    m_rect test x trial mass
    w_rect test x trial, (eps grad u, grad psi) + (beta . grad u, psi)

    diffusion is the (x, y) pair of 1D coefficients, each a constant, a
    callable of its own coordinate or None (1).  The wind, a Wind, enters
    through its time-free factors scaled by Wind.scales(t).
    """
    (ax, bx), (ay, by) = wind.factors
    sx, sy = wind.scales(t)
    mx, my = block(mass, test.x, test.x), block(mass, test.y, test.y)
    gram = (_kron(mx, my) + _kron(block(stiffness, test.x, test.x), my)
            + _kron(mx, block(stiffness, test.y, test.y)))
    mx, my = block(mass, trial.x, test.x), block(mass, trial.y, test.y)
    m_rect = _kron(mx, my)
    w_rect = (_kron(block(stiffness, trial.x, test.x, diffusion[0]), my)
              + _kron(mx, block(stiffness, trial.y, test.y, diffusion[1]))
              + _kron(sx * block(advection, trial.x, test.x, ax),
                      block(mass, trial.y, test.y, bx))
              + _kron(block(mass, trial.x, test.x, ay),
                      sy * block(advection, trial.y, test.y, by)))
    return gram.tocsr(), m_rect, w_rect.tocsr()


class SaddleSystem(NamedTuple):
    matrix: sp.csc_matrix      # [[A, B], [B^T, 0]]
    m_rect: sp.csr_matrix
    w_rect: sp.csr_matrix


def assemble_2d_saddle(trial: Space2D, test: Space2D, diffusion, wind, t: float,
                       dt_eff: float) -> SaddleSystem:
    gram, m_rect, w_rect = assemble_2d_operators(trial, test, diffusion, wind, t)
    b = (m_rect + dt_eff * w_rect).tocsr()
    saddle = sp.bmat([[gram, b], [b.T, None]], format="csc")
    return SaddleSystem(saddle, m_rect, w_rect)


class _SparseFactor:
    """SuperLU of the saddle: minimum degree on A+A^T, diagonal pivots.

    Pivots below 1e-4 of their column are passed over: at 0, Galerkin and
    smooth-test pairs lose all accuracy; at 1e-2, row swaps undo the ordering.
    A relative residual above 1e-8 on matrix @ ones raises.  fill_nnz = nnz(L+U).
    """

    def __init__(self, matrix):
        try:
            self._lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=1e-4, options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
        self.fill_nnz = int(self._lu.L.nnz + self._lu.U.nnz)
        rhs = matrix @ np.ones(matrix.shape[1])
        rel = np.linalg.norm(matrix @ self._lu.solve(rhs) - rhs) / np.linalg.norm(rhs)
        if not rel <= 1e-8:  # also NaN, from a singular matrix with rhs = 0
            raise SingularMatrixError(f"unstable sparse factor: relative residual {rel:.1e}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)


def sparse_lu(matrix) -> _SparseFactor:
    return _SparseFactor(matrix)


class RotatingFlowStepper(StepperBase):
    """Monolithic Crank-Nicolson stepping of the full 2D saddle system.

    dt_eff = tau / 2 enters the one-step operator; the right side uses the
    mirrored operator M - dt_eff W.  The factorization is computed once and
    reused, so the wind must be steady; any steady wind is accepted.  The
    counter receives the banded work of the initial projection; the sparse
    LU is not counted as ops.  Its cost figure is factor.fill_nnz, the L+U
    nonzeros, which run writes to metadata.json.
    """

    def __init__(self, problem, config: RunConfig,
                 counter: OpCounter | None = None):
        if problem.wind.time_dependent:
            raise ParameterError(
                f"problem {problem.name!r} has a time-dependent wind; the "
                "general path reuses one factorization and needs a steady wind")
        super().__init__(problem, config, counter)
        self.trial = Space2D(self.trial_x, self.trial_y)
        self.test = Space2D(self.test_x, self.test_y)
        tau = config.tau
        system = assemble_2d_saddle(self.trial, self.test,
                                    (problem.diffusion_x, problem.diffusion_y),
                                    problem.wind, config.t0, 0.5 * tau)
        self.b_rhs = (system.m_rect - 0.5 * tau * system.w_rect).tocsr()
        self.factor = sparse_lu(system.matrix)
        self.loads = LoadAssembler(self.test_x, self.test_y)
        # the residual's V-norm blocks: test masses and H1 Grams
        self._norm_blocks = norm_blocks(self.test_x, self.test_y)
        for b in self._norm_blocks:
            b.to_csr()  # built here once, not in the first step

    def step(self, state: SolutionState) -> SolutionState:
        tau = self.config.tau
        rhs_top = self.b_rhs @ state.u.ravel()
        f, support = self.problem.forcing, self.problem.forcing_support
        if f is not None:
            load = (self.loads.load(f, state.time, support)
                    + self.loads.load(f, state.time + tau, support))
            rhs_top = rhs_top + 0.5 * tau * load.ravel()
        rhs = np.concatenate([rhs_top, np.zeros(self.trial.interior_dim)])
        sol = self.factor.solve(rhs)
        r = sol[:self.test.interior_dim].reshape(self.test.interior_shape)
        u = sol[self.test.interior_dim:].reshape(self.trial.interior_shape)
        self.last_residual_norms = kron_norms(r, *self._norm_blocks)
        return SolutionState(u=u, r=r, time=state.time + tau)
