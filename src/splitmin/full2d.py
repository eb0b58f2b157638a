"""General 2D residual-minimization solver.

For winds that couple the directions, e.g. the rigid rotation (y, -x), the
per-direction splitting does not apply; this module assembles the full 2D
saddle system

    [[A, B], [B^T, 0]] [r; u] = [rhs; 0]

with A the test-space Gram of the full H1 inner product (L2 plus both
gradient terms) and B the rectangular one-step operator

    B = M + dt_eff * W,    W u = (eps grad u, grad psi) + (beta . grad u, psi),

and factorizes it once with a sparse LU (reused across steps while beta is
time-independent).  Every block is a sum of Kronecker products of the 1D
blocks the split path assembles.  With eps = (eps_x(x), eps_y(y)) and the
wind in product form, beta_x = s_x(t) a_x(x) b_x(y) and
beta_y = s_y(t) a_y(x) b_y(y),

    W = K_x[eps_x] (x) M_y + M_x (x) K_y[eps_y]
        + s_x G_x[a_x] (x) M_y[b_x] + s_y M_x[a_y] (x) G_y[b_y],

with K, G and M the 1D stiffness, advection and (weighted) mass blocks.
The 2D arrays are written straight from the 1D patterns: each side's terms
are read on the union of their nonzeros, all values come from one product of
the two sides' value stacks, and they land row-major in the CSR arrays, with
no triplets, sorting or sparse sums.  The saddle is symmetric but for A's
rounding, so the rows [A^T | B] and [B^T | 0], written as CSR arrays, are
its CSC arrays.  When the test spaces equal the trial spaces
(a Galerkin pair), B is square, r = 0 and the saddle reduces to B u = rhs:
only B is assembled and factored.  The matrix is dropped once its factor has
passed the guard; the stepper keeps the factor, the 1D test x trial masses,
the residual's 1D norm blocks, and a LoadAssembler on the test spaces when
the problem has a forcing.

All matrices are homogeneous-Dirichlet eliminated; 2D dof order is
row-major, index = ix * n_y + iy over interior 1D indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import advection, block, mass, norm_blocks, stiffness
from .banded import BandedMatrix, common_entries
from .exceptions import ParameterError, SingularMatrixError
from .kron import OpCounter, kron_matvec, kron_norms
from .resmin import LoadAssembler, SolutionState
from .splines import SplineSpace
from .stepping import RunConfig, StepperBase

__all__ = ["Space2D", "assemble_2d_saddle", "sparse_lu", "RotatingFlowStepper"]


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


def _galerkin(trial: Space2D, test: Space2D) -> bool:
    """The test spaces are the trial spaces: B is square and r = 0."""
    return all((s.degree, s.continuity) == (v.degree, v.continuity)
               for s, v in ((trial.x, test.x), (trial.y, test.y)))


def _transpose(m: BandedMatrix) -> BandedMatrix:
    return BandedMatrix.from_entries(m.cols, m.rows, m.vals, (m.n_cols, m.n_rows))


_CHUNK = 1 << 15  # entries written per pass, so transients stay small beside the output


def _kron_csr(block_rows):
    """CSR arrays (data, indices, indptr) of a block matrix of Kronecker sums.

    ``block_rows`` lists the block rows, each its blocks from the left (a
    zero block may only close a row, and is left out).  A block is a list of
    (c, X, Y) terms of 1D blocks, summing c X (x) Y.  Each side's terms are
    read on the union of their patterns, so the entry at x entry a and y
    entry b is (V_x diag(c) V_y^T)[a, b].  Entries are written row-major
    straight into the arrays: 2D row (i, k) holds lenx[i] * leny[k] entries of
    each block, columns ascending.  No triplets are formed and nothing is
    sorted.
    """
    plans, lengths = [], []
    for row in block_rows:
        before, col = 0, 0
        for terms in row:
            c, xs, ys = zip(*terms)
            x, y = common_entries(*xs), common_entries(*ys)
            lx = np.bincount(x[0], minlength=xs[0].n_rows)
            ly = np.bincount(y[0], minlength=ys[0].n_rows)
            plans.append((len(lengths), before, col, x, y, ly, np.array(c), ys[0].n_cols))
            before = before + np.outer(lx, ly).ravel()
            col += xs[0].n_cols * ys[0].n_cols
        lengths.append(before)
    row0 = np.cumsum([0] + [n.size for n in lengths])
    nnz = int(sum(n.sum() for n in lengths))
    indptr = np.zeros(row0[-1] + 1, dtype=np.int32)
    np.cumsum(np.concatenate(lengths), out=indptr[1:])
    data, indices = np.empty(nnz), np.empty(nnz, dtype=np.int32)
    for r, before, col, (rx, cx, vx), (ry, cy, vy), ly, c, n_cols_y in plans:
        if rx.size == 0 or ry.size == 0:
            continue
        starts = (indptr[row0[r]:row0[r + 1]] + before).reshape(-1, ly.size)
        vx, vy = np.column_stack(vx) * c, np.array(vy)
        a_off = np.arange(rx.size) - np.searchsorted(rx, rx)
        b_off = np.arange(ry.size) - np.searchsorted(ry, ry)
        row_len, y_cols = ly[ry], cy + col
        step = max(1, _CHUNK // ry.size)
        for a0 in range(0, rx.size, step):
            a = slice(a0, a0 + step)
            dest = starts[rx[a, None], ry] + a_off[a, None] * row_len + b_off
            data[dest] = vx[a] @ vy
            indices[dest] = cx[a, None] * n_cols_y + y_cols
    return data, indices, indptr


def assemble_2d_saddle(trial: Space2D, test: Space2D, diffusion, wind, t: float,
                       dt_eff: float):
    """The CSC matrix the stepper factors: the saddle [[A, B], [B^T, 0]] with
    B = M + dt_eff W, or B alone for a Galerkin pair.

    diffusion is the (x, y) pair of 1D coefficients, each a constant, a
    callable of its own coordinate or None (1).  The wind, a Wind, enters
    through its time-free factors scaled by Wind.scales(t).
    """
    (ax, bx), (ay, by) = wind.factors
    sx, sy = wind.scales(t)
    tables = {}  # each space's element tables, made once for all its blocks

    def on_x(kind, coefficient=None, source=trial):
        return block(kind, source.x, test.x, coefficient, tables)

    def on_y(kind, coefficient=None, source=trial):
        return block(kind, source.y, test.y, coefficient, tables)

    mx, my = on_x(mass), on_y(mass)
    w = [(1.0, on_x(stiffness, diffusion[0]), my),
         (1.0, mx, on_y(stiffness, diffusion[1])),
         (sx, on_x(advection, ax), on_y(mass, bx)),
         (sy, on_x(mass, ay), on_y(advection, by))]
    b = [(1.0, mx, my)] + [(dt_eff * c, x, y) for c, x, y in w]
    b_t = [(c, _transpose(x), _transpose(y)) for c, x, y in b]
    m, n = test.interior_dim, trial.interior_dim
    if _galerkin(trial, test):  # B^T's CSR arrays are B's CSC arrays
        return sp.csc_matrix(_kron_csr([[b_t]]), shape=(n, n))
    mx, my = on_x(mass, source=test), on_y(mass, source=test)
    gram = [(1.0, mx, my), (1.0, on_x(stiffness, source=test), my),
            (1.0, mx, on_y(stiffness, source=test))]
    # rows [A^T | B] and [B^T | 0]: read as CSC, they are the saddle as assembled
    gram_t = [(c, _transpose(x), _transpose(y)) for c, x, y in gram]
    return sp.csc_matrix(_kron_csr([[gram_t, b], [b_t]]), shape=(m + n, m + n))


class _SparseFactor:
    """SuperLU of the saddle, or of B alone: minimum degree on A+A^T,
    diagonal pivots.

    Pivots below 1e-4 of their column are passed over: at 0, smooth-test
    saddles lose all accuracy; at 1e-2, row swaps undo the ordering.  On B
    alone this ordering fills less than COLAMD with partial pivoting
    (0.20M against 0.51M at 32^2, (2,0)/(2,0)).  A relative residual above
    1e-8 on matrix @ ones raises.  fill_nnz is SuperLU's count of the
    entries it stores in L and U.
    """

    def __init__(self, matrix):
        try:
            self._lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=1e-4, options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
        self.fill_nnz = int(self._lu.nnz)
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

    dt_eff = tau / 2 enters the one-step operator B = M + dt_eff W.  The
    Crank-Nicolson right side (M - dt_eff W) u = 2 M u - B u needs no second
    operator: the solve is linear, and (0, -u) solves for (-B u, 0), so a step
    solves for M u and half the loads, the backward-Euler half step y, and
    takes (r, u') = (2 y_r, 2 y_u - u).  The factorization is computed once
    and reused, so the wind must be steady; any steady wind is accepted.  A
    Galerkin pair factors B alone and returns r = 0.  The counter receives
    the banded work of the initial projection; the sparse LU is not counted
    as ops.  Its cost figure is factor.fill_nnz, SuperLU's count of the L and
    U entries, which run writes to metadata.json.
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
        matrix = assemble_2d_saddle(
            self.trial, self.test, (problem.diffusion_x, problem.diffusion_y),
            problem.wind, config.t0, 0.5 * config.tau)
        self.galerkin = matrix.shape[0] == self.trial.interior_dim  # B alone
        self.factor = sparse_lu(matrix)
        del matrix  # steps read only the factor
        # M = Mx (x) My, test x trial
        self._masses = [block(mass, s, v).to_csr()
                        for s, v in ((self.trial_x, self.test_x), (self.trial_y, self.test_y))]
        self.loads = (None if problem.forcing is None
                      else LoadAssembler(self.test_x, self.test_y))
        if not self.galerkin:
            # the residual's V-norm blocks: test masses and H1 Grams
            self._norm_blocks = norm_blocks(self.test_x, self.test_y)
            for b in self._norm_blocks:
                b.to_csr()  # built here once, not in the first step

    def step(self, state: SolutionState) -> SolutionState:
        tau = self.config.tau
        rhs = kron_matvec(*self._masses, state.u)
        f, support = self.problem.forcing, self.problem.forcing_support
        if f is not None:
            rhs = rhs + 0.25 * tau * (self.loads.load(f, state.time, support)
                                      + self.loads.load(f, state.time + tau, support))
        if self.galerkin:
            y, r = self.factor.solve(rhs.ravel()), np.zeros(self.test.interior_shape)
        else:
            m = self.test.interior_dim
            y = self.factor.solve(np.concatenate([rhs.ravel(), np.zeros(self.trial.interior_dim)]))
            r, y = 2.0 * y[:m].reshape(self.test.interior_shape), y[m:]
            self.last_residual_norms = kron_norms(r, *self._norm_blocks)
        u = 2.0 * y.reshape(self.trial.interior_shape) - state.u
        return SolutionState(u=u, r=r, time=state.time + tau)
