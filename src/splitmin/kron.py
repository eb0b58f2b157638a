"""Linear-cost direct solvers for the Kronecker-structured substep systems.

Three pieces:

* ``BandedLU`` -- LU of a square banded matrix with partial pivoting
  restricted to the band (pivot search over the lower bandwidth; the upper
  bandwidth of U grows by at most the lower bandwidth), by LAPACK
  ``dgbtrf``/``dgbtrs``.  Cost O(n * band^2).  ``BandLayout`` places a
  nonzero pattern in LAPACK's band array, the only band storage in the
  program; the bandwidths are those of the pattern.

* ``SaddleFactor`` -- factorization of the indefinite block system

      [[A, B], [B^T, 0]] (r, u) = (F, 0)

  with A the m x m SPD test Gram and B the m x n trial-to-test block.  Test
  and trial unknowns are interleaved by their 1D position (Gram unknown first
  on ties) so the block system becomes ONE banded matrix of size m+n with
  bandwidth independent of the mesh; a single banded LU then factors it.
  Locally the Gram rows eliminate the B^T rows, and both factorization and
  each solve stay O(m + n).  The merged pattern and its ``BandLayout`` are
  found once: ``refactor`` factors for new values of B on the same pattern.
  ``solve_deferred`` gathers u at once and returns r as a function that
  gathers it, for the callers that may not read r.

* ``kron_solve`` / ``kron_matvec`` / ``kron_norms`` -- (F_split (x) A_other)^{-1},
  (Ax (x) Ay) and the L2/H1 norms of Kronecker-product inner products on
  coefficient grids indexed (x, y), never materializing a Kronecker product.
  A solve runs the other direction first: a saddle's right-hand side [F; 0]
  has zero trial rows, so A_other^{-1} acts on the m test rows only.  A
  product contracts its cheaper axis first.

Every factorization and solve adds its floating-point work to an
``OpCounter``; counted operations, not wall clock, are the cost metric the
linear-complexity checks assert on.  The banded LU's counts are structural
closed forms in n, the bandwidths and the number of right-hand-side columns:
the operations of the row-by-row band elimination, which never depend on
the values.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .banded import BandedMatrix
from .exceptions import SingularMatrixError

__all__ = ["OpCounter", "BandLayout", "BandedLU", "SaddleFactor", "kron_solve", "kron_matvec",
           "kron_norms", "along", "x_first_cheaper"]


class OpCounter:
    """Accumulates counted floating-point operations, split by phase."""

    def __init__(self):
        self.factor_ops = 0
        self.solve_ops = 0

    @property
    def total(self) -> int:
        return self.factor_ops + self.solve_ops


class BandLayout:
    """Where a fixed square pattern goes in dgbtrf's band storage, and its op counts.

    The bandwidths are the pattern's own: its extreme diagonal offsets.
    """

    def __init__(self, rows, cols, n: int):
        lb, ub = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
        self.n, self.lb, self.ub = n, lb, ub
        self._slots = (lb + ub + rows - cols, cols)
        # rows below the pivot at each step, and entries of U right of the
        # diagonal, which row swaps widen by lb
        below = np.minimum(lb, np.arange(n)[::-1])
        right = np.minimum(lb + ub, np.arange(n)[::-1])
        self.factor_ops = int(below.sum()) * (1 + 2 * (lb + ub))
        self.solve_ops_per_column = int(2 * below.sum() + 2 * right.sum()
                                        + np.count_nonzero(right) + n)

    def fill(self, vals) -> np.ndarray:
        """ab[lb + ub + i - j, j] = A[i, j]; the lb rows on top take the row swaps' fill-in."""
        ab = np.zeros((2 * self.lb + self.ub + 1, self.n), order="F")
        ab[self._slots] = vals
        return ab


class BandedLU:
    """LU with band-restricted pivoting (LAPACK dgbtrf/dgbtrs) of a square
    BandedMatrix or of a (BandLayout, values) pair."""

    def __init__(self, matrix, counter: OpCounter | None = None):
        if isinstance(matrix, BandedMatrix):
            if matrix.n_rows != matrix.n_cols:
                raise ValueError("banded LU requires a square matrix")
            matrix = (BandLayout(matrix.rows, matrix.cols, matrix.n_rows), matrix.vals)
        layout, vals = matrix
        self.n, self.lb = layout.n, layout.lb
        # row swaps during elimination widen U by at most lb
        self.ub = layout.ub + layout.lb
        self.counter = counter
        self._lu, self._piv, info = dgbtrf(layout.fill(vals), layout.lb, layout.ub,
                                           overwrite_ab=1)
        if info > 0:
            raise SingularMatrixError(f"zero pivot at elimination step {info - 1}")
        self._solve_ops_per_column = layout.solve_ops_per_column
        if counter is not None:
            counter.factor_ops += layout.factor_ops

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a vector or a stack of columns."""
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        x, _ = dgbtrs(self._lu, self.lb, self.ub - self.lb, b, self._piv)
        if self.counter is not None:
            ncols = 1 if b.ndim == 1 else b.shape[1]
            self.counter.solve_ops += self._solve_ops_per_column * ncols
        return x


class SaddleFactor:
    """Banded factorization of [[A, B], [B^T, 0]] via positional interleaving.

    ``pattern`` is (rows, cols, n_cols) of B's nonzeros.  The interleaving and
    band layout are found once; ``refactor`` factors for B's values on them.
    """

    def __init__(self, A: BandedMatrix, pattern, counter: OpCounter | None = None):
        if A.n_rows != A.n_cols:
            raise ValueError("Gram block must be square")
        rows_b, cols_b, n_cols = pattern
        self.m, self.n, self.counter = A.n_rows, n_cols, counter
        # merge test (r) and trial (u) unknowns by 1D position, Gram rows first
        keys = np.concatenate([(np.arange(self.m) + 0.5) / self.m,
                               (np.arange(self.n) + 0.5) / self.n])
        # stacked index -> permuted row: the inverse of the sorting permutation
        pos = self._pos = np.argsort(np.argsort(keys, kind="stable"))
        # only B's nonzeros enter, so the merged bandwidth stays at its
        # mesh-independent value
        pi = np.concatenate([pos[A.rows], pos[rows_b], pos[self.m + cols_b]])
        pj = np.concatenate([pos[A.cols], pos[self.m + cols_b], pos[rows_b]])
        self._layout = BandLayout(pi, pj, self.m + self.n)
        self._vals_a = A.vals

    def refactor(self, vals_b) -> None:
        """Factor again with B's values vals_b on its pattern."""
        try:
            vals = np.concatenate([self._vals_a, vals_b, vals_b])
            self._lu = BandedLU((self._layout, vals), self.counter)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "saddle system is singular; the trial/test pair is incompatible") from exc

    def solve(self, F: np.ndarray):
        """Solve [[A, B], [B^T, 0]] (r, u) = (F, 0) for F's m rows; returns (r, u)."""
        gather_r, u = self.solve_deferred(F)
        return gather_r(), u

    def solve_deferred(self, F: np.ndarray):
        """solve, with r returned as a function that gathers it from the solution.

        F's rows go straight to their interleaved places in dgbtrs's
        Fortran-ordered right-hand side; u's rows are gathered at once.
        """
        F = np.asarray(F, dtype=float)
        if F.shape[0] != self.m:
            raise ValueError(f"rhs has {F.shape[0]} rows, expected the {self.m} test rows")
        b = np.zeros((self.m + self.n,) + F.shape[1:], order="F")
        b[self._pos[:self.m]] = F
        x = self._lu.solve(b)
        return (lambda: x[self._pos[:self.m]]), x[self._pos[self.m:]]


def kron_solve(split_factor, other_lu: BandedLU, split_axis: str,
               rhs: np.ndarray):
    """Apply (F_split (x) A_other)^{-1} to a grid indexed (x, y): other_lu first.

    ``split_factor`` acts along ``split_axis``: a BandedLU (plain Galerkin)
    returns the grid, a SaddleFactor the pair (r, u) for rhs's m test rows,
    with r a function that gathers the grid: only a step's last r is read.
    """
    if split_axis not in ("x", "y"):
        raise ValueError("split_axis must be 'x' or 'y'")
    rhs = np.asarray(rhs, dtype=float)
    other = other_lu.solve(rhs.T if split_axis == "x" else rhs).T
    if not isinstance(split_factor, SaddleFactor):
        out = split_factor.solve(other)
        return out if split_axis == "x" else out.T
    gather_r, u = split_factor.solve_deferred(other)
    if split_axis == "x":
        return gather_r, u
    return (lambda: gather_r().T), u.T


def along(a, grid: np.ndarray, axis: int) -> np.ndarray:
    """a contracted with one axis of a 2D grid: a @ grid (0) or grid @ a^T (1)."""
    return a @ grid if axis == 0 else (a @ grid.T).T


def x_first_cheaper(Ax, Ay) -> bool:
    """Whether Ax @ grid @ Ay^T takes fewer multiply-adds x first; a tie goes to y."""
    (p, q), (r, s) = Ax.shape, Ay.shape
    return Ax.nnz * s + Ay.nnz * p < Ay.nnz * q + Ax.nnz * r


def kron_matvec(Ax, Ay, grid: np.ndarray, x_first: bool | None = None) -> np.ndarray:
    """(Ax (x) Ay) applied to a grid indexed (x, y): returns Ax @ grid @ Ay^T.

    Ax and Ay are BandedMatrix or scipy sparse matrices.  The cheaper axis is
    contracted first unless ``x_first`` is given; the result is stored with
    that axis fastest.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.shape != (Ax.shape[1], Ay.shape[1]):
        raise ValueError(
            f"grid shape {grid.shape} does not match ({Ax.shape[1]}, {Ay.shape[1]})")
    x_first = x_first_cheaper(Ax, Ay) if x_first is None else x_first
    return along(Ay, Ax @ grid, 1) if x_first else Ax @ along(Ay, grid, 1)


def kron_norms(grid: np.ndarray, mx, my, gx=None, gy=None) -> tuple[float, float]:
    """L2 and H1 norms of a grid indexed (x, y) in Kronecker-product inner products.

    L2^2 = (u, (mx (x) my) u).  gx and gy are the H1 Gram blocks (mass plus
    stiffness) of the directions a derivative enters, None elsewhere:
    H1^2 = (u, (gx (x) my) u) + (u, (mx (x) gy) u) - L2^2 with both, one
    term with one, L2^2 with neither.  The blocks are symmetric, so
    (u, (A (x) B) u) sums (A u) * (u B), and the mass products are shared.
    """
    grid = np.asarray(grid, dtype=float)
    mu, um = along(mx, grid, 0), along(my, grid, 1)
    l2sq = np.einsum("ij,ij->", mu, um)
    terms = [np.einsum("ij,ij->", along(g, grid, axis), m)
             for g, axis, m in ((gx, 0, um), (gy, 1, mu)) if g is not None]
    h1sq = sum(terms) - (len(terms) - 1) * l2sq
    return float(np.sqrt(max(l2sq, 0.0))), float(np.sqrt(max(h1sq, 0.0)))
