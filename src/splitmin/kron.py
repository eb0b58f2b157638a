"""Linear-cost direct solvers for the Kronecker-structured substep systems.

Three pieces:

* ``BandedLU`` -- LU of a square banded matrix with partial pivoting
  restricted to the band (pivot search over the lower bandwidth; the upper
  bandwidth of U grows by at most the lower bandwidth), by LAPACK
  ``dgbtrf``/``dgbtrs``.  Cost O(n * band^2).  ``BandLayout`` places a
  nonzero pattern in LAPACK's band array, the only band storage in the
  program; the bandwidths are those of the pattern.  dgbtrf flags only an
  exactly zero pivot, so a checked factor also solves once for A @ ones.
  A factor a run keeps (each directional operator's other-direction mass,
  and its split factor when the wind is steady) also carries
  ``BlockForm``, dgbtrf's own factor in dense blocks of ``BLOCK`` = 32
  rows: a solve over 32 or more columns runs as one GEMM per block for L
  and one GEMM and one dtrsm per block for U, reading a C-ordered
  right-hand side in place.  It executes five (a 128^2 step's 255-row
  saddle) to eight (its 128-row mass) times the elimination's multiply-adds,
  but in BLAS-3 calls, where dgbtrs strides across the columns in every row
  step.  It overtakes dgbtrs at about 14 columns for that saddle and about
  28 for that mass.  Narrower solves, factors made for one solve and every
  refactor of a time-dependent wind keep dgbtrs: building the blocks costs
  more than such a factor's solves gain.

* ``SaddleFactor`` -- factorization of the indefinite block system

      [[A, B], [B^T, 0]] (r, u) = (F, 0)

  with A the m x m SPD test Gram and B the m x n trial-to-test block.  The
  test functions supported in a single element are condensed out first
  (static condensation; their Gram block is block-diagonal by element).
  The kept test and the trial unknowns are interleaved by their 1D position
  (Gram unknown first on ties), so the condensed system is ONE banded
  matrix with bandwidth independent of the mesh, which a single banded LU
  factors; factorization and each solve stay O(m + n).  B's values lie on
  a line b0 + s b1 on a fixed pattern (s a wind scale), so every entry is a
  quadratic in s: its pattern, band layout and the three coefficient arrays
  of its entries are found once, and ``refactor(s)`` evaluates them and
  factors, the first factorization checked.  A solve is one sparse product
  T F, which places F's kept rows and condenses its local rows into the
  banded right-hand side, then the banded solve over F's columns.
  ``solve_deferred`` gathers u at once and returns r as a function that
  gathers it, for the callers that may not read r: r's local rows come from
  two products, one of F and one of the solution.

* ``solve_along`` / ``kron_matvec`` / ``kron_norms`` -- a factor's inverse
  along one axis, (Ax (x) Ay) and the L2/H1 norms of Kronecker-product inner
  products on coefficient grids indexed (x, y), never materializing a
  Kronecker product.  A product contracts its cheaper axis first.

Every factorization and solve adds its floating-point work to an
``OpCounter``; counted operations, not wall clock, are the cost metric the
linear-complexity checks assert on.  The banded LU's counts are structural
closed forms in n, the bandwidths and the number of right-hand-side columns:
the operations of the row-by-row band elimination, which never depend on
the values or on the kernel that solves (dgbtrs or the block form).  A
sparse product of the condensation counts 2 nnz operations per
right-hand-side column; T's identity entries, a copy of the kept rows, are
not counted.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .banded import BandedMatrix, csr
from .exceptions import SingularMatrixError

__all__ = ["OpCounter", "BandLayout", "BandedLU", "check_solves", "SaddleFactor",
           "solve_along", "kron_matvec", "kron_norms", "along", "x_first_cheaper"]


class OpCounter:
    """Accumulates counted floating-point operations, split by phase."""

    def __init__(self):
        self.factor_ops = 0
        self.solve_ops = 0

    @property
    def total(self) -> int:
        return self.factor_ops + self.solve_ops


class BandLayout:
    """Where a -1 square pattern goes in dgbtrf's band storage, and its op counts.

    The bandwidths are the pattern's own: its extreme diagonal offsets.  A
    position may repeat: ``fill`` sums its values.  ``at`` is each pattern
    entry's index in the band array's entries listed column by column, and
    ``band`` views such a list as the band array.
    """

    def __init__(self, rows, cols, n: int):
        lb, ub = int(np.max(rows - cols, initial=0)), int(np.max(cols - rows, initial=0))
        self.n, self.lb, self.ub = n, lb, ub
        self._height = 2 * lb + ub + 1
        self.size = self._height * n
        self.at = lb + ub + rows - cols + self._height * cols
        # rows below the pivot at each step, and entries of U right of the
        # diagonal, which row swaps widen by lb
        below = np.minimum(lb, np.arange(n)[::-1])
        right = np.minimum(lb + ub, np.arange(n)[::-1])
        self.factor_ops = int(below.sum()) * (1 + 2 * (lb + ub))
        self.solve_ops_per_column = int(2 * below.sum() + 2 * right.sum()
                                        + np.count_nonzero(right) + n)

    def fill(self, vals) -> np.ndarray:
        """ab[lb + ub + i - j, j] = A[i, j], the values at a repeated position
        summed; the lb rows on top take the row swaps' fill-in."""
        return self.band(np.bincount(self.at, vals, self.size))

    def band(self, entries: np.ndarray) -> np.ndarray:
        """The band array (Fortran-ordered, a view) of its ``size`` entries
        listed column by column."""
        return entries.reshape(self.n, self._height).T

    def matrix(self, ab: np.ndarray) -> sp.dia_matrix:
        """The unfactored band array ab as a sparse matrix: its row r is the
        diagonal at offset lb + ub - r."""
        offsets = self.lb + self.ub - np.arange(self._height)
        return sp.dia_matrix((ab, offsets), shape=(self.n, self.n))


class BandedLU:
    """LU with band-restricted pivoting (LAPACK dgbtrf/dgbtrs) of a square
    BandedMatrix or of a (BandLayout, band array) pair.

    dgbtrf flags only an exactly zero pivot.  With ``check``, the factor also
    solves once for A @ ones, uncounted, and a relative residual above 1e-8
    (or NaN) raises SingularMatrixError (``check_solves``, which the general
    path's sparse factor calls too).  Unchecked and not kept, dgbtrf factors
    a Fortran-ordered band array in place.

    A ``kept`` factor, one a run solves with many times, also carries the
    block form of dgbtrf's factor (``BlockForm``): a solve over ``BLOCK`` or
    more columns runs in dense blocks of ``BLOCK`` rows, and a narrower one
    (or a vector) through dgbtrs.  The block form is checked once, when it
    is built, by the same solve for A @ ones through it.  Either kernel
    counts the band elimination's operations.
    """

    def __init__(self, matrix, counter: OpCounter | None = None, check: bool = False,
                 kept: bool = False):
        if isinstance(matrix, BandedMatrix):
            if matrix.n_rows != matrix.n_cols:
                raise ValueError("banded LU requires a square matrix")
            layout = BandLayout(matrix.rows, matrix.cols, matrix.n_rows)
            matrix = (layout, layout.fill(matrix.vals))
        layout, ab = matrix
        self.n, self.lb = layout.n, layout.lb
        # row swaps during elimination widen U by at most lb
        self.ub = layout.ub + layout.lb
        self.counter = counter
        self._lu, self._piv, info = dgbtrf(ab, layout.lb, layout.ub,
                                           overwrite_ab=int(not (check or kept)))
        if info > 0:
            raise SingularMatrixError(f"zero pivot at elimination step {info - 1}")
        checks = {}
        if check:
            checks["banded factor"] = lambda b: dgbtrs(self._lu, layout.lb, layout.ub, b,
                                                       self._piv)[0]
        self.blocks = None
        if kept:
            self.blocks = BlockForm(self._lu, self._piv, layout.lb, layout.ub)
            checks["block form"] = lambda b: self.blocks.solve(b[:, None])[:, 0]
        if checks:
            check_solves(layout.matrix(ab), checks)
        self._solve_ops_per_column = layout.solve_ops_per_column
        if counter is not None:
            counter.factor_ops += layout.factor_ops

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a vector or a stack of columns."""
        b = np.asarray(rhs, dtype=float)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        ncols = 1 if b.ndim == 1 else b.shape[1]
        if self.blocks is not None and ncols >= BLOCK:
            x = self.blocks.solve(b)
        else:
            x, _ = dgbtrs(self._lu, self.lb, self.ub - self.lb, b, self._piv)
        if self.counter is not None:
            self.counter.solve_ops += self._solve_ops_per_column * ncols
        return x


def check_solves(matrix, solves: dict) -> None:
    """Raise SingularMatrixError when one of the named solves of a square
    sparse matrix's factor leaves a relative residual above 1e-8 (or NaN,
    from a singular matrix) on matrix @ ones."""
    rhs = matrix @ np.ones(matrix.shape[1])
    for what, solve in solves.items():
        rel = np.linalg.norm(matrix @ solve(rhs) - rhs) / np.linalg.norm(rhs)
        if not rel <= 1e-8:
            raise SingularMatrixError(f"unstable {what}: relative residual {rel:.1e}")


BLOCK = 32  # rows per block of a kept factor's block form, and its fewest columns


class BlockForm:
    """dgbtrf's factor of an n x n band matrix (lb, ub) in dense blocks of
    BLOCK rows, for solves over many right-hand-side columns.

    dgbtrs runs its L phase as one swap and one rank-1 update per row, each
    striding across the columns.  Here the steps of each row block k, rows
    [kb, kb + b), are composed once into their transform L_k on the b + lb
    rows they touch: the same pivots and multipliers, applied to the
    identity.  All blocks' transforms come from one L-only dgbtrs call on a
    block-diagonal stack of identities, each block's steps mapped to its own
    rows of the stack.  U's rows of block k are its dense triangular
    diagonal block and its coupling to the next lb + ub rows, gathered from
    the band array.  A solve is then, per block, one GEMM for L_k forward,
    and backward one GEMM for the coupling and one triangular solve (BLAS
    dtrsm, backward-stable substitution; no inverse is formed).  Rows past
    n are padding: an identity in L_k and U, zero in the right-hand side.

    Per column, the blocks execute count (b + lb)^2 + count b (lb + ub) +
    count b (b + 1) / 2 multiply-adds, five to eight times the elimination's,
    in BLAS-3 calls; each column's result depends on that column alone.
    """

    def __init__(self, lu: np.ndarray, piv: np.ndarray, lb: int, ub: int):
        (height, n), b = lu.shape, BLOCK
        kd = lb + ub  # U's bandwidth
        self.count = count = -(-n // b)
        size, h = count * b, b + lb  # rows padded to whole blocks; rows a block's steps touch
        self.n, self.kd, self.h = n, kd, h
        self._l = None
        if lb:
            # the stack's band array, by columns: block k's h columns are its
            # b steps (a padding step's pivot is its own row), then lb steps
            # that leave the identity; U is the identity, so dgbtrs applies L
            band = np.zeros((count, h, 2 * lb + 1))
            band[:, :, lb] = 1.0
            mult = np.zeros((size, lb))
            # the band array's positions past row n hold zeros (BandLayout
            # fills none), so no multiplier reaches a padding row
            mult[:n] = lu[kd + 1:].T
            band[:, :b, lb + 1:] = mult.reshape(count, b, lb)
            rows = np.arange(size, dtype=piv.dtype)
            rows[:n] = piv
            pivots = np.arange(count * h, dtype=piv.dtype).reshape(count, h)
            pivots[:, :b] = rows.reshape(count, b) + lb * np.arange(count)[:, None]
            eye = np.zeros((h, count, h))
            eye[np.arange(h), :, np.arange(h)] = 1.0
            self._l = dgbtrs(band.reshape(count * h, -1).T, lb, 0, eye.reshape(h, -1).T,
                             pivots.ravel(), overwrite_b=1)[0]
        # the band array's columns as rows, padded, with a unit diagonal on
        # padding rows; U[i, i + d] = lu[kd - d, i + d] sits at flat offset
        # kd + height i + (height - 1) d
        columns = np.zeros((size + kd, height))
        columns[:n] = lu.T
        columns[n:size, kd] = 1.0
        # per block, U's rows transposed: [:b] is its diagonal block D_k^T,
        # [b:] its coupling C_k^T, so each .T is Fortran-ordered for BLAS;
        # row a's entry d goes to [a + d, a], flat offset (b + 1) a + b d
        self._u = np.zeros((count, b + kd, b))
        e = self._u.itemsize
        as_strided(self._u, (count, b, kd + 1), ((b + kd) * b * e, (b + 1) * e, b * e))[...] = \
            as_strided(columns.ravel()[kd:], (count, b, kd + 1),
                       (height * b * e, height * e, (height - 1) * e))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs for an (n, k) stack of columns, returned C-ordered."""
        n, kd, h, b = self.n, self.kd, self.h, BLOCK
        work = np.empty((self.count * b + kd, rhs.shape[1]))
        work[:n] = rhs
        work[n:] = 0.0
        if self._l is not None:
            for k in range(self.count):
                rows = work[k * b:k * b + h]
                rows[...] = self._l[k * h:(k + 1) * h] @ rows
        for k in range(self.count - 1, -1, -1):
            # (rows of the block)^T, Fortran-ordered, updated in place; BLAS
            # flags positional, as f2py parses keywords slowly:
            # C := C - A B^T, then B := B D^-T (right side, upper, transposed)
            rows, u = work[k * b:(k + 1) * b].T, self._u[k]
            if kd:
                dgemm(-1.0, work[(k + 1) * b:(k + 1) * b + kd].T, u[b:].T, 1.0, rows, 0, 1, 1)
            dtrsm(1.0, u[:b].T, rows, 1, 0, 1, 0, 1)
        return work[:n]


class SaddleFactor:
    """Banded factorization of [[A, B], [B^T, 0]] for B on a line b0 + s b1,
    element-local test functions condensed out.

    ``pattern`` is (rows, cols, n_cols) of B's nonzeros and ``line`` (b0, b1)
    their values at s = 0 and per unit of s: a fixed B is the line with
    b1 = 0.  ``elements`` gives each test function's element when it is
    supported in that element alone, -1 otherwise (None: no such function).
    These local functions l go first (static condensation): A_ll is
    block-diagonal by element, so with E = A_ll^-1 and v the other test
    functions the factored matrix is

        [[A_vv - A_vl E A_lv,  B_v - A_vl E B_l], [(.)^T,  -B_l^T E B_l]]

    on (r_v, u), interleaved as ``kron``'s docstring says.  A is fixed and its
    entries enter once; every other entry of that matrix, of T (the kept
    rows' identity entries and the condensing product, which make the banded
    right-hand side from F in one product) and of the two products that
    recover r_l (from F and from the solution) is a sum of terms
    w * b_i * b_j (b_i a value of B, or 1), so a polynomial of degree <= 2 in
    s.  Set-up sums the terms' coefficients of 1, s and s^2 into three arrays
    (band array entries, then product data) once, and ``refactor(s)``
    evaluates them and factors on the band layout found once.  Its first
    factorization is checked (``BandedLU``'s ``check``): a singular B passes
    dgbtrf with a tiny pivot, not a zero one.

    F's columns are the banded solve's: a caller with grids laid out (split,
    other) in C order solves for all the other direction's lines at once.
    """

    def __init__(self, A: BandedMatrix, pattern, line, counter: OpCounter | None = None,
                 elements=None):
        if A.n_rows != A.n_cols:
            raise ValueError("Gram block must be square")
        rows_b, cols_b, n_cols = pattern
        m, n = self.m, self.n = A.n_rows, n_cols
        self.counter = counter
        elements = np.full(m, -1) if elements is None else np.asarray(elements)
        local = elements >= 0
        v, self._l = np.flatnonzero(~local), np.flatnonzero(local)
        self._v = v if self._l.size else slice(None)
        size = v.size + n
        # kept test (r_v) and trial (u) unknowns merged by 1D position, Gram rows first
        keys = np.concatenate([(v + 0.5) / m, (np.arange(n) + 0.5) / n])
        pos = np.argsort(np.argsort(keys, kind="stable"))
        self._pos_v, self._pos_u = pos[:v.size], pos[v.size:]
        at_v, at_u = np.zeros(m, int), self._pos_u  # band row of each r_v and u unknown
        at_v[v] = self._pos_v
        l_rank = np.zeros(m, int)
        l_rank[self._l] = np.arange(self._l.size)

        er, ec, ev = _local_inverse(A, local, elements)  # E; symmetric, as A is
        ar, ac, av = A.rows, A.cols, A.vals
        vv, vl, lv = ~local[ar] & ~local[ac], ~local[ar] & local[ac], local[ar] & ~local[ac]
        i, j = _join(ac[vl], er)
        g = BandedMatrix.from_entries(ar[vl][i], ec[j], av[vl][i] * ev[j], A.shape)  # A_vl E
        ia, ja = _join(g.cols, ar[lv])          # G A_lv
        el = np.flatnonzero(local[rows_b])      # B's entries in local rows
        eb = np.flatnonzero(~local[rows_b])
        ig, jg = _join(g.cols, rows_b[el])      # G B_l
        ib, je = _join(rows_b[el], er)          # B_l^T E, and (E B_l)^T
        kd, jd = _join(ec[je], rows_b[el])      # B_l^T E B_l
        c_rows = np.concatenate([at_v[rows_b[eb]], at_v[g.rows[ig]]])  # C = B_v - G B_l
        c_cols = np.concatenate([at_u[cols_b[eb]], at_u[cols_b[el[jg]]]])
        c_e = np.concatenate([eb, el[jg]])
        c_w = np.concatenate([np.ones(eb.size), -g.vals[ig]])
        ebl, ebd = el[ib], el[ib[kd]]
        # terms (row, col, e1, e2, weight) of sums of w * b[e1] * b[e2] (b[-1] = 1):
        # the saddle [[S, C], [C^T, -D]] in band positions, its repeated
        # positions summed by the layout; T, which takes F to the condensed
        # right-hand side (F_v - G F_l, -B_l^T E F_l) in band rows, the kept
        # rows' identity entries with it; and the two products that recover
        # r_l = E F_l - G^T r_v - (B_l^T E)^T u from F and from the solution
        saddle = ((at_v[ar[vv]], at_v[ac[vv]], -1, -1, av[vv]),
                  (at_v[g.rows[ia]], at_v[ac[lv][ja]], -1, -1, -g.vals[ia] * av[lv][ja]),
                  (c_rows, c_cols, c_e, -1, c_w), (c_cols, c_rows, c_e, -1, c_w),
                  (at_u[cols_b[ebd]], at_u[cols_b[el[jd]]], ebd, el[jd], -ev[je[kd]]))
        nl = self._l.size
        products = ((self._pos_v, v, -1, -1, np.ones(v.size)),
                    (at_v[g.rows], g.cols, -1, -1, -g.vals),
                    (at_u[cols_b[ebl]], ec[je], ebl, -1, -ev[je]),
                    (size + l_rank[er], ec, -1, -1, ev),
                    (size + nl + l_rank[g.cols], at_v[g.rows], -1, -1, -g.vals),
                    (size + nl + l_rank[ec[je]], at_u[cols_b[ebl]], ebl, -1, -ev[je]))
        rows, cols, e1, e2, w = _terms(*saddle, *products)
        n_saddle = sum(group[0].size for group in saddle)
        self._layout = layout = BandLayout(rows[:n_saddle], cols[:n_saddle], size)
        # the three products stacked by rows: T, then r_l's F and solution parts
        width = max(m, size)
        keys, target = np.unique(rows[n_saddle:] * width + cols[n_saddle:],
                                 return_inverse=True)
        # each term's coefficients of 1, s and s^2 (b[-1] reads 1 at every s),
        # summed per band array entry, then per product entry
        b0, b1 = (np.append(b, end) for b, end in zip(line, (1.0, 0.0)))
        target = np.concatenate([layout.at, layout.size + target])
        self._coefficients = [np.bincount(target, c, layout.size + keys.size) for c in
                              (w * b0[e1] * b0[e2], w * (b0[e1] * b1[e2] + b1[e1] * b0[e2]),
                               w * b1[e1] * b1[e2])]
        pr, pc = divmod(keys, width)
        ends = np.searchsorted(pr, [size, size + nl])
        self._kept = v.size  # T's identity entries: a copy, not counted as work
        self._condense, self._recover_f, self._recover_x = (
            csr(pr[lo:hi] - off, pc[lo:hi], np.zeros(hi - lo), shape)
            for lo, hi, off, shape in ((0, ends[0], 0, (size, m)),
                                       (ends[0], ends[1], size, (nl, m)),
                                       (ends[1], keys.size, size + nl, (nl, size))))
        self._lu = None

    def refactor(self, s: float, kept: bool = False) -> None:
        """Factor for B = b0 + s b1; the first factorization is checked as
        ``BandedLU``'s ``check`` says, and a ``kept`` one carries its block form."""
        c0, c1, c2 = self._coefficients
        vals = c0 + s * (c1 + s * c2)
        at = size = self._layout.size
        for matrix in (self._condense, self._recover_f, self._recover_x):
            matrix.data[:] = vals[at:at + matrix.nnz]
            at += matrix.nnz
        try:
            self._lu = BandedLU((self._layout, self._layout.band(vals[:size])), self.counter,
                                check=self._lu is None, kept=kept)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "saddle system is singular; the trial/test pair is incompatible") from exc

    def solve_deferred(self, F: np.ndarray):
        """Solve [[A, B], [B^T, 0]] (r, u) = (F, 0) for F's m rows; returns
        (gather_r, u), with r returned as a function that gathers it.

        One sparse product T F puts F's kept rows in their interleaved places
        and condenses the local rows into them: the banded solve's right-hand
        side, whose columns are F's.  u's rows are gathered at once; r's kept
        rows and, by two more products, its local rows only when r is gathered.
        """
        F = np.asarray(F, dtype=float)
        if F.shape[0] != self.m:
            raise ValueError(f"rhs has {F.shape[0]} rows, expected the {self.m} test rows")
        x = self._lu.solve(self._product(self._condense, F, self._kept))
        u = x[self._pos_u]

        def gather_r():
            r = np.empty(F.shape)
            r[self._v] = x[self._pos_v]
            if self._l.size:
                r[self._l] = (self._product(self._recover_f, F)
                              + self._product(self._recover_x, x))
            return r
        return gather_r, u

    def _product(self, matrix, rhs: np.ndarray, copies: int = 0) -> np.ndarray:
        """matrix @ rhs, counted as 2 operations per column for each of its
        entries but the ``copies`` identity entries."""
        if self.counter is not None:
            self.counter.solve_ops += (2 * (matrix.nnz - copies)
                                       * (1 if rhs.ndim == 1 else rhs.shape[1]))
        return matrix @ rhs


def _join(cols_x, rows_y):
    """Index pairs (i, j) with cols_x[i] == rows_y[j]: the terms of a sparse product."""
    order = np.argsort(rows_y, kind="stable")
    start = np.searchsorted(rows_y[order], cols_x, "left")
    count = np.searchsorted(rows_y[order], cols_x, "right") - start
    i = np.repeat(np.arange(cols_x.size), count)
    first = np.repeat(np.cumsum(count) - count, count)
    return i, order[np.repeat(start, count) + np.arange(i.size) - first]


def _terms(*groups):
    """Concatenated (row, col, e1, e2, weight) arrays of term groups; an e1
    or e2 given as -1 is -1 for the whole group."""
    return tuple(np.concatenate([g[k] if np.ndim(g[k]) else np.full(g[0].size, g[k])
                                 for g in groups]) for k in range(5))


def _local_inverse(A: BandedMatrix, local, elements):
    """Triplets of A_ll^-1 over the local functions, one dense block per element."""
    l = np.flatnonzero(local)
    if not l.size:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0)
    l = l[np.argsort(elements[l], kind="stable")]
    first = np.ones(l.size, bool)
    first[1:] = elements[l][1:] != elements[l][:-1]
    block = np.cumsum(first) - 1
    slot = np.arange(l.size) - np.flatnonzero(first)[block]
    members = np.full((block[-1] + 1, slot.max() + 1), -1)
    members[block, slot] = l
    at_block, at_slot = np.zeros(A.n_rows, int), np.zeros(A.n_rows, int)
    at_block[l], at_slot[l] = block, slot
    inside = local[A.rows] & local[A.cols]
    r, c = A.rows[inside], A.cols[inside]
    if np.any(at_block[r] != at_block[c]):
        raise ValueError("local test functions of two elements couple in the Gram block")
    blocks = np.zeros(members.shape + members.shape[1:])
    blocks[:, np.arange(members.shape[1]), np.arange(members.shape[1])] = 1.0  # padding
    blocks[at_block[r], at_slot[r], at_slot[c]] = A.vals[inside]
    inverse = np.linalg.inv(blocks)
    g, i, j = np.nonzero((members[:, :, None] >= 0) & (members[:, None, :] >= 0))
    return members[g, i], members[g, j], inverse[g, i, j]


def solve_along(lu: BandedLU, grid: np.ndarray, axis: int) -> np.ndarray:
    """lu's inverse applied along one axis of a 2D grid: A^-1 grid (0) or (A^-1 grid^T)^T (1)."""
    return lu.solve(grid) if axis == 0 else lu.solve(grid.T).T


def along(a, grid: np.ndarray) -> np.ndarray:
    """a contracted with the second axis of a 2D grid: grid @ a^T."""
    return (a @ grid.T).T


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
    return along(Ay, Ax @ grid) if x_first else Ax @ along(Ay, grid)


def kron_norms(grid: np.ndarray, mx, my, gx=None, gy=None) -> tuple[float, float]:
    """L2 and H1 norms of a grid indexed (x, y) in Kronecker-product inner products.

    L2^2 = (u, (mx (x) my) u).  gx and gy are the H1 Gram blocks (mass plus
    stiffness) of the directions a derivative enters, None elsewhere:
    H1^2 = (u, (gx (x) my) u) + (u, (mx (x) gy) u) - L2^2 with both, one
    term with one, L2^2 with neither.  The blocks are symmetric BandedMatrix
    blocks, so (u, (A (x) B) u) sums (A u) * (u B), and the mass products are
    shared.  A C-ordered grid is read in place: the y products run as
    ``apply_rows``, and every product is C-ordered, summed by ``vdot``.
    """
    grid = np.ascontiguousarray(grid, dtype=float)
    mu, um = mx @ grid, my.apply_rows(grid)
    l2sq = np.vdot(mu, um)
    terms = []
    if gx is not None:
        terms.append(np.vdot(gx @ grid, um))
    if gy is not None:
        terms.append(np.vdot(gy.apply_rows(grid), mu))
    h1sq = sum(terms) - (len(terms) - 1) * l2sq
    return float(np.sqrt(max(l2sq, 0.0))), float(np.sqrt(max(h1sq, 0.0)))
