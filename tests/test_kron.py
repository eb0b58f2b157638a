"""Banded LU, interleaved saddle factorization, and Kronecker sweeps.

Dense numpy solves are the oracle throughout; operation counts are checked
for linear growth in size and exact proportionality in right-hand sides.
The LAPACK-backed ``BandedLU`` is also checked against ``LoopBandedLU``, a
row-by-row band elimination that counts its operations as it goes: same
pivots, same counts, same solutions.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from splitmin.assembly import advection, block, mass, stiffness
from splitmin.banded import BandedMatrix, common_entries
from splitmin.exceptions import SingularMatrixError
from scipy.linalg.lapack import dgbtrs

from splitmin import kron
from splitmin.kron import (BLOCK, BandedLU, BandLayout, OpCounter, SaddleFactor,
                           kron_matvec, kron_norms, x_first_cheaper)
from splitmin.resmin import build_directional, divide_other, substep
from splitmin.splines import element_local, make_space

from helpers import from_dense, saddle_factor, saddle_solve


class LoopBandedLU:
    """Reference banded LU: band-restricted partial pivoting, one row at a time."""

    def __init__(self, matrix: BandedMatrix, counter: OpCounter | None = None):
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("banded LU requires a square matrix")
        self.n = matrix.n_rows
        # the bandwidths of the nonzero pattern
        self.lb = int(np.max(matrix.rows - matrix.cols, initial=0))
        # row swaps during elimination widen U by at most lb
        self.ub = int(np.max(matrix.cols - matrix.rows, initial=0)) + self.lb
        self.counter = counter
        self._factor(matrix)

    def _factor(self, matrix: BandedMatrix) -> None:
        n, lb, ub = self.n, self.lb, self.ub
        width = lb + ub + 1
        w = np.zeros((n, width))
        # row i holds columns i - lb .. i + ub; the extra ub slots start zero
        w[matrix.rows, matrix.cols - matrix.rows + lb] = matrix.vals
        mult = np.zeros((n, lb))
        ipiv = np.arange(n)
        ops = 0
        for k in range(n):
            rb = min(lb, n - 1 - k)
            # column k of rows k..k+rb sits on the anti-diagonal of the storage
            rows = np.arange(k, k + rb + 1)
            col = w[rows, lb - np.arange(rb + 1)]
            p = int(np.argmax(np.abs(col)))
            if col[p] == 0.0:
                raise SingularMatrixError(f"zero pivot at elimination step {k}")
            if p:
                ipiv[k] = k + p
                # swap the active segments (columns k .. k+ub); the trailing
                # padded slots are zero on both sides so fixed-width is safe
                tmp = w[k, lb:].copy()
                w[k, lb:] = w[k + p, lb - p:width - p]
                w[k + p, lb - p:width - p] = tmp
            piv = w[k, lb]
            for j in range(1, rb + 1):
                m = w[k + j, lb - j] / piv
                mult[k, j - 1] = m
                w[k + j, lb - j] = 0.0
                if m != 0.0:
                    w[k + j, lb - j + 1:width - j] -= m * w[k, lb + 1:]
            ops += rb * (1 + 2 * (width - lb - 1))
        self._w = w
        self._mult = mult
        self._ipiv = ipiv
        if self.counter is not None:
            self.counter.factor_ops += ops

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a vector or a stack of columns."""
        b = np.array(rhs, dtype=float)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        n, lb, ub = self.n, self.lb, self.ub
        w, mult, ipiv = self._w, self._mult, self._ipiv
        ncols = b.shape[1]
        ops = 0
        for k in range(n):
            if ipiv[k] != k:
                b[[k, ipiv[k]]] = b[[ipiv[k], k]]
            rb = min(lb, n - 1 - k)
            if rb:
                b[k + 1:k + 1 + rb] -= mult[k, :rb, None] * b[k]
                ops += 2 * rb * ncols
        for i in range(n - 1, -1, -1):
            ell = min(ub, n - 1 - i)
            if ell:
                b[i] -= w[i, lb + 1:lb + 1 + ell] @ b[i + 1:i + 1 + ell]
                ops += (2 * ell + 1) * ncols
            b[i] /= w[i, lb]
        ops += n * ncols
        if self.counter is not None:
            self.counter.solve_ops += ops
        return b[:, 0] if single else b


def _tridiag(n, lo, di, up):
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, di)
    np.fill_diagonal(dense[1:], lo)
    np.fill_diagonal(dense[:, 1:], up)
    return dense


def test_lu_hand_oracle_tridiagonal_laplacian():
    dense = _tridiag(3, -1.0, 2.0, -1.0)
    lu = BandedLU(from_dense(dense))
    # solved by hand: 2x1 - x2 = 1; -x1 + 2x2 - x3 = 1; -x2 + 2x3 = 1
    np.testing.assert_allclose(lu.solve(np.ones(3)), [1.5, 2.0, 1.5],
                               atol=1e-14)


def test_lu_matches_dense_solve_random_banded():
    rng = np.random.default_rng(17)
    for n, lb, ub in ((12, 1, 1), (20, 2, 3), (15, 3, 0), (9, 0, 2)):
        dense = np.zeros((n, n))
        for i in range(n):
            for j in range(max(0, i - lb), min(n, i + ub + 1)):
                dense[i, j] = rng.standard_normal()
            dense[i, i] += 2.0 * (lb + ub + 1)  # diagonally dominant
        lu = BandedLU(from_dense(dense))
        rhs = rng.standard_normal((n, 4))
        np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(dense, rhs),
                                   atol=1e-11)


def test_lu_pivots_inside_the_band():
    # leading pivot is tiny; partial pivoting must swap in the subdiagonal row
    dense = np.array([[1e-18, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    lu = BandedLU(from_dense(dense))
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(dense, rhs),
                               atol=1e-12)


def test_lu_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        BandedLU(from_dense(np.ones((3, 3))))
    with pytest.raises(ValueError):
        BandedLU(from_dense(np.ones((3, 4))))


def test_lu_operation_counts_scale_linearly():
    counts = {}
    for n in (100, 200):
        counter = OpCounter()
        BandedLU(from_dense(_tridiag(n, -1.0, 4.0, -1.0)), counter)
        counts[n] = counter.factor_ops
    ratio = counts[200] / counts[100]
    assert 1.9 <= ratio <= 2.1


def test_solve_ops_proportional_to_rhs_columns():
    dense = _tridiag(50, -1.0, 4.0, -1.0)
    ops = {}
    for ncols in (1, 4):
        counter = OpCounter()
        lu = BandedLU(from_dense(dense), counter)
        counter.factor_ops = counter.solve_ops = 0
        lu.solve(np.ones((50, ncols)))
        ops[ncols] = counter.solve_ops
    assert ops[4] == 4 * ops[1]


def test_lu_takes_the_bandwidths_of_the_pattern():
    # on two elements, (2,1) basis functions 0 and 2 overlap: the mass matrix
    # spans two diagonals each side, its 2 x 2 interior only one
    space = make_space(2, 1, 2, (0.0, 1.0))
    full = mass(space, space)
    assert np.max(np.abs(full.rows - full.cols)) == 2
    interior = block(mass, space, space)
    layout = BandLayout(interior.rows, interior.cols, interior.n_rows)
    assert (layout.lb, layout.ub) == (1, 1)
    # one row below the first pivot, each eliminated at 1 + 2 (lb + ub) ops;
    # solve: 2 per multiplier, 2 per entry right of U's diagonal (lb + ub
    # wide), one per row that has one, and one division per row
    assert layout.factor_ops == 1 * (1 + 2 * 2)
    assert layout.solve_ops_per_column == 2 * 1 + 2 * 1 + 1 + 2
    counter = OpCounter()
    lu = BandedLU(interior, counter)
    assert (lu.lb, lu.ub) == (1, 2)
    assert counter.factor_ops == 5


# (n, lb, ub): a single row, bands wider than the matrix, no lower band,
# no upper band, and ordinary bands up to the widest the solver meets
_ORACLE_SHAPES = ((1, 0, 0), (1, 2, 1), (3, 5, 2), (4, 4, 0), (10, 0, 3),
                  (10, 3, 0), (12, 1, 1), (20, 2, 3), (57, 5, 4), (80, 9, 7),
                  (200, 3, 2))
# the row swaps need two rows and a band on both sides of the diagonal
_PIVOTING_SHAPES = ((2, 1, 1),) + tuple(
    (n, lb, ub) for n, lb, ub in _ORACLE_SHAPES if n > 1 and lb > 0 and ub > 0)


def _oracle_matrix(n, lb, ub, pivoting, rng):
    """A random banded matrix that is diagonally dominant up to row swaps.

    Row i's values for columns i - lb .. i + ub are drawn as one row of
    ``data``; the triplets keep those that fall inside the matrix, so a band
    wider than the matrix is clipped to it.  With ``pivoting`` the dominant
    entry of each row pair (2k, 2k+1) sits on the other row and the diagonal
    is scaled by 1e-3, so elimination swaps rows; the condition number stays
    that of a dominant matrix.
    """
    data = rng.standard_normal((n, lb + ub + 1))
    dominant = 2.0 * (lb + ub + 1)
    if not pivoting:
        data[:, lb] += dominant
    else:
        data[:, lb] *= 1e-3
        pairs = np.arange(n // 2 * 2)
        data[pairs, lb + np.where(pairs % 2, -1, 1)] += dominant
        if n % 2:
            data[-1, lb] += dominant
    rows = np.repeat(np.arange(n)[:, None], lb + ub + 1, axis=1)
    cols = rows + np.arange(lb + ub + 1) - lb
    inside = (cols >= 0) & (cols < n)
    return BandedMatrix.from_entries(rows[inside], cols[inside], data[inside], (n, n))


@pytest.mark.parametrize("ncols", (1, 7))
@pytest.mark.parametrize("n,lb,ub,pivoting",
                         [s + (False,) for s in _ORACLE_SHAPES]
                         + [s + (True,) for s in _PIVOTING_SHAPES])
def test_lu_matches_loop_reference(n, lb, ub, pivoting, ncols):
    rng = np.random.default_rng(1000 * n + 10 * lb + ub)
    matrix = _oracle_matrix(n, lb, ub, pivoting, rng)
    assert np.linalg.cond(matrix.to_dense()) <= 1e4

    counter, ref_counter = OpCounter(), OpCounter()
    lu = BandedLU(matrix, counter)
    ref = LoopBandedLU(matrix, ref_counter)
    np.testing.assert_array_equal(lu._piv, ref._ipiv)
    assert np.any(ref._ipiv != np.arange(n)) == pivoting
    assert (lu.lb, lu.ub) == (ref.lb, ref.ub)
    assert counter.factor_ops == ref_counter.factor_ops

    rhs = rng.standard_normal(n) if ncols == 1 else rng.standard_normal((n, ncols))
    before = rhs.copy()
    x, x_ref = lu.solve(rhs), ref.solve(rhs)
    np.testing.assert_array_equal(rhs, before)
    assert x.shape == rhs.shape
    assert counter.solve_ops == ref_counter.solve_ops
    assert np.max(np.abs(x - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


@st.composite
def _wide_cases(draw):
    """A random band matrix whose elimination swaps rows, and a stack of
    BLOCK to 160 right-hand-side columns in C or Fortran order.

    n runs from 1 to 300, so across one, several and partial row blocks.
    With bands on both sides of the diagonal, ``_oracle_matrix`` forces the
    row swaps; a triangular band cannot swap rows and stay well conditioned,
    so it is diagonally dominant.
    """
    n = draw(st.integers(1, 300))
    lb, ub = (draw(st.integers(0, min(8, n - 1))) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    matrix = _oracle_matrix(n, lb, ub, bool(lb and ub), rng)
    rhs = rng.standard_normal((n, draw(st.integers(BLOCK, 160))))
    return matrix, rhs if draw(st.booleans()) else np.asfortranarray(rhs), rng


def _backward_errors(dense, x, rhs):
    """Each column's normwise backward error |A x - b| / (|A| |x| + |b|), in max norms."""
    residual = np.abs(dense @ x - rhs).max(axis=0)
    return residual / (np.abs(dense).sum(axis=1).max() * np.abs(x).max(axis=0)
                       + np.abs(rhs).max(axis=0))


@settings(max_examples=60, deadline=None, database=None)
@given(_wide_cases())
def test_block_form_solves_wide_stacks_column_by_column(case):
    matrix, rhs, rng = case
    n = matrix.n_rows
    counter, plain_counter = OpCounter(), OpCounter()
    kept, plain = BandedLU(matrix, counter, kept=True), BandedLU(matrix, plain_counter)
    assert kept.blocks is not None and plain.blocks is None
    if kept.lb and kept.ub > kept.lb:
        assert np.any(kept._piv != np.arange(n))
    x = kept.solve(rhs)
    assert x.shape == rhs.shape
    # as backward stable as dgbtrs on the same draw, and counted alike
    dense = matrix.to_dense()
    assert (_backward_errors(dense, x, rhs).max()
            <= 4.0 * _backward_errors(dense, plain.solve(rhs), rhs).max() + 1e-15)
    assert (counter.factor_ops, counter.solve_ops) == (plain_counter.factor_ops,
                                                      plain_counter.solve_ops)
    # a column's result is its own: the same bits in the other memory order,
    # and in any subset of the columns in any order
    np.testing.assert_array_equal(kept.solve(np.asfortranarray(rhs)), x)
    np.testing.assert_array_equal(kept.solve(np.ascontiguousarray(rhs)), x)
    subset = rng.permutation(rhs.shape[1])[:rng.integers(BLOCK, rhs.shape[1] + 1)]
    np.testing.assert_array_equal(kept.solve(rhs[:, subset]), x[:, subset])
    # a narrower stack, and a vector, keep dgbtrs
    np.testing.assert_array_equal(kept.solve(rhs[:, :BLOCK - 1]), plain.solve(rhs[:, :BLOCK - 1]))
    np.testing.assert_array_equal(kept.solve(rhs[:, 0]), plain.solve(rhs[:, 0]))


def test_block_form_with_wrongly_mapped_pivots_raises(monkeypatch):
    # the block form checks itself once, when built: a stack whose pivots
    # each map to their own row drops the row swaps, and the solve of
    # A @ ones through the blocks misses it
    matrix = _oracle_matrix(70, 2, 2, True, np.random.default_rng(3))
    BandedLU(matrix, kept=True)

    def unswapped(ab, kl, ku, b, ipiv, **kwargs):
        return dgbtrs(ab, kl, ku, b, np.arange(ipiv.size, dtype=ipiv.dtype), **kwargs)

    monkeypatch.setattr(kron, "dgbtrs", unswapped)
    with pytest.raises(SingularMatrixError, match="unstable block form"):
        BandedLU(matrix, kept=True)


@pytest.mark.parametrize("dense", ([[1.0] * 3] * 3, [[0.0] * 4] * 4,
                                   [[1.0, 2.0], [2.0, 4.0]]))
def test_lu_singular_step_matches_loop_reference(dense):
    matrix = from_dense(np.array(dense))
    with pytest.raises(SingularMatrixError) as ref_exc:
        LoopBandedLU(matrix)
    with pytest.raises(SingularMatrixError) as exc:
        BandedLU(matrix)
    assert str(exc.value) == str(ref_exc.value)


def _spline_saddle_blocks(n_el, trial_pc=(2, 1), test_pc=(3, 0)):
    trial = make_space(*trial_pc, n_el, (0.0, 1.0))
    test = make_space(*test_pc, n_el, (0.0, 1.0))
    a = block(mass, test, test) + block(stiffness, test, test)
    b = block(mass, trial, test)
    return a, b


def _dense_saddle(a, b):
    n = b.shape[1]
    return np.block([[a, b], [b.T, np.zeros((n, n))]])


def _saddle_oracle(dense, F):
    """Dense solve of the saddle system for the right-hand side [F; 0]; returns (r, u)."""
    m = F.shape[0]
    zeros = np.zeros((dense.shape[0] - m,) + F.shape[1:])
    sol = np.linalg.solve(dense, np.concatenate([F, zeros]))
    return sol[:m], sol[m:]


def test_singular_saddle_raises_on_its_first_factorization():
    # B's first column copied into its second: a singular saddle that dgbtrf
    # factors with no zero pivot; unchecked, a solve returns a finite u near 1e19
    trial = make_space(2, 1, 8, (0.0, 1.0))
    test = make_space(3, 0, 8, (0.0, 1.0))
    a, b = _spline_saddle_blocks(8)
    dense = b.to_dense()
    dense[:, 1] = dense[:, 0]
    rows, cols = np.nonzero(dense)
    sf = SaddleFactor(a, (rows, cols, trial.dim - 2), (dense[rows, cols], np.zeros(rows.size)),
                      OpCounter(), element_local(test))
    with pytest.raises(SingularMatrixError, match="singular"):
        sf.refactor(0.0)
    # a sound factor passes the check, whose solve is not counted
    counter = OpCounter()
    saddle_factor(a, b, counter, element_local(test))
    assert counter.solve_ops == 0


def test_saddle_factor_matches_dense_block_solve():
    rng = np.random.default_rng(29)
    for n_el, trial_pc, test_pc in ((4, (2, 1), (3, 0)), (6, (1, 0), (2, 0)),
                                    (5, (3, 2), (3, 2))):
        a, b = _spline_saddle_blocks(n_el, trial_pc, test_pc)
        sf = saddle_factor(a, b)
        dense = _dense_saddle(a.to_dense(), b.to_dense())
        # columns and a single vector, with a zero trial block
        for F in (rng.standard_normal((a.n_rows, 3)), rng.standard_normal(a.n_rows)):
            for got, want in zip(saddle_solve(sf, F), _saddle_oracle(dense, F)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, atol=1e-10)
        with pytest.raises(ValueError, match="test rows"):
            saddle_solve(sf, np.zeros(sf.m + sf.n))


def test_saddle_bandwidth_and_cost_stay_linear_in_mesh():
    ops, bands = {}, {}
    for n_el in (16, 32, 64):
        a, b = _spline_saddle_blocks(n_el)
        counter = OpCounter()
        sf = saddle_factor(a, b, counter)
        ops[n_el] = counter.factor_ops
        bands[n_el] = (sf._lu.lb, sf._lu.ub)
    assert bands[16] == bands[32] == bands[64]
    assert 1.7 <= ops[32] / ops[16] <= 2.3
    assert 1.7 <= ops[64] / ops[32] <= 2.3


def test_saddle_refactor_reuses_the_layout_and_rejects_zero_b():
    a, b = _spline_saddle_blocks(6)
    rows, cols, vals = b.rows, b.cols, b.vals
    counter = OpCounter()
    sf = SaddleFactor(a, (rows, cols, b.n_cols), (np.zeros_like(vals), vals), counter)
    assert counter.factor_ops == 0  # a line is laid out, not factored
    sf.refactor(2.0)  # B = 2 b, which the line's coefficients give exactly
    ref = saddle_factor(a, 2.0 * b, OpCounter())
    rhs = np.random.default_rng(4).standard_normal((sf.m, 2))
    for got, want in zip(saddle_solve(sf, rhs), saddle_solve(ref, rhs)):
        assert np.array_equal(got, want)
    with pytest.raises(SingularMatrixError, match="incompatible"):
        sf.refactor(0.0)


def test_saddle_factor_validates_block_shapes():
    a, b = _spline_saddle_blocks(4)
    with pytest.raises(ValueError):
        SaddleFactor(b, (b.rows, b.cols, b.n_cols), (b.vals, b.vals))  # first block must be square


@st.composite
def _saddle_cases(draw):
    """A random SPD banded Gram A (m x m) and a slanted B (m x n, m >= n).

    A is symmetric and diagonally dominant.  Row i of B hugs column
    floor(i n / m); column j also has a dominant entry in row ceil(j m / n),
    so those rows form a diagonally dominant n x n block and B has full
    column rank: the saddle system is nonsingular.
    """
    n = draw(st.integers(1, 15))
    m = draw(st.integers(n, 3 * n + 1))
    p, w = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, min(m, i + p + 1)):
            a[i, j] = a[j, i] = rng.uniform(-1.0, 1.0)
    a[np.diag_indices(m)] = np.abs(a).sum(axis=1) + rng.uniform(0.5, 2.0, m)
    b = np.zeros((m, n))
    for i in range(m):
        c = i * n // m
        for j in range(max(0, c - w), min(n, c + w + 1)):
            b[i, j] = rng.uniform(-1.0, 1.0)
    for j in range(n):
        b[-(-j * m // n), j] += 2.0 * w + 2.0
    return a, b, rng


@settings(max_examples=80, deadline=None, database=None)
@given(_saddle_cases())
def test_saddle_factor_matches_dense_solve_on_random_blocks(case):
    a, b, rng = case
    m = b.shape[0]
    sf = saddle_factor(from_dense(a), from_dense(b))
    dense = _dense_saddle(a, b)
    for F in (rng.standard_normal(m), rng.standard_normal((m, 4))):
        got = np.concatenate(saddle_solve(sf, F))
        want = np.concatenate(_saddle_oracle(dense, F))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_kron_matvec_equals_kronecker_product():
    rng = np.random.default_rng(13)
    ax = _tridiag(5, 1.0, 3.0, -2.0)
    ay = _tridiag(4, 0.5, 2.0, 1.0)
    grid = rng.standard_normal((5, 4))
    got = kron_matvec(from_dense(ax), from_dense(ay),
                      grid)
    ref = (np.kron(ax, ay) @ grid.ravel()).reshape(5, 4)
    np.testing.assert_allclose(got, ref, atol=1e-13)


@st.composite
def _kron_matvec_cases(draw):
    """Random sparse Ax (p x q) and Ay (r x s), each a BandedMatrix or CSR, and
    a q x s grid stored C-ordered, F-ordered or as a strided view."""
    p, q, r, s = (draw(st.integers(1, 12)) for _ in range(4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = []
    for shape in ((p, q), (r, s)):
        a = rng.standard_normal(shape)
        a[rng.random(shape) < draw(st.floats(0.0, 0.9))] = 0.0
        dense.append(a)
    ops = [from_dense(a) if draw(st.booleans()) else sp.csr_matrix(a) for a in dense]
    layout = draw(st.sampled_from(("C", "F", "strided")))
    if layout == "strided":
        grid = rng.standard_normal((2 * q, 3 * s))[::2, ::3]
    else:
        grid = np.asarray(rng.standard_normal((q, s)), order=layout)
    return dense, ops, grid


@settings(max_examples=120, deadline=None, database=None)
@given(_kron_matvec_cases(), st.sampled_from((None, True, False)))
def test_kron_matvec_matches_dense_kron_in_either_order(case, x_first):
    (ax, ay), (opx, opy), grid = case
    got = kron_matvec(opx, opy, grid, x_first)
    ref = (np.kron(ax, ay) @ grid.ravel()).reshape(ax.shape[0], ay.shape[0])
    # relative to the sums of the terms' magnitudes, which bound the rounding
    scale = np.kron(np.abs(ax), np.abs(ay)) @ np.abs(grid).ravel()
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-13 * np.max(scale, initial=0.0)


def test_kron_matvec_contracts_the_cheaper_axis_first():
    # a slanted 383 x 128 block is cheaper contracted last, on the square
    # block's output: y first for (rect, square), x first when swapped
    rect = _spline_saddle_blocks(128)[1]
    square = from_dense(_tridiag(128, 1.0, 4.0, 1.0))
    assert rect.shape == (383, 128)
    assert not x_first_cheaper(rect, square)
    assert x_first_cheaper(square, rect)
    assert not x_first_cheaper(square, square)  # a tie goes to y first
    grid = np.random.default_rng(5).standard_normal((128, 128))
    # the layout says which axis went first: the second is stored slowest
    assert kron_matvec(rect, square, grid).flags.c_contiguous
    assert kron_matvec(square, rect, grid).flags.f_contiguous


def test_kron_matvec_rejects_shape_mismatch():
    ax = from_dense(np.eye(3))
    ay = from_dense(np.eye(4))
    with pytest.raises(ValueError):
        kron_matvec(ax, ay, np.zeros((4, 3)))


def test_kron_solve_square_factor_both_axes():
    # the split solve, after the other factor is divided out of the grid, is
    # the whole Kronecker solve: (Ax (x) Ay)^-1 = (Ax^-1 (x) I)(I (x) Ay^-1);
    # resmin.substep applies the split factor, divide_other the other one
    rng = np.random.default_rng(31)
    ax = _tridiag(6, -1.0, 4.0, -1.0)
    ay = _tridiag(5, -1.0, 5.0, -1.0)
    rhs = rng.standard_normal((6, 5))
    ref = np.linalg.solve(np.kron(ax, ay), rhs.ravel()).reshape(6, 5)
    for axis, split, other in ((0, ax, ay), (1, ay, ax)):
        # each works on grids laid out (split, other): (x, y) for x, (y, x) for y
        layout = (lambda grid: grid) if axis == 0 else (lambda grid: grid.T)
        op = SimpleNamespace(axis=axis, stabilized=False, layout=layout,
                             split_factor=BandedLU(from_dense(split)),
                             other_lu=BandedLU(from_dense(other)))
        state = substep(op, divide_other(op, layout(rhs)))
        assert state.r is None
        np.testing.assert_allclose(layout(state.u), ref, atol=1e-11)


def test_kron_solve_rejects_bad_axis():
    # a split direction other than x or y is rejected where the operator is
    # built, for the saddle and the Galerkin factor alike
    space = make_space(2, 1, 3, (0.0, 1.0))
    test = make_space(3, 0, 3, (0.0, 1.0))
    for stabilized in (True, False):
        with pytest.raises(ValueError, match="direction"):
            build_directional("z", space, space, test, (0.1, 0.1), (1.0, 0.0),
                              0.01, stabilized)


@st.composite
def _norm_cases(draw):
    """A grid on the interiors of two random spaces, each on its own interval."""
    spaces = []
    for _ in range(2):
        p = draw(st.integers(1, 4))
        c = draw(st.integers(0, p - 1))
        n_el = draw(st.integers(2, 9))
        spaces.append(make_space(p, c, n_el, (0.0, draw(st.floats(0.25, 4.0)))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return spaces, rng.standard_normal(tuple(s.dim - 2 for s in spaces))


@settings(max_examples=60, deadline=None, database=None)
@given(_norm_cases())
def test_kron_norms_match_dense_kronecker_quadratic_forms(case):
    (sx, sy), grid = case
    mx, my = block(mass, sx, sx), block(mass, sy, sy)
    kx, ky = block(stiffness, sx, sx), block(stiffness, sy, sy)
    gx, gy = mx + kx, my + ky
    u = grid.ravel()
    l2_form = np.kron(mx.to_dense(), my.to_dense())
    l2_ref = np.sqrt(u @ l2_form @ u)
    # a derivative in x, in y, in both and in neither
    for g, h1_form in (((gx, None), l2_form + np.kron(kx.to_dense(), my.to_dense())),
                       ((None, gy), l2_form + np.kron(mx.to_dense(), ky.to_dense())),
                       ((gx, gy), l2_form + np.kron(kx.to_dense(), my.to_dense())
                        + np.kron(mx.to_dense(), ky.to_dense())),
                       ((None, None), l2_form)):
        l2, h1 = kron_norms(grid, mx, my, *g)
        h1_ref = np.sqrt(u @ h1_form @ u)
        assert abs(l2 - l2_ref) <= 1e-13 * l2_ref
        assert abs(h1 - h1_ref) <= 1e-13 * h1_ref


@st.composite
def _condensed_cases(draw):
    """A test Gram, a trial-to-test line B(s) = M + dt (K + s G) on one
    pattern and two wind scales, for random spaces whose test continuity is
    -1, 0 or >= 1."""
    p = draw(st.integers(1, 3))
    c = draw(st.integers(0, p - 1))
    q = draw(st.sampled_from((p, p + 1)))
    cq = draw(st.sampled_from(sorted({-1, 0, min(c, q - 1)})))
    n_el = draw(st.integers(2, 9))
    interval = (0.0, draw(st.floats(0.2, 3.0)))
    trial, test = make_space(p, c, n_el, interval), make_space(q, cq, n_el, interval)
    a = block(mass, test, test) + block(stiffness, test, test)
    rows, cols, (m, k, g) = common_entries(
        *(block(kind, trial, test) for kind in (mass, stiffness, advection)))
    dt = draw(st.floats(1e-3, 1.0))
    scales = [draw(st.floats(-3.0, 3.0)) for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (a, (rows, cols, trial.dim - 2), element_local(test), (m, k, g), dt, scales,
            rng)


@settings(max_examples=60, deadline=None, database=None)
@given(_condensed_cases())
def test_condensed_refactor_equals_a_fresh_factor_and_the_dense_solve(case):
    a, pattern, elements, (m, k, g), dt, (first, second), rng = case
    line = (m + dt * k, dt * g)
    counter, fresh_counter = OpCounter(), OpCounter()
    sf = SaddleFactor(a, pattern, line, counter, elements)
    sf.refactor(first)
    before = counter.factor_ops
    sf.refactor(second)
    fresh = SaddleFactor(a, pattern, line, fresh_counter, elements)
    fresh.refactor(second)
    assert counter.factor_ops - before == fresh_counter.factor_ops
    b = BandedMatrix(*pattern[:2], m + dt * (k + second * g),
                     (a.n_rows, pattern[2])).to_dense()
    dense = _dense_saddle(a.to_dense(), b)
    for F in (rng.standard_normal(a.n_rows), rng.standard_normal((a.n_rows, 3))):
        got = saddle_solve(sf, F)
        for x, y in zip(got, saddle_solve(fresh, F)):
            assert np.array_equal(x, y)
        want = _saddle_oracle(dense, F)
        scale = np.max(np.abs(np.concatenate(want)))
        for x, y in zip(got, want):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= 1e-10 * scale


def _extended_apply(matrix: BandedMatrix, x: np.ndarray) -> np.ndarray:
    """matrix @ x summed in extended precision (np.longdouble)."""
    out = np.zeros((matrix.n_rows,) + x.shape[1:], dtype=np.longdouble)
    np.add.at(out, matrix.rows,
              matrix.vals.astype(np.longdouble)[:, None] * x[matrix.cols].astype(np.longdouble))
    return out


@pytest.mark.parametrize("trial_pc,test_pc", [((1, 0), (2, -1)), ((2, 1), (3, -1)),
                                              ((3, 2), (4, -1))])
def test_condensed_broken_test_space_keeps_the_first_row_backward_error(trial_pc, test_pc):
    # every function of a C^-1 test space lies in one element, so condensing
    # them all leaves -B^T A^-1 B, with element blocks conditioned like
    # h^-2.  At 256 elements the first row's residual A r + B u - F,
    # summed in extended precision over 64 random columns, measured
    # 3.5e-9 to 5.8e-9 of ||F|| (6.1e-9 to 6.6e-9 with the per-term
    # refactor it replaced), within the 1e-8 of the first factorization's check
    trial, test = (make_space(*pc, 256, (0.0, 1.0)) for pc in (trial_pc, test_pc))
    a = block(mass, test, test) + block(stiffness, test, test)
    rows, cols, (m, k, g) = common_entries(
        *(block(kind, trial, test) for kind in (mass, stiffness, advection)))
    dt, s = 0.01, 2.0
    sf = SaddleFactor(a, (rows, cols, trial.dim - 2), (m + dt * k, dt * g), None,
                      element_local(test))
    sf.refactor(s)
    b = BandedMatrix(rows, cols, m + dt * (k + s * g), (a.n_rows, trial.dim - 2))
    F = np.random.default_rng(0).standard_normal((a.n_rows, 64))
    r, u = saddle_solve(sf, F)
    residual = _extended_apply(a, r) + _extended_apply(b, u) - F
    assert np.sqrt(np.sum(residual ** 2) / np.sum(F ** 2)) <= 1e-8
