"""1D block container: triplets, products, combinations and slicing.

The container is checked against dense references: its triplets are the
dense matrix's nonzeros, row-major; its interior is the dense interior; its
products match ``loop_apply``, which sweeps the band one diagonal at a time.
Its CSR is built once and cached; ``fresh_csr`` converts the dense matrix
anew on every call, and the cached products must match it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from splitmin import assembly
from splitmin.assembly import mass
from splitmin.banded import BandedMatrix
from splitmin.kron import BandLayout
from splitmin.splines import make_space

from helpers import from_dense


def _random_banded_dense(rng, m, n, lb, ub):
    dense = np.zeros((m, n))
    for i in range(m):
        for j in range(max(0, i - lb), min(n, i + ub + 1)):
            dense[i, j] = rng.standard_normal()
    return dense


def test_from_dense_round_trip_square_and_rectangular():
    rng = np.random.default_rng(11)
    for m, n, lb, ub in ((6, 6, 1, 2), (5, 8, 0, 3), (9, 4, 5, 0), (4, 4, 0, 0)):
        dense = _random_banded_dense(rng, m, n, lb, ub)
        banded = from_dense(dense)
        np.testing.assert_allclose(banded.to_dense(), dense, atol=0.0)
        assert banded.shape == (m, n)
        assert np.all(banded.rows - banded.cols <= lb)
        assert np.all(banded.cols - banded.rows <= ub)


def test_apply_matches_dense_product():
    rng = np.random.default_rng(5)
    for m, n, lb, ub in ((7, 7, 2, 1), (6, 9, 1, 4), (10, 5, 6, 1)):
        dense = _random_banded_dense(rng, m, n, lb, ub)
        banded = from_dense(dense)
        vec = rng.standard_normal(n)
        np.testing.assert_allclose(banded.apply(vec), dense @ vec, atol=1e-13)
        block = rng.standard_normal((n, 3))
        np.testing.assert_allclose(banded.apply(block), dense @ block, atol=1e-13)


def test_rectangular_block_apply_to_transposed_grid():
    # a trial-to-test block is slanted: row i holds columns near i n / m
    trial = make_space(2, 1, 32, (0.0, 1.0))
    test = make_space(3, 0, 32, (0.0, 1.0))
    block = assembly.block(mass, trial, test)
    grid = np.random.default_rng(17).standard_normal((7, trial.dim - 2)).T
    assert not grid.flags.c_contiguous
    np.testing.assert_allclose(block.apply(grid), block.to_dense() @ grid,
                               atol=1e-14)


def test_slanted_block_memory_is_linear_in_its_nonzeros():
    # a (2,1) -> (3,0) block at 1024 elements: 3,071 x 1,024 interior, 10,230
    # nonzeros on a slant over 2,000 diagonals wide
    trial = make_space(2, 1, 1024, (0.0, 1.0))
    test = make_space(3, 0, 1024, (0.0, 1.0))
    tracemalloc.start()
    try:
        block = assembly.block(mass, trial, test)
        block.to_csr()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert block.vals.size == block.to_csr().nnz == 10_230


def test_apply_dimension_mismatch():
    banded = from_dense(np.eye(4))
    with pytest.raises(ValueError):
        banded.apply(np.ones(5))


def test_interior_drops_first_and_last_row_and_column():
    rng = np.random.default_rng(21)
    dense = _random_banded_dense(rng, 7, 7, 2, 2)
    banded = from_dense(dense)
    np.testing.assert_allclose(banded.interior().to_dense(),
                               dense[1:-1, 1:-1], atol=0.0)


def test_linear_combinations_align_different_bandwidths():
    rng = np.random.default_rng(2)
    a = _random_banded_dense(rng, 6, 6, 1, 0)
    b = _random_banded_dense(rng, 6, 6, 0, 2)
    ba, bb = from_dense(a), from_dense(b)
    np.testing.assert_allclose((ba + bb).to_dense(), a + b, atol=0.0)
    np.testing.assert_allclose((ba - bb).to_dense(), a - b, atol=0.0)
    np.testing.assert_allclose((2.5 * ba).to_dense(), 2.5 * a, atol=0.0)


def test_addition_shape_mismatch():
    a = from_dense(np.eye(3))
    b = from_dense(np.eye(4))
    with pytest.raises(ValueError):
        _ = a + b


def loop_apply(dense, lb, ub, x):
    """Reference apply: sweep each diagonal of the band over the rows it spans."""
    x = np.ascontiguousarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    m, n = dense.shape
    out = np.zeros((m, x.shape[1]))
    for d in range(-lb, ub + 1):
        i0, i1 = max(0, -d), min(m, n - d)
        if i1 > i0:
            i = np.arange(i0, i1)
            out[i0:i1] += dense[i, i + d][:, None] * x[i0 + d:i1 + d]
    return out[:, 0] if single else out


@st.composite
def _band_cases(draw):
    """Square and slanted m x n bands (m up to 3n + 1) as dense arrays.

    Every in-band position draws a value and about a quarter of them are
    exact zeros; the matrix is built from the band's triplets, zeros included,
    so the container must drop them.  Returns (matrix, dense, lb, ub, rng).
    """
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from((n, draw(st.integers(2, 3 * n + 1)))))
    lb, ub = draw(st.integers(0, m + 1)), draw(st.integers(0, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offsets = np.subtract(*np.indices((m, n))[::-1])
    rows, cols = np.nonzero((offsets >= -lb) & (offsets <= ub))
    vals = rng.standard_normal(rows.size)
    vals[rng.random(rows.size) < 0.25] = 0.0
    dense = np.zeros((m, n))
    dense[rows, cols] = vals
    return BandedMatrix.from_entries(rows, cols, vals, (m, n)), dense, lb, ub, rng


def _assert_triplets(mat, dense):
    """mat's triplets are dense's nonzeros, row-major."""
    ref_rows, ref_cols = np.nonzero(dense)
    np.testing.assert_array_equal(mat.rows, ref_rows)
    np.testing.assert_array_equal(mat.cols, ref_cols)
    np.testing.assert_array_equal(mat.vals, dense[ref_rows, ref_cols])


@settings(max_examples=120, deadline=None, database=None)
@given(_band_cases())
def test_band_layer_matches_loop_references(case):
    mat, ref, lb, ub, rng = case
    np.testing.assert_array_equal(mat.to_dense(), ref)
    _assert_triplets(mat, ref)

    inner = mat.interior()
    assert inner.shape == (mat.n_rows - 2, mat.n_cols - 2)
    np.testing.assert_array_equal(inner.to_dense(), ref[1:-1, 1:-1])
    _assert_triplets(inner, ref[1:-1, 1:-1])

    for x in (rng.standard_normal(mat.n_cols), rng.standard_normal((mat.n_cols, 5)),
              rng.standard_normal((4, mat.n_cols)).T):
        got, want = mat.apply(x), loop_apply(ref, lb, ub, x)
        assert got.shape == want.shape
        scale = np.abs(ref) @ np.abs(x)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


@settings(max_examples=120, deadline=None, database=None)
@given(_band_cases())
def test_band_array_reads_back_as_the_matrix(case):
    # the factor check's sparse matrix: a square band's unfactored LAPACK
    # band array read as DIA diagonals
    mat, ref = case[:2]
    assume(mat.n_rows == mat.n_cols)
    layout = BandLayout(mat.rows, mat.cols, mat.n_rows)
    np.testing.assert_array_equal(layout.matrix(layout.fill(mat.vals)).toarray(),
                                  mat.to_dense())


@settings(max_examples=80, deadline=None, database=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 40),
       st.integers(0, 2 ** 32 - 1))
def test_from_entries_sums_duplicates_like_add_at(m, n, count, seed):
    rng = np.random.default_rng(seed)
    # few distinct positions, so most triplets repeat one
    positions = rng.integers(0, [m, n], size=(max(count // 3, 1), 2))
    rows, cols = positions[rng.integers(0, len(positions), count)].T
    vals = rng.standard_normal(count)
    dense = np.zeros((m, n))
    np.add.at(dense, (rows, cols), vals)
    banded = BandedMatrix.from_entries(rows, cols, vals, (m, n))
    assert banded.shape == (m, n)
    np.testing.assert_array_equal(banded.to_dense(), dense)
    _assert_triplets(banded, dense)


def fresh_csr(dense):
    """Reference CSR: scipy's own conversion of the dense matrix, on every call."""
    return sp.csr_matrix(dense)


def _columns(rng, n):
    """A vector, a C-ordered stack of columns and a transposed (F-ordered) one."""
    return (rng.standard_normal(n), rng.standard_normal((n, 5)),
            rng.standard_normal((4, n)).T)


def test_to_csr_is_built_once():
    trial = make_space(2, 1, 16, (0.0, 1.0))
    test = make_space(3, 0, 16, (0.0, 1.0))
    block = assembly.block(mass, trial, test)
    csr = block.to_csr()
    assert block.to_csr() is csr
    block.apply(np.ones(block.n_cols))
    assert block.to_csr() is csr


@settings(max_examples=120, deadline=None, database=None)
@given(_band_cases())
def test_cached_csr_matches_fresh_csr_and_loop_references(case):
    mat, ref, lb, ub, rng = case
    for x in _columns(rng, mat.n_cols):
        np.testing.assert_array_equal(mat.apply(x), fresh_csr(ref) @ x)
    # the triplets after apply: unchanged, equal to the dense reference
    _assert_triplets(mat, ref)
    for x in _columns(rng, mat.n_cols):
        np.testing.assert_array_equal(mat.apply(x), fresh_csr(ref) @ x)
        got, want = mat.apply(x), loop_apply(ref, lb, ub, x)
        assert np.all(np.abs(got - want) <= 1e-14 * (np.abs(ref) @ np.abs(x)))


@settings(max_examples=60, deadline=None, database=None)
@given(_band_cases())
def test_derived_matrices_carry_no_stale_csr(case):
    mat, dense, _, _, rng = case
    mat.apply(rng.standard_normal(mat.n_cols))  # builds and caches mat's CSR
    derived = ((2.0 * mat, 2.0 * dense), (mat + mat, dense + dense),
               (mat - mat, dense - dense), (mat.interior(), dense[1:-1, 1:-1]))
    for got, want in derived:
        assert got.to_csr() is not mat.to_csr()
        np.testing.assert_array_equal(got.to_dense(), want)
        _assert_triplets(got, want)
        for x in _columns(rng, got.n_cols):
            scale = np.abs(want) @ np.abs(x)
            assert np.all(np.abs(got.apply(x) - want @ x) <= 1e-14 * scale)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 100), st.integers(1, 100), st.integers(0, 6), st.integers(0, 6),
       st.integers(1, 50), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_apply_rows_is_the_product_along_each_row(m, n, lb, ub, k, fortran, seed):
    # x @ A^T in dense column blocks, for any block count and bandwidth,
    # empty rows of A included: A x^T transposed up to rounding, C-ordered
    rng = np.random.default_rng(seed)
    dense = _random_banded_dense(rng, m, n, lb, ub)
    dense[rng.random(m) < 0.1] = 0.0
    mat = from_dense(dense)
    x = rng.standard_normal((n, k)).T if fortran else rng.standard_normal((k, n))
    got = mat.apply_rows(x)
    assert got.shape == (k, m) and got.flags.c_contiguous
    scale = np.abs(x) @ np.abs(dense.T)
    assert np.all(np.abs(got - (mat @ x.T).T) <= 1e-14 * scale)
    np.testing.assert_array_equal(mat.apply_rows(x), got)  # the blocks, made once, reused
