"""Banded matrix container: storage layout, products, and slicing.

The triplet-based container is also checked against ``loop_to_dense``,
``loop_apply`` and ``loop_interior``, which walk the band storage one
diagonal at a time: same dense matrices, same interiors, same products.
Its CSR is built once and cached; ``fresh_csr`` masks the band anew on every
call, and the cached products must match it bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from splitmin.assembly import apply_dirichlet, mass
from splitmin.banded import BandedMatrix
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
        assert banded.lower_bandwidth <= lb
        assert banded.upper_bandwidth <= ub


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
    # a trial-to-test block stores a slanted band, mostly zero slots
    trial = make_space(2, 1, 32, (0.0, 1.0))
    test = make_space(3, 0, 32, (0.0, 1.0))
    block = apply_dirichlet(mass(trial, test), test, trial)
    grid = np.random.default_rng(17).standard_normal((7, trial.dim - 2)).T
    assert not grid.flags.c_contiguous
    np.testing.assert_allclose(block.apply(grid), block.to_dense() @ grid,
                               atol=1e-14)


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


def test_storage_width_validation():
    with pytest.raises(ValueError):
        BandedMatrix(np.zeros((4, 2)), lower_bandwidth=1, upper_bandwidth=1,
                     n_cols=4)


def _diagonal_rows(mat, t):
    """Rows i0:i1 where stored diagonal t points inside the matrix, and its offset."""
    d = t - mat.lower_bandwidth
    return max(0, -d), min(mat.n_rows, mat.n_cols - d), d


def loop_to_dense(mat):
    """Reference to_dense: scatter each stored diagonal's in-range rows."""
    out = np.zeros((mat.n_rows, mat.n_cols))
    for t in range(mat.data.shape[1]):
        i0, i1, d = _diagonal_rows(mat, t)
        if i1 > i0:
            out[np.arange(i0, i1), np.arange(i0, i1) + d] = mat.data[i0:i1, t]
    return out


def loop_apply(mat, x):
    """Reference apply: sweep each diagonal over the rows where it holds nonzeros."""
    x = np.ascontiguousarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    out = np.zeros((mat.n_rows, x.shape[1]))
    nonzero = mat.data != 0.0
    rows = np.arange(mat.n_rows)[:, None]
    first = np.min(np.where(nonzero, rows, mat.n_rows), axis=0, initial=mat.n_rows)
    last = np.max(np.where(nonzero, rows + 1, 0), axis=0, initial=0)
    for t in range(mat.data.shape[1]):
        d = t - mat.lower_bandwidth
        i0, i1 = max(first[t], -d), min(last[t], mat.n_cols - d)
        if i1 > i0:
            out[i0:i1] += mat.data[i0:i1, t:t + 1] * x[i0 + d:i1 + d]
    return out[:, 0] if single else out


def loop_interior(mat):
    """Reference interior: drop the outer rows, then zero out-of-range slots per diagonal."""
    out = BandedMatrix(mat.data[1:-1].copy(), mat.lower_bandwidth,
                       mat.upper_bandwidth, mat.n_cols - 2)
    for t in range(out.data.shape[1]):
        i0, i1, _ = _diagonal_rows(out, t)
        if i0 > 0:
            out.data[:i0, t] = 0.0
        if i1 < out.n_rows:
            out.data[max(i1, 0):, t] = 0.0
    return out


@st.composite
def _band_cases(draw):
    """Square and slanted m x n bands (m up to 3n + 1), every slot filled.

    Slots that point outside the matrix hold random values too; about a
    quarter of the in-band slots are exact zeros.
    """
    n = draw(st.integers(2, 12))
    m = draw(st.sampled_from((n, draw(st.integers(2, 3 * n + 1)))))
    lb, ub = draw(st.integers(0, m + 1)), draw(st.integers(0, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.standard_normal((m, lb + ub + 1))
    data[rng.random(data.shape) < 0.25] = 0.0
    return BandedMatrix(data, lb, ub, n), rng


@settings(max_examples=120, deadline=None, database=None)
@given(_band_cases())
def test_band_layer_matches_loop_references(case):
    mat, rng = case
    ref = loop_to_dense(mat)
    np.testing.assert_array_equal(mat.to_dense(), ref)

    rows, cols, vals = mat.entries()
    ref_rows, ref_cols = np.nonzero(ref)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)
    np.testing.assert_array_equal(vals, ref[ref_rows, ref_cols])

    inner, ref_inner = mat.interior(), loop_interior(mat)
    assert (inner.shape, inner.lower_bandwidth, inner.upper_bandwidth) == \
        (ref_inner.shape, ref_inner.lower_bandwidth, ref_inner.upper_bandwidth)
    np.testing.assert_array_equal(inner.data, ref_inner.data)
    np.testing.assert_array_equal(inner.to_dense(), loop_to_dense(ref_inner))

    for x in (rng.standard_normal(mat.n_cols), rng.standard_normal((mat.n_cols, 5)),
              rng.standard_normal((4, mat.n_cols)).T):
        got, want = mat.apply(x), loop_apply(mat, x)
        assert got.shape == want.shape
        scale = np.abs(ref) @ np.abs(x)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


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
    assert banded.lower_bandwidth == max(int(np.max(rows - cols)), 0)
    assert banded.upper_bandwidth == max(int(np.max(cols - rows)), 0)
    np.testing.assert_array_equal(banded.to_dense(), dense)


def fresh_csr(mat):
    """Reference CSR: mask the whole stored band again on every call."""
    cols = (np.arange(mat.n_rows)[:, None] + np.arange(mat.data.shape[1])
            - mat.lower_bandwidth)
    rows, t = np.nonzero((mat.data != 0.0) & (cols >= 0) & (cols < mat.n_cols))
    indptr = np.searchsorted(rows, np.arange(mat.n_rows + 1))
    return sp.csr_matrix((mat.data[rows, t], cols[rows, t], indptr), shape=mat.shape)


def _columns(rng, n):
    """A vector, a C-ordered stack of columns and a transposed (F-ordered) one."""
    return (rng.standard_normal(n), rng.standard_normal((n, 5)),
            rng.standard_normal((4, n)).T)


def test_to_csr_is_built_once():
    trial = make_space(2, 1, 16, (0.0, 1.0))
    test = make_space(3, 0, 16, (0.0, 1.0))
    block = apply_dirichlet(mass(trial, test), test, trial)
    triplets, csr = block.entries(), block.to_csr()
    assert block.to_csr() is csr
    block.apply(np.ones(block.n_cols))
    assert block.to_csr() is csr
    assert block.entries() is triplets


@settings(max_examples=120, deadline=None, database=None)
@given(_band_cases())
def test_cached_csr_matches_fresh_csr_and_loop_references(case):
    mat, rng = case
    for x in _columns(rng, mat.n_cols):
        np.testing.assert_array_equal(mat.apply(x), fresh_csr(mat) @ x)
    # entries() after apply: the cached triplets, equal to the loop reference
    ref = loop_to_dense(mat)
    rows, cols, vals = mat.entries()
    ref_rows, ref_cols = np.nonzero(ref)
    np.testing.assert_array_equal(rows, ref_rows)
    np.testing.assert_array_equal(cols, ref_cols)
    np.testing.assert_array_equal(vals, ref[ref_rows, ref_cols])
    for x in _columns(rng, mat.n_cols):
        np.testing.assert_array_equal(mat.apply(x), fresh_csr(mat) @ x)


@settings(max_examples=60, deadline=None, database=None)
@given(_band_cases())
def test_derived_matrices_carry_no_stale_csr(case):
    mat, rng = case
    dense = loop_to_dense(mat)
    mat.apply(rng.standard_normal(mat.n_cols))  # builds and caches mat's CSR
    derived = ((2.0 * mat, 2.0 * dense), (mat + mat, dense + dense),
               (mat - mat, dense - dense), (mat.interior(), dense[1:-1, 1:-1]))
    for got, want in derived:
        assert got.to_csr() is not mat.to_csr()
        np.testing.assert_array_equal(got.to_dense(), want)
        for x in _columns(rng, got.n_cols):
            scale = np.abs(want) @ np.abs(x)
            assert np.all(np.abs(got.apply(x) - want @ x) <= 1e-14 * scale)
