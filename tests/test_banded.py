"""Banded matrix container: storage layout, products, and slicing."""

import numpy as np
import pytest

from splitmin.assembly import apply_dirichlet, mass
from splitmin.banded import BandedMatrix
from splitmin.splines import make_space


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
        banded = BandedMatrix.from_dense(dense)
        np.testing.assert_allclose(banded.to_dense(), dense, atol=0.0)
        assert banded.shape == (m, n)
        assert banded.lower_bandwidth <= lb
        assert banded.upper_bandwidth <= ub


def test_apply_matches_dense_product():
    rng = np.random.default_rng(5)
    for m, n, lb, ub in ((7, 7, 2, 1), (6, 9, 1, 4), (10, 5, 6, 1)):
        dense = _random_banded_dense(rng, m, n, lb, ub)
        banded = BandedMatrix.from_dense(dense)
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
    banded = BandedMatrix.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        banded.apply(np.ones(5))


def test_interior_drops_first_and_last_row_and_column():
    rng = np.random.default_rng(21)
    dense = _random_banded_dense(rng, 7, 7, 2, 2)
    banded = BandedMatrix.from_dense(dense)
    np.testing.assert_allclose(banded.interior().to_dense(),
                               dense[1:-1, 1:-1], atol=0.0)


def test_linear_combinations_align_different_bandwidths():
    rng = np.random.default_rng(2)
    a = _random_banded_dense(rng, 6, 6, 1, 0)
    b = _random_banded_dense(rng, 6, 6, 0, 2)
    ba, bb = BandedMatrix.from_dense(a), BandedMatrix.from_dense(b)
    np.testing.assert_allclose((ba + bb).to_dense(), a + b, atol=0.0)
    np.testing.assert_allclose((ba - bb).to_dense(), a - b, atol=0.0)
    np.testing.assert_allclose((2.5 * ba).to_dense(), 2.5 * a, atol=0.0)


def test_addition_shape_mismatch():
    a = BandedMatrix.from_dense(np.eye(3))
    b = BandedMatrix.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        _ = a + b


def test_storage_width_validation():
    with pytest.raises(ValueError):
        BandedMatrix(np.zeros((4, 2)), lower_bandwidth=1, upper_bandwidth=1,
                     n_cols=4)
