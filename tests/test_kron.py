"""Banded LU, interleaved saddle factorization, and Kronecker sweeps.

Dense numpy solves are the oracle throughout; operation counts are checked
for linear growth in size and exact proportionality in right-hand sides.
"""

import numpy as np
import pytest

from splitmin.assembly import apply_dirichlet, gram, mass
from splitmin.banded import BandedMatrix
from splitmin.exceptions import SingularMatrixError
from splitmin.kron import (BandedLU, OpCounter, SaddleFactor, kron_matvec,
                           kron_solve)
from splitmin.splines import make_space


def _tridiag(n, lo, di, up):
    dense = np.zeros((n, n))
    np.fill_diagonal(dense, di)
    np.fill_diagonal(dense[1:], lo)
    np.fill_diagonal(dense[:, 1:], up)
    return dense


def test_lu_hand_oracle_tridiagonal_laplacian():
    dense = _tridiag(3, -1.0, 2.0, -1.0)
    lu = BandedLU(BandedMatrix.from_dense(dense))
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
        lu = BandedLU(BandedMatrix.from_dense(dense))
        rhs = rng.standard_normal((n, 4))
        np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(dense, rhs),
                                   atol=1e-11)


def test_lu_pivots_inside_the_band():
    # leading pivot is tiny; partial pivoting must swap in the subdiagonal row
    dense = np.array([[1e-18, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])
    lu = BandedLU(BandedMatrix.from_dense(dense))
    rhs = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(lu.solve(rhs), np.linalg.solve(dense, rhs),
                               atol=1e-12)


def test_lu_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        BandedLU(BandedMatrix.from_dense(np.ones((3, 3))))
    with pytest.raises(ValueError):
        BandedLU(BandedMatrix.from_dense(np.ones((3, 4))))


def test_lu_operation_counts_scale_linearly():
    counts = {}
    for n in (100, 200):
        counter = OpCounter()
        BandedLU(BandedMatrix.from_dense(_tridiag(n, -1.0, 4.0, -1.0)), counter)
        counts[n] = counter.factor_ops
    ratio = counts[200] / counts[100]
    assert 1.9 <= ratio <= 2.1


def test_solve_ops_proportional_to_rhs_columns():
    dense = _tridiag(50, -1.0, 4.0, -1.0)
    ops = {}
    for ncols in (1, 4):
        counter = OpCounter()
        lu = BandedLU(BandedMatrix.from_dense(dense), counter)
        counter.reset()
        lu.solve(np.ones((50, ncols)))
        ops[ncols] = counter.solve_ops
    assert ops[4] == 4 * ops[1]


def _spline_saddle_blocks(n_el, trial_pc=(2, 1), test_pc=(3, 0)):
    trial = make_space(*trial_pc, n_el, (0.0, 1.0))
    test = make_space(*test_pc, n_el, (0.0, 1.0))
    a = apply_dirichlet(gram(test), test, test)
    b = apply_dirichlet(mass(trial, test), test, trial)
    return a, b


def test_saddle_factor_matches_dense_block_solve():
    rng = np.random.default_rng(29)
    for n_el, trial_pc, test_pc in ((4, (2, 1), (3, 0)), (6, (1, 0), (2, 0)),
                                    (5, (3, 2), (3, 2))):
        a, b = _spline_saddle_blocks(n_el, trial_pc, test_pc)
        sf = SaddleFactor(a, b)
        ad, bd = a.to_dense(), b.to_dense()
        m, n = bd.shape
        dense = np.block([[ad, bd], [bd.T, np.zeros((n, n))]])
        stacked = rng.standard_normal((m + n, 3))
        np.testing.assert_allclose(sf.solve(stacked),
                                   np.linalg.solve(dense, stacked), atol=1e-10)
        # block interface with zero second block
        F = rng.standard_normal(m)
        r, u = sf.solve_blocks(F)
        ref = np.linalg.solve(dense, np.concatenate([F, np.zeros(n)]))
        np.testing.assert_allclose(np.concatenate([r, u]), ref, atol=1e-10)


def test_saddle_bandwidth_and_cost_stay_linear_in_mesh():
    ops, bands = {}, {}
    for n_el in (16, 32, 64):
        a, b = _spline_saddle_blocks(n_el)
        counter = OpCounter()
        sf = SaddleFactor(a, b, counter)
        ops[n_el] = counter.factor_ops
        bands[n_el] = (sf._lu.lb, sf._lu.ub)
    assert bands[16] == bands[32] == bands[64]
    assert 1.7 <= ops[32] / ops[16] <= 2.3
    assert 1.7 <= ops[64] / ops[32] <= 2.3


def test_saddle_factor_validates_block_shapes():
    a, b = _spline_saddle_blocks(4)
    with pytest.raises(ValueError):
        SaddleFactor(b, b)  # first block must be square
    b_wrong = BandedMatrix.from_dense(np.ones((a.n_rows + 1, b.n_cols)))
    with pytest.raises(ValueError):
        SaddleFactor(a, b_wrong)


def test_kron_matvec_equals_kronecker_product():
    rng = np.random.default_rng(13)
    ax = _tridiag(5, 1.0, 3.0, -2.0)
    ay = _tridiag(4, 0.5, 2.0, 1.0)
    grid = rng.standard_normal((5, 4))
    got = kron_matvec(BandedMatrix.from_dense(ax), BandedMatrix.from_dense(ay),
                      grid)
    ref = (np.kron(ax, ay) @ grid.ravel()).reshape(5, 4)
    np.testing.assert_allclose(got, ref, atol=1e-13)


def test_kron_matvec_rejects_shape_mismatch():
    ax = BandedMatrix.from_dense(np.eye(3))
    ay = BandedMatrix.from_dense(np.eye(4))
    with pytest.raises(ValueError):
        kron_matvec(ax, ay, np.zeros((4, 3)))


def test_kron_solve_square_factor_both_axes():
    rng = np.random.default_rng(31)
    ax = _tridiag(6, -1.0, 4.0, -1.0)
    ay = _tridiag(5, -1.0, 5.0, -1.0)
    rhs = rng.standard_normal((6, 5))
    for axis, split, other in (("x", ax, ay), ("y", ay, ax)):
        got = kron_solve(BandedLU(BandedMatrix.from_dense(split)),
                         BandedLU(BandedMatrix.from_dense(other)), axis, rhs)
        big = np.kron(ax, ay)
        ref = np.linalg.solve(big, rhs.ravel()).reshape(6, 5)
        np.testing.assert_allclose(got, ref, atol=1e-11)


def test_kron_solve_rejects_bad_axis():
    lu = BandedLU(BandedMatrix.from_dense(np.eye(3)))
    with pytest.raises(ValueError):
        kron_solve(lu, lu, "z", np.eye(3))
