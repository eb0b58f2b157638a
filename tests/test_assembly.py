"""1D assembly: hand-integrated oracles, algebraic identities, quadrature.

Degree-1 matrices on two elements and degree-0 matrices on four elements are
integrated by hand and frozen here.  An independent dense route through
scipy's BSpline design matrix cross-checks rectangular assembly.
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from splitmin.assembly import advection, block, mass, stiffness, _nq
from splitmin.exceptions import ParameterError
from splitmin.splines import eval_matrix, gauss_rule, make_space

LIN = make_space(1, 0, 2, (0.0, 1.0))

# hand integration of hat functions with h = 1/2:
#   mass: diag ends h/3, middle 2h/3, off-diagonal h/6
#   stiffness: 1/h pattern [1,-1;-1,2,-1;-1,1]
#   advection rows are tests, columns are trial derivatives
MASS_REF = np.array([[1 / 6, 1 / 12, 0.0],
                     [1 / 12, 1 / 3, 1 / 12],
                     [0.0, 1 / 12, 1 / 6]])
STIFF_REF = np.array([[2.0, -2.0, 0.0],
                      [-2.0, 4.0, -2.0],
                      [0.0, -2.0, 2.0]])
ADV_REF = np.array([[-0.5, 0.5, 0.0],
                    [-0.5, 0.0, 0.5],
                    [0.0, -0.5, 0.5]])


def test_hand_integrated_degree_one_matrices():
    np.testing.assert_allclose(mass(LIN, LIN).to_dense(), MASS_REF, atol=1e-15)
    np.testing.assert_allclose(stiffness(LIN, LIN).to_dense(), STIFF_REF,
                               atol=1e-13)
    np.testing.assert_allclose(advection(LIN, LIN).to_dense(), ADV_REF,
                               atol=1e-15)


def test_piecewise_constant_mass_is_diagonal_h():
    space = make_space(0, -1, 4, (0.0, 1.0))
    np.testing.assert_allclose(mass(space, space).to_dense(),
                               0.25 * np.eye(4), atol=1e-15)


def test_weighted_mass_piecewise_constants_hand_values():
    # weight w(x) = x integrates to the element midpoint times h
    space = make_space(0, -1, 4, (0.0, 1.0))
    got = mass(space, space, weight=lambda x: x).to_dense()
    mids = (np.arange(4) + 0.5) / 4.0
    np.testing.assert_allclose(got, np.diag(mids * 0.25), atol=1e-15)


def test_stiffness_and_advection_annihilate_constants():
    for p, c in ((2, 1), (3, 0), (4, 3)):
        space = make_space(p, c, 6, (0.0, 2.0))
        ones = np.ones(space.dim)
        assert np.max(np.abs(stiffness(space, space).apply(ones))) < 1e-13
        assert np.max(np.abs(advection(space, space).apply(ones))) < 1e-13


def test_mass_row_sums_integrate_to_domain_length():
    space = make_space(3, 1, 5, (0.0, 2.0))
    total = mass(space, space).to_dense().sum()
    np.testing.assert_allclose(total, 2.0, atol=1e-13)


def test_mass_and_stiffness_symmetric():
    space = make_space(3, 2, 7, (0.0, 1.0))
    m = mass(space, space).to_dense()
    k = stiffness(space, space).to_dense()
    np.testing.assert_allclose(m, m.T, atol=1e-15)
    np.testing.assert_allclose(k, k.T, atol=1e-12)


def test_gram_is_mass_plus_stiffness_and_interior_spd():
    space = make_space(3, 0, 6, (0.0, 1.0))
    g = (block(mass, space, space) + block(stiffness, space, space)).to_dense()
    ref = mass(space, space).to_dense() + stiffness(space, space).to_dense()
    np.testing.assert_allclose(g, ref[1:-1, 1:-1], atol=1e-13)
    eig = np.linalg.eigvalsh(0.5 * (g + g.T))
    assert eig.min() > 0.0


@pytest.mark.parametrize("kind", [mass, stiffness, advection])
def test_block_is_the_interior_of_the_assembled_matrix(kind):
    trial = make_space(2, 1, 5, (0.0, 1.0))
    test = make_space(3, 0, 5, (0.0, 1.0))
    coefficient = lambda x: 1.0 + x
    got = block(kind, trial, test, coefficient)
    assert got.shape == (test.dim - 2, trial.dim - 2)
    assert np.array_equal(got.to_dense(),
                          kind(trial, test, coefficient).to_dense()[1:-1, 1:-1])


def _scipy_dense_assembly(trial, test, coefficient, trial_deriv, test_deriv,
                          n_points):
    """Independent route: scipy basis values on an oversampled Gauss rule."""
    pts, wts = gauss_rule(trial, n_points)
    def table(space, use_deriv):
        if not use_deriv:
            return BSpline.design_matrix(pts, space.knots, space.degree).toarray()
        cols = []
        for i in range(space.dim):
            coeff = np.zeros(space.dim)
            coeff[i] = 1.0
            cols.append(BSpline(space.knots, coeff, space.degree).derivative()(pts))
        return np.stack(cols, axis=1)
    t = table(trial, trial_deriv)
    s = table(test, test_deriv)
    w = wts * coefficient(pts)
    return s.T @ (w[:, None] * t)


@pytest.mark.parametrize("trial_pc,test_pc", [((2, 1), (3, 0)), ((1, 0), (2, 0)),
                                              ((3, 2), (4, 0))])
def test_rectangular_blocks_match_scipy_route(trial_pc, test_pc):
    trial = make_space(*trial_pc, 4, (0.0, 1.0))
    test = make_space(*test_pc, 4, (0.0, 1.0))
    coef = lambda x: 1.0 + 0.5 * np.sin(x)
    pairs = [
        (mass(trial, test, coef), (False, False)),
        (stiffness(trial, test, coef), (True, True)),
        (advection(trial, test, coef), (True, False)),
    ]
    for got, (td, sd) in pairs:
        assert got.shape == (test.dim, trial.dim)
        # same rule as production so the comparison isolates basis values
        ref = _scipy_dense_assembly(trial, test, coef, td, sd,
                                    _nq(trial.degree, test.degree))
        np.testing.assert_allclose(got.to_dense(), ref, atol=1e-12)


def test_quadrature_rule_is_exact_for_polynomial_terms():
    # adding quadrature points must not change constant-coefficient matrices
    trial = make_space(3, 1, 3, (0.0, 1.0))
    test = make_space(4, 0, 3, (0.0, 1.0))
    base = mass(trial, test).to_dense()
    pts, wts = gauss_rule(trial, _nq(3, 4) + 3)
    tv = eval_matrix(trial, pts)[0].toarray()
    sv = eval_matrix(test, pts)[0].toarray()
    refined = sv.T @ (wts[:, None] * tv)
    np.testing.assert_allclose(base, refined, atol=1e-14)


def test_bandwidth_reflects_local_support():
    space = make_space(2, 1, 8, (0.0, 1.0))
    m = mass(space, space)
    assert np.all(np.abs(m.rows - m.cols) <= space.degree)


def test_mismatched_intervals_rejected():
    a = make_space(2, 1, 4, (0.0, 1.0))
    b = make_space(2, 1, 4, (0.0, 2.0))
    with pytest.raises(ParameterError):
        mass(a, b)
    with pytest.raises(ParameterError):
        advection(b, a)


def test_different_element_counts_rejected():
    # same interval, different breakpoints: trial and test must share one mesh
    trial = make_space(1, 0, 2, (0.0, 1.0))
    test = make_space(1, 0, 3, (0.0, 1.0))
    with pytest.raises(ParameterError):
        mass(trial, test)
    with pytest.raises(ParameterError):
        advection(test, trial)
