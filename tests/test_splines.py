"""B-spline space construction and evaluation.

Hand-derived oracle values are frozen inline; scipy.interpolate.BSpline is
the independent evaluation route for the cross-checks.
"""

import numpy as np
import pytest
from scipy.interpolate import BSpline

from splitmin.exceptions import DomainError, ParameterError
from splitmin.splines import active_basis, element_table, eval_matrix, make_space


def _dense(space, xs):
    """Basis values and derivatives at xs as dense (len(xs), dim) arrays."""
    return tuple(m.toarray() for m in eval_matrix(space, xs))


def test_knot_vector_linear_c0_two_elements():
    space = make_space(1, 0, 2, (0.0, 1.0))
    np.testing.assert_allclose(space.knots, [0.0, 0.0, 0.5, 1.0, 1.0])


def test_knot_vector_repeats_interior_breakpoints():
    space = make_space(3, 1, 3, (0.0, 3.0))
    # ends repeated p+1 = 4 times, interior breakpoints repeated p-c = 2 times
    expected = [0.0] * 4 + [1.0, 1.0, 2.0, 2.0] + [3.0] * 4
    np.testing.assert_allclose(space.knots, expected)


@pytest.mark.parametrize("p,c,n_el,expected", [
    (1, 0, 2, 3),       # hat functions on two elements
    (2, 1, 4, 6),
    (3, 0, 5, 16),
    (0, -1, 4, 4),      # piecewise constants
    (4, 3, 8, 12),
])
def test_dimension_formula(p, c, n_el, expected):
    space = make_space(p, c, n_el, (0.0, 1.0))
    assert space.dim == n_el * (p - c) + c + 1 == expected


def test_eval_quadratic_hand_values():
    # degree 2, C^1, two elements on [0,1]; at x=0.25 the active functions
    # are 0,1,2 with values (1/4, 5/8, 1/8) and derivatives (-2, 1, 1)
    space = make_space(2, 1, 2, (0.0, 1.0))
    vals, ders = _dense(space, 0.25)
    np.testing.assert_allclose(vals[0], [0.25, 0.625, 0.125, 0.0], atol=1e-15)
    np.testing.assert_allclose(ders[0], [-2.0, 1.0, 1.0, 0.0], atol=1e-14)


def test_eval_at_domain_endpoints_is_interpolatory():
    space = make_space(3, 2, 5, (0.0, 1.0))
    vals, _ = _dense(space, [0.0, 1.0])
    # clamped ends: exactly the first/last function takes value 1 there
    np.testing.assert_allclose(vals, np.eye(space.dim)[[0, -1]], atol=1e-15)


@pytest.mark.parametrize("p,c,n_el", [
    (1, 0, 3), (2, 1, 4), (2, 0, 3), (3, 2, 5), (3, 0, 2), (4, 3, 6),
])
def test_values_match_scipy_design_matrix(p, c, n_el):
    space = make_space(p, c, n_el, (0.0, 1.0))
    rng = np.random.default_rng(42)
    xs = rng.uniform(0.0, 1.0, size=40)
    vals, _ = _dense(space, xs)
    ref = BSpline.design_matrix(xs, space.knots, p).toarray()
    assert ref.shape == vals.shape
    np.testing.assert_allclose(vals, ref, atol=1e-13)


@pytest.mark.parametrize("p,c,n_el", [(2, 1, 4), (3, 0, 3), (4, 3, 5)])
def test_derivatives_match_scipy_bspline(p, c, n_el):
    space = make_space(p, c, n_el, (0.0, 1.0))
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, size=25)
    _, ders = _dense(space, xs)
    for i in range(space.dim):
        coeff = np.zeros(space.dim)
        coeff[i] = 1.0
        ref = BSpline(space.knots, coeff, p).derivative()(xs)
        np.testing.assert_allclose(ders[:, i], ref, atol=1e-11)


def test_partition_of_unity_and_derivative_sum():
    rng = np.random.default_rng(3)
    for p, c, n_el in ((1, 0, 4), (2, 1, 8), (3, 2, 6), (5, 4, 3)):
        space = make_space(p, c, n_el, (-2.0, 3.0))
        xs = np.concatenate([rng.uniform(-2.0, 3.0, 200), [-2.0, 3.0]])
        vals, ders = _dense(space, xs)
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(ders.sum(axis=1), 0.0, atol=1e-11)


def test_values_nonnegative_and_local():
    space = make_space(3, 1, 4, (0.0, 1.0))
    xs = np.linspace(0.0, 1.0, 201)
    vals, _ = _dense(space, xs)
    assert vals.min() >= -1e-14
    # each basis function is supported on at most ceil((p+1)/(p-c)) elements
    h = 0.25
    max_span = h * int(np.ceil((3 + 1) / (3 - 1)))
    for i in range(space.dim):
        support = xs[vals[:, i] > 1e-12]
        if support.size:
            assert support.max() - support.min() <= max_span + 1e-12


def test_derivative_matches_finite_difference():
    space = make_space(3, 2, 8, (0.0, 1.0))
    h = 1e-6
    xs = np.linspace(0.05, 0.95, 37)
    fd = (_dense(space, xs + h)[0] - _dense(space, xs - h)[0]) / (2 * h)
    _, ders = _dense(space, xs)
    np.testing.assert_allclose(fd, ders, atol=1e-5)


def test_continuity_across_breakpoints():
    # C^1 quadratics: values and first derivatives continuous at breakpoints
    space = make_space(2, 1, 4, (0.0, 1.0))
    eps = 1e-9
    for bp in space.breakpoints[1:-1]:
        vl, dl = _dense(space, np.array([bp - eps]))
        vr, dr = _dense(space, np.array([bp + eps]))
        np.testing.assert_allclose(vl, vr, atol=1e-7)
        np.testing.assert_allclose(dl, dr, atol=1e-5)


def test_discontinuous_basis_jumps_at_breakpoint():
    # C^0 quadratics keep value continuity but not derivative continuity
    space = make_space(2, 0, 4, (0.0, 1.0))
    eps = 1e-9
    bp = space.breakpoints[1]
    vl, dl = _dense(space, np.array([bp - eps]))
    vr, dr = _dense(space, np.array([bp + eps]))
    np.testing.assert_allclose(vl, vr, atol=1e-7)
    assert np.max(np.abs(dl - dr)) > 1.0


def test_element_table_shapes_and_weights():
    space = make_space(2, 1, 5, (0.0, 1.0))
    table = element_table(space, 3)
    assert table.points.shape == table.weights.shape == (5, 3)
    assert table.values.shape == table.derivatives.shape == (5, 3, 3)
    np.testing.assert_array_equal(table.firsts, np.arange(5))
    np.testing.assert_allclose(table.weights.sum(axis=1), 0.2, atol=1e-15)
    bks = space.breakpoints
    assert np.all((table.points > bks[:-1, None]) & (table.points < bks[1:, None]))


def test_spaces_are_values():
    # equal fields make equal spaces with equal hashes, whatever built them;
    # a change in any field makes another space
    args = (2, 1, 5, (0.0, 1.0))
    space, again = make_space(*args), make_space(2, 1, 5, (0, 1))
    assert space is not again and space == again and hash(space) == hash(again)
    assert len({space, again}) == 1
    for other in (make_space(3, 1, 5, (0.0, 1.0)), make_space(2, 0, 5, (0.0, 1.0)),
                  make_space(2, 1, 6, (0.0, 1.0)), make_space(2, 1, 5, (0.0, 2.0)),
                  make_space(2, 1, 5, (-1.0, 1.0))):
        assert other != space


def test_element_table_is_made_once_per_space_and_read_only():
    table = element_table(make_space(2, 1, 5, (0.0, 1.0)), 3)
    assert element_table(make_space(2, 1, 5, (0.0, 1.0)), 3) is table
    assert element_table(make_space(2, 1, 5, (0.0, 1.0)), 4) is not table
    for array in table:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_element_table_values_equal_eval_matrix(p):
    # for every continuity C^-1 .. C^(p-1) the local columns hold every
    # nonzero of the dense rows, bit for bit
    for c in range(-1, p):
        space = make_space(p, c, 4, (0.0, 2.0))
        table = element_table(space, p + 2)
        vals, ders = _dense(space, table.points.ravel())
        rows = np.arange(vals.shape[0]).reshape(4, p + 2, 1)
        cols = table.firsts[:, None, None] + np.arange(p + 1)
        for dense, local in ((vals, table.values), (ders, table.derivatives)):
            scattered = np.zeros_like(dense)
            scattered[rows, cols] = local
            np.testing.assert_array_equal(scattered, dense)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_eval_matrix_stores_exactly_the_active_functions(p):
    # CSR with p+1 entries per row at columns first + 0..p, for every continuity
    for c in range(-1, p):
        space = make_space(p, c, 5, (-1.0, 2.0))
        xs = np.linspace(-1.0, 2.0, 23)
        first, values, derivatives = active_basis(space, xs)
        for matrix, local in zip(eval_matrix(space, xs), (values, derivatives)):
            assert matrix.format == "csr" and matrix.shape == (xs.size, space.dim)
            np.testing.assert_array_equal(np.diff(matrix.indptr), p + 1)
            np.testing.assert_array_equal(matrix.indices.reshape(-1, p + 1),
                                          first[:, None] + np.arange(p + 1))
            np.testing.assert_array_equal(matrix.data.reshape(-1, p + 1), local)


@pytest.mark.parametrize("kwargs", [
    dict(degree=-1, continuity=-1, n_elements=2, interval=(0.0, 1.0)),
    dict(degree=2, continuity=2, n_elements=2, interval=(0.0, 1.0)),
    dict(degree=2, continuity=-2, n_elements=2, interval=(0.0, 1.0)),
    dict(degree=2, continuity=1, n_elements=0, interval=(0.0, 1.0)),
    dict(degree=2, continuity=1, n_elements=2, interval=(1.0, 1.0)),
    dict(degree=2, continuity=1, n_elements=2, interval=(2.0, 1.0)),
])
def test_invalid_space_parameters_rejected(kwargs):
    with pytest.raises(ParameterError):
        make_space(**kwargs)


def test_evaluation_outside_interval_rejected():
    space = make_space(2, 1, 2, (0.0, 1.0))
    with pytest.raises(DomainError):
        eval_matrix(space, [0.5, -0.01])
    with pytest.raises(DomainError):
        eval_matrix(space, 1.01)
