"""Benchmark problem definitions: coefficients, data, and identities.

The manufactured forcing is re-derived symbolically by hand here (time
derivative + advection + diffusion applied to the closed form) and compared
pointwise, so the PDE consistency of the problem data is its own oracle.
"""

import numpy as np
import pytest

from splitmin.exceptions import ParameterError
from splitmin.problems import (PROBLEMS, Wind, WindComponent, circular_wind,
                               get_problem, manufactured, pollution, wind_angle)


def _exact_grad(exact, x, y, t):
    """The gradient of a ProductSum from its derivative factors."""
    return (sum(p.scale(t) * p.da(x) * p.b(y) for p in exact),
            sum(p.scale(t) * p.a(x) * p.db(y) for p in exact))


def _wind_at(wind, x, y, t):
    """(beta_x, beta_y) at points, multiplied out from Wind.factors and scales."""
    def value(factor, z):
        if factor is None:
            return np.ones_like(z)
        return factor(z) if callable(factor) else np.full_like(z, factor)

    (ax, bx), (ay, by) = wind.factors
    sx, sy = wind.scales(t)
    return sx * value(ax, x) * value(bx, y), sy * value(ay, x) * value(by, y)


def test_registry_contains_the_three_benchmarks():
    assert set(PROBLEMS) == {"manufactured", "pollution", "circular-wind"}
    for name in PROBLEMS:
        assert get_problem(name).name == name
    with pytest.raises(ParameterError):
        get_problem("unknown")


def test_manufactured_forcing_closes_the_pde():
    pr = manufactured()
    rng = np.random.default_rng(60)
    x = rng.uniform(0.0, 1.0, 500)
    y = rng.uniform(0.0, 1.0, 500)
    t = rng.uniform(0.0, 2.0, 500)
    # independent derivation: u = sin(pi x) sin(pi y) sin(pi t), beta = (1, 0)
    sx, cx = np.sin(np.pi * x), np.cos(np.pi * x)
    sy = np.sin(np.pi * y)
    st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
    u_t = np.pi * ct * sx * sy
    u_x = np.pi * st * cx * sy
    lap = -2.0 * np.pi ** 2 * st * sx * sy
    alpha = pr.diffusion_x(0.5)
    np.testing.assert_allclose(pr.diffusion_y(y), alpha, atol=0.0)
    bx, by = _wind_at(pr.wind, x, y, t)
    np.testing.assert_array_equal(bx, 1.0)
    np.testing.assert_array_equal(by, 0.0)
    f_ref = u_t + 1.0 * u_x - alpha * lap
    np.testing.assert_allclose(pr.forcing(x, y, t), f_ref, atol=1e-12)


def test_manufactured_exact_gradient_matches_finite_differences():
    pr = manufactured()
    rng = np.random.default_rng(61)
    x = rng.uniform(0.1, 0.9, 50)
    y = rng.uniform(0.1, 0.9, 50)
    t = 0.37
    h = 1e-6
    gx, gy = _exact_grad(pr.exact, x, y, t)
    fd_x = (pr.exact(x + h, y, t) - pr.exact(x - h, y, t)) / (2 * h)
    fd_y = (pr.exact(x, y + h, t) - pr.exact(x, y - h, t)) / (2 * h)
    np.testing.assert_allclose(gx, fd_x, atol=1e-8)
    np.testing.assert_allclose(gy, fd_y, atol=1e-8)


def _sum_form_forcing(x, y, t, alpha):
    """The manufactured forcing as a sum of three full products, term by term."""
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
    terms = (np.pi * ct * sx * sy,
             2.0 * alpha * np.pi ** 2 * st * sx * sy,
             np.pi * st * np.cos(np.pi * x) * sy)
    return terms[0] + terms[1] + terms[2], sum(np.abs(term) for term in terms)


def _sum_form_exact(x, y, t):
    return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * t)


def _sum_form_exact_grad(x, y, t):
    st = np.sin(np.pi * t)
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * st,
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * st)


@pytest.mark.parametrize("grid", ["broadcast", "scalar"])
def test_manufactured_product_forms_match_sum_forms(grid):
    """Product forms equal the expanded expressions to 1e-14 relative.

    The forcing is a sum with cancellation, so its error is measured against
    the sum of the absolute values of its three terms.
    """
    pr = manufactured()
    alpha = float(pr.diffusion_x(0.5))
    rng = np.random.default_rng(62)
    if grid == "broadcast":
        x = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 37)])[:, None]
        y = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, 22)])[None, :]
        cases = [(x, y, t) for t in (0.0, 0.37, 1.0, 1.73)]
    else:
        cases = [tuple(rng.uniform(0.0, 2.0, 3)) for _ in range(50)]
    for x, y, t in cases:
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        f = pr.forcing(x, y, t)
        f_ref, f_scale = _sum_form_forcing(x, y, t, alpha)
        assert np.shape(f) == shape
        assert np.all(np.abs(f - f_ref) <= 1e-14 * f_scale)
        pairs = [(pr.exact(x, y, t), _sum_form_exact(x, y, t))]
        pairs += zip(_exact_grad(pr.exact, x, y, t), _sum_form_exact_grad(x, y, t))
        for got, want in pairs:
            assert np.shape(got) == shape
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_manufactured_initial_state_is_zero():
    pr = manufactured()
    x = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(pr.initial(x[:, None], x[None, :]), 0.0)
    np.testing.assert_allclose(pr.exact(x, x, 0.0), 0.0, atol=1e-15)


def test_wind_angle_baseline_and_unit_speed():
    assert wind_angle(0.0) == pytest.approx(3.0 * np.pi / 8.0)
    pr = pollution()
    rng = np.random.default_rng(63)
    x = rng.uniform(0.0, 5000.0, 7)
    y = rng.uniform(0.0, 5000.0, 7)
    for t in (0.0, 1.0, 5.0, 10.0, 123.0):
        bx, by = _wind_at(pr.wind, x, y, t)
        np.testing.assert_array_equal(bx, np.cos(wind_angle(t)))
        np.testing.assert_array_equal(by, np.sin(wind_angle(t)))
        np.testing.assert_allclose(np.hypot(bx, by), 1.0, atol=1e-14)
        # the split path scales unit blocks by the same components
        assert pr.wind.scales(t) == (np.cos(wind_angle(t)), np.sin(wind_angle(t)))
    assert pr.wind.factors == ((None, None), (None, None))
    np.testing.assert_allclose(_wind_at(pr.wind, 0.0, 0.0, 0.0),
                               (np.cos(3.0 * np.pi / 8.0),
                                np.sin(3.0 * np.pi / 8.0)), atol=1e-14)


def test_pollution_source_profile():
    pr = pollution(p0=(1500.0, 1500.0))
    # unit peak at the source center, exact zero from 25 length units outward
    assert pr.forcing(1500.0, 1500.0, 0.0) == pytest.approx(1.0)
    assert pr.forcing(1525.0, 1500.0, 0.0) == pytest.approx(0.0)
    assert pr.forcing(3000.0, 4000.0, 0.0) == pytest.approx(0.0)
    mid = pr.forcing(1512.5, 1500.0, 0.0)  # quarter of the squared radius
    assert 0.0 < mid < 1.0
    np.testing.assert_allclose(pr.initial(np.zeros(2), np.zeros(2)), 1e-6)


def test_pollution_diffusion_ranges():
    pr = pollution()
    x = np.linspace(0.0, 5000.0, 101)
    dx = pr.diffusion_x(x)
    dy = pr.diffusion_y(x)
    assert np.all(dx >= 49.0) and np.all(dx <= 51.0)
    assert dy[0] == pytest.approx(50.0)
    assert dy[-1] == pytest.approx(51.0)


def test_pollution_metadata():
    pr = pollution()
    assert pr.wind.separable and pr.wind.time_dependent
    assert pr.domain == ((0.0, 5000.0), (0.0, 5000.0))


def test_circular_wind_is_rigid_rotation():
    pr = circular_wind()
    assert not pr.wind.separable and not pr.wind.time_dependent
    rng = np.random.default_rng(62)
    x = rng.uniform(-1.0, 1.0, 100)
    y = rng.uniform(-1.0, 1.0, 100)
    bx, by = _wind_at(pr.wind, x, y, 0.0)
    np.testing.assert_array_equal(bx, y)
    np.testing.assert_array_equal(by, -x)
    # speed grows with the radius; the field is divergence free analytically
    np.testing.assert_allclose(np.hypot(bx, by), np.hypot(x, y), atol=1e-14)
    np.testing.assert_array_equal(_wind_at(pr.wind, 0.5, 0.25, 9.0),
                                  _wind_at(pr.wind, 0.5, 0.25, 0.0))


def test_wind_separability_and_time_dependence_are_derived():
    f = lambda z: z
    s = lambda t: 1.0 + t
    assert Wind().separable and not Wind().time_dependent
    assert Wind(x=WindComponent(a=f)).separable
    assert Wind(y=WindComponent(b=f, s=s)).separable
    assert not Wind(x=WindComponent(b=f)).separable
    assert not Wind(y=WindComponent(a=f)).separable
    assert Wind(x=WindComponent(a=f), y=WindComponent(b=f)).separable
    assert Wind(x=WindComponent(s=s)).time_dependent
    assert not Wind(x=WindComponent(a=f, b=f)).time_dependent
    # the factors are time-free (None is 1); s(t) is a separate scale, 1
    # where it is None and 0 for a missing component
    assert Wind().factors == ((None, None), (None, None))
    assert Wind().scales(0.0) == (0.0, 0.0)
    wind = Wind(x=WindComponent(s=s, a=f, b=f), y=WindComponent(a=f))
    assert wind.factors == ((f, f), (f, None))
    assert wind.scales(2.0) == (3.0, 1.0)
    assert manufactured().wind.factors == ((None, None), (None, None))
    assert manufactured().wind.scales(0.7) == (1.0, 0.0)
    assert manufactured().wind.separable
    assert not manufactured().wind.time_dependent


def test_circular_initial_bump_location_and_width():
    pr = circular_wind(center=(0.0, -0.5), sigma=0.1)
    assert pr.initial(0.0, -0.5) == pytest.approx(1.0)
    assert pr.initial(0.0, -0.4) == pytest.approx(np.exp(-0.5))
    assert pr.initial(1.0, 1.0) < 1e-40


def test_problem_factories_accept_parameters():
    pr = pollution(p0=(100.0, 200.0))
    assert pr.forcing(100.0, 200.0, 0.0) == pytest.approx(1.0)
    pr2 = circular_wind(center=(0.2, 0.2), sigma=0.05)
    assert pr2.initial(0.2, 0.2) == pytest.approx(1.0)
