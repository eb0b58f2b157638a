"""Benchmark problem definitions.

Three built-in advection-diffusion benchmarks:

  manufactured    exact solution sin(pi x) sin(pi y) sin(pi t) on [0,1]^2 with
                  diffusion 1e-2 and wind (1, 0); forcing chosen so the PDE
                  holds exactly.  Used for convergence studies.
  pollution       chimney source on [0,5000]^2 with a slowly rotating,
                  space-constant wind of unit magnitude and per-direction
                  variable diffusion.  Separable, so the direction-split
                  solver applies with a wind update each step.
  circular-wind   rigid rotation beta = (y, -x) on [-1,1]^2 around the origin
                  with diffusion 1e-6 and a Gaussian initial bump.  The wind
                  couples directions, so the general 2D solver applies.

Each wind component is a product s(t) a(x) b(y) of 1D factors (Wind).  The
solvers assemble 1D blocks once from the time-free factors a and b and
scale them by s(t); the split path takes s at each step's midpoint.  All
solvers impose homogeneous Dirichlet conditions on the full boundary.

The same product type (WindComponent) carries data: a ProductSum is a sum of
products, callable as (x, y, t).  manufactured gives its exact solution as
one product, with the derivative factors da and db its H1 error reads, and
its forcing as two; loads and errors of such data are made from 1D factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ParameterError

__all__ = ["ProblemDefinition", "ProductSum", "Wind", "WindComponent", "factor_values",
           "manufactured", "pollution", "circular_wind", "get_problem", "PROBLEMS",
           "wind_angle"]


@dataclass(frozen=True)
class WindComponent:
    """One product s(t) a(x) b(y); a None factor is 1.

    The program's one product type: a wind component, or a term of a
    ProductSum.  da and db are the derivatives of a and b, where known (the
    derivative of a None factor is 0).
    """

    s: Optional[Callable] = None
    a: Optional[Callable] = None
    b: Optional[Callable] = None
    da: Optional[Callable] = None
    db: Optional[Callable] = None

    def scale(self, t: float) -> float:
        return 1.0 if self.s is None else float(self.s(t))

    def __call__(self, x, y, t):
        """s(t) a(x) b(y): the t and x factors first, the y factor last."""
        value = 1.0 if self.s is None else self.s(t)
        if self.a is not None:
            value = value * self.a(x)
        return value if self.b is None else value * self.b(y)


def factor_values(f, z: np.ndarray) -> np.ndarray:
    """A 1D factor's values at the points z; a None factor is 1."""
    return np.ones_like(z) if f is None else np.broadcast_to(f(z), z.shape)


class ProductSum(tuple):
    """A sum of WindComponent products, callable as (x, y, t) -> sum_k s_k(t) a_k(x) b_k(y).

    Arguments broadcast; the value has the shape of all three broadcast.
    """

    def __call__(self, x, y, t):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t))
        return sum((p(x, y, t) for p in self), np.zeros(shape))

    def scales(self, t: float) -> np.ndarray:
        return np.array([p.scale(t) for p in self])


@dataclass(frozen=True)
class Wind:
    """The wind (beta_x, beta_y); a None component is no wind."""

    x: Optional[WindComponent] = None
    y: Optional[WindComponent] = None

    @property
    def separable(self) -> bool:
        """beta_x is free of y and beta_y of x: the direction split applies."""
        return ((self.x is None or self.x.b is None)
                and (self.y is None or self.y.a is None))

    @property
    def time_dependent(self) -> bool:
        return any(c is not None and c.s is not None for c in (self.x, self.y))

    @property
    def factors(self):
        """Time-free ((a_x, b_x), (a_y, b_y)): beta_d = s_d(t) a_d(x) b_d(y).

        A None factor, also of a missing component, is 1.
        """
        return tuple((None, None) if c is None else (c.a, c.b)
                     for c in (self.x, self.y))

    def scales(self, t: float) -> tuple[float, float]:
        """(s_x(t), s_y(t)): 1 where s is None, 0 for a missing component."""
        return tuple(0.0 if c is None else c.scale(t) for c in (self.x, self.y))


@dataclass(frozen=True)
class ProblemDefinition:
    """Coefficients, data, and metadata for one benchmark.

    Diffusion is componentwise, each a function of its own coordinate; the
    wind is one Wind, read by both solver paths.  The forcing is a ProductSum
    or any callable (x, y, t); forcing_support is the box ((x0, x1), (y0, y1))
    outside which a callable forcing is exactly zero, or None.  exact, where
    known, is a ProductSum with derivative factors.
    """

    name: str
    domain: tuple[tuple[float, float], tuple[float, float]]
    diffusion_x: Callable
    diffusion_y: Callable
    initial: Callable
    wind: Wind = Wind()
    forcing: Optional[Callable] = None
    forcing_support: Optional[tuple] = None
    exact: Optional[ProductSum] = None


# -- manufactured -----------------------------------------------------------

_MANUFACTURED_ALPHA = 1e-2


def _sin_pi(z):
    return np.sin(np.pi * z)


def _pi_cos_pi(z):
    return np.pi * np.cos(np.pi * z)


def _cos_pi(z):
    return np.cos(np.pi * z)


def _manufactured_forcing_scale(t):
    return np.pi * np.cos(np.pi * t) + 2.0 * _MANUFACTURED_ALPHA * np.pi ** 2 * np.sin(np.pi * t)


def _pi_sin_pi(t):
    return np.pi * np.sin(np.pi * t)


def _manufactured_initial(x, y):
    return 0.0 * (x + y)


def _constant_coefficient(s, value):
    return np.full_like(np.asarray(s, dtype=float), value)


def manufactured() -> ProblemDefinition:
    """u = sin(pi t) sin(pi x) sin(pi y); the forcing u_t + u_x - alpha lap u
    is the sum of the products (pi cos pi t + 2 alpha pi^2 sin pi t) sin pi x
    sin pi y and pi sin pi t cos pi x sin pi y."""
    return ProblemDefinition(
        name="manufactured",
        domain=((0.0, 1.0), (0.0, 1.0)),
        diffusion_x=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        diffusion_y=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        wind=Wind(x=WindComponent()),
        forcing=ProductSum((WindComponent(_manufactured_forcing_scale, _sin_pi, _sin_pi),
                            WindComponent(_pi_sin_pi, _cos_pi, _sin_pi))),
        initial=_manufactured_initial,
        exact=ProductSum((WindComponent(_sin_pi, _sin_pi, _sin_pi, _pi_cos_pi, _pi_cos_pi),)),
    )


# -- pollution --------------------------------------------------------------

_POLLUTION_SIDE = 5000.0
_POLLUTION_AMBIENT = 1e-6
_SOURCE_RADIUS = 25.0


def wind_angle(t):
    """Wind direction angle: slow oscillation around 3 pi / 8."""
    s = np.asarray(t, dtype=float) / 150.0
    return np.pi / 3.0 * (np.sin(s) + 0.5 * np.sin(2.3 * s)) + 3.0 * np.pi / 8.0


def _pollution_diffusion_x(x):
    return 50.0 + np.sin(np.asarray(x, dtype=float) * np.pi / _POLLUTION_SIDE)


def _pollution_diffusion_y(y):
    return 50.0 + np.asarray(y, dtype=float) / _POLLUTION_SIDE


def _pollution_forcing(x, y, t, p0):
    d2 = (x - p0[0]) ** 2 + (y - p0[1]) ** 2
    r = np.minimum(1.0, d2 / _SOURCE_RADIUS ** 2)
    return (r - 1.0) ** 2 * (r + 1.0) ** 2


def _pollution_initial(x, y):
    return _POLLUTION_AMBIENT + 0.0 * (x + y)


def pollution(p0: tuple[float, float] = (1500.0, 1500.0)) -> ProblemDefinition:
    return ProblemDefinition(
        name="pollution",
        domain=((0.0, _POLLUTION_SIDE), (0.0, _POLLUTION_SIDE)),
        diffusion_x=_pollution_diffusion_x,
        diffusion_y=_pollution_diffusion_y,
        wind=Wind(x=WindComponent(s=lambda t: np.cos(wind_angle(t))),
                  y=WindComponent(s=lambda t: np.sin(wind_angle(t)))),
        forcing=functools.partial(_pollution_forcing, p0=p0),
        forcing_support=tuple((c - _SOURCE_RADIUS, c + _SOURCE_RADIUS) for c in p0),
        initial=_pollution_initial,
    )


# -- circular wind ----------------------------------------------------------

_CIRCULAR_ALPHA = 1e-6


def _circular_initial(x, y, center, sigma):
    d2 = (x - center[0]) ** 2 + (y - center[1]) ** 2
    return np.exp(-d2 / (2.0 * sigma ** 2))


def circular_wind(center: tuple[float, float] = (0.0, -0.5),
                  sigma: float = 0.1) -> ProblemDefinition:
    """Rotating-bump benchmark.

    The default bump sits at (0.5, 0.25) in unit coordinates of the [-1,1]^2
    box, with a width of 0.05 of the box side.
    """
    return ProblemDefinition(
        name="circular-wind",
        domain=((-1.0, 1.0), (-1.0, 1.0)),
        diffusion_x=functools.partial(_constant_coefficient,
                                      value=_CIRCULAR_ALPHA),
        diffusion_y=functools.partial(_constant_coefficient,
                                      value=_CIRCULAR_ALPHA),
        wind=Wind(x=WindComponent(b=lambda y: y),
                  y=WindComponent(a=lambda x: -x)),
        initial=functools.partial(_circular_initial, center=center,
                                  sigma=sigma),
    )


PROBLEMS = {
    "manufactured": manufactured,
    "pollution": pollution,
    "circular-wind": circular_wind,
}


def get_problem(name: str, **kwargs) -> ProblemDefinition:
    try:
        factory = PROBLEMS[name]
    except KeyError:
        raise ParameterError(f"unknown problem {name!r}; expected one of "
                             f"{sorted(PROBLEMS)}") from None
    return factory(**kwargs)
