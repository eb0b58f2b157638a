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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ParameterError

__all__ = ["ProblemDefinition", "Wind", "WindComponent", "manufactured",
           "pollution", "circular_wind", "get_problem", "PROBLEMS", "wind_angle"]


@dataclass(frozen=True)
class WindComponent:
    """One wind component s(t) a(x) b(y); a None factor is 1."""

    s: Optional[Callable] = None
    a: Optional[Callable] = None
    b: Optional[Callable] = None


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
        return tuple(0.0 if c is None else 1.0 if c.s is None else float(c.s(t))
                     for c in (self.x, self.y))


@dataclass(frozen=True)
class ProblemDefinition:
    """Coefficients, data, and metadata for one benchmark.

    Diffusion is componentwise, each a function of its own coordinate; the
    wind is one Wind, read by both solver paths.  forcing_support is the box
    ((x0, x1), (y0, y1)) outside which the forcing is exactly zero, or None.
    """

    name: str
    domain: tuple[tuple[float, float], tuple[float, float]]
    diffusion_x: Callable
    diffusion_y: Callable
    initial: Callable
    wind: Wind = Wind()
    forcing: Optional[Callable] = None
    forcing_support: Optional[tuple] = None
    exact: Optional[Callable] = None
    exact_grad: Optional[Callable] = None


# -- manufactured -----------------------------------------------------------

_MANUFACTURED_ALPHA = 1e-2


# Product forms: the t and x factors multiply first, the y factor last, so a
# broadcast (n x 1, 1 x m) grid takes one full-grid multiply per output.

def _manufactured_exact(x, y, t):
    return (np.sin(np.pi * t) * np.sin(np.pi * x)) * np.sin(np.pi * y)


def _manufactured_exact_grad(x, y, t):
    pst = np.pi * np.sin(np.pi * t)
    return ((pst * np.cos(np.pi * x)) * np.sin(np.pi * y),
            (pst * np.sin(np.pi * x)) * np.cos(np.pi * y))


def _manufactured_forcing(x, y, t):
    st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
    return (((np.pi * ct + 2.0 * _MANUFACTURED_ALPHA * np.pi ** 2 * st) * np.sin(np.pi * x)
             + np.pi * st * np.cos(np.pi * x)) * np.sin(np.pi * y))


def _manufactured_initial(x, y):
    return 0.0 * (x + y)


def _constant_coefficient(s, value):
    return np.full_like(np.asarray(s, dtype=float), value)


def manufactured() -> ProblemDefinition:
    return ProblemDefinition(
        name="manufactured",
        domain=((0.0, 1.0), (0.0, 1.0)),
        diffusion_x=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        diffusion_y=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        wind=Wind(x=WindComponent()),
        forcing=_manufactured_forcing,
        initial=_manufactured_initial,
        exact=_manufactured_exact,
        exact_grad=_manufactured_exact_grad,
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
