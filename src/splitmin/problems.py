"""Benchmark problem definitions.

Three built-in advection-diffusion benchmarks:

  manufactured    exact solution sin(pi x) sin(pi y) sin(pi t) on [0,1]^2 with
                  alpha = 1e-2 and wind (1, 0); forcing chosen so the PDE
                  holds exactly.  Used for convergence studies.
  pollution       chimney source on [0,5000]^2 with a slowly rotating,
                  space-constant wind of unit magnitude and per-direction
                  variable diffusion.  Separable, so the direction-split
                  solver applies with operator rebuilds each step.
  circular-wind   rigid rotation beta = (y, -x) on [-1,1]^2 around the origin
                  with alpha = 1e-6 and a Gaussian initial bump.  The wind
                  couples directions, so only the general 2D solver applies.

All solvers impose homogeneous Dirichlet conditions on the full boundary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ParameterError

__all__ = ["ProblemDefinition", "manufactured", "pollution", "circular_wind",
           "get_problem", "PROBLEMS", "wind_angle"]


@dataclass(frozen=True)
class ProblemDefinition:
    """Coefficients, data, and metadata for one benchmark.

    For separable problems the wind is given componentwise as
    velocity_x(x, t) and velocity_y(y, t); for non-separable ones as
    velocity_field(x, y) -> (bx, by).  Diffusion is always componentwise,
    each a function of its own coordinate.
    """

    name: str
    domain: tuple[tuple[float, float], tuple[float, float]]
    time_interval: tuple[float, float]
    diffusion_x: Callable
    diffusion_y: Callable
    separable: bool
    velocity_time_dependent: bool
    initial: Callable
    velocity_x: Optional[Callable] = None
    velocity_y: Optional[Callable] = None
    velocity_field: Optional[Callable] = None
    forcing: Optional[Callable] = None
    exact: Optional[Callable] = None
    exact_grad: Optional[Callable] = None
    alpha: Optional[float] = None


# -- manufactured -----------------------------------------------------------

_MANUFACTURED_ALPHA = 1e-2


def _manufactured_exact(x, y, t):
    return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * t)


def _manufactured_exact_grad(x, y, t):
    st = np.sin(np.pi * t)
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * st,
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * st)


def _manufactured_forcing(x, y, t):
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    st, ct = np.sin(np.pi * t), np.cos(np.pi * t)
    return (np.pi * ct * sx * sy
            + 2.0 * _MANUFACTURED_ALPHA * np.pi ** 2 * st * sx * sy
            + np.pi * st * np.cos(np.pi * x) * sy)


def _manufactured_initial(x, y):
    return 0.0 * (x + y)


def _constant_coefficient(s, value):
    return np.full_like(np.asarray(s, dtype=float), value)


def manufactured() -> ProblemDefinition:
    return ProblemDefinition(
        name="manufactured",
        domain=((0.0, 1.0), (0.0, 1.0)),
        time_interval=(0.0, 2.0),
        diffusion_x=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        diffusion_y=functools.partial(_constant_coefficient,
                                      value=_MANUFACTURED_ALPHA),
        separable=True,
        velocity_time_dependent=False,
        velocity_x=_manufactured_velocity_x,
        velocity_y=_manufactured_velocity_y,
        forcing=_manufactured_forcing,
        initial=_manufactured_initial,
        exact=_manufactured_exact,
        exact_grad=_manufactured_exact_grad,
        alpha=_MANUFACTURED_ALPHA,
    )


def _manufactured_velocity_x(x, t):
    return np.full_like(np.asarray(x, dtype=float), 1.0)


def _manufactured_velocity_y(y, t):
    return np.full_like(np.asarray(y, dtype=float), 0.0)


# -- pollution --------------------------------------------------------------

_POLLUTION_SIDE = 5000.0
_POLLUTION_AMBIENT = 1e-6
_SOURCE_RADIUS = 25.0


def wind_angle(t):
    """Wind direction angle: slow oscillation around 3 pi / 8."""
    s = np.asarray(t, dtype=float) / 150.0
    return np.pi / 3.0 * (np.sin(s) + 0.5 * np.sin(2.3 * s)) + 3.0 * np.pi / 8.0


def _pollution_velocity_x(x, t):
    return np.full_like(np.asarray(x, dtype=float), np.cos(wind_angle(t)))


def _pollution_velocity_y(y, t):
    return np.full_like(np.asarray(y, dtype=float), np.sin(wind_angle(t)))


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
        time_interval=(0.0, 10.0),
        diffusion_x=_pollution_diffusion_x,
        diffusion_y=_pollution_diffusion_y,
        separable=True,
        velocity_time_dependent=True,
        velocity_x=_pollution_velocity_x,
        velocity_y=_pollution_velocity_y,
        forcing=functools.partial(_pollution_forcing, p0=p0),
        initial=_pollution_initial,
    )


# -- circular wind ----------------------------------------------------------

_CIRCULAR_ALPHA = 1e-6


def _circular_velocity_field(x, y):
    return y, -x


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
        time_interval=(0.0, 2.0 * np.pi),
        diffusion_x=functools.partial(_constant_coefficient,
                                      value=_CIRCULAR_ALPHA),
        diffusion_y=functools.partial(_constant_coefficient,
                                      value=_CIRCULAR_ALPHA),
        separable=False,
        velocity_time_dependent=False,
        velocity_field=_circular_velocity_field,
        initial=functools.partial(_circular_initial, center=center,
                                  sigma=sigma),
        alpha=_CIRCULAR_ALPHA,
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
