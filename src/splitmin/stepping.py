"""Direction-split time integrators.

Each scheme is one table of implicit directional substeps (_SUBSTEPS), run
by split_step in the transposed grid algebra  result = Ax @ U @ Ay^T  (all
blocks Dirichlet-eliminated).  States are indexed (x, y); each substep works
in its operator's (split, other) layout:

  pr          two substeps, dt_eff = tau/2 in both directions, forcing at
              t + tau/2; second order.
  strang-be   half-x / full-y / half-x backward Euler substeps
              (dt_eff = tau/2, tau, tau/2), forcing at t+tau/2 and t+tau;
              first order.
  strang-cn   Crank-Nicolson substeps (dt_eff = tau/4, tau/2, tau/4) with
              averaged forcings; second order.  The right side
              (M - dt_eff W) u = 2 M u - B u needs no second operator: a
              substep solves for M u, its backward-Euler half step y, and
              takes (r, u') = (2 y_r, 2 y_u - u).
  be          Lie-split backward Euler: each direction once at dt_eff = tau,
              forcing at t+tau in the x substep; first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assembly import block, mass
from .exceptions import NonFiniteStateError, ParameterError
from .kron import BandedLU, OpCounter, along, solve_along
from .resmin import (LoadAssembler, SolutionState, build_directional, divide_other,
                     residual_norms, substep)
from .splines import SplineSpace, make_space

__all__ = ["RunConfig", "SchemeKind", "StepperBase", "Stepper", "march",
           "project_initial", "spaces", "split_step"]


@dataclass(frozen=True)
class RunConfig:
    """One run of one problem, on either solver path."""

    problem: str = "manufactured"
    mesh: tuple[int, int] = (16, 16)
    trial: tuple[int, int] = (2, 1)
    test: tuple[int, int] = (3, 0)
    scheme: str = "pr"
    tau: float = 0.01
    n_steps: int = 50
    stabilized: bool = True
    out_dir: str = "out"
    snapshot_stride: int = 0
    snapshot_resolution: int = 65
    t0: float = 0.0

    def __post_init__(self):
        for name, ok, expected in (
                ("tau", 0 < self.tau < np.inf, "positive and finite"),
                ("n_steps", self.n_steps >= 0, "non-negative"),
                ("snapshot_stride", self.snapshot_stride >= 0, "non-negative"),
                ("snapshot_resolution", self.snapshot_resolution >= 1, "at least 1"),
                ("t0", -np.inf < self.t0 < np.inf, "finite")):
            if not ok:
                raise ParameterError(f"{name} must be {expected}, got {getattr(self, name)!r}")


class SchemeKind(Enum):
    PEACEMAN_RACHFORD = "pr"
    STRANG_BE = "strang-be"
    STRANG_CN = "strang-cn"
    BE_SPLIT = "be"

    @classmethod
    def parse(cls, name: str) -> "SchemeKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ParameterError(f"unknown scheme {name!r}; expected one of "
                             f"{[k.value for k in cls]}")


# One row per implicit substep: direction, dt_eff as a fraction of tau, the
# direction whose M - dt_eff W stands explicit on the right ("other", "split"
# or None: backward Euler), and the forcing times as fractions of tau (loads
# summed in this order).
_SUBSTEPS = {
    SchemeKind.PEACEMAN_RACHFORD: (("x", 0.5, "other", (0.5,)),
                                   ("y", 0.5, "other", (0.5,))),
    SchemeKind.STRANG_BE: (("x", 0.5, None, (0.5,)),
                           ("y", 1.0, None, ()),
                           ("x", 0.5, None, (1.0,))),
    SchemeKind.STRANG_CN: (("x", 0.25, "split", (0.5, 0.0)),
                           ("y", 0.5, "split", ()),
                           ("x", 0.25, "split", (1.0, 0.5))),
    SchemeKind.BE_SPLIT: (("x", 1.0, None, (1.0,)),
                          ("y", 1.0, None, ())),
}
# each direction has one operator, so all its rows share one dt_eff
assert all(len({row[1] for row in rows if row[0] == d}) == 1
           for rows in _SUBSTEPS.values() for d in "xy")


def split_step(scheme: SchemeKind, state, x_op, y_op, forcing, tau, support=None):
    """One step of the scheme's substep table; returns the last (op, state).

    A substep solves (S^-1 (x) M_o^-1)((P (x) Q) u + dt L) with S the split
    direction's system, P its mass, M_o the other direction's mass and L the
    mean of the loads.  As (S^-1 (x) M_o^-1)(P (x) Q) = S^-1 (P (x) M_o^-1 Q),
    the explicit part is divided on the trial grid, and not at all when Q is
    M_o; the loads come divided from the operator's assembler, and the solve
    is the split direction's alone.  A Crank-Nicolson substep extrapolates
    that backward-Euler solve, r gathered only when read.

    Each substep works in its operator's (split, other) layout, C-ordered:
    the split direction's sparse products read rows, and the other
    direction's banded solves read the transpose with no copy.  Only the
    trial grid is transposed, between substeps; the state returned is
    indexed (x, y), its r transposed when read.
    """
    ops = {"x": x_op, "y": y_op}
    u, op = state.u, x_op  # u is laid out as op's grids are
    for direction, _, explicit, fractions in _SUBSTEPS[scheme]:
        last, op = op, ops[direction]
        u = op.layout(last.layout(u))
        if explicit == "other":
            u = divide_other(op, along(op.other_minus, u, 1))
        rhs = op.m_rect @ u
        if forcing is not None and fractions:
            loads = [op.loads.load(forcing, state.time + a * tau, support)
                     for a in fractions]
            rhs += op.dt_eff / len(loads) * sum(loads[1:], loads[0])
        out = substep(op, rhs)
        if explicit == "split":
            r = (lambda half=out: 2.0 * half.r) if op.stabilized else None
            out = SolutionState(u=2.0 * out.u - u, r=r)
        u = out.u
    if op.axis == 1:
        r = (lambda last=out: last.r.T) if op.stabilized else None
        out = SolutionState(u=u.T, r=r)
    return op, out


def spaces(domain, mesh, pair) -> tuple[SplineSpace, SplineSpace]:
    """The x and y spaces of one (degree, continuity) pair on the mesh.

    A space of fewer than three functions has no interior function once the
    Dirichlet ones are eliminated, and raises ParameterError.
    """
    made = tuple(make_space(*pair, n, interval) for n, interval in zip(mesh, domain))
    for axis, space in zip("xy", made):
        if space.dim < 3:
            raise ParameterError(
                f"the {tuple(pair)} space on {space.n_elements} element(s) in {axis} has "
                f"{space.dim} basis function(s) and no interior one")
    return made


class StepperBase:
    """The spaces, initial state at config.t0 and residual norms both paths share.

    A test space that does not hold the trial space (a lower degree or a
    higher continuity) raises ParameterError here, before either path
    assembles: its saddle is singular or its residual minimization ill-posed.
    """

    def __init__(self, problem, config: RunConfig,
                 counter: OpCounter | None = None):
        (p, c), (q, d) = config.trial, config.test
        if config.stabilized and (q < p or d > c):
            raise ParameterError(f"test space {config.test} is coarser than the trial "
                                 f"space {config.trial}: it needs degree >= {p} and "
                                 f"continuity <= {c}")
        self.problem = problem
        self.config = config
        self.counter = counter if counter is not None else OpCounter()
        self.trial_x, self.trial_y = spaces(problem.domain, config.mesh,
                                            config.trial)
        self.test_x, self.test_y = spaces(
            problem.domain, config.mesh,
            config.test if config.stabilized else config.trial)
        self.last_residual_norms = (0.0, 0.0)

    def initial_state(self) -> SolutionState:
        state = project_initial(self.problem.initial, self.trial_x, self.trial_y,
                                self.counter)
        state.time = self.config.t0
        return state


class Stepper(StepperBase):
    """Owns the directional operators for one split-path run.

    Operators are assembled and factored once, with the wind at the first
    step's midpoint t0 + tau/2.  For a time-dependent wind each step first
    moves both to the wind at its own midpoint: set_wind evaluates each
    operator's split block, a line in the wind scale, at s(t + tau/2) and
    refactors, which keeps the second-order schemes second order.  A steady
    wind's split factors are never refactored, so they are built ``steady``
    and keep their block form (``kron.BlockForm``); a refactored one does not.
    """

    def __init__(self, problem, config: RunConfig,
                 counter: OpCounter | None = None):
        if not problem.wind.separable:
            raise ParameterError(
                f"problem {problem.name!r} has a non-separable velocity; "
                "use the general 2D solver path")
        self.scheme = SchemeKind.parse(config.scheme)
        super().__init__(problem, config, counter)
        diffusion = (problem.diffusion_x, problem.diffusion_y)
        dt = dict(row[:2] for row in _SUBSTEPS[self.scheme])
        (ax, _), (_, by) = problem.wind.factors
        self._wind_time = config.t0 + 0.5 * config.tau
        scales = problem.wind.scales(self._wind_time)
        self.x_op, self.y_op = (
            build_directional(d, self.trial_x, self.trial_y, test, diffusion, (ax, by),
                              dt[d] * config.tau, config.stabilized, self.counter, scales,
                              steady=not problem.wind.time_dependent)
            for d, test in (("x", self.test_x), ("y", self.test_y)))

    def step(self, state: SolutionState) -> SolutionState:
        tau = self.config.tau
        midpoint = state.time + 0.5 * tau
        if self.problem.wind.time_dependent and midpoint != self._wind_time:
            scales = self.problem.wind.scales(midpoint)
            self.x_op.set_wind(scales)
            self.y_op.set_wind(scales)
            self._wind_time = midpoint
        final_op, final = split_step(self.scheme, state, self.x_op, self.y_op,
                                     self.problem.forcing, tau, self.problem.forcing_support)
        final.time = state.time + tau
        if self.config.stabilized:
            self.last_residual_norms = residual_norms(final_op, final.r)
        return final


def march(stepper, n_steps: int):
    """Yield (0, initial state), then (k, state) after each of n_steps steps.

    Calls initial_state and step on the instance; raises NonFiniteStateError
    at the first step that leaves a non-finite coefficient.
    """
    state = stepper.initial_state()
    yield 0, state
    for k in range(1, n_steps + 1):
        state = stepper.step(state)
        if not np.all(np.isfinite(state.u)):
            raise NonFiniteStateError(f"step {k} (t = {state.time!r}) left a "
                                      "non-finite coefficient")
        yield k, state


def project_initial(u0, trial_x: SplineSpace, trial_y: SplineSpace,
                    counter: OpCounter | None = None) -> SolutionState:
    """L2-project u0(x, y) onto the interior trial space: (Mx (x) My) u = load."""
    loads = LoadAssembler(trial_x, trial_y)
    rhs = loads.load(lambda x, y, t: u0(x, y), 0.0)
    lux = BandedLU(block(mass, trial_x, trial_x), counter)
    luy = BandedLU(block(mass, trial_y, trial_y), counter)
    u = lux.solve(solve_along(luy, rhs, 1))
    return SolutionState(u=u, time=0.0)
