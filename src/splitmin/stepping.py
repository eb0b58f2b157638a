"""Direction-split time integrators.

Each scheme is one table of implicit directional substeps (_SUBSTEPS), run
by split_step in the transposed grid algebra  result = Ax @ U @ Ay^T  (grids
indexed (x, y), all blocks Dirichlet-eliminated):

  pr          two substeps, dt_eff = tau/2 in both directions, forcing at
              t + tau/2; second order.
  strang-be   half-x / full-y / half-x backward Euler substeps
              (dt_eff = tau/2, tau, tau/2), forcing at t+tau/2 and t+tau;
              first order.
  strang-cn   Crank-Nicolson substeps (dt_eff = tau/4, tau/2, tau/4) with
              averaged forcings; second order.
  be          Lie-split backward Euler: each direction once at dt_eff = tau,
              forcing at t+tau in the x substep; first order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .assembly import apply_dirichlet, mass
from .exceptions import ParameterError
from .kron import BandedLU, OpCounter, kron_matvec
from .resmin import (LoadAssembler, SolutionState, build_directional,
                     residual_norms, substep)
from .splines import SplineSpace, make_space

__all__ = ["SchemeKind", "TimeLoopConfig", "Stepper", "project_initial",
           "split_step"]


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

    @property
    def order(self) -> int:
        return 2 if self in (SchemeKind.PEACEMAN_RACHFORD, SchemeKind.STRANG_CN) else 1


@dataclass
class TimeLoopConfig:
    tau: float
    n_steps: int
    t0: float = 0.0
    scheme: SchemeKind = SchemeKind.PEACEMAN_RACHFORD
    stabilized: bool = True
    record_residuals: bool = True


# One row per implicit substep: direction, dt_eff as a fraction of tau, the
# explicit blocks (rhs_ops keys) in the split and in the other direction, and
# the forcing times as fractions of tau (loads summed in this order).
_SUBSTEPS = {
    SchemeKind.PEACEMAN_RACHFORD: (("x", 0.5, "m_rect", "other_minus", (0.5,)),
                                   ("y", 0.5, "m_rect", "other_minus", (0.5,))),
    SchemeKind.STRANG_BE: (("x", 0.5, "m_rect", "m_other", (0.5,)),
                           ("y", 1.0, "m_rect", "m_other", ()),
                           ("x", 0.5, "m_rect", "m_other", (1.0,))),
    SchemeKind.STRANG_CN: (("x", 0.25, "rect_minus", "m_other", (0.5, 0.0)),
                           ("y", 0.5, "rect_minus", "m_other", ()),
                           ("x", 0.25, "rect_minus", "m_other", (1.0, 0.5))),
    SchemeKind.BE_SPLIT: (("x", 1.0, "m_rect", "m_other", (1.0,)),
                          ("y", 1.0, "m_rect", "m_other", ())),
}
# each direction has one operator, so all its rows share one dt_eff
assert all(len({row[1] for row in rows if row[0] == d}) == 1
           for rows in _SUBSTEPS.values() for d in "xy")


def split_step(scheme: SchemeKind, state, x_op, y_op, forcing, tau):
    """One step of the scheme's substep table; returns the last (op, state)."""
    ops = {"x": x_op, "y": y_op}
    u = state.u
    for direction, _, split_block, other_block, fractions in _SUBSTEPS[scheme]:
        op = ops[direction]
        split, other = op.rhs_ops[split_block], op.rhs_ops[other_block]
        rhs = (kron_matvec(split, other, u) if direction == "x"
               else kron_matvec(other, split, u))
        if forcing is not None and fractions:
            loads = [op.loads.load(forcing, state.time + a * tau) for a in fractions]
            rhs += op.dt_eff * sum(loads[1:], loads[0])
        out = substep(op, rhs)
        u = out.u
    return op, out


class Stepper:
    """Owns the spaces and directional operators for one problem run.

    Operators are assembled and factored once.  For a time-dependent wind
    each step first moves both to the wind at its start time (set_wind).
    """

    def __init__(self, problem, mesh: tuple[int, int], trial: tuple[int, int],
                 test: tuple[int, int], loop: TimeLoopConfig,
                 counter: OpCounter | None = None):
        if not problem.wind.separable:
            raise ParameterError(
                f"problem {problem.name!r} has a non-separable velocity; "
                "use the general 2D solver path")
        self.problem = problem
        self.loop = loop
        self.counter = counter if counter is not None else OpCounter()
        (x0, x1), (y0, y1) = problem.domain
        p, c = trial
        self.trial_x = make_space(p, c, mesh[0], (x0, x1))
        self.trial_y = make_space(p, c, mesh[1], (y0, y1))
        q, cq = test if loop.stabilized else trial
        self.test_x = make_space(q, cq, mesh[0], (x0, x1))
        self.test_y = make_space(q, cq, mesh[1], (y0, y1))
        self.last_residual_norms = (0.0, 0.0)
        diffusion = (problem.diffusion_x, problem.diffusion_y)
        dt = dict(row[:2] for row in _SUBSTEPS[loop.scheme])
        self._wind_time = loop.t0
        wind = problem.wind.pair(loop.t0)
        self.x_op, self.y_op = (
            build_directional(d, self.trial_x, self.trial_y, test, diffusion, wind,
                              dt[d] * loop.tau, loop.stabilized, self.counter)
            for d, test in (("x", self.test_x), ("y", self.test_y)))

    def step(self, state: SolutionState) -> SolutionState:
        if self.problem.wind.time_dependent and state.time != self._wind_time:
            wind = self.problem.wind.pair(state.time)
            self.x_op.set_wind(wind)
            self.y_op.set_wind(wind)
            self._wind_time = state.time
        final_op, final = split_step(self.loop.scheme, state, self.x_op, self.y_op,
                                     self.problem.forcing, self.loop.tau)
        final.time = state.time + self.loop.tau
        if self.loop.stabilized and self.loop.record_residuals:
            self.last_residual_norms = residual_norms(final_op, final.r)
        return final

    def initial_state(self) -> SolutionState:
        state = project_initial(self.problem.initial, self.trial_x, self.trial_y,
                                self.counter)
        state.time = self.loop.t0
        return state


def project_initial(u0, trial_x: SplineSpace, trial_y: SplineSpace,
                    counter: OpCounter | None = None) -> SolutionState:
    """L2-project u0(x, y) onto the interior trial space: (Mx (x) My) u = load."""
    loads = LoadAssembler(trial_x, trial_y)
    rhs = loads.load(lambda x, y, t: u0(x, y), 0.0)
    lux = BandedLU(apply_dirichlet(mass(trial_x, trial_x), trial_x, trial_x), counter)
    luy = BandedLU(apply_dirichlet(mass(trial_y, trial_y), trial_y, trial_y), counter)
    u = lux.solve(luy.solve(rhs.T).T)
    return SolutionState(u=u, time=0.0)
