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

    def dt_factors(self) -> tuple[float, float]:
        """Effective-dt multipliers of tau for the (x, y) substeps."""
        return {
            SchemeKind.PEACEMAN_RACHFORD: (0.5, 0.5),
            SchemeKind.STRANG_BE: (0.5, 1.0),
            SchemeKind.STRANG_CN: (0.25, 0.5),
            SchemeKind.BE_SPLIT: (1.0, 1.0),
        }[self]

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


# One row per implicit substep: direction, the explicit blocks (rhs_ops keys)
# in the split and in the other direction, and the forcing times as fractions
# of tau (loads summed in this order).
_SUBSTEPS = {
    SchemeKind.PEACEMAN_RACHFORD: (("x", "m_rect", "other_minus", (0.5,)),
                                   ("y", "m_rect", "other_minus", (0.5,))),
    SchemeKind.STRANG_BE: (("x", "m_rect", "m_other", (0.5,)),
                           ("y", "m_rect", "m_other", ()),
                           ("x", "m_rect", "m_other", (1.0,))),
    SchemeKind.STRANG_CN: (("x", "rect_minus", "m_other", (0.5, 0.0)),
                           ("y", "rect_minus", "m_other", ()),
                           ("x", "rect_minus", "m_other", (1.0, 0.5))),
    SchemeKind.BE_SPLIT: (("x", "m_rect", "m_other", (1.0,)),
                          ("y", "m_rect", "m_other", ())),
}


def split_step(scheme: SchemeKind, state, x_op, y_op, forcing, tau):
    """One step of the scheme's substep table; returns the last (op, state)."""
    ops = {"x": x_op, "y": y_op}
    u = state.u
    for direction, split_block, other_block, fractions in _SUBSTEPS[scheme]:
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
        if not problem.separable:
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
        fx, fy = loop.scheme.dt_factors()
        self._wind_time = loop.t0
        wind = self._wind(loop.t0)
        self.x_op, self.y_op = (
            build_directional(d, self.trial_x, self.trial_y, test, diffusion, wind,
                              f * loop.tau, loop.stabilized, self.counter)
            for d, test, f in (("x", self.test_x, fx), ("y", self.test_y, fy)))

    def _wind(self, t: float):
        pr = self.problem
        return (lambda x: pr.velocity_x(x, t)), (lambda y: pr.velocity_y(y, t))

    def step(self, state: SolutionState) -> SolutionState:
        if self.problem.velocity_time_dependent and state.time != self._wind_time:
            wind = self._wind(state.time)
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
