"""Run orchestration, error reporting, studies, and artifact export.

Artifacts are deterministic for a fixed configuration: CSV files use
shortest-roundtrip float formatting and fixed row orders, so two runs with
the same config are byte-identical.  Wall-clock measurements go only to
metadata.json and the timing table, never into solution CSVs.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .assembly import _nq, block, mass, stiffness
from .exceptions import ParameterError
from .full2d import RotatingFlowStepper
from .kron import OpCounter, kron_norms
from .problems import get_problem
from .splines import SplineSpace, eval_matrix, gauss_rule
from .stepping import RunConfig, Stepper, march, spaces

__all__ = ["RunConfig", "ErrorRow", "ErrorEvaluator", "make_stepper", "run",
           "convergence_study", "timing_study", "export_field", "sample_field",
           "solution_norms"]

_ZERO_NORM_GUARD = 1e-14
_BLOCK_POINTS = 1 << 15  # Gauss points per error block: 256 kB of float64


@dataclass(frozen=True)
class ErrorRow:
    t: float
    l2_percent: float
    h1_percent: float
    relative: bool


def _format(value) -> str:
    return repr(float(value))


class ErrorEvaluator:
    """Relative L2/H1 errors of a coefficient grid against a closed form.

    Quadrature: one Gauss order above the assembly rule of the trial space,
    summed over blocks of x rows: grid-sized temporaries cost more in page
    faults than in arithmetic.  When the exact solution's norm vanishes at t
    (below 1e-14), absolute norms are reported and the row is flagged relative=False.
    """

    def __init__(self, trial_x: SplineSpace, trial_y: SplineSpace,
                 exact, exact_grad=None):
        if exact is None:
            raise ParameterError("error evaluation requires an exact solution")
        self.exact, self.exact_grad = exact, exact_grad
        px, wx = gauss_rule(trial_x, _nq(trial_x.degree, trial_x.degree) + 1)
        self.py, self.wy = gauss_rule(trial_y, _nq(trial_y.degree, trial_y.degree) + 1)
        vx, dx = eval_matrix(trial_x, px)
        self.vy, self.dy = eval_matrix(trial_y, self.py)
        self._dims = (trial_x.dim, trial_y.dim)
        rows = max(1, _BLOCK_POINTS // self.py.size)
        # (x points as a column, x weights, basis rows, derivative rows)
        self._blocks = [(px[s:s + rows, None], wx[s:s + rows], vx[s:s + rows],
                         dx[s:s + rows]) for s in range(0, px.size, rows)]

    def _squares(self, exact, wx, values) -> tuple[float, float]:
        """Integrals of (exact - values)^2 and exact^2 over a block; overwrites values."""
        exact = np.broadcast_to(np.asarray(exact, dtype=float), values.shape)
        np.square(np.subtract(exact, values, out=values), out=values)
        return wx @ values @ self.wy, wx @ np.square(exact) @ self.wy

    def errors(self, u_grid: np.ndarray, t: float) -> ErrorRow:
        u = np.zeros(self._dims)
        u[1:-1, 1:-1] = u_grid
        # u through the y basis and its derivative at the y Gauss points
        uy, duy = (np.ascontiguousarray((m @ u.T).T) for m in (self.vy, self.dy))
        Y = self.py[None, :]
        sums = np.zeros((3, 2))  # (error, reference) of u, d/dx u, d/dy u
        sums[1:] = 0.0 if self.exact_grad is not None else np.nan
        for X, wx, vx, dx in self._blocks:
            sums[0] += self._squares(self.exact(X, Y, t), wx, vx @ uy)
            if self.exact_grad is not None:
                gx, gy = self.exact_grad(X, Y, t)
                sums[1] += self._squares(gx, wx, dx @ uy)
                sums[2] += self._squares(gy, wx, vx @ duy)
        (l2_err, l2_ref), (h1_err, h1_ref) = np.sqrt(sums[0]), np.sqrt(sums.sum(axis=0))
        if l2_ref < _ZERO_NORM_GUARD:
            return ErrorRow(t, float(l2_err), float(h1_err), relative=False)
        return ErrorRow(t, float(100.0 * l2_err / l2_ref),
                        float(100.0 * h1_err / h1_ref), relative=True)


def make_stepper(problem, config: RunConfig, counter: OpCounter | None = None):
    if problem.wind.separable:
        return Stepper(problem, config, counter)
    ignored = [name for name, set_ in (("--galerkin", not config.stabilized),
                                       ("scheme", config.scheme != "pr")) if set_]
    if ignored:
        raise ParameterError(
            f"{', '.join(ignored)} not supported for the non-separable problem "
            f"{problem.name!r}: the general path runs stabilized monolithic "
            "Crank-Nicolson")
    return RotatingFlowStepper(problem, config, counter)


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(v) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")


def run(config: RunConfig):
    """Execute one configured run; write artifacts; return the final state."""
    problem = get_problem(config.problem)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counter = OpCounter()
    stepper = make_stepper(problem, config, counter)
    trial_x, trial_y = stepper.trial_x, stepper.trial_y
    effective_scheme = config.scheme if problem.wind.separable else "monolithic-cn"

    evaluator = None
    if problem.exact is not None:
        evaluator = ErrorEvaluator(trial_x, trial_y, problem.exact,
                                   problem.exact_grad)

    error_rows, residual_rows = [], []

    def snapshot(state, step_index):
        base = out / f"field_step{step_index:06d}"
        export_field(state.u, trial_x, trial_y, config.snapshot_resolution,
                     base, title=f"{problem.name} t={state.time}")

    started = time.perf_counter()
    for k, state in march(stepper, config.n_steps):
        if evaluator is not None:
            error_rows.append(evaluator.errors(state.u, state.time))
        if config.stabilized and k > 0:
            residual_rows.append((state.time, *stepper.last_residual_norms))
        if config.snapshot_stride > 0 and k % config.snapshot_stride == 0:
            snapshot(state, k)
    elapsed = time.perf_counter() - started

    if config.snapshot_stride == 0 or config.n_steps % config.snapshot_stride:
        snapshot(state, config.n_steps)
    if error_rows:
        _write_csv(out / "errors.csv",
                   ("t", "l2_percent", "h1_percent", "relative"),
                   ((r.t, r.l2_percent, r.h1_percent, int(r.relative))
                    for r in error_rows))
    if residual_rows:
        _write_csv(out / "residuals.csv", ("t", "residual_l2", "residual_h1"),
                   residual_rows)
    metadata = {
        "config": asdict(config),
        "effective_scheme": effective_scheme,
        "factor_ops": counter.factor_ops,
        "solve_ops": counter.solve_ops,
        "total_ops": counter.total,
        "final_time": state.time,
        "wall_time_s": elapsed,
    }
    if not problem.wind.separable:  # SuperLU's work is not counted as ops
        metadata["fill_nnz"] = stepper.factor.fill_nnz
    (out / "metadata.json").write_text(json.dumps(metadata, indent=2,
                                                  sort_keys=True) + "\n")
    return state


def _study_point(config: RunConfig) -> tuple[str, float, np.ndarray]:
    stepper = Stepper(get_problem(config.problem), config)
    for _, state in march(stepper, config.n_steps):
        pass
    return config.scheme, config.tau, state.u


def convergence_study(config: RunConfig, taus: Sequence[float],
                      schemes: Sequence[str] = ("pr", "strang-be", "strang-cn", "be"),
                      jobs: int = 1, out_dir: Optional[str] = None,
                      reference: str = "exact") -> dict:
    """Error-vs-tau sweep at a fixed horizon; least-squares orders per scheme.

    The horizon is config.tau * config.n_steps; every tau in the sweep must
    divide it to an integer number of steps.

    reference="exact" measures each run against the closed-form solution (the
    usual relative-percent errors).  On a fixed mesh that fit bottoms out at
    the spatial floor once the time error drops below it; reference="self"
    instead measures, per scheme, the discrete L2/H1 distance to the same
    scheme at tau_min/8, isolating the temporal order.
    """
    if len(taus) < 3:
        raise ParameterError("convergence study needs at least 3 tau values")
    if reference not in ("exact", "self"):
        raise ParameterError(f"unknown reference {reference!r}")
    if not schemes:
        raise ParameterError("convergence study needs at least one scheme")
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    problem = get_problem(config.problem)
    if reference == "exact" and problem.exact is None:
        raise ParameterError(f"problem {problem.name!r} has no closed-form "
                             "solution; use the self reference")
    horizon = config.tau * config.n_steps
    steps_of = {}
    for tau in taus:
        if not tau > 0:
            raise ParameterError(f"tau={tau} is not positive")
        steps = horizon / tau
        if abs(steps - round(steps)) > 1e-9:
            raise ParameterError(
                f"tau={tau} does not divide the horizon {horizon}")
        steps_of[float(tau)] = int(round(steps))
    tasks = [replace(config, scheme=scheme, tau=float(tau),
                     n_steps=steps_of[float(tau)])
             for scheme in schemes for tau in taus]
    tau_ref = None
    if reference == "self":
        tau_min = float(min(taus))
        tau_ref = tau_min / 8.0
        tasks += [replace(config, scheme=scheme, tau=tau_ref,
                          n_steps=8 * steps_of[tau_min])
                  for scheme in schemes]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_study_point, tasks))
    else:
        results = [_study_point(t) for t in tasks]
    grids = {(s, t): u for s, t, u in results}

    trial_x, trial_y = spaces(problem.domain, config.mesh, config.trial)
    points = {}
    if reference == "exact":
        evaluator = ErrorEvaluator(trial_x, trial_y, problem.exact,
                                   problem.exact_grad)
        t_final = config.t0 + horizon
        for scheme in schemes:
            for tau in taus:
                row = evaluator.errors(grids[(scheme, float(tau))], t_final)
                points[(scheme, float(tau))] = (row.l2_percent, row.h1_percent)
    else:
        for scheme in schemes:
            ref = grids[(scheme, tau_ref)]
            for tau in taus:
                points[(scheme, float(tau))] = solution_norms(
                    grids[(scheme, float(tau))] - ref, trial_x, trial_y)

    slopes = {}
    for scheme in schemes:
        errs = np.array([points[(scheme, float(t))] for t in taus])
        logt = np.log(np.asarray(taus, dtype=float))
        slopes[scheme] = {
            "l2": float(np.polyfit(logt, np.log(errs[:, 0]), 1)[0]),
            "h1": float(np.polyfit(logt, np.log(errs[:, 1]), 1)[0]),
        }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        labels = (("l2_percent", "h1_percent") if reference == "exact"
                  else ("l2_abs", "h1_abs"))
        _write_csv(out / "convergence.csv", ("scheme", "tau", *labels),
                   ((s, float(t), *points[(s, float(t))])
                    for s in schemes for t in taus))
        _write_csv(out / "slopes.csv", ("scheme", "l2_order", "h1_order"),
                   ((s, slopes[s]["l2"], slopes[s]["h1"]) for s in schemes))
    return {"points": points, "slopes": slopes, "horizon": horizon,
            "reference": reference}


def _space_pair_label(trial, test) -> str:
    return f"trial({trial[0]},{trial[1]})/test({test[0]},{test[1]})"


def full_dof_count(mesh: tuple[int, int], trial: tuple[int, int],
                   test: tuple[int, int], domain=((0.0, 1.0), (0.0, 1.0))) -> int:
    """Saddle unknown count: full (uneliminated) 2D test dim + trial dim."""
    tx, ty = spaces(domain, mesh, trial)
    sx, sy = spaces(domain, mesh, test)
    return tx.dim * ty.dim + sx.dim * sy.dim


def timing_study(meshes: Sequence[int],
                 pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]],
                 out_dir: Optional[str] = None,
                 include_general: bool = True,
                 tau: float = 0.01) -> list[dict]:
    """Per-mesh cost table for both solver paths.

    The split path reports counted floating-point operations (factor + solve
    of one step); both paths report the wall time of building the stepper,
    projecting the initial data and taking one step on the same spaces.  dofs
    column counts full test + trial dimensions.
    """
    if not meshes or not pairs:
        raise ParameterError("timing study needs a mesh and a space pair")
    problem = get_problem("manufactured")
    rows = []
    for trial, test in pairs:
        for n in meshes:
            config = RunConfig(mesh=(n, n), trial=trial, test=test, tau=tau,
                               n_steps=1)
            counter = OpCounter()
            started = time.perf_counter()
            stepper = Stepper(problem, config, counter)
            factor_ops, solve_ops0 = counter.factor_ops, counter.solve_ops
            state = stepper.initial_state()
            counter.solve_ops = solve_ops0
            state = stepper.step(state)
            kron_time = time.perf_counter() - started
            row = {
                "space": _space_pair_label(trial, test),
                "n": n,
                "dofs": full_dof_count(config.mesh, trial, test, problem.domain),
                "split_factor_ops": factor_ops,
                "split_solve_ops": counter.solve_ops,
                "split_total_ops": factor_ops + counter.solve_ops,
                "split_time_ms": 1e3 * kron_time,
            }
            if include_general:
                started = time.perf_counter()
                general = RotatingFlowStepper(problem, config)
                general.step(general.initial_state())
                row["general_time_ms"] = 1e3 * (time.perf_counter() - started)
            rows.append(row)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = list(rows[0].keys())
        _write_csv(out / "timing.csv", header,
                   (tuple(r[h] for h in header) for r in rows))
    return rows


def sample_field(u_grid: np.ndarray, trial_x: SplineSpace, trial_y: SplineSpace,
                 resolution: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.linspace(*trial_x.interval, resolution)
    ys = np.linspace(*trial_y.interval, resolution)
    vx, vy = eval_matrix(trial_x, xs)[0], eval_matrix(trial_y, ys)[0]
    return xs, ys, _on_grid(vx, u_grid, vy)


def _on_grid(vx, u_grid: np.ndarray, vy) -> np.ndarray:
    """Values vx u vy^T at a tensor grid of points, C-ordered.

    u is u_grid, the interior coefficients, padded with the zero Dirichlet ones.
    """
    u = np.zeros((vx.shape[1], vy.shape[1]))
    u[1:-1, 1:-1] = u_grid
    return vx @ (vy @ u.T).T


def export_field(u_grid: np.ndarray, trial_x: SplineSpace, trial_y: SplineSpace,
                 resolution: int, path_base, title: str = "field") -> None:
    """Write <base>.vtk (legacy STRUCTURED_POINTS) and <base>.csv (x,y,value)."""
    xs, ys, field = sample_field(u_grid, trial_x, trial_y, resolution)
    base = Path(path_base)
    nx, ny = len(xs), len(ys)
    dx = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
    dy = (ys[-1] - ys[0]) / (ny - 1) if ny > 1 else 1.0
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET STRUCTURED_POINTS",
             f"DIMENSIONS {nx} {ny} 1",
             f"ORIGIN {_format(xs[0])} {_format(ys[0])} 0.0",
             f"SPACING {_format(dx)} {_format(dy)} 1.0",
             f"POINT_DATA {nx * ny}",
             "SCALARS u double 1",
             "LOOKUP_TABLE default"]
    # each sample is formatted once; values[i * ny + j] is field[i, j]
    values = list(map(_format, field.ravel().tolist()))
    for j in range(ny):  # VTK runs x fastest
        lines.extend(values[j::ny])
    base.with_suffix(".vtk").write_text("\n".join(lines) + "\n")
    points = itertools.product(map(_format, xs.tolist()), map(_format, ys.tolist()))
    rows = [f"{x},{y},{v}" for (x, y), v in zip(points, values)]
    base.with_suffix(".csv").write_text("\n".join(["x,y,value", *rows]) + "\n")


def solution_norms(u_grid: np.ndarray, trial_x: SplineSpace,
                   trial_y: SplineSpace) -> tuple[float, float]:
    """L2 and H1 norms of the field with interior coefficients u_grid.

    Exact for the discrete field: the squares are u^T (Mx (x) My) u and that
    plus u^T (Kx (x) My + Mx (x) Ky) u.
    """
    mx, my = block(mass, trial_x, trial_x), block(mass, trial_y, trial_y)
    return kron_norms(u_grid, mx, my, mx + block(stiffness, trial_x, trial_x),
                      my + block(stiffness, trial_y, trial_y))
