"""Run orchestration, error reporting, studies, and artifact export.

Errors against a product-form exact solution are made from 1D data alone,
with no evaluation on the 2D Gauss grid (ErrorEvaluator).

Artifacts are deterministic for a fixed configuration: CSV files use
shortest-roundtrip float formatting and fixed row orders, so two runs with
the same config are byte-identical.  Wall-clock measurements go only to
metadata.json and the timing table, never into solution CSVs.
"""

from __future__ import annotations

import itertools
import json
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy

from .assembly import norm_blocks
from .exceptions import ParameterError
from .full2d import RotatingFlowStepper
from .kron import BandedLU, OpCounter, kron_norms
from .problems import ProductSum, factor_values, get_problem
from .splines import SplineSpace, eval_matrix, gauss_rule
from .stepping import SCHEMES, RunConfig, Stepper, march, spaces

__all__ = ["RunConfig", "ErrorRow", "ErrorEvaluator", "make_stepper", "run",
           "convergence_study", "timing_study", "export_field", "sample_field",
           "solution_norms"]

_ZERO_NORM_GUARD = 1e-14


@dataclass(frozen=True)
class ErrorRow:
    t: float
    l2_percent: float
    h1_percent: float
    relative: bool


def _format(value) -> str:
    return repr(float(value))


class ErrorEvaluator:
    """Relative L2/H1 errors of a coefficient grid against a product-form solution.

    The exact solution u = sum_k s_k(t) a_k(x) b_k(y) is a ProductSum; H1
    reads the derivative factors da, db (a None factor is 1, its derivative
    0) and is NaN where one is missing.  The norms are those of the Gauss
    rule Q with degree+2 points per element, and no 2D grid is evaluated.
    P, the L2 projection of each product onto the interior trial space,
    (Pi_x a_k)(Pi_y b_k), is a pair of 1D banded solves.  It splits u - u_h
    into eta = u - Pu and d = Pu - u_h, in the trial space:

        |u - u_h|_Q^2 = s^T G s + |d|^2 + 2 <eta, d>_Q

    for the L2 part and each derivative.  eta sums the products (a - Pi a) b
    and (Pi a)(b - Pi b), or their derivatives: pointwise 1D differences, so
    G and the cross vectors of <eta, d> are 1D integrals made once.  A call
    forms d, its norms by kron_norms and the cross terms by one small
    product; no term cancels.  When the exact solution's norm vanishes at t
    (below 1e-14), absolute norms are reported, flagged relative=False.
    """

    def __init__(self, trial_x: SplineSpace, trial_y: SplineSpace, exact):
        if not isinstance(exact, ProductSum):
            raise ParameterError("error evaluation requires an exact solution in "
                                 "product form")
        self.exact = exact
        self._blocks = norm_blocks(trial_x, trial_y)
        (wx, ax, xs), (wy, by, ys) = (
            _projections(space, factors, m) for space, factors, m in (
                (trial_x, [(p.a, p.da) for p in exact], self._blocks[0]),
                (trial_y, [(p.b, p.db) for p in exact], self._blocks[1])))
        self._coefs = (ax, by)
        # (x, y) derivative orders of the L2 part and of the d/dx, d/dy parts
        orders = ((0, 0),) + (((1, 0), (0, 1)) if xs[1] and ys[1] else ())
        grams, refs, cross_x, cross_y = [], [], [], []
        for ox, oy in orders:
            (f, ef, pf, vx), (g, eg, pg, vy) = xs[ox], ys[oy]
            # eta's x and y factors, stacked: (f - Pi f) g + (Pi f)(g - Pi g)
            ex, ey = np.vstack([ef, pf]), np.vstack([g, eg])
            grams.append(((ex * wx) @ ex.T) * ((ey * wy) @ ey.T))
            refs.append(((f * wx) @ f.T) * ((g * wy) @ g.T))
            cross_x.append((vx.T @ (ex * wx).T).T)
            cross_y.append((vy.T @ (ey * wy).T).T)
        self._grams, self._refs = np.array(grams), np.array(refs)
        self._cross = (np.vstack(cross_x), np.vstack(cross_y))

    def errors(self, u_grid: np.ndarray, t: float) -> ErrorRow:
        s = self.exact.scales(t)
        s2 = np.concatenate([s, s])
        ax, by = self._coefs
        d = (ax.T * s) @ by - u_grid
        cx, cy = self._cross
        cross = np.einsum("rj,rj->r", cx @ d, cy).reshape(len(self._grams), -1) @ s2
        parts = np.einsum("i,cij,j->c", s2, self._grams, s2) + 2.0 * cross
        refs = np.einsum("i,cij,j->c", s, self._refs, s)
        err = np.array([parts[0], parts.sum()]) + np.square(kron_norms(d, *self._blocks))
        ref = np.array([refs[0], refs.sum()])
        if len(parts) == 1:  # no derivative factors: no H1 norm
            err[1] = ref[1] = np.nan
        (l2_err, h1_err), (l2_ref, h1_ref) = np.sqrt(np.maximum(err, 0.0)), np.sqrt(ref)
        if l2_ref < _ZERO_NORM_GUARD:
            return ErrorRow(t, float(l2_err), float(h1_err), relative=False)
        return ErrorRow(t, float(100.0 * l2_err / l2_ref),
                        float(100.0 * h1_err / h1_ref), relative=True)


def _projections(space: SplineSpace, factors, mass_block):
    """One direction's factors f_k and their L2 projections Pi f_k onto the
    interior space, at the points of the error rule.

    factors are (f, df) pairs.  Returns the weights, Pi f's coefficients
    (K, n) and, for derivative orders 0 and 1, (f, f - Pi f, Pi f, interior
    basis): values (K, points) and basis (points, n).  Pi f is summed, and
    f - Pi f formed, in extended precision: f - Pi f keeps only the digits
    that f and Pi f do not share.  The order-1 entry is None when a df is
    missing for a factor that is not None.
    """
    points, w = gauss_rule(space, space.degree + 2)
    full = eval_matrix(space, points)  # degree+1 entries per row
    f = np.array([factor_values(a, points) for a, _ in factors])
    coefs = np.zeros((space.dim, len(factors)))
    coefs[1:-1] = BandedLU(mass_block).solve(full[0][:, 1:-1].T @ (f * w).T)
    rows = [f]
    if all(a is None or da is not None for a, da in factors):
        rows.append(np.array([np.zeros_like(points) if a is None else factor_values(da, points)
                              for a, da in factors]))
    out = [None, None]
    for order, (values, b) in enumerate(zip(rows, full)):
        local = b.data.reshape(points.size, -1).astype(np.longdouble)
        proj = np.einsum("qi,qik->kq", local, coefs[b.indices.reshape(local.shape)])
        out[order] = (values, (values - proj).astype(float), proj.astype(float), b[:, 1:-1])
    return w, coefs[1:-1].T, out


def make_stepper(problem, config: RunConfig, counter: OpCounter | None = None):
    """The one choice of solver path: the split path for a separable wind,
    else the general path, which runs its own scheme and takes none."""
    if problem.wind.separable:
        return Stepper(problem, config, counter)
    if config.scheme is not None:
        raise ParameterError(
            f"scheme not supported for the non-separable problem {problem.name!r}: "
            "the general path runs monolithic Crank-Nicolson")
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
    counter = OpCounter()
    stepper = make_stepper(problem, config, counter)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trial_x, trial_y = stepper.trial_x, stepper.trial_y

    evaluator = None
    if problem.exact is not None:
        evaluator = ErrorEvaluator(trial_x, trial_y, problem.exact)

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
        "effective_scheme": stepper.scheme,
        "factor_ops": counter.factor_ops,
        "solve_ops": counter.solve_ops,
        "total_ops": counter.total,
        "final_time": state.time,
        "wall_time_s": elapsed,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if isinstance(stepper, RotatingFlowStepper):  # SuperLU's work is not counted as ops
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
                      schemes: Sequence[str] = SCHEMES,
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
        evaluator = ErrorEvaluator(trial_x, trial_y, problem.exact)
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
                 include_general: bool = True) -> list[dict]:
    """Per-mesh cost table for both solver paths.

    The split path reports counted floating-point operations (factor + solve
    of one step); both paths report the wall time of building the stepper,
    projecting the initial data and taking one step (RunConfig's default
    tau) on the same spaces.  dofs column counts full test + trial dimensions.
    """
    if not meshes or not pairs:
        raise ParameterError("timing study needs a mesh and a space pair")
    problem = get_problem("manufactured")
    rows = []
    for trial, test in pairs:
        for n in meshes:
            config = RunConfig(mesh=(n, n), trial=trial, test=test, n_steps=1)
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
    """(xs, ys, values): the field on resolution evenly spaced points per
    direction, ends included, values indexed (x, y).  The points (read-only)
    and the basis there are made once per space and resolution."""
    (xs, vx), (ys, vy) = (_sample_basis(s, resolution) for s in (trial_x, trial_y))
    return xs, ys, _on_grid(vx, u_grid, vy)


@lru_cache(maxsize=16)
def _sample_basis(space: SplineSpace, resolution: int):
    """A space's sample points and its basis values there."""
    xs = np.linspace(*space.interval, resolution)
    xs.flags.writeable = False
    return xs, eval_matrix(space, xs)[0]


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
    return kron_norms(u_grid, *norm_blocks(trial_x, trial_y))
