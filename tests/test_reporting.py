"""Run artifacts, error evaluation, studies, and field export."""

import dataclasses
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

import splitmin.reporting as reporting
from splitmin.assembly import _nq
from splitmin.cli import main
from splitmin.exceptions import NonFiniteStateError, ParameterError
from splitmin.full2d import RotatingFlowStepper
from splitmin.problems import ProductSum, WindComponent, get_problem, manufactured
from splitmin.reporting import (ErrorEvaluator, RunConfig, convergence_study,
                                export_field, full_dof_count, run,
                                sample_field, solution_norms, timing_study)
from splitmin.splines import eval_matrix, gauss_rule, make_space
from splitmin.stepping import project_initial, spaces


def _unit_spaces(n=8, degree=2, continuity=1):
    return (make_space(degree, continuity, n, (0.0, 1.0)),
            make_space(degree, continuity, n, (0.0, 1.0)))


def test_zero_field_scores_hundred_percent():
    problem = get_problem("manufactured")
    tx, ty = _unit_spaces()
    ev = ErrorEvaluator(tx, ty, problem.exact)
    row = ev.errors(np.zeros((tx.dim - 2, ty.dim - 2)), t=0.5)
    assert row.relative
    assert row.l2_percent == pytest.approx(100.0)
    assert row.h1_percent == pytest.approx(100.0)


def test_vanishing_exact_norm_switches_to_absolute():
    problem = get_problem("manufactured")
    tx, ty = _unit_spaces()
    ev = ErrorEvaluator(tx, ty, problem.exact)
    row = ev.errors(np.zeros((tx.dim - 2, ty.dim - 2)), t=0.0)
    assert not row.relative
    assert row.l2_percent == pytest.approx(0.0, abs=1e-14)


def _gradient(exact):
    """(x, y, t) -> the gradient of a ProductSum from its derivative factors,
    or None when a factor has no derivative; a None factor is 1."""
    def one(f, z):
        return 1.0 if f is None else f(z)

    def zero_or(f, df, z):
        return 0.0 if f is None else df(z)

    if any((p.a is not None and p.da is None) or (p.b is not None and p.db is None)
           for p in exact):
        return None
    return lambda x, y, t: (
        sum(p.scale(t) * zero_or(p.a, p.da, x) * one(p.b, y) for p in exact),
        sum(p.scale(t) * one(p.a, x) * zero_or(p.b, p.db, y) for p in exact))


class DenseErrorEvaluator:
    """ErrorEvaluator's rows through dense (points, dim) basis matrices.

    Same Gauss rule; the exact solution, its gradient, u_h and u_h's
    gradient are evaluated on the whole grid, and the squares are summed
    against the tensor weights w_x w_y^T.
    """

    def __init__(self, trial_x, trial_y, exact):
        self.exact, self.exact_grad = exact, _gradient(exact)
        px, wx = gauss_rule(trial_x, _nq(trial_x.degree, trial_x.degree) + 1)
        py, wy = gauss_rule(trial_y, _nq(trial_y.degree, trial_y.degree) + 1)
        self.vx, self.dx = (m.toarray()[:, 1:-1] for m in eval_matrix(trial_x, px))
        self.vy, self.dy = (m.toarray()[:, 1:-1] for m in eval_matrix(trial_y, py))
        self.w2 = wx[:, None] * wy[None, :]
        self.grid = (px[:, None], py[None, :])

    def errors(self, u_grid, t):
        X, Y = self.grid
        uh = self.vx @ u_grid @ self.vy.T
        ue = np.broadcast_to(np.asarray(self.exact(X, Y, t), dtype=float), self.w2.shape)
        l2_err2 = float(np.sum(self.w2 * (ue - uh) ** 2))
        l2_ref2 = float(np.sum(self.w2 * ue ** 2))
        h1_err2 = h1_ref2 = float("nan")
        if self.exact_grad is not None:
            gx, gy = (np.broadcast_to(np.asarray(g, dtype=float), self.w2.shape)
                      for g in self.exact_grad(X, Y, t))
            dhx = self.dx @ u_grid @ self.vy.T
            dhy = self.vx @ u_grid @ self.dy.T
            h1_err2 = l2_err2 + float(np.sum(self.w2 * ((gx - dhx) ** 2 + (gy - dhy) ** 2)))
            h1_ref2 = l2_ref2 + float(np.sum(self.w2 * (gx ** 2 + gy ** 2)))
        if np.sqrt(l2_ref2) < 1e-14:
            return np.sqrt(l2_err2), np.sqrt(h1_err2), False
        return (100.0 * np.sqrt(l2_err2 / l2_ref2),
                100.0 * np.sqrt(h1_err2 / h1_ref2), True)


_EXACT = (
    # a sum of two products, 0.5 on the boundary, with derivative factors
    ProductSum((WindComponent(lambda t: np.exp(-t), lambda x: np.sin(2.0 * x), np.cos,
                              lambda x: 2.0 * np.cos(2.0 * x), lambda y: -np.sin(y)),
                WindComponent(lambda t: 0.5))),
    # without derivative factors: H1 is NaN
    ProductSum((WindComponent(lambda t: 1.0 + t, lambda x: x, lambda y: y),)),
    # vanishing at every t: absolute norms
    ProductSum((WindComponent(lambda t: 0.0 * t, np.sin, np.sin, np.cos, np.cos),)),
)


@st.composite
def _error_cases(draw):
    p = draw(st.integers(0, 4))
    c = draw(st.integers(-1, p - 1))
    # at least one interior function: dim = n (p - c) + c + 1 >= 3
    mesh = (draw(st.integers(max(1, 3 - p), 12)), draw(st.integers(max(1, 3 - p), 12)))
    intervals = ((x0 := draw(st.floats(-2.0, 2.0)), x0 + draw(st.floats(0.5, 1.5))),
                 (y0 := draw(st.floats(-2.0, 2.0)), y0 + draw(st.floats(2.0, 4.0))))
    tx, ty = (make_space(p, c, n, iv) for n, iv in zip(mesh, intervals))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal((tx.dim - 2, ty.dim - 2))
    return tx, ty, draw(st.sampled_from(_EXACT)), u, draw(st.floats(0.0, 2.0))


@settings(max_examples=80, deadline=None, database=None)
@given(_error_cases())
def test_errors_match_dense_evaluation_on_random_spaces(case):
    tx, ty, exact, u, t = case
    row = ErrorEvaluator(tx, ty, exact).errors(u, t)
    l2, h1, relative = DenseErrorEvaluator(tx, ty, exact).errors(u, t)
    assert row.t == t and row.relative == relative
    np.testing.assert_allclose([row.l2_percent, row.h1_percent], [l2, h1],
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n,trial", [(8, (2, 1)), (32, (2, 1)), (16, (3, 2)), (6, (4, 0))])
def test_errors_match_dense_evaluation_near_the_exact_solution(n, trial):
    # u_h the projection of u: relative errors of 1e-2 down to 1e-7, where
    # the pointwise differences of both evaluators cancel most digits
    problem = get_problem("manufactured")
    tx, ty = _unit_spaces(n, *trial)
    for t in (0.3, 1.1):
        u = project_initial(lambda x, y: problem.exact(x, y, t), tx, ty).u
        row = ErrorEvaluator(tx, ty, problem.exact).errors(u, t)
        l2, h1, relative = DenseErrorEvaluator(tx, ty, problem.exact).errors(u, t)
        assert row.relative and relative
        np.testing.assert_allclose([row.l2_percent, row.h1_percent], [l2, h1],
                                   rtol=1e-10, atol=0.0)


def test_error_evaluator_requires_exact_solution():
    tx, ty = _unit_spaces()
    with pytest.raises(ParameterError):
        ErrorEvaluator(tx, ty, None)
    with pytest.raises(ParameterError, match="product form"):
        ErrorEvaluator(tx, ty, lambda x, y, t: x * y)
    # a space of one or two functions has no interior function once the
    # Dirichlet ones are eliminated: the spaces are rejected where they are made
    for degree, n in ((0, 2), (1, 1)):
        with pytest.raises(ParameterError, match="interior"):
            spaces(((0.0, 1.0), (0.0, 1.0)), (4, n), (degree, degree - 1))


def test_projected_exact_solution_scores_small_error():
    problem = get_problem("manufactured")
    tx, ty = _unit_spaces(n=16)
    t = 0.7
    state = project_initial(lambda x, y: problem.exact(x, y, t), tx, ty)
    state.time = t
    row = ErrorEvaluator(tx, ty, problem.exact).errors(state.u, state.time)
    assert row.relative
    assert row.l2_percent < 0.05
    assert row.h1_percent < 1.0


def test_run_writes_expected_artifacts(tmp_path):
    config = RunConfig(problem="manufactured", mesh=(8, 8), trial=(2, 1),
                       test=(3, 0), scheme="pr", tau=0.05, n_steps=4,
                       out_dir=str(tmp_path / "out"))
    state = run(config)
    out = tmp_path / "out"
    assert state.time == pytest.approx(0.2)

    err_lines = (out / "errors.csv").read_text().strip().splitlines()
    assert err_lines[0] == "t,l2_percent,h1_percent,relative"
    assert len(err_lines) == config.n_steps + 2  # header + initial + steps
    first = err_lines[1].split(",")
    assert float(first[0]) == 0.0 and first[3] == "0"
    assert err_lines[-1].split(",")[3] == "1"

    res_lines = (out / "residuals.csv").read_text().strip().splitlines()
    assert res_lines[0] == "t,residual_l2,residual_h1"
    assert len(res_lines) == config.n_steps + 1
    for line in res_lines[1:]:
        _, l2r, h1r = (float(v) for v in line.split(","))
        assert h1r >= l2r >= 0.0

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["mesh"] == [8, 8]
    assert meta["config"]["scheme"] == "pr"
    assert meta["effective_scheme"] == "pr"
    assert meta["final_time"] == pytest.approx(0.2)
    assert meta["factor_ops"] > 0 and meta["solve_ops"] > 0
    assert meta["total_ops"] == meta["factor_ops"] + meta["solve_ops"]
    assert meta["versions"] == {"python": platform.python_version(),
                                "numpy": np.__version__, "scipy": scipy.__version__}

    assert (out / "field_step000004.vtk").exists()
    assert (out / "field_step000004.csv").exists()
    assert not (out / "field_step000000.vtk").exists()


@pytest.mark.parametrize("config,factor_ops,solve_ops", [
    (RunConfig(mesh=(16, 16), trial=(3, 2), test=(4, 0), scheme="strang-cn",
               tau=0.01, n_steps=20), 10_890, 1_896_240),
    (RunConfig(mesh=(16, 16), trial=(2, 1), test=(2, 1), scheme="be",
               stabilized=False, tau=0.01, n_steps=20), 1_566, 132_778),
    (RunConfig(problem="pollution", mesh=(16, 16), scheme="pr", tau=1.0,
               n_steps=10), 39_804, 463_904),
    (RunConfig(problem="pollution", mesh=(16, 16), scheme="strang-cn",
               tau=1.0, n_steps=10), 39_804, 563_584),
    (RunConfig(problem="pollution", mesh=(16, 16), scheme="be",
               stabilized=False, tau=1.0, n_steps=10), 6_264, 69_344),
    # at 50^2 the 25 m chimney holds Gauss points.  Every 1D block is 50 x 50
    # interior (trial) or 99 rows condensed (saddle, lb = ub = 4; 541
    # condensing entries, 49 of them copies; 200 + 492 recovering): mass
    # factor 873, 673 per column; saddle factor 6,562, 2,481 per column.
    # factor_ops: 2 masses and 2 saddles at set-up, both saddles again in
    # steps 2-10 as the wind moves, 2 masses for the initial projection:
    # 4 * 873 + 20 * 6,562 = 134,732.  solve_ops: the projection's two mass
    # solves, 2 * 50 * 673 = 67,300; per step, each substep's mass divide
    # (50 * 673), condensing product (2 * 492 * 50) and saddle solve
    # (50 * 2,481), and the y substep's r (2 * 692 * 50): 483,000; and the
    # chimney's load, made once per operator, divided on the 7 lines that
    # meet it: 2 * 7 * 673 = 9,422.  67,300 + 10 * 483,000 + 9,422.
    (RunConfig(problem="pollution", mesh=(50, 50), scheme="pr", tau=1.0,
               n_steps=10), 134_732, 4_906_722),
], ids=["strang-cn", "be-galerkin", "pollution-pr", "pollution-strang-cn",
        "pollution-be-galerkin", "pollution-pr-50"])
def test_run_counted_operations_are_pinned(tmp_path, config, factor_ops,
                                           solve_ops):
    # the counts follow from the bandwidths assembly hands to the factors: a
    # substep divides the other direction's mass out on the n split trial
    # columns (not at all when the explicit block is that mass) and solves
    # the saddle with its element-local test rows condensed out, the
    # condensing and recovering products counted as 2 nnz per column; the
    # kernel that solves (dgbtrs or a kept factor's blocks) counts the same
    run(dataclasses.replace(config, out_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert (meta["factor_ops"], meta["solve_ops"]) == (factor_ops, solve_ops)
    assert meta["total_ops"] == factor_ops + solve_ops


def test_run_snapshot_stride(tmp_path):
    config = RunConfig(problem="manufactured", mesh=(6, 6), tau=0.05,
                       n_steps=5, snapshot_stride=2, snapshot_resolution=9,
                       out_dir=str(tmp_path))
    run(config)
    present = sorted(p.name for p in tmp_path.glob("field_step*.vtk"))
    assert present == ["field_step000000.vtk", "field_step000002.vtk",
                       "field_step000004.vtk", "field_step000005.vtk"]


def test_run_is_deterministic(tmp_path):
    def one(tag):
        config = RunConfig(problem="manufactured", mesh=(6, 6), tau=0.05,
                           n_steps=3, out_dir=str(tmp_path / tag))
        run(config)
        return tmp_path / tag

    a, b = one("a"), one("b")
    for name in ("errors.csv", "residuals.csv", "field_step000003.csv",
                 "field_step000003.vtk"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_non_separable_uses_monolithic_path(tmp_path):
    config = RunConfig(problem="circular-wind", mesh=(4, 4), tau=0.1,
                       n_steps=2, out_dir=str(tmp_path))
    run(config)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["effective_scheme"] == "monolithic-cn"
    assert not (tmp_path / "errors.csv").exists()  # no closed form
    assert (tmp_path / "residuals.csv").exists()


@pytest.mark.parametrize("problem,effective", (("manufactured", "pr"),
                                               ("circular-wind", "monolithic-cn")))
def test_run_without_a_scheme_runs_the_problems_own(tmp_path, problem, effective):
    # metadata.json keeps the configuration as given: no scheme is null
    run(RunConfig(problem=problem, mesh=(4, 4), tau=0.1, n_steps=1,
                  out_dir=str(tmp_path)))
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert meta["config"]["scheme"] is None
    assert meta["effective_scheme"] == effective


def test_general_run_writes_its_factor_fill(tmp_path):
    # SuperLU's work is not counted as ops; its L+U fill is the cost figure
    config = RunConfig(problem="circular-wind", mesh=(4, 4), tau=0.1,
                       n_steps=1, out_dir=str(tmp_path / "general"))
    run(config)
    meta = json.loads((tmp_path / "general" / "metadata.json").read_text())
    fill = RotatingFlowStepper(get_problem("circular-wind"), config).factor.fill_nnz
    assert meta["fill_nnz"] == fill > 0
    run(dataclasses.replace(config, problem="manufactured",
                            out_dir=str(tmp_path / "split")))
    meta = json.loads((tmp_path / "split" / "metadata.json").read_text())
    assert "fill_nnz" not in meta


def _serve_nan_forcing(monkeypatch):
    """Make every problem lookup return manufactured with NaN forcing for t > 0."""
    poisoned = dataclasses.replace(
        manufactured(), forcing=lambda x, y, t: np.where(t > 0, np.nan, 0.0) + 0.0 * x)
    monkeypatch.setattr(reporting, "get_problem", lambda name: poisoned)


def test_non_finite_step_stops_the_run_before_any_table(tmp_path, monkeypatch):
    _serve_nan_forcing(monkeypatch)
    config = RunConfig(problem="manufactured", mesh=(6, 6), tau=0.05,
                       n_steps=3, out_dir=str(tmp_path / "run"))
    with pytest.raises(NonFiniteStateError, match=r"step 1 \(t = 0\.05\)"):
        run(config)
    for name in ("errors.csv", "residuals.csv", "metadata.json"):
        assert not (tmp_path / "run" / name).exists()
    assert main(["run", "--mesh", "6", "--tau", "0.05", "--steps", "3",
                 "--out", str(tmp_path / "cli")]) == 3
    assert not (tmp_path / "cli" / "errors.csv").exists()


def test_non_finite_step_stops_the_convergence_study(tmp_path, monkeypatch):
    _serve_nan_forcing(monkeypatch)
    with pytest.raises(NonFiniteStateError, match=r"step 1 \(t = 0\.04\)"):
        convergence_study(RunConfig(mesh=(6, 6), tau=0.04, n_steps=5),
                          taus=(0.04, 0.02, 0.01), schemes=("pr",))
    assert main(["converge", "--mesh", "6", "--tau", "0.04", "--steps", "5",
                 "--taus", "0.04,0.02,0.01", "--schemes", "pr",
                 "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "convergence.csv").exists()


def test_galerkin_run_skips_residual_table(tmp_path):
    config = RunConfig(problem="manufactured", mesh=(6, 6), tau=0.05,
                       n_steps=2, stabilized=False, out_dir=str(tmp_path))
    run(config)
    assert not (tmp_path / "residuals.csv").exists()
    assert (tmp_path / "errors.csv").exists()


def _study_config(**kw):
    base = dict(problem="manufactured", mesh=(6, 6), trial=(2, 1),
                test=(3, 0), scheme="pr", tau=0.04, n_steps=5)
    base.update(kw)
    return RunConfig(**base)


def test_convergence_study_validates_inputs():
    config = _study_config()
    with pytest.raises(ParameterError):
        convergence_study(config, taus=(0.04, 0.02))
    with pytest.raises(ParameterError):
        convergence_study(config, taus=(0.04, 0.02, 0.015))
    with pytest.raises(ParameterError):
        convergence_study(config, taus=(0.04, 0.02, 0.01),
                          reference="bogus")
    for kwargs in (dict(schemes=()), dict(jobs=0), dict(jobs=-2)):
        with pytest.raises(ParameterError):
            convergence_study(config, taus=(0.04, 0.02, 0.01), **kwargs)


def test_convergence_study_outputs_and_parallel_match(tmp_path):
    config = _study_config()
    taus = (0.04, 0.02, 0.01)
    serial = convergence_study(config, taus, schemes=("pr",), jobs=1,
                               out_dir=str(tmp_path))
    parallel = convergence_study(config, taus, schemes=("pr",), jobs=2)
    assert serial["horizon"] == pytest.approx(0.2)
    assert serial["reference"] == "exact"
    for key, val in serial["points"].items():
        assert parallel["points"][key] == val
    assert set(serial["slopes"]) == {"pr"}
    # on a 6x6 mesh the exact-reference errors sit on the spatial floor, so
    # only check the fit is well-defined; the self-reference test below pins
    # the temporal order
    assert math.isfinite(serial["slopes"]["pr"]["l2"])

    conv_lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
    assert conv_lines[0] == "scheme,tau,l2_percent,h1_percent"
    assert len(conv_lines) == 1 + len(taus)
    slope_lines = (tmp_path / "slopes.csv").read_text().strip().splitlines()
    assert slope_lines[0] == "scheme,l2_order,h1_order"
    assert slope_lines[1].startswith("pr,")


def test_convergence_study_self_reference_labels(tmp_path):
    config = _study_config(mesh=(5, 5))
    result = convergence_study(config, (0.04, 0.02, 0.01), schemes=("pr",),
                               reference="self", out_dir=str(tmp_path))
    assert result["reference"] == "self"
    header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
    assert header == "scheme,tau,l2_abs,h1_abs"
    slope = result["slopes"]["pr"]["l2"]
    assert 1.5 < slope < 2.5


def test_full_dof_count_matches_space_dimensions():
    assert full_dof_count((8, 8), (2, 1), (3, 0)) == 725
    assert full_dof_count((16, 16), (2, 1), (3, 0)) == 2725
    # counts depend on the mesh only through dimensions, not the interval
    assert full_dof_count((8, 8), (2, 1), (3, 0),
                          domain=((0.0, 5000.0), (0.0, 5000.0))) == 725


def test_solution_l2_norm_of_projected_sine():
    tx, ty = _unit_spaces(n=16)
    state = project_initial(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), tx, ty)
    assert solution_norms(state.u, tx, ty)[0] == pytest.approx(0.5, abs=1e-3)


def test_sample_field_reproduces_spline_values():
    tx, ty = _unit_spaces(n=4)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((tx.dim - 2, ty.dim - 2))
    xs, ys, field = sample_field(u, tx, ty, 6)
    assert field.shape == (6, 6)
    # boundary rows/cols vanish: only interior basis functions carry dofs
    np.testing.assert_allclose(field[0, :], 0.0, atol=1e-14)
    np.testing.assert_allclose(field[:, -1], 0.0, atol=1e-14)


def test_export_field_file_layout(tmp_path):
    tx, ty = _unit_spaces(n=4)
    rng = np.random.default_rng(8)
    u = rng.standard_normal((tx.dim - 2, ty.dim - 2))
    res = 5
    base = tmp_path / "snap"
    export_field(u, tx, ty, res, base, title="demo")
    xs, ys, field = sample_field(u, tx, ty, res)

    vtk_lines = (tmp_path / "snap.vtk").read_text().strip().splitlines()
    assert len(vtk_lines) == 10 + res * res
    assert vtk_lines[1] == "demo"
    assert vtk_lines[4] == f"DIMENSIONS {res} {res} 1"
    values = np.array([float(v) for v in vtk_lines[10:]])
    expect = np.array([field[i, j] for j in range(res) for i in range(res)])
    np.testing.assert_allclose(values, expect, atol=0.0)

    csv_lines = (tmp_path / "snap.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "x,y,value"
    assert len(csv_lines) == 1 + res * res
    x0, y0, v0 = (float(s) for s in csv_lines[1].split(","))
    assert (x0, y0) == (xs[0], ys[0])
    assert v0 == field[0, 0]
    x_last, y_last, v_last = (float(s) for s in csv_lines[-1].split(","))
    assert (x_last, y_last) == (xs[-1], ys[-1])
    assert v_last == field[-1, -1]


def loop_export_field(xs, ys, field, path_base, title):
    """Reference export: format every sample with repr in per-file loops."""
    base = Path(path_base)
    nx, ny = len(xs), len(ys)
    dx = (xs[-1] - xs[0]) / (nx - 1) if nx > 1 else 1.0
    dy = (ys[-1] - ys[0]) / (ny - 1) if ny > 1 else 1.0
    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET STRUCTURED_POINTS",
             f"DIMENSIONS {nx} {ny} 1",
             f"ORIGIN {repr(float(xs[0]))} {repr(float(ys[0]))} 0.0",
             f"SPACING {repr(float(dx))} {repr(float(dy))} 1.0",
             f"POINT_DATA {nx * ny}",
             "SCALARS u double 1",
             "LOOKUP_TABLE default"]
    for j in range(ny):
        for i in range(nx):
            lines.append(repr(float(field[i, j])))
    base.with_suffix(".vtk").write_text("\n".join(lines) + "\n")
    csv = ["x,y,value"]
    for i in range(nx):
        for j in range(ny):
            csv.append(",".join(repr(float(v)) for v in (xs[i], ys[j], field[i, j])))
    base.with_suffix(".csv").write_text("\n".join(csv) + "\n")


@pytest.mark.parametrize("res", (1, 2, 7))
def test_export_field_matches_loop_reference_bytes(tmp_path, monkeypatch, res):
    rng = np.random.default_rng(res)
    xs = np.linspace(-0.3, 1.7, res)
    ys = np.linspace(0.0, 2.0 / 3.0, res + 2)
    field = rng.standard_normal((res, res + 2)) * 10.0 ** rng.integers(-8, 9, (res, res + 2))
    special = [-2.5, 1e-300, -1e-300, 3.0e300, 42.0, -7.0, 0.0, -0.0]
    field.ravel()[:len(special)] = special[:field.size]
    monkeypatch.setattr(reporting, "sample_field", lambda *args: (xs, ys, field))
    tx, ty = _unit_spaces(n=4)
    export_field(np.zeros((tx.dim - 2, ty.dim - 2)), tx, ty, res, tmp_path / "got",
                 title="oracle")
    loop_export_field(xs, ys, field, tmp_path / "want", "oracle")
    for suffix in (".vtk", ".csv"):
        assert ((tmp_path / "got").with_suffix(suffix).read_bytes()
                == (tmp_path / "want").with_suffix(suffix).read_bytes())


def test_timing_study_row_contents(tmp_path):
    rows = timing_study((4, 8), (((2, 1), (3, 0)),), out_dir=str(tmp_path))
    assert len(rows) == 2
    for row in rows:
        assert row["space"] == "trial(2,1)/test(3,0)"
        assert row["split_total_ops"] == (row["split_factor_ops"]
                                          + row["split_solve_ops"])
        assert row["split_time_ms"] > 0.0
        assert row["general_time_ms"] > 0.0
    assert rows[1]["dofs"] > rows[0]["dofs"]
    assert rows[1]["split_total_ops"] > rows[0]["split_total_ops"]
    header = (tmp_path / "timing.csv").read_text().splitlines()[0]
    assert header.split(",") == ["space", "n", "dofs", "split_factor_ops",
                                 "split_solve_ops", "split_total_ops",
                                 "split_time_ms", "general_time_ms"]


def test_timing_study_can_skip_general_path():
    rows = timing_study((4,), (((2, 1), (3, 0)),), include_general=False)
    assert "general_time_ms" not in rows[0]
