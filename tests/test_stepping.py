"""Time integrators: scheme catalog, projection, orders, stability."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitmin import assembly, resmin, splines
from splitmin.assembly import advection, block
from splitmin.banded import BandedMatrix
from splitmin.exceptions import ParameterError
from splitmin.problems import ProductSum, Wind, WindComponent, get_problem
from splitmin.reporting import (ErrorEvaluator, RunConfig, convergence_study,
                                solution_norms)
from splitmin.resmin import build_directional
from splitmin.splines import eval_matrix, make_space
from splitmin.stepping import (_SUBSTEPS, SchemeKind, Stepper, march,
                               project_initial, split_step)


def _dt_fractions(scheme):
    """Each direction's dt_eff as a fraction of tau, read from the substep table."""
    return {direction: fraction for direction, fraction, *_ in _SUBSTEPS[scheme]}


def test_scheme_parsing_and_catalog():
    assert SchemeKind.parse("pr") is SchemeKind.PEACEMAN_RACHFORD
    assert SchemeKind.parse("strang-cn") is SchemeKind.STRANG_CN
    with pytest.raises(ParameterError):
        SchemeKind.parse("rk4")
    assert _dt_fractions(SchemeKind.PEACEMAN_RACHFORD) == {"x": 0.5, "y": 0.5}
    assert _dt_fractions(SchemeKind.STRANG_BE) == {"x": 0.5, "y": 1.0}
    assert _dt_fractions(SchemeKind.STRANG_CN) == {"x": 0.25, "y": 0.5}
    assert _dt_fractions(SchemeKind.BE_SPLIT) == {"x": 1.0, "y": 1.0}


def test_projection_reproduces_member_of_the_space():
    tx = make_space(2, 1, 6, (0.0, 1.0))
    ty = make_space(3, 2, 5, (0.0, 1.0))
    rng = np.random.default_rng(40)
    coeff = rng.standard_normal((tx.dim - 2, ty.dim - 2))

    def u0(x, y):
        xv = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        yv = np.atleast_1d(np.asarray(y, dtype=float)).ravel()
        vx = eval_matrix(tx, xv)[0].toarray()[:, 1:-1]
        vy = eval_matrix(ty, yv)[0].toarray()[:, 1:-1]
        return vx @ coeff @ vy.T

    state = project_initial(u0, tx, ty)
    np.testing.assert_allclose(state.u, coeff, atol=1e-10)
    assert state.time == 0.0


def test_projection_error_shrinks_with_mesh():
    u0 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for n in (4, 8, 16):
        tx = make_space(2, 1, n, (0.0, 1.0))
        state = project_initial(u0, tx, tx)
        xs = np.linspace(0.1, 0.9, 33)
        vx = eval_matrix(tx, xs)[0].toarray()[:, 1:-1]
        uh = vx @ state.u @ vx.T
        ue = u0(xs[:, None], xs[None, :])
        errs.append(float(np.max(np.abs(uh - ue))))
    assert errs[1] < errs[0] / 4 and errs[2] < errs[1] / 4


def test_temporal_orders_by_richardson_self_reference():
    config = RunConfig(problem="manufactured", mesh=(8, 8), trial=(2, 1),
                       test=(3, 0), tau=0.04, n_steps=5)
    study = convergence_study(config, taus=(0.04, 0.02, 0.01),
                              schemes=("pr", "strang-cn", "strang-be", "be"),
                              reference="self")
    slopes = {s: study["slopes"][s]["l2"] for s in study["slopes"]}
    assert 1.7 <= slopes["pr"] <= 2.3
    assert 1.7 <= slopes["strang-cn"] <= 2.3
    assert 0.8 <= slopes["strang-be"] <= 1.3
    assert 0.8 <= slopes["be"] <= 1.3


def test_forced_run_tracks_exact_solution():
    problem = get_problem("manufactured")
    config = RunConfig(mesh=(16, 16), trial=(2, 1), test=(3, 0), tau=0.01,
                       n_steps=10)
    stepper = Stepper(problem, config)
    for _, state in march(stepper, config.n_steps):
        pass
    assert state.time == pytest.approx(0.1)
    row = ErrorEvaluator(stepper.trial_x, stepper.trial_y,
                         problem.exact).errors(state.u, state.time)
    assert row.relative
    assert row.l2_percent < 0.05
    assert row.h1_percent < 0.5


def test_pure_diffusion_norm_decays_monotonically():
    tx = make_space(2, 1, 8, (0.0, 1.0))
    ty = make_space(2, 1, 8, (0.0, 1.0))
    sx = make_space(3, 0, 8, (0.0, 1.0))
    tau = 0.1
    x_op = build_directional("x", tx, ty, sx, (1.0, 1.0), (0.0, 0.0),
                             0.5 * tau)
    y_op = build_directional("y", tx, ty, sx, (1.0, 1.0), (0.0, 0.0),
                             0.5 * tau)
    state = project_initial(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), tx, ty)
    norms = [solution_norms(state.u, tx, ty)[0]]
    for _ in range(30):
        state = split_step(SchemeKind.PEACEMAN_RACHFORD, state, x_op, y_op,
                           None, tau)[1]
        norms.append(solution_norms(state.u, tx, ty)[0])
    diffs = np.diff(norms)
    assert np.all(diffs <= 1e-12)
    assert norms[-1] < 1e-6 * norms[0]


def test_stabilized_equals_plain_galerkin_when_test_is_trial():
    problem = get_problem("manufactured")
    results = {}
    for stabilized in (True, False):
        config = RunConfig(mesh=(8, 8), trial=(2, 1), test=(2, 1),
                           scheme="strang-cn", tau=0.02, n_steps=5,
                           stabilized=stabilized)
        stepper = Stepper(problem, config)
        for _, state in march(stepper, config.n_steps):
            pass
        results[stabilized] = state.u
    diff = np.linalg.norm(results[True] - results[False])
    assert diff / np.linalg.norm(results[False]) < 1e-10


def test_residual_norms_recorded_only_when_stabilized():
    problem = get_problem("manufactured")
    stepper = Stepper(problem, RunConfig(mesh=(8, 8), trial=(2, 1),
                                         test=(3, 0), tau=0.02, n_steps=1))
    state = stepper.initial_state()
    stepper.step(state)
    l2, h1 = stepper.last_residual_norms
    assert l2 > 0.0 and h1 >= l2


def test_time_dependent_wind_rebuilds_operators():
    problem = get_problem("pollution")
    tau = 0.5
    stepper = Stepper(problem, RunConfig(mesh=(8, 8), trial=(2, 1),
                                         test=(3, 0), tau=tau, n_steps=2))
    x_op = stepper.x_op
    built = {name: getattr(x_op, name)
             for name in ("m_rect", "a_split", "other_lu", "loads")}
    state = stepper.step(stepper.step(stepper.initial_state()))
    # the second step ran with the wind at its midpoint, 1.5 tau
    (ax, _), (_, by) = problem.wind.factors
    fresh = build_directional(
        "x", stepper.trial_x, stepper.trial_y, stepper.test_x,
        (problem.diffusion_x, problem.diffusion_y), (ax, by), 0.5 * tau,
        scales=problem.wind.scales(1.5 * tau))
    assert stepper.x_op is x_op
    assert np.array_equal(x_op.b_split.to_dense(), fresh.b_split.to_dense())
    for name, obj in built.items():
        assert getattr(x_op, name) is obj
    assert np.all(np.isfinite(state.u))


@pytest.mark.parametrize("stabilized", (True, False))
def test_only_a_steady_wind_keeps_the_split_factors_block_form(stabilized):
    # a kept factor carries its block form: every operator's other-direction
    # mass, and its split factor only when the wind never changes; a
    # time-dependent wind's refactors, one per step, keep dgbtrs
    for name in ("manufactured", "pollution"):
        problem = get_problem(name)
        stepper = Stepper(problem, RunConfig(problem=name, mesh=(8, 8), trial=(2, 1),
                                             test=(3, 0), tau=0.5, n_steps=2,
                                             stabilized=stabilized))
        stepper.step(stepper.step(stepper.initial_state()))
        for op in (stepper.x_op, stepper.y_op):
            split = op.split_factor._lu if stabilized else op.split_factor
            assert (split.blocks is None) == problem.wind.time_dependent
            assert op.other_lu.blocks is not None
    assert get_problem("pollution").wind.time_dependent
    assert not get_problem("manufactured").wind.time_dependent


class _RebuildingStepper(Stepper):
    """Builds both directional operators afresh with every step's midpoint wind."""

    def step(self, state):
        problem, config = self.problem, self.config
        dt = _dt_fractions(self.scheme)
        diffusion = (problem.diffusion_x, problem.diffusion_y)
        (ax, _), (_, by) = problem.wind.factors
        scales = problem.wind.scales(state.time + 0.5 * config.tau)
        x_op, y_op = (
            build_directional(d, self.trial_x, self.trial_y, test, diffusion,
                              (ax, by), dt[d] * config.tau, config.stabilized,
                              self.counter, scales)
            for d, test in (("x", self.test_x), ("y", self.test_y)))
        final = split_step(self.scheme, state, x_op, y_op, problem.forcing,
                           config.tau)[1]
        final.time = state.time + config.tau
        return final


@pytest.mark.parametrize("stabilized", (True, False))
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_wind_update_matches_full_rebuild(scheme, stabilized):
    problem = get_problem("pollution")
    config = RunConfig(mesh=(8, 8), trial=(2, 1), test=(3, 0),
                       scheme=scheme.value, tau=1.0, n_steps=5,
                       stabilized=stabilized)
    finals = []
    for cls in (Stepper, _RebuildingStepper):
        stepper = cls(problem, config)
        for _, state in march(stepper, config.n_steps):
            pass
        finals.append(state.u)
    assert np.array_equal(finals[0], finals[1])


def test_moving_wind_steps_assemble_no_block(monkeypatch):
    problem = get_problem("pollution")
    stepper = Stepper(problem, RunConfig(mesh=(8, 8), trial=(2, 1),
                                         test=(3, 0), tau=1.0, n_steps=3))
    state = stepper.initial_state()
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # every splitmin module that holds the functions, under any name
    originals = {"advection": assembly.advection, "eval_matrix": splines.eval_matrix}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "splitmin":
            for attr, fn in originals.items():
                if getattr(module, attr, None) is fn:
                    monkeypatch.setattr(module, attr, counted(fn))
    b_split = stepper.x_op.b_split.to_dense()
    for _ in range(3):
        state = stepper.step(state)
    assert not np.array_equal(stepper.x_op.b_split.to_dense(), b_split)  # the wind moved
    assert calls == []
    resmin.LoadAssembler(stepper.trial_x, stepper.trial_y)  # the counters count
    assert calls == ["eval_matrix", "eval_matrix"]


def test_moving_wind_steps_build_no_banded_matrix(monkeypatch):
    # a step's wind update only forms values on patterns fixed at set-up
    problem = get_problem("pollution")
    stepper = Stepper(problem, RunConfig(mesh=(8, 8), trial=(2, 1),
                                         test=(3, 0), tau=1.0, n_steps=3))
    state = stepper.initial_state()
    calls = []
    init = BandedMatrix.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("BandedMatrix")
        init(self, *args, **kwargs)

    monkeypatch.setattr(BandedMatrix, "__init__", counted_init)
    other_minus = stepper.x_op.other_minus.data.copy()
    for _ in range(3):
        state = stepper.step(state)
    assert not np.array_equal(stepper.x_op.other_minus.data, other_minus)
    assert calls == []
    BandedMatrix.from_entries([0, 1], [0, 0], [1.0, 2.0], (2, 1))  # the counter counts
    assert calls == ["BandedMatrix"]


@pytest.mark.parametrize("scheme", ("pr", "strang-cn"))
def test_steps_build_no_csr(monkeypatch, scheme):
    # every block a step reads, residual norms included, has its CSR from set-up
    from splitmin import banded

    stepper = Stepper(get_problem("pollution"),
                      RunConfig(mesh=(8, 8), scheme=scheme, tau=1.0, n_steps=3))
    state = stepper.initial_state()
    calls = []
    build = banded.csr

    def counted_csr(*args):
        calls.append(args[-1])
        return build(*args)

    monkeypatch.setattr(banded, "csr", counted_csr)
    for _ in range(3):
        state = stepper.step(state)
    assert stepper.last_residual_norms[1] > 0.0
    assert calls == []
    BandedMatrix([0], [0], [1.0], (1, 1)).to_csr()  # the counter counts
    assert calls == [(1, 1)]


def _unsteady_manufactured():
    """manufactured with the wind (b(t), 0), b(t) = 1 + 0.8 sin 3t, and its forcing."""
    base = get_problem("manufactured")

    def b(t):
        return 1.0 + 0.8 * np.sin(3.0 * t)

    def forcing(x, y, t):
        # the base forcing carries (1, 0) . grad u; add (b(t) - 1) du/dx
        extra = (b(t) - 1.0) * np.pi * np.sin(np.pi * t)
        return base.forcing(x, y, t) + (extra * np.cos(np.pi * x)) * np.sin(np.pi * y)

    return replace(base, wind=Wind(x=WindComponent(s=b)), forcing=forcing)


@pytest.mark.parametrize("scheme", ("pr", "strang-cn"))
def test_unsteady_wind_keeps_second_order(scheme):
    # the wind taken at each step's midpoint; at the step's start the fitted
    # orders fall to about 1.2 (pr) and 1.1 (strang-cn)
    problem = _unsteady_manufactured()
    horizon, taus = 0.5, (0.05, 0.025, 0.0125)

    def final(tau):
        config = RunConfig(mesh=(16, 16), trial=(2, 1), test=(3, 0), scheme=scheme,
                           tau=tau, n_steps=int(round(horizon / tau)))
        stepper = Stepper(problem, config)
        for _, state in march(stepper, config.n_steps):
            pass
        return stepper, state

    stepper, ref = final(taus[-1] / 8.0)
    row = ErrorEvaluator(stepper.trial_x, stepper.trial_y,
                         problem.exact).errors(ref.u, ref.time)
    assert row.l2_percent < 0.05  # the forcing matches the moving wind
    errs = [solution_norms(final(tau)[1].u - ref.u, stepper.trial_x,
                           stepper.trial_y)[0] for tau in taus]
    assert np.polyfit(np.log(taus), np.log(errs), 1)[0] >= 1.75


def test_steady_wind_keeps_factorizations():
    problem = get_problem("manufactured")
    stepper = Stepper(problem, RunConfig(mesh=(8, 8), trial=(2, 1),
                                         test=(3, 0), tau=0.01, n_steps=2))
    state = stepper.initial_state()
    first_ops = stepper.x_op
    stepper.step(stepper.step(state))
    assert stepper.x_op is first_ops


def test_non_separable_problem_rejected_by_split_stepper():
    problem = get_problem("circular-wind")
    with pytest.raises(ParameterError):
        Stepper(problem, RunConfig(mesh=(8, 8), trial=(4, 3), test=(5, 0),
                                   tau=0.1, n_steps=1))


@pytest.mark.parametrize("trial,test", [((1, 0), (2, 0)), ((2, 1), (3, 0))])
def test_spatial_orders_at_a_small_time_step(trial, test):
    """Refining the mesh at tau = 0.0025 (strang-cn, horizon 0.5): successive
    L2 orders at least p + 0.75 and H1 orders at least p - 0.25."""
    problem = get_problem("manufactured")
    rows = []
    for n in (8, 16, 32):
        config = RunConfig(mesh=(n, n), trial=trial, test=test, scheme="strang-cn",
                           tau=0.0025, n_steps=200)
        stepper = Stepper(problem, config)
        for _, state in march(stepper, config.n_steps):
            pass
        rows.append(ErrorEvaluator(stepper.trial_x, stepper.trial_y,
                                   problem.exact).errors(state.u, state.time))
    p = trial[0]
    for coarse, fine in zip(rows, rows[1:]):
        assert np.log2(coarse.l2_percent / fine.l2_percent) >= p + 0.75
        assert np.log2(coarse.h1_percent / fine.h1_percent) >= p - 0.25


# The schemes the whole-step test draws, each by its own definition: per
# substep the direction, dt_eff as a fraction of tau, the direction whose
# M - dt_eff W stands explicit on the right (the other one for
# Peaceman-Rachford, the split one for Crank-Nicolson, none for backward
# Euler) and the forcing times as fractions of tau
_DEFINITIONS = {
    SchemeKind.PEACEMAN_RACHFORD: (("x", 0.5, "other", (0.5,)), ("y", 0.5, "other", (0.5,))),
    SchemeKind.STRANG_BE: (("x", 0.5, None, (0.5,)), ("y", 1.0, None, ()),
                           ("x", 0.5, None, (1.0,))),
    SchemeKind.STRANG_CN: (("x", 0.25, "split", (0.5, 0.0)), ("y", 0.5, "split", ()),
                           ("x", 0.25, "split", (1.0, 0.5))),
    SchemeKind.BE_SPLIT: (("x", 1.0, None, (1.0,)), ("y", 1.0, None, ())),
}


def _dense_step(scheme, u, x_op, y_op, velocity, scales, forcing, t, tau, support):
    """One step of the scheme's definition by dense 2D assembled solves.

    Each substep forms (P (x) Q) u + dt * loads on the test grid, with loads
    from an assembler that divides by nothing, and P and Q the masses but in
    the explicit direction, where they are M - dt W, W = K + s G with the
    advection block G made here from the wind's factor.  It solves the full
    2D saddle [[A (x) M, B (x) M], [(B (x) M)^T, 0]] (or B (x) M alone, for
    Galerkin), B = M + dt W, with M the other direction's mass in the split
    direction's Kronecker slot: the system before any commutation,
    condensation or extrapolation.
    """
    ops = {"x": x_op, "y": y_op}
    r = None
    for direction, fraction, explicit, fractions in _DEFINITIONS[scheme]:
        op, dt = ops[direction], fraction * tau
        split, other = op.axis, 1 - op.axis
        m, mo = op.m_rect.to_dense(), op.m_other.to_dense()
        w = op.k_rect.to_dense() + scales[split] * block(
            advection, op.trial_split, op.test_split, velocity[split]).to_dense()
        w_other = op.k_other.to_dense() + scales[other] * block(
            advection, op.trial_other, op.trial_other, velocity[other]).to_dense()
        p = m - dt * w if explicit == "split" else m
        q = mo - dt * w_other if explicit == "other" else mo
        kron = (lambda s, o: np.kron(s, o)) if direction == "x" else (
            lambda s, o: np.kron(o, s))
        rhs = kron(p, q) @ u.ravel()
        spaces = ((op.test_split, op.trial_other) if direction == "x"
                  else (op.trial_other, op.test_split))
        loads = resmin.LoadAssembler(*spaces)
        for a in fractions:
            rhs = rhs + dt * loads.load(forcing, t + a * tau, support).ravel()
        b = kron(m + dt * w, mo)
        if op.stabilized:
            a_big = kron(op.a_split.to_dense(), mo)
            zeros = np.zeros((b.shape[1], b.shape[1]))
            sol = np.linalg.solve(np.block([[a_big, b], [b.T, zeros]]),
                                  np.concatenate([rhs, np.zeros(b.shape[1])]))
            r, u = sol[:b.shape[0]], sol[b.shape[0]:]
        else:
            u = np.linalg.solve(b, rhs)
        shape = ((op.trial_split.dim - 2, op.trial_other.dim - 2) if direction == "x"
                 else (op.trial_other.dim - 2, op.trial_split.dim - 2))
        u = u.reshape(shape)
    return u, r


@st.composite
def _step_cases(draw):
    """A whole step of a random problem: spaces, coefficients, wind scales, a
    forcing of either kind, and a step of any scheme, stabilized or Galerkin."""
    scheme = draw(st.sampled_from(tuple(_DEFINITIONS)))
    stabilized = draw(st.booleans())
    p = draw(st.integers(1, 3))
    c = draw(st.integers(0, p - 1))
    q = draw(st.sampled_from((p, p + 1)))
    # test continuity -1, 0 or >= 1, at most the trial's: the test space holds the trial space
    cq = draw(st.sampled_from(sorted({-1, 0, min(c, q - 1)})))
    mesh = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    intervals = ((0.0, draw(st.floats(0.5, 2.0))), (-1.0, draw(st.floats(-0.5, 1.0))))
    tx, ty = (make_space(p, c, n, iv) for n, iv in zip(mesh, intervals))
    tests = [make_space(q, cq, n, iv) for n, iv in zip(mesh, intervals)]
    d0, d1, w0, w1 = (draw(st.floats(lo, hi)) for lo, hi in
                      ((1e-3, 1.0), (0.0, 1.0), (-2.0, 2.0), (-1.0, 1.0)))
    diffusion = (lambda x: d0 + d1 * x * x, lambda y: d1 + d0 * y * y)
    velocity = (lambda x: w0 + w1 * x, lambda y: w1 - 0.5 * w0 * y)
    scales = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    tau = draw(st.floats(1e-3, 0.5))
    dt = dict(row[:2] for row in _DEFINITIONS[scheme])
    x_op, y_op = (build_directional(d, tx, ty, test, diffusion, velocity, dt[d] * tau,
                                    stabilized, scales=scales)
                  for d, test in zip("xy", tests))
    if draw(st.booleans()):
        forcing = ProductSum((WindComponent(np.cos, np.sin, lambda y: 1.0 + y),
                              WindComponent(None, None, np.cos)))
        support = None
    else:
        def forcing(x, y, t):
            return np.exp(-x * x - t) * (1.0 + 0.5 * y)
        # a corner box of the domain, possibly holding no Gauss point; the
        # dense step loads the same cut
        x0, y0 = draw(st.floats(*intervals[0])), draw(st.floats(*intervals[1]))
        support = draw(st.sampled_from((None, ((x0, intervals[0][1]), (y0, intervals[1][1])))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal((tx.dim - 2, ty.dim - 2))
    return (scheme, x_op, y_op, velocity, scales, forcing, support, u, tau,
            draw(st.floats(0.0, 1.0)))


@settings(max_examples=40, deadline=None, database=None)
@given(_step_cases())
def test_whole_step_matches_dense_2d_step(case):
    # split_step, the function Stepper.step calls, against the dense 2D step
    # to criterion 1's 1e-9; r checked at the same bound, scaled by the state
    scheme, x_op, y_op, velocity, scales, forcing, support, u, tau, t = case
    state = resmin.SolutionState(u=u, time=t)
    _, got = split_step(scheme, state, x_op, y_op, forcing, tau, support)
    u_ref, r_ref = _dense_step(scheme, u, x_op, y_op, velocity, scales, forcing, t, tau,
                               support)
    scale = np.linalg.norm(u_ref)
    assert np.linalg.norm(got.u - u_ref) <= 1e-9 * scale
    if r_ref is not None:
        assert np.linalg.norm(got.r.ravel() - r_ref) <= 1e-9 * scale
    else:
        assert got.r is None
