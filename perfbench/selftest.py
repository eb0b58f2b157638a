"""Tests of the benchmark's own statistics, checks and tracing.

    python3 perfbench/selftest.py

Each check function must pass a field built from the closed form it checks
against and reject the same field deliberately perturbed.  The fields are
L2 projections computed here, not output of the solver.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import checks
from spans import Tracer
from splitmin.problems import get_problem, wind_angle
from splitmin.splines import make_space


def project(f, sx, sy) -> np.ndarray:
    """Interior coefficients of the L2 projection of f(x, y) onto sx x sy."""
    px, wx = checks.gauss_rule(sx, sx.degree + 2)
    py, wy = checks.gauss_rule(sy, sy.degree + 2)
    bx, by = checks.basis(sx, px), checks.basis(sy, py)
    mx, my = bx.T @ (wx[:, None] * bx), by.T @ (wy[:, None] * by)
    rhs = (wx[:, None] * bx).T @ f(px[:, None], py[None, :]) @ (wy[:, None] * by)
    return np.linalg.solve(mx, np.linalg.solve(my, rhs.T).T)


def test_spread_matches_statistics_quantiles():
    from steadiness import spread, worse_by
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.4]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == (med, q1, q3, (q3 - q1) / med)
    assert worse_by(10.0, 11.0, "lower") > 0 > worse_by(10.0, 11.0, "higher")


def test_manufactured_check():
    problem = get_problem("manufactured")
    sx = sy = make_space(2, 1, 64, (0.0, 1.0))
    t = 0.5
    u = project(lambda x, y: problem.exact(x, y, t), sx, sy)
    failures, measured = checks.check_manufactured(u, t, sx, sy, problem.exact)
    assert not failures and measured["l2_rel_error"] < 1e-5, measured
    bumped = u.copy()
    bumped[30:34, 30:34] += 0.01
    assert checks.check_manufactured(bumped, t, sx, sy, problem.exact)[0]
    assert checks.check_manufactured(u, t + 0.01, sx, sy, problem.exact)[0]


def test_step_tail_drops_one_round_spikes():
    import bench
    rounds = [bench.Round(0) for _ in range(3)]
    for i, rnd in enumerate(rounds):
        rnd.step_s = [0.010] * 17 + [0.012] * 3  # three steps slow every round
        rnd.step_s[3 * i:3 * i + 3] = [0.040] * 3  # the host slows others per round
    samples = [s for rnd in rounds for s in rnd.step_s]
    assert bench.percentile(samples, 90) == 0.040
    assert np.allclose(bench.step_profile(rounds), [0.010] * 17 + [0.012] * 3)
    tail = bench.end_to_end(rounds, [1.0])["step_ms_p90"][0]
    assert 11.9 < tail < 12.1, tail


def _bump(centre, sigma=0.1):
    def f(x, y):
        return np.exp(-((x - centre[0]) ** 2 + (y - centre[1]) ** 2) / (2 * sigma ** 2))
    return f


def test_rotation_check():
    sx = sy = make_space(2, 1, 48, (-1.0, 1.0))
    u0 = project(_bump(checks.rotated_centre(0.0)), sx, sy)
    times = [1.6, 3.2, 4.8, 6.4]
    exact = [(t, project(_bump(checks.rotated_centre(t)), sx, sy)) for t in times]
    assert not checks.check_rotation(u0, exact, sx, sy)[0]
    # turned anticlockwise: mirror the exact centre in x
    wrong = [(t, project(_bump(checks.rotated_centre(t) * [-1, 1]), sx, sy))
             for t in times]
    assert checks.check_rotation(u0, wrong, sx, sy)[0]
    assert checks.check_rotation(u0, [(t, 1.2 * u) for t, u in exact], sx, sy)[0]


def _loads(points, n_elements):
    """Stand-in for a program ``LoadAssembler``: only its grid sizes are read."""
    grid = np.empty(points * n_elements)
    return types.SimpleNamespace(px=grid, py=grid)


def test_pollution_check():
    problem = get_problem("pollution")
    side = problem.domain[0]
    space = functools.partial(make_space, n_elements=50, interval=side)

    def stepper_with_rule(points):
        op = types.SimpleNamespace(loads=_loads(points, 50))
        return types.SimpleNamespace(trial_x=space(2, 1), trial_y=space(2, 1),
                                     test_x=space(3, 0), test_y=space(3, 0),
                                     x_op=op, y_op=op)

    stepper = stepper_with_rule(4)  # degree + 1 of the test space, as loaded today
    sx, sy = stepper.trial_x, stepper.trial_y
    tau, n = 1.0, 20
    times = tau * np.arange(n + 1)
    mean = np.mean(wind_angle(times[:-1] + 0.5 * tau))
    chimney = np.array(problem.forcing.keywords["p0"])

    def states_with_plume(direction, loaded_by=stepper):
        # the injected mass, carried as a blob 200 m from the chimney
        blob = project(_bump(chimney + 200.0 * direction, sigma=150.0), sx, sy)
        blob /= checks.total_mass(blob, sx, sy)
        u0 = project(lambda x, y: 1e-6 + 0 * x * y, sx, sy)
        mass = 0.0
        states = [(0.0, u0)]
        rules = ((loaded_by.x_op.loads, stepper.test_x, sy),
                 (loaded_by.y_op.loads, sx, stepper.test_y))
        for t in times[:-1]:
            mass += 0.5 * tau * sum(
                checks.discrete_source_total(problem.forcing, t + 0.5 * tau, *rule)
                for rule in rules)
            states.append((t + tau, u0 + mass * blob))
        return states

    downwind = np.array([np.cos(mean), np.sin(mean)])
    good = states_with_plume(downwind)
    args = (tau, stepper, problem, 1e3, wind_angle)
    failures, measured = checks.check_pollution(good, *args)
    assert not failures, failures
    assert checks.check_pollution(states_with_plume(-downwind), *args)[0]
    leaky = good[:-1] + [(good[-1][0], 0.99 * good[-1][1])]
    assert checks.check_pollution(leaky, *args)[0]
    assert checks.check_pollution(good, tau, stepper, problem, 0.1, wind_angle)[0]
    nan = good[:-1] + [(good[-1][0], good[-1][1] * np.nan)]
    assert checks.check_pollution(nan, *args)[0]
    # a program that loads with more points injects other mass: the check
    # follows its rule and does not hold it to the one above
    finer = stepper_with_rule(8)
    finer_states = states_with_plume(downwind, loaded_by=finer)
    assert not checks.check_pollution(finer_states, tau, finer, problem, 1e3,
                                      wind_angle)[0]
    assert checks.check_pollution(finer_states, *args)[0]


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [["run", 0, 10_000_000, -1, 0], ["a", 1_000_000, 4_000_000, 0, 0],
                    ["b", 2_000_000, 3_000_000, 1, 7], ["a", 5_000_000, 6_000_000, 0, 0]]
    totals = tracer.layer_totals()
    assert totals["run"]["ms"] == 6.0 and totals["run"]["total_ms"] == 10.0
    assert totals["a"]["calls"] == 2 and totals["a"]["ms"] == 3.0
    assert totals["b"]["count"] == 7
    assert tracer.layer_totals(first=1)["a"]["ms"] == 3.0


def test_tracer_wraps_every_layer_and_restores():
    import splitmin.reporting
    import splitmin.stepping
    originals = {"run": splitmin.reporting.run,
                 "build": splitmin.stepping.build_directional}
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing, tracer.missing
    assert splitmin.stepping.build_directional is not originals["build"]
    tracer.uninstall()
    assert splitmin.reporting.run is originals["run"]
    assert splitmin.stepping.build_directional is originals["build"]


def test_benchmark_json_names_the_emitted_metrics():
    import bench
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    fake_round = (Tracer().layer_totals(), {"solve_ops": 1, "factor_ops": 1})
    layer = bench.per_layer([fake_round], [1.0], [1.0])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(k, unit) for k, (_, unit) in layer.items()]
    rnd = bench.Round(0)
    rnd.step_s, rnd.setup_s, rnd.dofs = [0.01] * 3, 0.1, 4
    e2e = bench.end_to_end([rnd], [1.0])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, unit) for k, (_, unit) in e2e.items()]


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
