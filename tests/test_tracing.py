"""The benchmark's hooks into the program still apply.

perfbench/spans.py wraps program functions by name, and perfbench/bench.py
hooks each stepper's initial_state and step through the instance.  A renamed
layer would only print a warning during a traced benchmark run, and a time
loop that bypassed the instance would only show up as failed benchmark
rounds; these tests catch both on the imported package.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import splitmin.reporting as reporting
from splitmin.reporting import RunConfig

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_perfbench(name):
    sys.path.insert(0, str(_PERFBENCH))
    try:
        return __import__(name)
    finally:
        sys.path.remove(str(_PERFBENCH))


def test_tracer_finds_every_layer():
    spans = _import_perfbench("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_split_step_goes_through_banded_apply():
    # the traced banded.apply layer would read 0 if steps bypassed the method
    from splitmin.problems import get_problem
    from splitmin.stepping import Stepper

    stepper = Stepper(get_problem("manufactured"),
                      RunConfig(mesh=(6, 6), tau=0.01, n_steps=1))
    state = stepper.initial_state()
    tracer = _import_perfbench("spans").Tracer()
    try:
        tracer.install()
        stepper.step(state)
    finally:
        tracer.uninstall()
    assert tracer.layer_totals()["banded.apply"]["calls"] > 0


def test_pr_step_solves_the_mass_direction_on_the_trial_rows_only(monkeypatch):
    # per substep: the other-direction mass divides the explicit part on the
    # n split trial columns, then the condensed saddle (the m - 2 per-element
    # local test rows eliminated, plus the n trial rows) runs on the other
    # direction's columns; the first step also divides the two products of the
    # forcing's 1D loads in the other direction, once
    from splitmin.kron import BandedLU
    from splitmin.problems import get_problem
    from splitmin.stepping import Stepper

    stepper = Stepper(get_problem("manufactured"),
                      RunConfig(mesh=(6, 5), trial=(2, 1), test=(3, 0), tau=0.01))
    state = stepper.initial_state()
    shapes = []
    solve = BandedLU.solve

    def recorded(self, rhs):
        shapes.append(np.shape(rhs))
        return solve(self, rhs)

    monkeypatch.setattr(BandedLU, "solve", recorded)
    stepper.step(state)
    first = shapes[:]
    shapes.clear()
    stepper.step(state)
    (m_x, n_x), (m_y, n_y) = stepper.x_op.m_rect.shape, stepper.y_op.m_rect.shape
    assert (m_x, n_x, m_y, n_y) == (17, 6, 14, 5)
    saddle_x, saddle_y = m_x - 2 * 6 + n_x, m_y - 2 * 5 + n_y
    assert shapes == [(n_y, n_x), (saddle_x, n_y), (n_x, n_y), (saddle_y, n_x)]
    assert first == [(n_y, n_x), (n_y, 2), (saddle_x, n_y), (n_x, n_y), (n_x, 2), (saddle_y, n_x)]


@pytest.mark.parametrize("config", (
    RunConfig(problem="pollution", mesh=(8, 8), tau=1.0, n_steps=5),
    RunConfig(problem="circular-wind", mesh=(6, 6), tau=0.1, n_steps=4),
), ids=["pollution", "circular-wind"])
def test_benchmark_round_hooks_see_every_step(tmp_path, monkeypatch, config):
    rnd = _import_perfbench("bench").Round(keep_every=1)
    monkeypatch.setattr(reporting, "make_stepper",
                        rnd.make_stepper(reporting.make_stepper))
    final = reporting.run(replace(config, out_dir=str(tmp_path)))
    assert len(rnd.step_s) == config.n_steps
    assert rnd.setup_s > 0.0
    assert len(rnd.states) == config.n_steps + 1
    assert np.array_equal(rnd.states[-1][1], final.u)


def test_general_set_up_goes_through_the_traced_names(tmp_path):
    # one traced circular-wind round records one assembly and one factor,
    # whose L+U count is the fill_nnz that run writes
    config = RunConfig(problem="circular-wind", mesh=(6, 6), tau=0.1, n_steps=2,
                       out_dir=str(tmp_path))
    tracer = _import_perfbench("spans").Tracer()
    try:
        tracer.install()
        reporting.run(config)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    meta = json.loads((tmp_path / "metadata.json").read_text())
    assert totals["full2d.assemble_2d_saddle"]["calls"] == 1
    assert totals["full2d.factor"]["calls"] == 1
    assert totals["full2d.factor"]["count"] == meta["fill_nnz"] > 0
    assert totals["full2d.solve"]["calls"] == 2
