"""One benchmark run: whole ``splitmin.reporting.run`` calls for ``--seconds``.

Run through ``run.py``, which pins BLAS and OpenMP to one thread before numpy
loads.  Each round is one ``run()`` call, started when the previous one has
ended (closed loop, no concurrency), then checked by ``checks``.  Hooks on
``make_stepper`` time set-up and every step without changing what ``run()``
does.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import splitmin.reporting as reporting
from splitmin.problems import get_problem, wind_angle
from splitmin.reporting import RunConfig

import checks
from spans import COUNT_METRICS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
RUNS = HERE / "_runs"
MIN_STEPS = 100     # every run times at least this many steps
MIN_ROUNDS = 3      # set-up and each step position are medians over rounds

WORKLOADS = {
    "manufactured-split": RunConfig(
        problem="manufactured", mesh=(128, 128), trial=(2, 1), test=(3, 0),
        scheme="pr", tau=0.0025, n_steps=200),
    "pollution-rebuild": RunConfig(
        problem="pollution", mesh=(50, 50), trial=(2, 1), test=(3, 0),
        scheme="pr", tau=1.0, n_steps=100, snapshot_stride=10,
        snapshot_resolution=101),
    "rotation-general": RunConfig(
        problem="circular-wind", mesh=(48, 48), trial=(2, 1), test=(3, 0),
        tau=0.1, n_steps=64, snapshot_stride=16),
}
# steps whose states the checks read: none (the final state suffices), every
# step (mass balance), every quarter turn
KEEP_EVERY = {"manufactured-split": 0, "pollution-rebuild": 1,
              "rotation-general": 16}


class Round:
    """Hooks one ``run()`` call: times set-up and steps, keeps checked states."""

    def __init__(self, keep_every: int):
        self.keep_every = keep_every
        self.setup_s = 0.0
        self.step_s = []
        self.states = []
        self.stepper = None
        self.dofs = 0       # interior trial DOFs

    def make_stepper(self, original):
        def hooked(problem, config, counter=None):
            started = time.perf_counter()
            stepper = original(problem, config, counter)
            self.setup_s += time.perf_counter() - started
            self.stepper = stepper
            step, initial_state = stepper.step, stepper.initial_state

            def timed_initial_state():
                started = time.perf_counter()
                state = initial_state()
                self.setup_s += time.perf_counter() - started
                self.states.append((state.time, state.u.copy()))
                return state

            def timed_step(state):
                started = time.perf_counter()
                new = step(state)
                self.step_s.append(time.perf_counter() - started)
                if self.keep_every and len(self.step_s) % self.keep_every == 0:
                    self.states.append((new.time, new.u.copy()))
                return new

            stepper.step, stepper.initial_state = timed_step, timed_initial_state
            return stepper
        return hooked


def check_round(workload: str, config: RunConfig, rnd: Round, final) -> list[str]:
    problem = get_problem(config.problem)
    st = rnd.stepper
    if workload == "manufactured-split":
        failures, _ = checks.check_manufactured(final.u, final.time, st.trial_x,
                                                st.trial_y, problem.exact)
    elif workload == "pollution-rebuild":
        bound = 10.0 * (1e-6 + config.tau * config.n_steps)  # source peak is 1
        failures, _ = checks.check_pollution(rnd.states, config.tau, st,
                                             problem, bound, wind_angle)
    else:
        failures, _ = checks.check_rotation(rnd.states[0][1], rnd.states[1:],
                                            st.trial_x, st.trial_y)
    if len(rnd.step_s) != config.n_steps:
        failures.append(f"{len(rnd.step_s)} steps taken, {config.n_steps} configured")
    return failures


def one_round(workload: str, config: RunConfig):
    """Run and check one round; returns (Round, run seconds, failures, metadata)."""
    out = RUNS / workload
    shutil.rmtree(out, ignore_errors=True)
    config = dataclasses.replace(config, out_dir=str(out))
    rnd = Round(KEEP_EVERY[workload])
    original = reporting.make_stepper
    reporting.make_stepper = rnd.make_stepper(original)
    try:
        started = time.perf_counter()
        final = reporting.run(config)
        run_s = time.perf_counter() - started
    finally:
        reporting.make_stepper = original
    metadata = json.loads((out / "metadata.json").read_text())
    failures = check_round(workload, config, rnd, final)
    # keep only the timings: a kept stepper would hold its factors and count
    # towards the next round's peak memory
    rnd.dofs = (rnd.stepper.trial_x.dim - 2) * (rnd.stepper.trial_y.dim - 2)
    rnd.stepper, rnd.states = None, []
    gc.collect()  # the step hooks close a reference cycle through the stepper
    return rnd, run_s, failures, metadata


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def step_profile(rounds) -> np.ndarray:
    """Each step position's median wall time over the rounds, in seconds.

    Every round takes the same steps, so a step the host slows by 20-40 ms
    in one round only drops out, while a step the program makes slow in
    every round stays.
    """
    return np.median(np.array([r.step_s for r in rounds]), axis=0)


def end_to_end(rounds, run_s) -> dict:
    steps = [s for r in rounds for s in r.step_s]
    return {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "step_ms_p50": (1e3 * percentile(steps, 50), "ms"),
        "step_ms_p90": (1e3 * percentile(step_profile(rounds), 90), "ms"),
        "run_s": (statistics.median(run_s), "s"),
        "dof_steps_per_s": (rounds[0].dofs * len(steps) / sum(steps), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(per_round, untraced_run_s, traced_run_s) -> dict:
    """Median over traced rounds of each layer's per-round figures."""
    metrics = {}
    for name in dict.fromkeys(name for name, *_ in LAYERS):
        rows = [totals[name] for totals, _ in per_round]
        metrics[f"{name}.calls"] = (statistics.median(r["calls"] for r in rows), "count")
        metrics[f"{name}.ms"] = (statistics.median(r["ms"] for r in rows), "ms")
        if name in COUNT_METRICS:
            suffix, unit = COUNT_METRICS[name]
            metrics[f"{name}.{suffix}"] = (
                statistics.median(r["count"] for r in rows), unit)
    solve_ns = [1e6 * totals["kron.solve"]["total_ms"] for totals, _ in per_round]
    solve_ops = [meta["solve_ops"] for _, meta in per_round]
    metrics["kron.solve_ops"] = (statistics.median(solve_ops), "count")
    metrics["kron.factor_ops"] = (
        statistics.median(meta["factor_ops"] for _, meta in per_round), "count")
    metrics["kron.solve.ns_per_op"] = (
        statistics.median(ns / ops if ops else 0.0
                          for ns, ops in zip(solve_ns, solve_ops)), "ns")
    metrics["trace.overhead_s"] = (statistics.median(traced_run_s)
                                   - statistics.median(untraced_run_s), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # no workload has random inputs: the seed names the trace file only
    config = WORKLOADS[args.workload]

    attempted = failed = 0
    correct = True
    rounds, run_s, traced_run_s, per_round = [], [], [], []
    tracer = Tracer() if args.trace else None
    installed = False
    # a traced run spends its first half untraced, to measure the overhead
    untraced_until = args.seconds / 2 if tracer else float("inf")
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        enough = (per_round if tracer else
                  len(rounds) >= MIN_ROUNDS
                  and sum(len(r.step_s) for r in rounds) >= MIN_STEPS)
        if (elapsed >= args.seconds and enough) or failed >= 2 * MIN_ROUNDS:
            break
        tracing = bool(run_s) and elapsed >= untraced_until
        if tracing and not installed:
            tracer.install()
            installed = True
        first = len(tracer.spans) if tracer else 0
        attempted += 1
        try:
            rnd, seconds, failures, metadata = one_round(args.workload, config)
        except Exception as exc:  # a round that raises counts as failed
            print(f"round {attempted} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        if failures:
            print(f"round {attempted} failed its checks: {failures}", file=sys.stderr)
            failed += 1
            correct = False
        elif tracing:
            traced_run_s.append(seconds)
            per_round.append((tracer.layer_totals(first), metadata))
        else:
            rounds.append(rnd)
            run_s.append(seconds)

    if tracer:
        tracer.uninstall()
        tracer.dump(RUNS / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(per_round, run_s, traced_run_s) if per_round else {}
    else:
        metrics = end_to_end(rounds, run_s) if rounds else {}
    result = {"correct": correct and bool(metrics), "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
