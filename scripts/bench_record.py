"""Record the benchmark's end-to-end metrics as committed BENCH_<label>.json files.

    python3 scripts/bench_record.py LABEL[=CHECKOUT] [LABEL=CHECKOUT ...]

Each LABEL names one checkout (default: this repository).  For every workload
in BENCHMARK.json the script makes ten untraced runs of ``perfbench/run.py``
per checkout, each a fresh process of the benchmark's run length.  With two
or more checkouts the runs alternate, and each round reverses the order, so
machine drift hits every side alike and run i of one file pairs with run i
of another.  Each checkout gets ``BENCH_<LABEL>.json`` at the root of this
repository:

- per workload, rounds attempted and failed, and a flag that every run
  exited 0 with its correctness checks passed (a run that exits non-zero is
  kept as an incorrect run with its exit code, and the recording goes on);
- per end-to-end metric, its unit, median, quartiles (``statistics.quantiles``,
  as ``perfbench/steadiness.py`` takes them) and the value of every run in
  run order, null for a failed run;
- per workload, a calibration kernel timed in this process right after
  each run: the median of 200 ``dgbtrs`` solves of one fixed banded system
  (n = 511, lb = ub = 6, 128 right-hand-side columns), in microseconds.
  That was ``manufactured-split``'s saddle before the condensation made it
  n = 255, lb = ub = 4; the kernel is kept as it was, so that files stay
  comparable.  It never changes, so a shift in its time is a shift of the
  host, not of the code;
- per workload, the layer figures of one traced run per checkout
  (``--trace 1``), made after all untraced runs, under ``layers``: each
  layer's calls, self time and work count per round, the counted
  ``kron.solve_ops`` and ``kron.factor_ops``, ``kron.solve.ns_per_op`` and
  the tracing overhead, each the median over the run's traced rounds;
- the host's CPU model (``model name`` in ``/proc/cpuinfo``, else
  ``platform.processor()``) and processor count, the Python, numpy and scipy
  versions, and the checkout's git SHA, with ``-dirty`` when its tree has
  uncommitted changes.  The CPU model makes a change of host visible in the
  files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread for the calibration kernel, as perfbench/run.py pins it for
# the runs; OpenBLAS and OpenMP read these once, when numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np
import scipy
from scipy.linalg.lapack import dgbtrf, dgbtrs

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
CALIBRATION = (511, 6, 128)  # n, lb = ub, right-hand-side columns


def git_sha(checkout: Path) -> str:
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True,
                          check=True).stdout.strip()


def cpu_model() -> str:
    """The first ``model name`` of /proc/cpuinfo, else platform.processor()."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def calibration_us(repeats: int = 200) -> float:
    """Median microseconds of one dgbtrs solve of a fixed banded system."""
    n, band, cols = CALIBRATION
    rng = np.random.default_rng(0)
    ab = rng.standard_normal((3 * band + 1, n))
    ab[2 * band] += 4.0 * band  # the diagonal row: diagonally dominant
    lu, piv, _ = dgbtrf(ab, band, band)
    rhs = np.asfortranarray(rng.standard_normal((n, cols)))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        dgbtrs(lu, band, band, rhs, piv)
        times.append(time.perf_counter() - started)
    return 1e6 * statistics.median(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def one_run(checkout: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    """One run: its last output line, or an incorrect record on failure."""
    # the workloads have no random inputs: the seed only names trace files
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{checkout}: {workload} exited {done.returncode}: "
              f"{done.stderr.strip()[-500:]}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": done.returncode}
    return json.loads(lines[-1])


def summary(runs: list[dict], end_to_end: list[str]) -> dict:
    metrics = {}
    for name in end_to_end:
        # None for a failed run, so run i still pairs with run i of another file
        values = [r["metrics"][name]["value"] if name in r["metrics"] else None
                  for r in runs]
        made = [v for v in values if v is not None]
        if not made:
            continue
        q1, median, q3 = quartiles(made)
        unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
        metrics[name] = {"unit": unit,
                         "median": float(median), "q1": float(q1), "q3": float(q3),
                         "values": values}
    kernel = [r["calibration_us"] for r in runs]
    q1, median, q3 = quartiles(kernel)
    return {"runs": len(runs),
            "rounds_attempted": sum(r["attempted"] for r in runs),
            "rounds_failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "failed_exits": [r["exit"] for r in runs if "exit" in r],
            "metrics": metrics,
            "calibration": {"kernel": "dgbtrs n={} lb=ub={} columns={}".format(*CALIBRATION),
                            "unit": "us", "median": median, "q1": q1, "q3": q3,
                            "values": kernel}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL[=CHECKOUT]")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    sides, shas = [], {}
    for side in args.sides:
        label, _, checkout = side.partition("=")
        sides.append((label, Path(checkout).resolve() if checkout else ROOT))
        shas[label] = git_sha(sides[-1][1])  # before the runs, which take a while

    results = {label: {w: [] for w in workloads} for label, _ in sides}
    for i in range(RUNS):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in workloads:
            for label, checkout in order:
                record = one_run(checkout, workload, seconds)
                record["calibration_us"] = calibration_us()
                results[label][workload].append(record)
                print(f"run {i + 1}/{RUNS} {workload} {label}: "
                      f"{json.dumps({k: v['value'] for k, v in record['metrics'].items()})}",
                      file=sys.stderr)

    layers = {label: {} for label, _ in sides}
    for workload in workloads:
        for label, checkout in sides:
            record = one_run(checkout, workload, seconds, trace=1)
            layers[label][workload] = {"correct": record["correct"],
                                       "metrics": record["metrics"]}
            print(f"traced {workload} {label}: correct={record['correct']}", file=sys.stderr)

    host = {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    for label, _ in sides:
        out = {"label": label, "git_sha": shas[label], **host,
               "seconds": seconds,
               "workloads": {w: {**summary(results[label][w], end_to_end),
                                 "layers": layers[label][w]}
                             for w in workloads}}
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
