"""Run-to-run spread of the end-to-end metrics, measured before bounds are set.

    python3 perfbench/steadiness.py

First runs the benchmark's own tests (``selftest.py``).  Then makes two
independent sets of ten untraced runs per workload through ``run.py``, each
run with its own seed and ``run_seconds`` from ``BENCHMARK.json``, alternating
the workloads run by run.  Prints for each workload and metric the median,
quartiles and spread (quartile distance over median) of both sets, the gap
between the two medians (positive when the second is worse), and the
metric's bound.  A spread of a third of the bound or more is marked ``wide``;
a spread beyond the bound, or a gap beyond it either way, is marked ``FAIL``.
Raw results go to ``perfbench/_runs/steadiness.json``.  Exits 1 on a failed
test, an incorrect run, unequal failed shares or a ``FAIL``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first`` (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "exit": proc.returncode}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(spec: dict, results: dict) -> bool:
    """Print the spread table; returns True when nothing is flagged."""
    ok = True
    metrics = spec["end_to_end"]
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                  for runs in sets]
        print("  failed share per set: " + ", ".join(f"{s:.4f}" for s in shares))
        if len(set(shares)) > 1 or any(not r["correct"] for runs in sets for r in runs):
            ok = False
            print("  FAIL: incorrect runs or unequal failed shares")
        print(f"  {'metric':16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'gap':>7} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs if r["metrics"]]
                median, q1, q3, rel = spread(values)
                medians.append(median)
                flag = "  wide" if rel >= bound / 3 else ""
                if rel > bound:
                    flag, ok = "  FAIL spread", False
                gap = ""
                if i == 1:
                    g = worse_by(medians[0], median, m["better"])
                    gap = f"{g:+7.3f}"
                    if abs(g) > bound:
                        flag, ok = flag + "  FAIL gap", False
                print(f"  {name:16} {i + 1:>3} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{rel:7.3f} {gap:>7} {bound:6.3f}{flag}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT).returncode:
        print("selftest failed", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for i in range(RUNS):
            for w in workloads:
                seed = 1000 * (s + 1) + i
                result = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + json.dumps({k: round(v["value"], 6)
                                    for k, v in result["metrics"].items()}),
                      flush=True)
    out = HERE / "_runs" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    ok = report(spec, results)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
