"""Compare two BENCH files: the markdown table of end-to-end metrics CHANGES.md uses.

    python3 scripts/bench_compare.py PARENT.json CHANGE.json [--claim WORKLOAD/METRIC]

For each workload and end-to-end metric of BENCHMARK.json, one row: the
parent's and the change's median [q1, q3], the pairs the change wins (run i
of one file against run i of the other, failed runs left out), the change of
the median, and the parent's quartile spread, (q3 - q1) / median, against
the metric's bound: "resolved" when the spread is within the bound, so that a
move of the bound's size would show.  A line then gives each file's dgbtrs
calibration kernel, median [q1, q3], whose shift is the host's, not the
code's.  Last comes the per-layer table: for each workload and per-layer
metric of BENCHMARK.json that both files' ``layers`` records hold, the
parent's and the change's value (one traced run each, the median over its
rounds) and the change between them; a metric that reads 0 on both sides (a
layer the workload never enters) is left out.

With ``--claim``, it then says whether the change's gain on that workload's
metric is met: the change wins at least 9 of 10 of the pairs in which both
runs gave a value (a tie counts for neither side), and its median is better
than the parent's by more than the parent's quartile distance q3 - q1.  Last
it lists every other row whose median is worse than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"]


def quartiles(entry: dict) -> str:
    return f"{entry['median']:.4g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def wins(parent: dict, change: dict, better: str) -> tuple[int, int]:
    """Pairs the change wins, and the pairs in which both runs gave a value."""
    pairs = [(p, c) for p, c in zip(parent["values"], change["values"])
             if p is not None and c is not None]
    won = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
    return won, len(pairs)


def rows(parent: dict, change: dict, spec: dict):
    """(workload, metric spec, parent entry, change entry) of every metric both files hold."""
    for workload in (w["name"] for w in spec["workloads"]):
        before = parent["workloads"].get(workload, {}).get("metrics", {})
        after = change["workloads"].get(workload, {}).get("metrics", {})
        for metric in spec["end_to_end"]:
            if metric["name"] in before and metric["name"] in after:
                yield workload, metric, before[metric["name"]], after[metric["name"]]


def table(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = [f"| workload | metric | parent {parent['label']} | change | "
             "pairs the change wins | median change | parent spread / bound |",
             "|---|---|---|---|---|---|---|"]
    for workload, metric, p, c in rows(parent, change, spec):
        won, pairs = wins(p, c, metric["better"])
        move = (c["median"] - p["median"]) / p["median"]
        resolved = "resolved" if spread(p) <= metric["bound"] else "unresolved"
        lines.append(f"| {workload} | `{metric['name']}` ({p['unit']}) | {quartiles(p)} | "
                     f"{quartiles(c)} | {won}/{pairs} | {100 * move:+.1f}% | "
                     f"{100 * spread(p):.1f}% / {100 * metric['bound']:g}% {resolved} |")
    return lines


def layer_table(parent: dict, change: dict, spec: dict) -> list[str]:
    lines = [f"| workload | layer metric | parent {parent['label']} | change | change from parent |",
             "|---|---|---|---|---|"]
    for workload in (w["name"] for w in spec["workloads"]):
        before, after = (bench["workloads"].get(workload, {}).get("layers", {}).get("metrics", {})
                         for bench in (parent, change))
        for metric in spec["per_layer"]:
            if metric["name"] not in before or metric["name"] not in after:
                continue
            p, c = before[metric["name"]]["value"], after[metric["name"]]["value"]
            if p == c == 0:
                continue
            move = f"{100 * (c - p) / abs(p):+.1f}%" if p else "from 0"
            lines.append(f"| {workload} | `{metric['name']}` ({metric['unit']}) | {number(p)} | "
                         f"{number(c)} | {move} |")
    return lines


def number(value: float) -> str:
    """A whole number in full, with thousands separators; any other to 4 digits."""
    return f"{value:,.0f}" if float(value).is_integer() else f"{value:.4g}"


def claim(parent: dict, change: dict, spec: dict, claimed: str) -> list[str]:
    """Whether the claimed WORKLOAD/METRIC gain is met, then every other row
    whose median is worse than its bound."""
    lines, worse = [], []
    for workload, metric, p, c in rows(parent, change, spec):
        # the change's gain, positive when it is better
        gain = (p["median"] - c["median"]) * (1 if metric["better"] == "lower" else -1)
        if f"{workload}/{metric['name']}" == claimed:
            won, pairs = wins(p, c, metric["better"])
            distance = p["q3"] - p["q1"]
            met = won >= 0.9 * pairs and gain > distance
            lines.append(f"claim {claimed}: {'met' if met else 'not met'}: the change wins "
                         f"{won}/{pairs} pairs (needs 9/10), median gap {gain:.3g} {p['unit']} "
                         f"{'>' if gain > distance else '<='} parent q3 - q1 "
                         f"{distance:.3g} {p['unit']}")
        elif -gain / p["median"] > metric["bound"]:
            worse.append(f"- {workload} `{metric['name']}`: {100 * -gain / p['median']:+.1f}% "
                         f"worse, bound {100 * metric['bound']:g}%")
    if not lines:
        raise KeyError(f"no row {claimed!r} in both files")
    return lines + ["other rows worse than their bound:"] + (worse or ["- none"])


def calibration(bench: dict) -> str:
    """The calibration kernel over all of a file's runs, median [q1, q3]."""
    values = [v for w in bench["workloads"].values() for v in w["calibration"]["values"]]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{bench['label']} {median:.0f} [{q1:.0f}, {q3:.0f}] us"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", metavar="WORKLOAD/METRIC",
                        help="say whether the change's gain on this row is met")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = (json.loads(path.read_text()) for path in (args.parent, args.change))
    print("\n".join(table(parent, change, spec)))
    print(f"\ndgbtrs calibration kernel: parent {calibration(parent)}, "
          f"change {calibration(change)}")
    print("\nper-layer figures:\n" + "\n".join(layer_table(parent, change, spec)))
    if args.claim:
        try:
            print("\n" + "\n".join(claim(parent, change, spec, args.claim)))
        except KeyError as exc:
            parser.error(exc.args[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
