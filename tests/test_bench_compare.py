"""scripts/bench_compare.py on two committed BENCH files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_prints_the_recorded_pair():
    done = subprocess.run([sys.executable, "scripts/bench_compare.py", "BENCH_57394c4.json",
                           "BENCH_cn-halfstep.json"], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    end_to_end = done.stdout.split("per-layer figures:")[0]
    rows = {tuple(cell.strip() for cell in line.split("|")[1:3]): line
            for line in end_to_end.splitlines() if line.startswith("| ")}
    assert len(rows) == 1 + 3 * 6  # the header, and three workloads of six metrics
    peak = rows[("rotation-general", "`peak_rss_mb` (MB)")]
    assert "| 139.1 [" in peak and "| 136.6 [" in peak
    assert "| 10/10 | -1.8% |" in peak
    step = rows[("manufactured-split", "`step_ms_p50` (ms)")]
    assert "| 6/10 |" in step and "18.2% / 25% resolved" in step
    assert "pollution-rebuild" in done.stdout and "calibration" in done.stdout


def test_compare_prints_the_per_layer_figures_of_the_recorded_pair():
    # the wind-line pair: a pollution-rebuild round's wind refactors no
    # longer rescale terms through kron_matvec, and a steady chimney's load
    # is made once per operator
    done = subprocess.run([sys.executable, "scripts/bench_compare.py", "BENCH_75bd28b.json",
                           "BENCH_wind-line.json"], cwd=ROOT, capture_output=True, text=True,
                          check=True)
    heading, layers = done.stdout.split("per-layer figures:\n")
    assert "calibration" in heading and "| workload | metric |" in heading
    layers, worse = layers.split("\n\n")  # the rows worse than their bound follow
    assert worse.startswith("rows worse than their bound:")
    lines = layers.strip().splitlines()
    assert lines[0] == ("| workload | layer metric | parent 75bd28b | change | "
                        "change from parent |")
    rows = {tuple(cell.strip() for cell in line.split("|")[1:3]): line for line in lines[2:]}
    assert len(rows) == len(lines) - 2
    assert rows[("pollution-rebuild", "`kron.kron_matvec.calls` (count)")].endswith(
        "| 201 | 3 | -98.5% |")
    assert rows[("pollution-rebuild", "`kron.solve.calls` (count)")].endswith(
        "| 602 | 404 | -32.9% |")
    assert rows[("pollution-rebuild", "`resmin.load.ms` (ms)")].endswith(
        "| 7.62 | 4.289 | -43.7% |")
    assert rows[("pollution-rebuild", "`kron.factor_ops` (count)")].endswith(
        "| 1,315,892 | 1,315,892 | +0.0% |")
    # a layer the workload never enters reads 0 on both sides and is left out
    assert ("manufactured-split", "`full2d.solve.calls` (count)") not in rows
    assert ("rotation-general", "`full2d.solve.calls` (count)") in rows


def _claim(claimed: str, pair=("BENCH_f96fc31.json", "BENCH_split-layout.json")) -> list[str]:
    """The lines from the claim's verdict on."""
    done = subprocess.run([sys.executable, "scripts/bench_compare.py", *pair, "--claim", claimed],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith("claim ")):]


def test_claim_is_met_on_wins_and_a_gap_beyond_the_parent_spread():
    # 3.560 -> 2.977 ms; the parent's quartiles are [3.431, 3.629]
    verdict, *others = _claim("manufactured-split/step_ms_p50")
    assert verdict == ("claim manufactured-split/step_ms_p50: met: the change wins 10/10 "
                       "pairs (needs 9/10), median gap 0.582 ms > parent q3 - q1 0.199 ms")
    assert others == ["other rows worse than their bound:", "- none"]


def test_claim_is_not_met_when_the_gap_is_within_the_parent_spread():
    # 0.8067 -> 0.7615 ms, better in every pair, but the parent's quartiles
    # are [0.7837, 0.8402]
    verdict, *others = _claim("pollution-rebuild/step_ms_p50")
    assert verdict.startswith("claim pollution-rebuild/step_ms_p50: not met: the change "
                              "wins 10/10 pairs")
    assert "median gap 0.0453 ms <= parent q3 - q1 0.0565 ms" in verdict
    assert others == ["other rows worse than their bound:", "- none"]


def test_claim_lists_the_other_rows_worse_than_their_bound():
    # the kron-pattern pair read backwards: set-up and peak RSS of the general path grow
    verdict, *others = _claim("rotation-general/step_ms_p50",
                              ("BENCH_kron-pattern.json", "BENCH_1984d92.json"))
    assert verdict.startswith("claim rotation-general/step_ms_p50: not met: the change wins 4/10")
    assert others == ["other rows worse than their bound:",
                      "- rotation-general `setup_s`: +39.2% worse, bound 25%",
                      "- rotation-general `peak_rss_mb`: +34.5% worse, bound 5%"]


def _worse(pair) -> list[str]:
    """The lines from the list of rows worse than their bound on, with no claim."""
    done = subprocess.run([sys.executable, "scripts/bench_compare.py", *pair], cwd=ROOT,
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert not any(line.startswith("claim ") for line in lines)
    return lines[lines.index("rows worse than their bound:"):]


def test_every_call_lists_the_rows_worse_than_their_bound():
    # the block-form pair, recorded with no row beyond its bound
    assert _worse(("BENCH_d638824.json", "BENCH_block-form.json")) == [
        "rows worse than their bound:", "- none"]
    # the kron-pattern pair read backwards, as under --claim but with no row left out
    assert _worse(("BENCH_kron-pattern.json", "BENCH_1984d92.json")) == [
        "rows worse than their bound:",
        "- rotation-general `setup_s`: +39.2% worse, bound 25%",
        "- rotation-general `peak_rss_mb`: +34.5% worse, bound 5%"]
