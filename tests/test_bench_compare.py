"""scripts/bench_compare.py on two committed BENCH files."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_prints_the_recorded_pair():
    done = subprocess.run([sys.executable, "scripts/bench_compare.py", "BENCH_57394c4.json",
                           "BENCH_cn-halfstep.json"], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    rows = {tuple(cell.strip() for cell in line.split("|")[1:3]): line
            for line in done.stdout.splitlines() if line.startswith("| ")}
    assert len(rows) == 1 + 3 * 6  # the header, and three workloads of six metrics
    peak = rows[("rotation-general", "`peak_rss_mb` (MB)")]
    assert "| 139.1 [" in peak and "| 136.6 [" in peak
    assert "| 10/10 | -1.8% |" in peak
    step = rows[("manufactured-split", "`step_ms_p50` (ms)")]
    assert "| 6/10 |" in step and "18.2% / 25% resolved" in step
    assert "pollution-rebuild" in done.stdout and "calibration" in done.stdout
