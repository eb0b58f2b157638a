"""Benchmark entry point: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each invocation is a fresh process.  It pins BLAS and OpenMP to one thread and
puts the checkout's ``src`` on the import path before numpy or ``splitmin`` is
imported, then runs ``bench.main``.  Exits non-zero, printing no result, when
the program's sources are missing.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# OpenBLAS and OpenMP read these once, when numpy loads its libraries
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(SRC))

if __name__ == "__main__":
    if not (SRC / "splitmin" / "__init__.py").is_file():
        print(f"run.py: no splitmin sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    import bench
    sys.exit(bench.main())
