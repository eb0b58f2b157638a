"""Spans around the calls into each layer of ``splitmin``, recorded from outside.

A ``Tracer`` replaces public functions and methods with wrappers that record
one span per call: name, start, end, parent span and an optional work count.
A function is replaced under every name a ``splitmin`` module holds it by
(``stepping`` imports ``build_directional`` by name, for example), so the
program's own code is left untouched.  Spans stay in memory; ``dump`` writes
them out once the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _points(args, kwargs, result):
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    return int(getattr(xs, "size", 1))


def _fill(args, kwargs, result):
    return int(result.L.nnz + result.U.nnz)


def _bytes(args, kwargs, result):
    base = Path(args[4] if len(args) > 4 else kwargs["path_base"])
    return sum(base.with_suffix(s).stat().st_size for s in (".vtk", ".csv"))


# (span name, defining module, attribute path, work count of one call)
LAYERS = [
    ("splines.eval_matrix", "splitmin.splines", "eval_matrix", _points),
    ("assembly.assemble", "splitmin.assembly", "mass", None),
    ("assembly.assemble", "splitmin.assembly", "stiffness", None),
    ("assembly.assemble", "splitmin.assembly", "advection", None),
    ("banded.apply", "splitmin.banded", "BandedMatrix.apply", None),
    ("kron.kron_matvec", "splitmin.kron", "kron_matvec", None),
    ("kron.solve", "splitmin.kron", "BandedLU.solve", None),
    ("kron.factor", "splitmin.kron", "BandedLU.__init__", None),
    ("resmin.build_directional", "splitmin.resmin", "build_directional", None),
    ("resmin.load", "splitmin.resmin", "LoadAssembler.load", None),
    ("resmin.substep", "splitmin.resmin", "substep", None),
    ("resmin.residual_norms", "splitmin.resmin", "residual_norms", None),
    ("stepping.step", "splitmin.stepping", "Stepper.step", None),
    ("stepping.project_initial", "splitmin.stepping", "project_initial", None),
    ("full2d.assemble_2d_saddle", "splitmin.full2d", "assemble_2d_saddle", None),
    ("full2d.factor", "splitmin.full2d", "splu", _fill),
    ("full2d.solve", "splitmin.full2d", "_SparseFactor.solve", None),
    ("reporting.errors", "splitmin.reporting", "ErrorEvaluator.errors", None),
    ("reporting.export_field", "splitmin.reporting", "export_field", _bytes),
    ("reporting.run", "splitmin.reporting", "run", None),
]

# the work counts some spans carry: metric suffix and unit
COUNT_METRICS = {"splines.eval_matrix": ("points", "count"),
                 "full2d.factor": ("fill_nnz", "count"),
                 "reporting.export_field": ("bytes", "B")}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent, count]
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        self.missing = []        # layer entry points the program lacks

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer entry point; a name the program no longer has is reported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "splitmin" or n.startswith("splitmin.")]
        for name, module_name, path, count in LAYERS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                print(f"trace: {module_name}.{path} not found; "
                      f"{name} is not traced", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, count)
            owners = [owner] if outer else [m for m in modules
                                           if getattr(m, attr, None) is original]
            for holder in owners:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def layer_totals(self, first: int = 0) -> dict:
        """Calls, self time (ms) and work count per span name, from span ``first`` on.

        A name with no spans reads as zeros.
        """
        spans = self.spans[first:]
        child_ns = [0] * len(spans)
        for span in spans:
            parent = span[3] - first
            if parent >= 0:
                child_ns[parent] += span[2] - span[1]
        totals = defaultdict(lambda: {"calls": 0, "ms": 0.0, "total_ms": 0.0,
                                      "count": 0})
        for span, children in zip(spans, child_ns):
            entry = totals[span[0]]
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["ms"] += (duration - children) / 1e6
            entry["total_ms"] += duration / 1e6
            entry["count"] += span[4]
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                               "parent", "count"],
                                    "spans": self.spans}))
