"""The benchmark tracer finds every layer entry point it wraps.

perfbench/spans.py wraps program functions by name; a renamed or deleted
layer would only print a warning during a traced benchmark run.  This test
installs the tracer on the imported package and requires that nothing is
missing.
"""

import sys
from pathlib import Path

import splitmin  # noqa: F401  (the tracer wraps the loaded splitmin modules)

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_spans():
    sys.path.insert(0, str(_PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(_PERFBENCH))
    return spans


def test_tracer_finds_every_layer():
    spans = _import_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
