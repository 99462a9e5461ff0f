"""The names the benchmark harness imports and traces still exist.

``perfbench`` reaches into the package by name: ``pipeline`` imports
public functions, and ``tracing.Tracer`` patches functions where their
callers look them up.  A renamed function only shows there as a
missing span, so this checks the names without running the benchmark.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_imports_and_patches_resolve(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    for name in ("pipeline", "tracing", "cpuspeed", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import pipeline  # noqa: F401
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
