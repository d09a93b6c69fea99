"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps dstl functions by module and attribute name.
Resolving them here makes a rename or deletion fail the test suite, not
only a traced benchmark run.  The test only reads ``perfbench/``.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_span_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    resolved = spans.resolve()
    assert len(resolved) == len(spans.TARGETS)
