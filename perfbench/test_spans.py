"""Tests of the span recorder: self-time arithmetic, wrapping and restoring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

import spans

SRC = Path(__file__).resolve().parent.parent / "src"


def _span(sid, parent, name, start, end, work=0):
    return [sid, parent, name, start, end, work]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 4.0),
        _span(2, 1, "leaf", 2.0, 3.0),
        _span(3, 0, "b", 5.0, 9.0),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, -1, "root", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 5.0),
        _span(2, 0, "b", 3.0, 7.0),
        _span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summarize_aggregates_by_name_and_lists_absent_spans():
    tree = [
        _span(0, -1, "solver.fit_variant", 0.0, 0.010),
        _span(1, 0, "slimtensor.tubal_shrinkage", 0.001, 0.004, work=7),
        _span(2, 0, "slimtensor.tubal_shrinkage", 0.005, 0.006, work=7),
    ]
    out = spans.summarize(tree)
    assert set(spans.SPAN_NAMES) <= set(out)
    tubal = out["slimtensor.tubal_shrinkage"]
    assert tubal["calls"] == 2 and tubal["work"] == 14
    assert tubal["ms"] == pytest.approx(4.0)
    assert out["solver.fit_variant"]["self_ms"] == pytest.approx(6.0)
    assert out["data.load_dataset"] == {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0}
    assert spans.top_level_ms(tree) == pytest.approx(10.0)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_installed_records_nesting_and_restores(fake_module):
    targets = (spans.Target("t.outer", "perfbench_fake", "outer"),
               spans.Target("t.inner", "perfbench_fake", "inner", lambda x: x))
    originals = (fake_module.outer, fake_module.inner)
    rec = spans.Recorder()
    with spans.installed(rec, targets):
        assert fake_module.outer(3) == 8
    assert (fake_module.outer, fake_module.inner) == originals
    (outer, inner) = rec.spans
    assert outer[1] == -1 and inner[1] == outer[0]
    assert inner[2] == "t.inner" and inner[5] == 3


def test_installed_restores_after_an_exception(fake_module):
    targets = (spans.Target("t.inner", "perfbench_fake", "inner"),)
    original = fake_module.inner
    with pytest.raises(ZeroDivisionError):
        with spans.installed(spans.Recorder(), targets):
            1 / 0
    assert fake_module.inner is original


def test_missing_name_fails_by_name_and_wraps_nothing(fake_module):
    targets = (spans.Target("t.inner", "perfbench_fake", "inner"),
               spans.Target("t.gone", "perfbench_fake", "stack_rotate"),
               spans.Target("t.nomod", "perfbench_missing_module", "fit"))
    original = fake_module.inner
    with pytest.raises(spans.TraceSetupError,
                       match="perfbench_fake.stack_rotate, perfbench_missing_module.fit"):
        with spans.installed(spans.Recorder(), targets):
            pass
    assert fake_module.inner is original


def test_every_target_resolves_in_the_sources(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    assert len(spans.resolve()) == len(spans.TARGETS)
