"""In-memory spans around dstl's public functions, and their self time.

A traced run replaces each name in ``TARGETS`` with a wrapper in the
module namespace where the program looks it up (``dstl.cli`` for the
command-line path, ``dstl.solver`` for the block steps, the ``dstl``
package for the library calls the solve_large worker makes).  Every call
then appends one span ``[id, parent, name, start, end, work]`` to a list
kept in memory; the list is written out once, after the operation.

``installed`` checks that every target resolves before it wraps any of
them, so a name a later change removes fails the traced run by name
instead of showing up as a zero span, and it puts the originals back on
exit, even after an exception.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

_MARK = "__perfbench_span__"


def _fourier_slices(t, *_args, **_kwargs) -> int:
    """Slices one batched SVD decomposes: n//2 + 1 of a k x m x n tensor."""
    return t.data.shape[2] // 2 + 1


def _kmeans_restarts(_points, cfg, *_args, **_kwargs) -> int:
    return cfg.restarts


@dataclass(frozen=True)
class Target:
    """One wrapped name; ``work`` counts exact work units from a call's arguments."""

    span: str
    module: str
    attr: str
    work: Callable[..., int] | None = None

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("cli.main", "dstl.cli", "main"),
    Target("data.load_dataset", "dstl.cli", "load_dataset"),
    Target("data.write_matrix_csv", "dstl.cli", "write_matrix_csv"),
    Target("solver.fit_variant", "dstl.cli", "fit_variant"),
    Target("solver.fit_variant", "dstl", "fit_variant"),
    Target("solver.update_W", "dstl.solver", "update_W"),
    Target("solver.update_C", "dstl.solver", "update_C"),
    Target("solver.update_S", "dstl.solver", "update_S"),
    Target("solver.update_H", "dstl.solver", "update_H"),
    Target("solver.update_Y", "dstl.solver", "update_Y"),
    Target("solver.variant_objective", "dstl.solver", "variant_objective"),
    Target("slimtensor.tubal_shrinkage", "dstl.solver", "tubal_shrinkage", _fourier_slices),
    Target("slimtensor.tensor_nuclear_norm", "dstl.solver", "tensor_nuclear_norm",
           _fourier_slices),
    Target("slimtensor.restack", "dstl.solver", "stack_rotate"),
    Target("slimtensor.restack", "dstl.solver", "unstack"),
    Target("linalg.procrustes_max_trace", "dstl.solver", "procrustes_max_trace"),
    Target("linalg.thin_svd", "dstl.solver", "thin_svd"),
    Target("linalg.soft_threshold", "dstl.solver", "soft_threshold"),
    Target("simplex.project_columns", "dstl.solver", "project_columns"),
    Target("kmeans.kmeans", "dstl.cli", "kmeans", _kmeans_restarts),
    Target("kmeans.kmeans", "dstl", "kmeans", _kmeans_restarts),
)

SPAN_NAMES = tuple(dict.fromkeys(t.span for t in TARGETS))


class TraceSetupError(RuntimeError):
    """A traced name is missing, or wrappers were not removed."""


class Recorder:
    """Collects spans of one process; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = target.work(*args, **kwargs) if target.work is not None else 0
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [sid, parent, target.span, 0.0, 0.0, work]
            self.spans.append(span)
            self._stack.append(sid)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        setattr(traced, _MARK, target.span)
        return traced


def resolve(targets=TARGETS) -> list:
    """(module, original function) per target; raises naming every miss."""
    found, missing = [], []
    for t in targets:
        try:
            module = importlib.import_module(t.module)
        except ImportError:
            missing.append(t.qualname)
            continue
        fn = getattr(module, t.attr, None)
        if not callable(fn):
            missing.append(t.qualname)
        elif hasattr(fn, _MARK):
            raise TraceSetupError(f"{t.qualname} is already wrapped")
        else:
            found.append((module, fn))
    if missing:
        raise TraceSetupError("traced names do not resolve: " + ", ".join(missing))
    return found


@contextmanager
def installed(recorder: Recorder, targets=TARGETS) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore."""
    originals = resolve(targets)
    try:
        for t, (module, fn) in zip(targets, originals):
            setattr(module, t.attr, recorder.wrap(t, fn))
        yield recorder
    finally:
        for t, (module, fn) in zip(targets, originals):
            setattr(module, t.attr, fn)
    left = [t.qualname for t, (module, _) in zip(targets, originals)
            if hasattr(getattr(module, t.attr), _MARK)]
    if left:
        raise TraceSetupError("wrappers left behind: " + ", ".join(left))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _name, start, end, _work in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _parent, _name, start, end, _work in spans
    ]


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """calls, inclusive ms, self ms and work per span name; every name in
    SPAN_NAMES is present, absent ones as zeros."""
    out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0} for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        _sid, _parent, name, start, end, work = span
        row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": 0})
        row["calls"] += 1
        row["ms"] += (end - start) * 1e3
        row["self_ms"] += own * 1e3
        row["work"] += work
    return out


def top_level_ms(spans: list) -> float:
    """Wall milliseconds covered by spans that have no parent."""
    roots = [(s[3], s[4]) for s in spans if s[1] < 0]
    if not roots:
        return 0.0
    return _covered(roots, min(r[0] for r in roots), max(r[1] for r in roots)) * 1e3
