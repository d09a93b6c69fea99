"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps dstl functions by module and attribute name
and counts work units from their arguments.  Resolving the names and
running a tiny traced fit here makes a rename, a deletion or a signature
change fail the test suite, not only a traced benchmark run.  The tests
only read ``perfbench/``.
"""

import importlib
from pathlib import Path

import pytest

import dstl

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def test_benchmark_span_targets_resolve(spans):
    resolved = spans.resolve()
    assert len(resolved) == len(spans.TARGETS)


def test_benchmark_work_counters(spans):
    ds = dstl.generate_synthetic(dstl.SynthSpec(n=31, c=3, m=2, dims=(6, 5), seed=0))
    cfg = dstl.KMeansConfig(c=3, restarts=4)
    with spans.installed(spans.Recorder()) as rec:
        st, trace = dstl.fit_variant(ds, dstl.Hyperparams(k=3, epsilon=1e-300, max_iter=3))
        dstl.kmeans(st.Y, cfg)
    summary = spans.summarize(rec.spans)
    # one batched SVD per sweep: the objective reuses the H step's spectrum
    tubal = summary["slimtensor.tubal_shrinkage"]
    assert tubal["calls"] == len(trace) == 3
    assert tubal["work"] == tubal["calls"] * (31 // 2 + 1)
    assert summary["slimtensor.tensor_nuclear_norm"]["calls"] == 0
    # the state is stacked views-first, so no sweep restacks or unstacks H
    assert summary["slimtensor.restack"]["calls"] == 0
    assert summary["kmeans.kmeans"]["calls"] == 1
    assert summary["kmeans.kmeans"]["work"] == cfg.restarts


def test_matrix_nuclear_h_step_makes_no_thin_svd_call(spans):
    # both H steps threshold through svt; thin_svd is left to the objective's
    # fallback and, unwrapped, to Procrustes
    ds = dstl.generate_synthetic(dstl.SynthSpec(n=31, c=3, m=2, dims=(6, 5), seed=0))
    hp = dstl.Hyperparams(k=3, epsilon=1e-300, max_iter=3, variant="matrix_nuclear")
    with spans.installed(spans.Recorder()) as rec:
        dstl.fit_variant(ds, hp)
    summary = spans.summarize(rec.spans)
    assert summary["solver.update_W"]["calls"] == 3
    assert summary["linalg.thin_svd"]["calls"] == 0
