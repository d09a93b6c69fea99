"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps dstl functions by module and attribute name
and counts work units from their arguments.  Resolving the names and
running a tiny traced fit here makes a rename, a deletion or a signature
change fail the test suite, not only a traced benchmark run.  The tests
only read ``perfbench/``.  The last test pins which eigen step ``svt``
takes at the benchmark's shapes, which no span separates.
"""

import importlib
from pathlib import Path

import numpy as np
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


SKIPPED_BLOCKS = {"full": "", "no_S": "S", "matrix_nuclear": "", "no_Y": "CY"}


@pytest.mark.parametrize("variant", dstl.VARIANTS)
def test_every_block_step_is_traced(spans, variant):
    # each variant's sweep runs its blocks through the traced names, the
    # matrix_nuclear H step included; both spectral penalties threshold
    # through svt, so thin_svd is left to Procrustes, unwrapped
    ds = dstl.generate_synthetic(dstl.SynthSpec(n=31, c=3, m=2, dims=(6, 5), seed=0))
    hp = dstl.Hyperparams(k=3, epsilon=1e-300, max_iter=3, variant=variant)
    with spans.installed(spans.Recorder()) as rec:
        dstl.fit_variant(ds, hp)
    summary = spans.summarize(rec.spans)
    for block in "WCSHY":
        want = 0 if block in SKIPPED_BLOCKS[variant] else 3
        assert summary[f"solver.update_{block}"]["calls"] == want, block
    assert summary["solver.variant_objective"]["calls"] == 3
    assert summary["linalg.thin_svd"]["calls"] == 0


@pytest.mark.parametrize("m, k, variant, calls", [
    (3, 5, "full", 0), (5, 10, "full", 3), (5, 10, "matrix_nuclear", 3),
    (3, 3, "matrix_nuclear", 0)])
def test_svt_eigen_step_follows_the_gram_width(monkeypatch, m, k, variant, calls):
    # svt's eigen step at the benchmark's shapes: the k5 m3 Fourier slices
    # (301 matrices of 5 x 3) take the closed form and call no eigh; the k10
    # m5 slices (5 columns) and the k x k QR factors of the k10 views make
    # one batched eigh per sweep; the 3 x 3 factors of the k3 views take the
    # closed form
    eigh = np.linalg.eigh
    shapes = []
    monkeypatch.setattr(np.linalg, "eigh", lambda g: shapes.append(g.shape) or eigh(g))
    ds = dstl.generate_synthetic(
        dstl.SynthSpec(n=600, c=k, m=m, dims=(40, 35, 30, 25, 20)[:m], seed=0))
    hp = dstl.Hyperparams(lambda1=5.0, lambda2=0.01, epsilon=1e-300, max_iter=3,
                          variant=variant)
    dstl.fit_variant(ds, hp)
    assert len(shapes) == calls, shapes
