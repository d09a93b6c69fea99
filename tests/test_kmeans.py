import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import dstl
from dstl.errors import InputError, NumericError
from dstl.kmeans import KMeansConfig, _assign, _centroid_sums, _lloyd, kmeans
from dstl.metrics import accuracy

from conftest import assign_oracle, centroid_sums_oracle


def blobs(rng, c, per, d=2, spread=10.0):
    centers = rng.standard_normal((c, d)) * spread
    points = np.concatenate(
        [centers[i] + 0.1 * rng.standard_normal((per, d)) for i in range(c)]
    )
    labels = np.repeat(np.arange(c), per)
    return points.T, labels  # (d, n), columns are samples


def test_separated_blobs_recovered_exactly():
    rng = np.random.default_rng(0)
    x, truth = blobs(rng, c=3, per=40)
    pred, inertia = kmeans(x, KMeansConfig(c=3, seed=0))
    assert accuracy(pred, truth) == 1.0
    assert inertia > 0


def test_one_cluster_per_point():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6)) * 5
    pred, inertia = kmeans(x, KMeansConfig(c=6, seed=0))
    assert inertia <= 1e-20
    assert len(set(pred.tolist())) == 6


def test_single_cluster():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 20))
    pred, inertia = kmeans(x, KMeansConfig(c=1, seed=0))
    assert np.array_equal(pred, np.zeros(20, dtype=pred.dtype))
    mean = x.mean(axis=1, keepdims=True)
    want = float(((x - mean) ** 2).sum())
    assert abs(inertia - want) <= 1e-9 * (1.0 + want)


def test_deterministic_per_seed():
    rng = np.random.default_rng(3)
    x, _ = blobs(rng, c=4, per=25)
    a = kmeans(x, KMeansConfig(c=4, seed=7))
    b = kmeans(x, KMeansConfig(c=4, seed=7))
    assert np.array_equal(a[0], b[0])
    assert a[1] == b[1]


def test_lloyd_inertia_history_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((60, 3))
    centers = x[:5].copy()
    _, _, history = _lloyd(x, centers, KMeansConfig(c=5, seed=0))
    assert len(history) >= 1
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= 1e-9)


def test_lloyd_repairs_empty_clusters():
    # identical starting centers force c-1 empty clusters on the first pass
    rng = np.random.default_rng(5)
    x = rng.standard_normal((30, 2)) * 3
    centers = np.repeat(x[:1], 3, axis=0).copy()
    labels, inertia, _ = _lloyd(x, centers, KMeansConfig(c=3, seed=0))
    assert np.bincount(labels, minlength=3).min() >= 1
    assert np.isfinite(inertia)


def test_restart_count_matters_only_through_quality():
    rng = np.random.default_rng(6)
    x, _ = blobs(rng, c=5, per=30)
    _, one = kmeans(x, KMeansConfig(c=5, restarts=1, seed=0))
    _, many = kmeans(x, KMeansConfig(c=5, restarts=10, seed=0))
    assert many <= one + 1e-12


def test_rejects_bad_input():
    with pytest.raises(InputError):
        kmeans(np.zeros((2, 3)), KMeansConfig(c=4))
    with pytest.raises(InputError):
        kmeans(np.array([1.0, 2.0]), KMeansConfig(c=1))
    with pytest.raises(InputError):
        kmeans(np.array([[np.nan, 1.0]]), KMeansConfig(c=1))
    with pytest.raises(InputError):
        KMeansConfig(c=0)
    with pytest.raises(InputError):
        KMeansConfig(c=2, restarts=0)
    with pytest.raises(InputError):
        KMeansConfig(c=2, seed=-1)


def test_overflowing_distances_are_a_numeric_failure():
    # finite points whose squared distances overflow float64
    x = np.random.default_rng(7).standard_normal((4, 200)) * 1e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflow"):
            kmeans(x, KMeansConfig(c=3))


def test_duplicate_points_return_fewer_clusters():
    # two distinct points cannot fill three clusters; that is no error
    x = np.array([[0.0] * 5 + [1.0] * 5])
    labels, inertia = kmeans(x, KMeansConfig(c=3, seed=0))
    assert np.unique(labels).size == 2
    assert len(set(labels[:5].tolist())) == 1 and len(set(labels[5:].tolist())) == 1
    assert inertia == 0.0


@settings(max_examples=300, deadline=None)
@given(
    c=hst.integers(1, 12),
    extra=hst.integers(0, 80),
    d=hst.integers(1, 60),
    scale_exp=hst.integers(-100, 100),
    centers_kind=hst.sampled_from(["points", "random", "repeated"]),
    seed=hst.integers(0, 2**32 - 1),
)
@example(c=1, extra=0, d=1, scale_exp=0, centers_kind="points", seed=0)
@example(c=12, extra=80, d=60, scale_exp=100, centers_kind="random", seed=1)
@example(c=5, extra=3, d=8, scale_exp=-100, centers_kind="points", seed=2)
@example(c=4, extra=20, d=9, scale_exp=0, centers_kind="repeated", seed=3)
def test_assign_and_centroid_sums_match_the_broadcast_oracles(c, extra, d, scale_exp,
                                                              centers_kind, seed):
    rng = np.random.default_rng(seed)
    n = c + extra
    scale = 10.0 ** scale_exp
    x = rng.standard_normal((n, d)) * scale
    if centers_kind == "points":  # what k-means++ seeding hands over
        centers = x[rng.choice(n, size=c, replace=False)].copy()
    elif centers_kind == "random":
        centers = rng.standard_normal((c, d)) * scale
    else:  # duplicate centers tie on every point
        centers = x[rng.integers(n, size=c)].copy()
    labels, point_d2 = _assign(x, centers)
    want_labels, d2 = assign_oracle(x, centers)
    rows = np.arange(n)
    # the returned distance is the exact one at the returned label, ...
    assert np.array_equal(point_d2, d2[rows, labels])
    # ... it is the minimum up to the GEMM score's rounding, ...
    assert np.all(point_d2 <= d2.min(axis=1) * (1.0 + 1e-12))
    # ... and the label is the oracle's wherever the best two are apart
    if c > 1:
        best_two = np.sort(d2, axis=1)[:, :2]
        clear = best_two[:, 1] - best_two[:, 0] > 1e-9 * best_two[:, 1]
        assert np.array_equal(labels[clear], want_labels[clear])
    # centroid sums accumulate in the order np.add.at uses, bit for bit
    some_labels = rng.integers(c, size=n)
    sums = _centroid_sums(np.ascontiguousarray(x.T), some_labels, c)
    assert np.array_equal(sums, centroid_sums_oracle(x, some_labels, c))


_WIDE_KMEANS = """
import hashlib
import numpy as np
from dstl.kmeans import KMeansConfig, kmeans
rng = np.random.default_rng(20)
means = rng.standard_normal((50, 10)) * 0.5
x = means[:, rng.integers(10, size=4000)] + rng.standard_normal((50, 4000))
labels, inertia = kmeans(x, KMeansConfig(c=10, seed=3))
print(hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest(), inertia.hex())
"""


def test_kmeans_does_not_depend_on_blas_threads():
    # the GEMM score at the 50-row width of the no_Y embedding, under one
    # and two BLAS threads
    src = str(Path(dstl.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _WIDE_KMEANS],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
