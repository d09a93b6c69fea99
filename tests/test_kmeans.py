import importlib
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
import dstl.cli as cli
from dstl.kmeans import (KMeansConfig, _assign, _assign_points, _centroid_sums, _cdf,
                         _column_sq_dist, _distinct, _draw, _lloyd, kmeans, kmeans_repeats)
from dstl.metrics import accuracy

from conftest import (assign_oracle, centroid_sums_oracle, cn_product, kmeans_oracle,
                      random_column_stochastic)


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
    x = rng.standard_normal((3, 60))
    centers = x[:, :5].T.copy()
    _, _, history = _lloyd(x, *_distinct(x), centers, 5)
    assert len(history) >= 1
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= 1e-9)


def test_lloyd_repairs_empty_clusters():
    # identical starting centers force c-1 empty clusters on the first pass
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 30)) * 3
    centers = np.repeat(x[:, :1].T, 3, axis=0)
    labels, inertia, _ = _lloyd(x, *_distinct(x), centers, 3)
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
    for bad in ({"c": 2.5}, {"c": 3, "restarts": 2.5}, {"c": 3, "seed": 1.5},
                {"c": True}):
        with pytest.raises(InputError, match="must be an integer"):
            KMeansConfig(**bad)
    cfg = KMeansConfig(c=np.int64(2), restarts=np.int32(2), seed=np.uint16(1))
    assert kmeans(np.arange(6.0)[None], cfg)[0].size == 6


def test_kmeans_repeats_rejects_a_repeat_count_that_is_not_a_positive_integer():
    x = np.arange(6.0)[None]
    cfg = KMeansConfig(c=2)
    for bad, message in ((0, "repeats must be >= 1, got 0"),
                         (-3, "repeats must be >= 1, got -3"),
                         (2.0, "repeats must be an integer, got 2.0"),
                         (True, "repeats must be an integer, got True"),
                         ("2", "repeats must be an integer, got '2'")):
        with pytest.raises(InputError) as exc:
            kmeans_repeats(x, cfg, bad)
        assert str(exc.value) == message
    assert len(kmeans_repeats(x, cfg, np.int32(2))) == 2


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
    cols = np.ascontiguousarray(x.T)
    labels, point_d2 = _assign(cols, centers)
    want_labels, d2 = assign_oracle(cols, centers)
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
    sums = _centroid_sums(cols, some_labels, c)
    assert np.array_equal(sums, centroid_sums_oracle(x, some_labels, c))


@pytest.mark.parametrize("d", [1, 5, 7, 8, 9, 16, 50])
@pytest.mark.parametrize("n", [1, 2, 300])
def test_assignment_and_seeding_sum_one_distance(d, n):
    # the distance _assign returns is the one k-means++ seeding weighs,
    # bit for bit, on either side of numpy's 8-way pairwise unroll
    rng = np.random.default_rng(d * 1000 + n)
    cols = rng.standard_normal((d, n)) * 10.0 ** rng.integers(-3, 4, size=(d, 1))
    centers = rng.standard_normal((min(n, 4), d))
    labels, point_d2 = _assign(cols, centers)
    for j in range(len(centers)):
        at = labels == j
        assert np.array_equal(point_d2[at], _column_sq_dist(cols, centers[j])[at])


@settings(max_examples=300, deadline=None)
@given(
    c=hst.integers(1, 12),
    n=hst.integers(1, 120),
    d=hst.integers(1, 60),
    distinct=hst.integers(1, 40),
    scale_exp=hst.sampled_from([-160, -100, -3, 0, 3, 100]),
    centers_kind=hst.sampled_from(["points", "random", "repeated"]),
    seed=hst.integers(0, 2**32 - 1),
)
# one distinct column, which numpy sums pairwise, far from every center
@example(c=1, n=5, d=30, distinct=1, scale_exp=0, centers_kind="random", seed=0)
# repeated centers tie on every point
@example(c=7, n=80, d=42, distinct=3, scale_exp=-3, centers_kind="repeated", seed=1)
@example(c=3, n=3, d=8, distinct=1, scale_exp=-3, centers_kind="repeated", seed=2)
# scores near the subnormal range
@example(c=4, n=60, d=20, distinct=6, scale_exp=-160, centers_kind="points", seed=3)
def test_assign_on_the_distinct_columns_matches_assign_over_all_points(c, n, d, distinct,
                                                                     scale_exp, centers_kind,
                                                                     seed):
    # bit for bit, whether the tie bound lets the distinct columns decide
    # or sends the step over all n columns
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((d, distinct)) * 10.0 ** scale_exp
    cols = np.ascontiguousarray(base[:, rng.integers(distinct, size=n)])
    if centers_kind == "points":
        centers = cols[:, rng.integers(n, size=c)].T.copy()
    elif centers_kind == "random":
        centers = rng.standard_normal((c, d)) * 10.0 ** scale_exp
    else:
        centers = np.repeat(cols[:, rng.integers(n, size=1)].T, c, axis=0)
    uniq, inverse = _distinct(cols)
    norms = np.sqrt((uniq * uniq).sum(axis=0))
    labels, point_d2 = _assign_points(cols, uniq, inverse, norms, centers)
    want_labels, want_d2 = _assign(cols, centers)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(point_d2, want_d2)


def _kmeans_input(rng, n, d, distinct, scale_exp, kind):
    """A (d, n) k-means input.  "drawn": n points drawn from `distinct`
    columns, so fewer distinct points than clusters forces empty clusters
    and the reseeding path; "signed_zeros" draws them with +0.0 and -0.0
    twins of a column, which k-means keeps apart as distinct bytes;
    "one_hot" puts all but about 1% of the columns on the vertices of the
    simplex, as the Y step does."""
    if kind == "one_hot":
        x = np.eye(d)[:, rng.integers(d, size=n)]
        off = rng.choice(n, size=max(1, n // 100), replace=False)
        x[:, off] = random_column_stochastic(rng, d, off.size)
        return x * 10.0 ** scale_exp
    base = rng.standard_normal((d, min(distinct, n))) * 10.0 ** scale_exp
    if kind == "signed_zeros":
        base[rng.random(base.shape) < 0.5] = 0.0
    x = base[:, rng.integers(base.shape[1], size=n)]
    if kind == "signed_zeros":
        x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    return x


@settings(max_examples=300, deadline=None)
@given(
    c=hst.integers(1, 12),
    extra=hst.integers(0, 80),
    d=hst.integers(1, 60),
    distinct=hst.integers(1, 92),
    scale_exp=hst.sampled_from([-100, -3, 0, 3, 100]),
    kind=hst.sampled_from(["drawn", "one_hot", "signed_zeros"]),
    seed=hst.integers(0, 2**32 - 1),
)
@example(c=12, extra=0, d=60, distinct=1, scale_exp=0, kind="drawn", seed=0)
@example(c=6, extra=40, d=3, distinct=4, scale_exp=100, kind="drawn", seed=1)
@example(c=5, extra=80, d=5, distinct=92, scale_exp=-100, kind="drawn", seed=2)
@example(c=10, extra=60, d=50, distinct=92, scale_exp=0, kind="drawn", seed=3)
# a fit's Y at the fit_ref shape: 99% of the 8000 columns are vertices
@example(c=5, extra=7995, d=5, distinct=1, scale_exp=0, kind="one_hot", seed=4)
@example(c=4, extra=60, d=3, distinct=5, scale_exp=0, kind="signed_zeros", seed=5)
# where the (c, u) product rounds apart from the (c, n) one (gemv at u = 1,
# a column's place in the GEMM at d >= 16) and ties must go to all n points
@example(c=3, extra=0, d=8, distinct=1, scale_exp=-3, kind="drawn", seed=1)
@example(c=7, extra=78, d=42, distinct=3, scale_exp=-3, kind="drawn", seed=2898498908)
def test_kmeans_matches_the_oracle_bit_for_bit(c, extra, d, distinct, scale_exp, kind, seed):
    # the oracle runs every step over all n points and takes its score
    # from the same (c, n) product, because at d >= 16 and small n the two
    # GEMM layouts can round apart, and a tie under rounding then goes
    # another way
    x = _kmeans_input(np.random.default_rng(seed), c + extra, d, distinct, scale_exp, kind)
    labels, inertia = kmeans(x, KMeansConfig(c=c, restarts=3, seed=seed))
    want_labels, want_inertia = kmeans_oracle(x, c, restarts=3, seed=seed, product=cn_product)
    assert np.array_equal(labels, want_labels)
    assert inertia.hex() == want_inertia.hex()


@pytest.mark.parametrize("d, n, c, seeds", [(5, 8000, 5, (0, 1, 2)), (10, 4000, 10, (0,)),
                                            (50, 4000, 10, (0,))])
def test_kmeans_matches_the_nc_gemm_oracle_at_the_benchmark_shapes(d, n, c, seeds):
    # the shapes of the Y, full-variant and 50-row no_Y k-means calls,
    # where the (c, n) score rounds as the (n, c) one did
    rng = np.random.default_rng(d)
    if d == c:
        x = random_column_stochastic(rng, c, n)
    else:
        x = rng.standard_normal((d, c)) @ random_column_stochastic(rng, c, n)
        x += 0.5 * rng.standard_normal((d, n))
    for seed in seeds:
        labels, inertia = kmeans(x, KMeansConfig(c=c, seed=seed))
        want_labels, want_inertia = kmeans_oracle(x, c, seed=seed)
        assert np.array_equal(labels, want_labels)
        assert inertia.hex() == want_inertia.hex()


@settings(max_examples=200, deadline=None)
@given(
    n=hst.integers(1, 400),
    zero_frac=hst.floats(0.0, 1.0),
    power=hst.integers(0, 8),
    seed=hst.integers(0, 2**32 - 1),
)
@example(n=1, zero_frac=0.0, power=0, seed=0)
@example(n=300, zero_frac=0.99, power=0, seed=1)
@example(n=50, zero_frac=0.5, power=8, seed=2)
def test_seeding_draw_is_generator_choice_draw_for_draw(n, zero_frac, power, seed):
    # squared distances as k-means++ weighs them, with zero weights where
    # points coincide with a chosen center
    rng = np.random.default_rng(seed)
    w = rng.random(n) ** power
    w[rng.random(n) < zero_frac] = 0.0
    w[rng.integers(n)] = 1.0
    p = w / w.sum()
    cdf = _cdf(w)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        idx = _draw(cdf, n, ours)
        assert idx == theirs.choice(n, p=p)
        assert p[idx] > 0
    assert ours.random() == theirs.random()  # both streams used one draw each


@settings(max_examples=150, deadline=None)
@given(
    c=hst.integers(1, 8),
    extra=hst.integers(0, 60),
    d=hst.integers(1, 20),
    distinct=hst.integers(1, 30),
    repeats=hst.integers(1, 4),
    restarts=hst.integers(1, 4),
    kind=hst.sampled_from(["drawn", "one_hot", "signed_zeros"]),
    seed=hst.integers(0, 2**31),
)
# fewer distinct columns than clusters: once every column is chosen the
# weights sum to 0, and those draws take rng.integers(n)
@example(c=6, extra=30, d=4, distinct=2, repeats=3, restarts=4, kind="drawn", seed=0)
@example(c=8, extra=40, d=3, distinct=3, repeats=2, restarts=3, kind="signed_zeros", seed=1)
# a Y-like input where restarts share chosen sets at every depth
@example(c=5, extra=395, d=5, distinct=1, repeats=4, restarts=4, kind="one_hot", seed=2)
def test_kmeans_repeats_equal_one_kmeans_call_per_seed(c, extra, d, distinct, repeats,
                                                       restarts, kind, seed):
    # breadth-first seeding over all repeats draws, per seed, the centers
    # that a call for that seed alone draws, and keeps the same restart
    x = _kmeans_input(np.random.default_rng(seed), c + extra, d, distinct, 0, kind)
    runs = kmeans_repeats(x, KMeansConfig(c=c, restarts=restarts, seed=seed), repeats)
    assert len(runs) == repeats
    for r, (labels, inertia) in enumerate(runs):
        alone = kmeans(x, KMeansConfig(c=c, restarts=restarts, seed=seed + r))
        want_labels, want_inertia = kmeans_oracle(x, c, restarts=restarts, seed=seed + r,
                                                  product=cn_product)
        assert np.array_equal(labels, alone[0]) and inertia.hex() == alone[1].hex()
        assert np.array_equal(labels, want_labels) and inertia.hex() == want_inertia.hex()


def test_fit_finds_the_distinct_columns_once_for_all_repeats(tmp_path, monkeypatch):
    # dstl.kmeans, the package attribute, is the function; this is the module
    kmeans_module = importlib.import_module("dstl.kmeans")
    distinct = kmeans_module._distinct
    calls = []

    def counted(cols):
        calls.append(cols.shape)
        return distinct(cols)

    monkeypatch.setattr(kmeans_module, "_distinct", counted)
    manifest = dstl.write_dataset(
        dstl.generate_synthetic(dstl.SynthSpec(n=60, c=3, m=2, dims=(4, 3), seed=0)),
        tmp_path / "data")
    assert cli.main(["fit", "--data", str(manifest), "--out", str(tmp_path / "run"),
                     "--max-iter", "3", "--repeats", "10"]) == 0
    assert calls == [(3, 60)]


_WIDE_KMEANS = """
import hashlib
import numpy as np
from dstl.kmeans import KMeansConfig, kmeans
rng = np.random.default_rng(20)
means = rng.standard_normal((50, 10)) * 0.5
x = means[:, rng.integers(10, size=4000)] + rng.standard_normal((50, 4000))
labels, inertia = kmeans(x, KMeansConfig(c=10, seed=3))
print(hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest(), inertia.hex())
base = rng.gamma(1.0, size=(10, 100))
base /= base.sum(axis=0)
labels, inertia = kmeans(base[:, rng.integers(100, size=4000)], KMeansConfig(c=10, seed=3))
print(hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest(), inertia.hex())
"""


def test_kmeans_does_not_depend_on_blas_threads():
    # the GEMM score at the 50-row width of the no_Y embedding, and the
    # small (c, u) one of 4000 points on 100 distinct columns, under one
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
