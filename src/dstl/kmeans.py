"""Plain k-means with seeded k-means++ initialization and restarts.

Deterministic given the config seed: restarts draw independent child
generators from a SeedSequence, and the restart with the smallest inertia
(first such restart on ties) wins.  kmeans_repeats clusters one matrix for
several seeds at once, and kmeans is its one-seed case; each seed's result
is that of a call for the seed alone, bit for bit.  Each restart runs at most
MAX_LLOYD_ITER = 300 Lloyd iterations and stops early once the labels
repeat, the inertia reaches zero, or the inertia falls by no more than
LLOYD_TOL = 1e-7 of its previous value.

Each call first finds the u distinct columns, bit for bit (+0.0 and -0.0
differ), with one sort of the points' bytes: `uniq` is their contiguous
(d, u) matrix, and the n-long `inverse` maps each point to its column.
What a point's value alone decides runs on `uniq`: the k-means++
distances, a Lloyd step's labels by the GEMM score ||c||^2 - 2 x.c (the
(c, u) product of the centers with `uniq`, reduced by c - 1 strict <
passes over its rows, so ties on that score go to the lowest centroid
index), the exact squared distance to the chosen centroid, and the
overflow guard's squared norms.  Every exact distance is the axis-0 sum
of the (d, u) difference, adding each point's d squared coordinates in
order.  One take through `inverse` expands a result to the n points
wherever index order matters: the seeding draw, the inertia sum, the
convergence test, the reseeding of empty clusters and the centroids,
per-cluster means summed point by point in index order.  BLAS can round
a score by the column's place in the product, so a Lloyd step whose best
two scores on some distinct column lie within the product's rounding
bound runs on all n columns (_assign_points), as does every step when
all n columns are distinct.  Labels and inertia are thus those of the
same steps run over all n points, bit for bit.
A seeding draw is Generator.choice(n, p=d2 / d2.sum()) minus its checks:
one rng.random() searched (side "right") in the cumulative sum divided by
its last entry, so a seed picks the same centers.

The input checks and the distinct columns are done once per call, for all
seeds.  The seeding of every restart of every seed then runs
breadth-first: each generator draws its first center, and at each later
depth the restarts are grouped by the set of distinct columns they have
chosen.  Their distances d2 are an elementwise minimum of exact per-column
distances, which the order of the set cannot change, so one group forms
one take, sum and cumulative sum over the n points, and each of its
restarts draws from that with its own generator, in the order of calls a
lone restart makes.  A fit's Y has few distinct columns, so its restarts
often share a set; where all columns differ, a group is mostly one
restart.  Lloyd iterations run per restart.

Points whose squared norms, times 4n, overflow float64 raise NumericError:
below that bound no score, distance or inertia can overflow.  Duplicate
points can leave fewer than c distinct labels; that is returned as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, check_integer, check_integers

__all__ = ["KMeansConfig", "kmeans", "kmeans_repeats"]

MAX_LLOYD_ITER = 300
LLOYD_TOL = 1e-7
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class KMeansConfig:
    c: int
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        check_integers(self, c=1, restarts=1, seed=0)


def _plusplus_init(uniq: np.ndarray, inverse: np.ndarray, c: int,
                   rngs: list[np.random.Generator]) -> list[np.ndarray]:
    """k-means++ seeding, one (c, d) set of centers per generator, on the n
    points inverse maps into the distinct columns of the (d, u) matrix uniq:
    each next center is drawn with probability proportional to the exact
    squared distance from the chosen set, the draw running over the n points
    in index order.

    The generators advance breadth-first, one center each per depth, and
    those whose chosen columns form the same set share one distance vector
    and one cumulative distribution per depth (see the module docstring)."""
    n = inverse.size
    picks = [[int(inverse[rng.integers(n)])] for rng in rngs]
    # chosen set -> squared distance of each distinct column to it
    d2 = {frozenset(p): _column_sq_dist(uniq, uniq[:, p[0]]) for p in picks}
    for _ in range(1, c):
        groups: dict[frozenset, list[int]] = {}
        for r, p in enumerate(picks):
            groups.setdefault(frozenset(p), []).append(r)
        grown = {}
        for key, members in groups.items():
            cdf = _cdf(d2[key].take(inverse))
            for r in members:
                j = int(inverse[_draw(cdf, n, rngs[r])])
                picks[r].append(j)
                new = key | {j}
                if new not in grown:
                    grown[new] = np.minimum(d2[key], _column_sq_dist(uniq, uniq[:, j]))
        d2 = grown
    return [np.ascontiguousarray(uniq[:, p].T) for p in picks]


def _cdf(weights: np.ndarray) -> np.ndarray | None:
    """The cumulative distribution Generator.choice(n, p=weights / total)
    searches, total the sum of the weights; None when that is zero."""
    total = weights.sum()
    if not total > 0:
        return None
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray | None, n: int, rng: np.random.Generator) -> int:
    """The index Generator.choice(n, p=weights / total) draws, by its
    arithmetic, with cdf = _cdf(weights): one rng.random() searched (side
    "right") in cdf; where cdf is None, rng.integers(n) instead."""
    if cdf is None:
        return int(rng.integers(n))
    return int(cdf.searchsorted(rng.random(), side="right"))


def _column_sq_dist(cols: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Exact squared distance from each column to one center, summed over
    the d rows so that every step is vectorized across the n columns."""
    diff = cols - center[:, None]
    diff *= diff
    return diff.sum(axis=0)


def _assign(cols: np.ndarray, centers: np.ndarray, gap: bool = False):
    """Nearest center per column of a (d, n) matrix, and the exact squared
    distance to it: ties on the GEMM score go to the lowest index.  With
    gap, also each column's second-lowest score minus its lowest (inf at
    c = 1)."""
    score = centers @ cols
    score *= -2.0
    score += (centers * centers).sum(axis=1)[:, None]
    labels = np.zeros(cols.shape[1], dtype=np.intp)
    best = score[0].copy() if gap else score[0]
    for j in range(1, len(centers)):
        np.putmask(labels, score[j] < best, j)
        np.minimum(best, score[j], out=best)
    diff = np.take(centers.T, labels, axis=1)
    np.subtract(cols, diff, out=diff)  # the difference overwrites the gathered copy
    diff *= diff
    if not gap:
        return labels, diff.sum(axis=0)
    score[labels, np.arange(labels.size)] = np.inf
    return labels, diff.sum(axis=0), score.min(axis=0) - best


def _assign_points(cols: np.ndarray, uniq: np.ndarray, inverse: np.ndarray,
                   norms: np.ndarray, centers: np.ndarray):
    """_assign(cols, centers), computed on the distinct columns whenever
    that gives the same result bit for bit; norms are the Euclidean norms
    of the distinct columns.

    A point's exact distance depends only on its value, but its GEMM score
    can also depend on its place: BLAS may round a column by its place in
    the product and by the product's width (OpenBLAS edge kernels at
    d >= 16, a matrix-vector product at u = 1).  Every order of the d
    multiply-adds lies within gamma_d |x| |c| of x.c (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, section 3.1), so a
    column x whose two lowest scores lie more than
    8 eps ((d + 2) |x| r + r^2) apart, r the largest center norm, takes
    the same label from any GEMM; the subnormal term covers underflow.  If
    some column is that close, or uniq is the single column numpy would
    sum pairwise (it sums two or more row by row), or cols itself, the
    step runs on all n columns.
    """
    d, u = uniq.shape
    if 1 < u < cols.shape[1]:
        labels, point_d2, gap = _assign(uniq, centers, gap=True)
        r2 = float(np.max((centers * centers).sum(axis=1)))
        slack = 8.0 * _EPS * r2 + (d + 2) * 16.0 * _TINY
        if np.all(gap > 8.0 * _EPS * (d + 2) * np.sqrt(r2) * norms + slack):
            return labels.take(inverse), point_d2.take(inverse)
    return _assign(cols, centers)


def _centroid_sums(cols: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-cluster sums of the columns of a (d, n) matrix: one weighted
    bincount per coordinate, each accumulating the points in index order."""
    return np.stack([np.bincount(labels, weights=row, minlength=c) for row in cols], axis=1)


def _distinct(cols: np.ndarray):
    """The distinct columns of a contiguous (d, n) matrix, bit for bit, as a
    contiguous (d, u) matrix, and the n-long index of each column in it."""
    d, n = cols.shape
    # each point's d float64s as one opaque key; at d = 0 every key is empty
    keys = np.ndarray(n, np.dtype((np.void, 8 * d)), np.ascontiguousarray(cols.T))
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.take(cols, first, axis=1), inverse


def _lloyd(cols: np.ndarray, uniq: np.ndarray, inverse: np.ndarray, centers: np.ndarray,
           c: int):
    """Lloyd iterations into c clusters from given centers on the columns of
    a contiguous (d, n) matrix, with uniq and inverse from _distinct(cols);
    returns labels, inertia and the per-iteration inertia history
    (non-increasing)."""
    norms = np.sqrt((uniq * uniq).sum(axis=0))
    history = []
    labels = None
    prev_labels = None
    inertia = np.inf
    for _ in range(MAX_LLOYD_ITER):
        labels, point_d2 = _assign_points(cols, uniq, inverse, norms, centers)
        counts = np.bincount(labels, minlength=c)
        empties = np.nonzero(counts == 0)[0]
        if empties.size:
            # reseed each empty cluster to the point farthest from its
            # current centroid, then reassign
            cand = point_d2.copy()
            for ci in empties:
                far = int(np.argmax(cand))
                centers[ci] = cols[:, far]
                cand[far] = -np.inf
            labels, point_d2 = _assign_points(cols, uniq, inverse, norms, centers)
            counts = np.bincount(labels, minlength=c)
        new_inertia = float(point_d2.sum())
        history.append(new_inertia)
        converged = (
            (prev_labels is not None and np.array_equal(labels, prev_labels))
            or new_inertia == 0.0
            or (np.isfinite(inertia) and inertia - new_inertia <= LLOYD_TOL * inertia)
        )
        inertia = new_inertia
        if converged:
            break
        sums = _centroid_sums(cols, labels, c)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
        prev_labels = labels
    return labels, inertia, history


def kmeans_repeats(points: np.ndarray, cfg: KMeansConfig, repeats: int):
    """Cluster the n columns of a (d, n) matrix into cfg.c groups once per
    seed cfg.seed + r, r < repeats.

    Returns one (labels, inertia) per seed, that of its best restart.  The
    checks, the distinct columns and the seeding are shared by all repeats;
    each result is what kmeans gives for its seed alone, bit for bit.
    """
    check_integer("repeats", repeats, 1)
    cols = np.ascontiguousarray(points, dtype=float)
    if cols.ndim != 2:
        raise InputError(f"kmeans expects a (d, n) matrix, got ndim={cols.ndim}")
    if not np.all(np.isfinite(cols)):
        raise InputError("kmeans input contains non-finite entries")
    n = cols.shape[1]
    if n < cfg.c:
        raise InputError(f"cannot form {cfg.c} clusters from {n} points")
    uniq, inverse = _distinct(cols)
    with np.errstate(over="ignore"):
        top = float(np.max((uniq * uniq).sum(axis=0)))
        if not np.isfinite(4.0 * n * top):
            raise NumericError(
                f"k-means on {n} points with squared norms up to {top:.3e} "
                f"would overflow float64"
            )
    rngs = [np.random.default_rng(child) for r in range(repeats)
            for child in np.random.SeedSequence(cfg.seed + r).spawn(cfg.restarts)]
    seeded = _plusplus_init(uniq, inverse, cfg.c, rngs)
    results = []
    for r in range(repeats):
        best_labels = None
        best_inertia = np.inf
        for centers in seeded[r * cfg.restarts:(r + 1) * cfg.restarts]:
            labels, inertia, _ = _lloyd(cols, uniq, inverse, centers, cfg.c)
            if inertia < best_inertia:
                best_labels, best_inertia = labels, inertia
        results.append((best_labels, float(best_inertia)))
    return results


def kmeans(points: np.ndarray, cfg: KMeansConfig):
    """Cluster the n columns of a (d, n) matrix into cfg.c groups.

    Returns (labels, inertia) of the best restart.
    """
    return kmeans_repeats(points, cfg, 1)[0]
