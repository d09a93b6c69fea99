"""Plain k-means with seeded k-means++ initialization and restarts.

Deterministic given the config seed: restarts draw independent child
generators from a SeedSequence, and the restart with the smallest inertia
(first such restart on ties) wins.  Each restart runs at most
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

Points whose squared norms, times 4n, overflow float64 raise NumericError:
below that bound no score, distance or inertia can overflow.  Duplicate
points can leave fewer than c distinct labels; that is returned as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, check_integers

__all__ = ["KMeansConfig", "kmeans"]

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
                   rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on the n points inverse maps into the distinct
    columns of the (d, u) matrix uniq: the next center is drawn with
    probability proportional to the exact squared distance from the chosen
    set, the draw running over the n points in index order."""
    n = inverse.size
    centers = np.empty((c, uniq.shape[0]))
    centers[0] = uniq[:, inverse[rng.integers(n)]]
    d2 = _column_sq_dist(uniq, centers[0])
    for i in range(1, c):
        point_d2 = d2.take(inverse)
        total = point_d2.sum()
        if total > 0:
            idx = _draw(point_d2 / total, rng)
        else:
            idx = rng.integers(n)
        centers[i] = uniq[:, inverse[idx]]
        np.minimum(d2, _column_sq_dist(uniq, centers[i]), out=d2)
    return centers


def _draw(p: np.ndarray, rng: np.random.Generator) -> int:
    """The index Generator.choice(p.size, p=p) draws, by its arithmetic."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
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


def kmeans(points: np.ndarray, cfg: KMeansConfig):
    """Cluster the n columns of a (d, n) matrix into cfg.c groups.

    Returns (labels, inertia) of the best restart.
    """
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
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        centers = _plusplus_init(uniq, inverse, cfg.c, rng)
        labels, inertia, _ = _lloyd(cols, uniq, inverse, centers, cfg.c)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)
