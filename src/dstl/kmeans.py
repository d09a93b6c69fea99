"""Plain k-means with seeded k-means++ initialization and restarts.

Deterministic given the config seed: restarts draw independent child
generators from a SeedSequence, and the restart with the smallest inertia
(first such restart on ties) wins.  Each restart runs at most
MAX_LLOYD_ITER = 300 Lloyd iterations and stops early once the labels
repeat, the inertia reaches zero, or the inertia falls by no more than
LLOYD_TOL = 1e-7 of its previous value.

The points are held only as the contiguous (d, n) columns.  A Lloyd
step labels each point by the GEMM score ||c||^2 - 2 x.c, the (c, n)
product of the centers with the columns, reduced by c - 1 strict <
passes over its rows, so ties on that score go to the lowest centroid
index.  Everything else uses exact squared distances: the k-means++
seeding probabilities, the distance of each point to its chosen
centroid, and from those the inertia, the convergence test and the
reseeding of empty clusters.  Every one of them, seeding and assignment
alike, is the axis-0 sum of the (d, n) difference, which adds each
point's d squared coordinates in order.
Centroids are per-cluster means, summed point by point in index order.
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


@dataclass(frozen=True)
class KMeansConfig:
    c: int
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        check_integers(self, c=1, restarts=1, seed=0)


def _plusplus_init(cols: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on the columns of a (d, n) matrix: the next center
    is drawn with probability proportional to the exact squared distance
    from the chosen set."""
    n = cols.shape[1]
    centers = np.empty((c, cols.shape[0]))
    centers[0] = cols[:, rng.integers(n)]
    d2 = _column_sq_dist(cols, centers[0])
    for i in range(1, c):
        total = d2.sum()
        if total > 0:
            idx = _draw(d2 / total, rng)
        else:
            idx = rng.integers(n)
        centers[i] = cols[:, idx]
        np.minimum(d2, _column_sq_dist(cols, centers[i]), out=d2)
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


def _assign(cols: np.ndarray, centers: np.ndarray):
    """Nearest center per column of a (d, n) matrix, and the exact squared
    distance to it: ties on the GEMM score go to the lowest index."""
    score = centers @ cols
    score *= -2.0
    score += (centers * centers).sum(axis=1)[:, None]
    labels = np.zeros(cols.shape[1], dtype=np.intp)
    best = score[0]
    for j in range(1, len(centers)):
        np.putmask(labels, score[j] < best, j)
        np.minimum(best, score[j], out=best)
    diff = np.take(centers.T, labels, axis=1)
    np.subtract(cols, diff, out=diff)  # the difference overwrites the gathered copy
    diff *= diff
    return labels, diff.sum(axis=0)


def _centroid_sums(cols: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-cluster sums of the columns of a (d, n) matrix: one weighted
    bincount per coordinate, each accumulating the points in index order."""
    return np.stack([np.bincount(labels, weights=row, minlength=c) for row in cols], axis=1)


def _lloyd(cols: np.ndarray, centers: np.ndarray, c: int):
    """Lloyd iterations into c clusters from given centers on the columns of
    a contiguous (d, n) matrix; returns labels, inertia and the
    per-iteration inertia history (non-increasing)."""
    history = []
    labels = None
    prev_labels = None
    inertia = np.inf
    for _ in range(MAX_LLOYD_ITER):
        labels, point_d2 = _assign(cols, centers)
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
            labels, point_d2 = _assign(cols, centers)
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
    with np.errstate(over="ignore"):
        top = float(np.max((cols * cols).sum(axis=0)))
        if not np.isfinite(4.0 * n * top):
            raise NumericError(
                f"k-means on {n} points with squared norms up to {top:.3e} "
                f"would overflow float64"
            )
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        centers = _plusplus_init(cols, cfg.c, rng)
        labels, inertia, _ = _lloyd(cols, centers, cfg.c)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)
