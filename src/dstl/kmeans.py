"""Plain k-means with seeded k-means++ initialization and restarts.

Deterministic given the config seed: restarts draw independent child
generators from a SeedSequence, and the restart with the smallest inertia
(first such restart on ties) wins.  Each restart runs at most
MAX_LLOYD_ITER = 300 Lloyd iterations and stops early once the labels
repeat, the inertia reaches zero, or the inertia falls by no more than
LLOYD_TOL = 1e-7 of its previous value.

A Lloyd step labels each point by the GEMM score ||c||^2 - 2 x.c, one
(n, c) matrix product; ties are judged on that score and go to the lowest
centroid index.  Everything else uses exact squared distances computed
from differences: the k-means++ seeding probabilities, the distance of
each point to its chosen centroid, and from those the inertia, the
convergence test and the reseeding of empty clusters.  Centroids are the
per-cluster means, summed point by point in index order.

Points whose squared norms, times 4n, overflow float64 raise NumericError:
below that bound no score, distance or inertia can overflow.  Duplicate
points can leave fewer than c distinct labels; that is returned as is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

__all__ = ["KMeansConfig", "kmeans"]

MAX_LLOYD_ITER = 300
LLOYD_TOL = 1e-7


@dataclass(frozen=True)
class KMeansConfig:
    c: int
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise InputError(f"need c >= 1 clusters, got {self.c}")
        if self.restarts < 1:
            raise InputError(f"need restarts >= 1, got {self.restarts}")
        if self.seed < 0:
            raise InputError(f"need seed >= 0, got {self.seed}")


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
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[i] = cols[:, idx]
        np.minimum(d2, _column_sq_dist(cols, centers[i]), out=d2)
    return centers


def _column_sq_dist(cols: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Exact squared distance from each column to one center, summed over
    the d rows so that every step is vectorized across the n columns."""
    diff = cols - center[:, None]
    diff *= diff
    return diff.sum(axis=0)


def _assign(x: np.ndarray, centers: np.ndarray):
    """Nearest center per row of x, and the exact squared distance to it.

    The label minimizes the GEMM score ||c||^2 - 2 x.c, one (n, c) matrix
    product; np.argmin sends ties on that score to the lowest index.  The
    distance is then recomputed from the difference x - centers[labels].
    """
    score = x @ centers.T
    score *= -2.0
    score += (centers * centers).sum(axis=1)
    labels = np.argmin(score, axis=1)
    diff = centers[labels]  # the difference overwrites this gathered copy
    np.subtract(x, diff, out=diff)
    diff *= diff
    return labels, diff.sum(axis=1)


def _centroid_sums(cols: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-cluster sums of the columns of a (d, n) matrix: one weighted
    bincount per coordinate, each accumulating the points in index order."""
    return np.stack([np.bincount(labels, weights=row, minlength=c) for row in cols], axis=1)


def _lloyd(x: np.ndarray, cols: np.ndarray, centers: np.ndarray, cfg: KMeansConfig):
    """Lloyd iterations from given centers on the points as the rows of x,
    with cols the same points as a contiguous (d, n) matrix; returns
    labels, inertia and the per-iteration inertia history (non-increasing)."""
    history = []
    labels = None
    prev_labels = None
    inertia = np.inf
    for _ in range(MAX_LLOYD_ITER):
        labels, point_d2 = _assign(x, centers)
        counts = np.bincount(labels, minlength=cfg.c)
        empties = np.nonzero(counts == 0)[0]
        if empties.size:
            # reseed each empty cluster to the point farthest from its
            # current centroid, then reassign
            cand = point_d2.copy()
            for ci in empties:
                far = int(np.argmax(cand))
                centers[ci] = x[far]
                cand[far] = -np.inf
            labels, point_d2 = _assign(x, centers)
            counts = np.bincount(labels, minlength=cfg.c)
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
        sums = _centroid_sums(cols, labels, cfg.c)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
        prev_labels = labels
    return labels, inertia, history


def kmeans(points: np.ndarray, cfg: KMeansConfig):
    """Cluster the n columns of a (d, n) matrix into cfg.c groups.

    Returns (labels, inertia) of the best restart.
    """
    x = np.ascontiguousarray(points, dtype=float)
    if x.ndim != 2:
        raise InputError(f"kmeans expects a (d, n) matrix, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise InputError("kmeans input contains non-finite entries")
    n = x.shape[1]
    if n < cfg.c:
        raise InputError(f"cannot form {cfg.c} clusters from {n} points")
    with np.errstate(over="ignore"):
        top = float(np.max((x * x).sum(axis=0)))
        if not np.isfinite(4.0 * n * top):
            raise NumericError(
                f"k-means on {n} points with squared norms up to {top:.3e} "
                f"would overflow float64"
            )
    rows = np.ascontiguousarray(x.T)
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        centers = _plusplus_init(x, cfg.c, rng)
        labels, inertia, _ = _lloyd(rows, x, centers, cfg)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)
