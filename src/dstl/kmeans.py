"""Plain k-means with seeded k-means++ initialization and restarts.

Deterministic given the config seed: restarts draw independent child
generators from a SeedSequence, distance ties break toward the lowest
centroid index, and the restart with the smallest inertia (first such
restart on ties) wins.  Each restart runs at most MAX_LLOYD_ITER = 300
Lloyd iterations and stops early once the labels repeat, the inertia
reaches zero, or the inertia falls by no more than LLOYD_TOL = 1e-7 of
its previous value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

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


def _plusplus_init(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: the next center is drawn with probability
    proportional to squared distance from the chosen set."""
    n = x.shape[0]
    centers = np.empty((c, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, c):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[i] = x[idx]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def _assign(x: np.ndarray, centers: np.ndarray):
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    labels = np.argmin(d2, axis=1)  # ties resolve to the lowest index
    return labels, d2[np.arange(x.shape[0]), labels]


def _lloyd(x: np.ndarray, centers: np.ndarray, cfg: KMeansConfig):
    """Lloyd iterations from given centers; returns labels, inertia and
    the per-iteration inertia history (non-increasing)."""
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
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
        prev_labels = labels
    return labels, inertia, history


def kmeans(points: np.ndarray, cfg: KMeansConfig):
    """Cluster the n columns of a (d, n) matrix into cfg.c groups.

    Returns (labels, inertia) of the best restart.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim != 2:
        raise InputError(f"kmeans expects a (d, n) matrix, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise InputError("kmeans input contains non-finite entries")
    n = x.shape[1]
    if n < cfg.c:
        raise InputError(f"cannot form {cfg.c} clusters from {n} points")
    rows = np.ascontiguousarray(x.T)
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts):
        rng = np.random.default_rng(child)
        centers = _plusplus_init(rows, cfg.c, rng)
        labels, inertia, _ = _lloyd(rows, centers, cfg)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)
