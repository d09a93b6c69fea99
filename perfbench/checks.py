"""Correctness checks on one operation's outputs; each returns a list of
error strings, empty when the output passes."""

from __future__ import annotations

import hashlib

import numpy as np

SIMPLEX_TOL = 1e-10
# acceptance criterion 3: the objective may rise by at most this share of (1 + |previous|)
MONOTONE_TOL = 1e-8


def labels_errors(labels: np.ndarray, n: int, c: int) -> list[str]:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels: {labels.size} entries, expected {n}"]
    found = np.unique(labels).size
    if found != c:
        return [f"labels: {found} distinct clusters, expected {c}"]
    return []


def simplex_errors(embedding: np.ndarray) -> list[str]:
    """Every column nonnegative and summing to 1 within SIMPLEX_TOL."""
    y = np.asarray(embedding, dtype=float)
    errors = []
    if y.min() < 0:
        errors.append(f"embedding: negative entry {y.min():.3e}")
    drift = float(np.max(np.abs(y.sum(axis=0) - 1.0)))
    if drift > SIMPLEX_TOL:
        errors.append(f"embedding: column sum off by {drift:.3e}")
    return errors


def monotone_errors(objectives) -> list[str]:
    obj = [float(v) for v in objectives]
    if not obj:
        return ["trace: no iterations"]
    for i in range(1, len(obj)):
        prev = obj[i - 1]
        if not obj[i] <= prev + MONOTONE_TOL * (1.0 + abs(prev)):
            return [f"trace: objective rose at iteration {i + 1}: {prev!r} -> {obj[i]!r}"]
    return []


def digest(labels: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()
