"""External clustering validity indices.

All scores are computed from the contingency table of the two labelings
and are therefore invariant to relabeling on either side.  Degenerate
cases follow fixed conventions: zero-entropy partitions give NMI 1 when
the two set partitions coincide and 0 otherwise, and the adjusted Rand
index of two trivial (zero-variance) partitions is 1 when they coincide
and 0 otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "contingency",
    "hungarian_match",
    "accuracy",
    "nmi",
    "purity",
    "ari",
    "f_score",
]


def contingency(pred, truth) -> np.ndarray:
    """Joint int64 count table of a predicted and a reference labeling,
    (n_pred_clusters, n_true_classes); its row and column sums are the
    cluster and class sizes."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.ndim != 1 or truth.ndim != 1:
        raise InputError("labelings must be 1-d")
    if pred.size != truth.size:
        raise InputError(f"length mismatch: {pred.size} predictions, {truth.size} labels")
    if pred.size == 0:
        raise InputError("empty labelings")
    if (pred.dtype.kind in "iu" and truth.dtype.kind in "iu"
            and pred.min() >= 0 and truth.min() >= 0):
        cp = int(pred.max()) + 1
        ct = int(truth.max()) + 1
        if cp * ct <= 4 * pred.size:
            # the labels index the table directly; dropping its empty rows and
            # columns keeps the labels present in sorted order, as np.unique does
            codes = pred.astype(np.intp) * ct + truth.astype(np.intp)
            table = np.bincount(codes, minlength=cp * ct).reshape(cp, ct)
            return table[table.any(axis=1)][:, table.any(axis=0)].astype(np.int64)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    cp = int(pi.max()) + 1
    ct = int(ti.max()) + 1
    return np.bincount(pi * ct + ti, minlength=cp * ct).reshape(cp, ct).astype(np.int64)


def hungarian_match(cost: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum_i cost[i, p[i]].

    Rectangular input is zero-padded to square first, so the returned
    permutation always has length max(cost.shape).

    Shortest augmenting paths with dual potentials u, v (Jonker and
    Volgenant, Computing 38, 1987), in the form Crouse gives (IEEE TAES
    52(4), 2016): row r joins the assignment along the cheapest path in
    reduced costs cost[i, j] - u[i] - v[j] >= 0 from r to a free column,
    found by a Dijkstra scan that settles one column per step and prefers
    a free column on ties; the potentials of the settled rows and columns
    then move so that reduced costs stay nonnegative and vanish on the
    assignment.  Each of the size rows takes at most size scan steps of
    O(size) work, O(size^3) in all.  Integer costs give the exact optimal
    total; on ties another optimal permutation than a different solver's
    may come out.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise InputError(f"hungarian_match expects a matrix, got ndim={c.ndim}")
    if not np.all(np.isfinite(c)):
        raise InputError("hungarian_match input contains non-finite entries")
    size = max(c.shape)
    padded = np.zeros((size, size))
    padded[: c.shape[0], : c.shape[1]] = c
    u = np.zeros(size)
    v = np.zeros(size)
    col4row = np.full(size, -1, dtype=np.intp)
    row4col = np.full(size, -1, dtype=np.intp)
    for row in range(size):
        dist = np.full(size, np.inf)  # shortest reduced path cost to each column
        pred = np.zeros(size, dtype=np.intp)  # row before each column on that path
        settled = np.zeros(size, dtype=bool)
        scanned = []
        i, low = row, 0.0
        while True:
            scanned.append(i)
            reach = low + padded[i] - u[i] - v
            better = ~settled & (reach < dist)
            dist[better] = reach[better]
            pred[better] = i
            open_dist = np.where(settled, np.inf, dist)
            low = open_dist.min()
            ties = np.flatnonzero(open_dist == low)
            free = ties[row4col[ties] < 0]
            j = free[0] if free.size else ties[0]
            settled[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[row] += low
        others = scanned[1:]
        u[others] += low - dist[col4row[others]]
        v[settled] -= low - dist[settled]
        while True:  # flip the path: each row on it takes the column after it
            i = pred[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    return col4row


def _same_partition(table: np.ndarray) -> bool:
    """True when the two labelings induce the same set partition: every
    cluster meets exactly one class and every class exactly one cluster."""
    hit = table > 0
    return bool((hit.sum(axis=0) == 1).all() and (hit.sum(axis=1) == 1).all())


def accuracy(pred, truth) -> float:
    """Fraction correct under the best one-to-one cluster-to-class map."""
    table = contingency(pred, truth)
    perm = hungarian_match(-table)[: table.shape[0]]
    rows = np.nonzero(perm < table.shape[1])[0]
    return float(table[rows, perm[rows]].sum() / table.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of entropies
    (natural logarithms)."""
    table = contingency(pred, truth)
    n = int(table.sum())
    pu = table.sum(axis=1) / n
    pv = table.sum(axis=0) / n
    hu = float(-(pu * np.log(pu)).sum())
    hv = float(-(pv * np.log(pv)).sum())
    if hu == 0.0 or hv == 0.0:
        return 1.0 if _same_partition(table) else 0.0
    pij = table / n
    mask = pij > 0
    outer = np.outer(pu, pv)
    mi = float((pij[mask] * np.log(pij[mask] / outer[mask])).sum())
    return float(min(max(mi / np.sqrt(hu * hv), 0.0), 1.0))


def purity(pred, truth) -> float:
    """Mean over samples of the majority-class share of their cluster."""
    table = contingency(pred, truth)
    return float(table.max(axis=1).sum() / table.sum())


def _pair_count(x: np.ndarray) -> int:
    return int((x.astype(np.int64) * (x.astype(np.int64) - 1) // 2).sum())


def ari(pred, truth) -> float:
    """Adjusted Rand index via pair counting; range [-1, 1]."""
    table = contingency(pred, truth)
    n = int(table.sum())
    if n < 2:
        return 1.0
    index = _pair_count(table)
    sp = _pair_count(table.sum(axis=1))
    st = _pair_count(table.sum(axis=0))
    total = n * (n - 1) // 2
    expected = sp * st / total
    maximum = (sp + st) / 2.0
    denom = maximum - expected
    if denom == 0.0:
        return 1.0 if _same_partition(table) else 0.0
    return float((index - expected) / denom)


def f_score(pred, truth) -> float:
    """Pairwise F1: harmonic mean of pair precision and recall.

    A labeling with no positive pairs on either side scores 0.
    """
    table = contingency(pred, truth)
    tp = _pair_count(table)
    pred_pairs = _pair_count(table.sum(axis=1))
    true_pairs = _pair_count(table.sum(axis=0))
    precision = tp / pred_pairs if pred_pairs > 0 else 0.0
    recall = tp / true_pairs if true_pairs > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return float(2.0 * precision * recall / (precision + recall))
