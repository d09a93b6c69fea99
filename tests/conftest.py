"""Shared test oracles: slow, independent reimplementations of the library's
numerical kernels used to cross-check the fast production code paths.

Every oracle here favors the most literal formulation available (explicit
loops, exhaustive enumeration, dictionary counting) over vectorized numpy so
that agreement between the two routes is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from dstl.errors import InputError, NumericError


# ---------------------------------------------------------------------------
# linear algebra helpers


def random_orthonormal(rng: np.random.Generator, p: int, k: int) -> np.ndarray:
    """Random p x k matrix with orthonormal columns (QR of a Gaussian)."""
    q, _ = np.linalg.qr(rng.standard_normal((p, k)))
    return q[:, :k].copy()


def random_column_stochastic(rng: np.random.Generator, c: int, n: int) -> np.ndarray:
    """Random nonnegative matrix with unit column sums (normalized gammas)."""
    g = rng.gamma(shape=1.0, scale=1.0, size=(c, n))
    return g / g.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# simplex projection oracle


def simplex_sort_oracle(g: np.ndarray) -> np.ndarray:
    """Projection of (g - mean(g) + 1/n) onto the probability simplex via the
    classical sort-and-clip routine, written scalar-by-scalar."""
    g = np.asarray(g, dtype=float)
    n = g.size
    v = g - g.mean() + 1.0 / n
    u = np.sort(v)[::-1]
    theta = 0.0
    for j in range(1, n + 1):
        candidate = (u[:j].sum() - 1.0) / j
        if u[j - 1] - candidate > 0:
            theta = candidate
    return np.maximum(v - theta, 0.0)


def project_columns_oracle(g: np.ndarray) -> np.ndarray:
    """The library's simplex projection as it ran on the (d, n) layout,
    sorting, summing and searching down each column; the row-layout kernel
    must give the same bits."""
    d = g.shape[0]
    if d == 1:
        return np.ones_like(g)
    v = g - g.max(axis=0)
    u = -np.sort(-v, axis=0)
    css = np.cumsum(u, axis=0) - 1.0
    support = u * np.arange(1, d + 1)[:, None] > css
    last = d - 1 - np.argmax(support[::-1], axis=0)
    theta = css[last, np.arange(g.shape[1])] / (last + 1.0)
    return np.maximum(v - theta, 0.0)


# ---------------------------------------------------------------------------
# solver inputs a fit derives from the data


def projections(views, ws) -> np.ndarray:
    """(m, k, n) stack of W.T X per view, as the W step returns it."""
    return np.stack([w.T @ x for w, x in zip(ws, views)])


def data_energy(views) -> float:
    """sum_v ||X^v||^2, as fit_variant sums it once per fit."""
    return sum(float(np.sum(x * x)) for x in views)


# ---------------------------------------------------------------------------
# tensor oracles (full-spectrum, loop-based) on (m, k, n) stacks

# residual imaginary mass tolerated when inverting a symmetric spectrum
IMAG_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class FourierSlices:
    """Full mode-3 spectrum: complex (m, k, n) array of frontal slices.

    ``real_origin`` records that the spectrum came from a real tensor and
    is therefore conjugate symmetric along the third mode.
    """

    slices: np.ndarray
    real_origin: bool = True


def fft_mode3(t: np.ndarray) -> FourierSlices:
    """Unnormalized forward FFT along the sample mode (full spectrum): the
    reference semantics the half-spectrum routines reproduce."""
    return FourierSlices(slices=np.fft.fft(t, axis=2), real_origin=True)


def ifft_mode3(f: FourierSlices) -> np.ndarray:
    """Inverse FFT along the sample mode (applies the 1/n factor).

    For a symmetric spectrum the inverse is real up to rounding; the
    residual imaginary part is checked against IMAG_RESIDUAL_TOL before
    being discarded.
    """
    slices = np.asarray(f.slices)
    if slices.ndim != 3:
        raise InputError(f"ifft_mode3 needs a 3-d spectrum, got ndim={slices.ndim}")
    inv = np.fft.ifft(slices, axis=2)
    if f.real_origin:
        residual = float(np.max(np.abs(inv.imag)))
        bound = IMAG_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(inv.real))))
        if residual > bound:
            raise NumericError(
                f"inverse FFT of a symmetric spectrum left imaginary residual "
                f"{residual:.3e} (bound {bound:.3e})"
            )
    return np.ascontiguousarray(inv.real)


def tnn_oracle(data: np.ndarray) -> float:
    """Tensor nuclear norm by the definition: FFT every mode-3 tube, then sum
    matrix nuclear norms of all n frontal slices of the spectrum."""
    m, k, n = data.shape
    spec = np.empty((m, k, n), dtype=complex)
    for v in range(m):
        for i in range(k):
            spec[v, i, :] = np.fft.fft(data[v, i, :])
    total = 0.0
    for j in range(n):
        total += float(np.linalg.svd(spec[:, :, j], compute_uv=False).sum())
    return total


def tubal_shrinkage_oracle(data: np.ndarray, rho: float) -> np.ndarray:
    """Per-slice complex singular value thresholding over the full FFT
    spectrum, inverted tube by tube; threshold is n * rho per slice."""
    n = data.shape[2]
    spec = np.fft.fft(data, axis=2)
    out = np.empty_like(spec)
    for j in range(n):
        u, s, vh = np.linalg.svd(spec[:, :, j], full_matrices=False)
        s = np.maximum(s - n * rho, 0.0)
        out[:, :, j] = (u * s) @ vh
    inv = np.fft.ifft(out, axis=2)
    assert np.max(np.abs(inv.imag)) <= IMAG_RESIDUAL_TOL * (1.0 + np.max(np.abs(inv.real)))
    return np.ascontiguousarray(inv.real)


def matrix_svt_oracle(a: np.ndarray, tau: float) -> np.ndarray:
    """Plain matrix singular value thresholding."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return (u * np.maximum(s - tau, 0.0)) @ vh


# ---------------------------------------------------------------------------
# k-means oracles: the (n, c) GEMM-score k-means the layout rewrite replaced,
# and the kernel that GEMM assignment replaced in turn


KMEANS_MAX_LLOYD_ITER = 300
KMEANS_LLOYD_TOL = 1e-7


def _plusplus_init_oracle(cols: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding on the columns of a (d, n) matrix, each center
    drawn by Generator.choice(n, p=d2 / d2.sum())."""
    n = cols.shape[1]
    centers = np.empty((c, cols.shape[0]))
    centers[0] = cols[:, rng.integers(n)]
    d2 = ((cols - centers[0][:, None]) ** 2).sum(axis=0)
    for i in range(1, c):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[i] = cols[:, idx]
        np.minimum(d2, ((cols - centers[i][:, None]) ** 2).sum(axis=0), out=d2)
    return centers


def nc_product(x: np.ndarray, cols: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """x.c for every point and center as the (n, c) GEMM x @ centers.T."""
    return x @ centers.T


def cn_product(x: np.ndarray, cols: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """x.c as the transpose of the (c, n) GEMM centers @ cols that
    dstl.kmeans forms.  OpenBLAS rounds the two layouts alike at d <= 15
    and at the benchmark's n, but not always at d >= 16 and small n."""
    return (centers @ cols).T


def _gemm_assign_oracle(x: np.ndarray, cols: np.ndarray, centers: np.ndarray, product):
    """Labels by argmin of the GEMM score ||c||^2 - 2 x.c, its products x.c
    an (n, c) matrix from product(x, cols, centers), and the exact squared
    distance of each point to its labelled center, summed over axis 0 of
    the (d, n) difference."""
    score = product(x, cols, centers)
    score *= -2.0
    score += (centers * centers).sum(axis=1)
    labels = np.argmin(score, axis=1)
    # both operands C-ordered, so the axis-0 sum adds the d rows in order
    diff = cols - np.ascontiguousarray(centers[labels].T)
    return labels, (diff ** 2).sum(axis=0)


def _lloyd_oracle(x: np.ndarray, cols: np.ndarray, centers: np.ndarray, c: int, product):
    labels = None
    prev_labels = None
    inertia = np.inf
    for _ in range(KMEANS_MAX_LLOYD_ITER):
        labels, point_d2 = _gemm_assign_oracle(x, cols, centers, product)
        counts = np.bincount(labels, minlength=c)
        empties = np.nonzero(counts == 0)[0]
        if empties.size:
            cand = point_d2.copy()
            for ci in empties:
                far = int(np.argmax(cand))
                centers[ci] = x[far]
                cand[far] = -np.inf
            labels, point_d2 = _gemm_assign_oracle(x, cols, centers, product)
            counts = np.bincount(labels, minlength=c)
        new_inertia = float(point_d2.sum())
        converged = (
            (prev_labels is not None and np.array_equal(labels, prev_labels))
            or new_inertia == 0.0
            or (np.isfinite(inertia) and inertia - new_inertia <= KMEANS_LLOYD_TOL * inertia)
        )
        inertia = new_inertia
        if converged:
            break
        sums = np.stack([np.bincount(labels, weights=row, minlength=c) for row in cols], axis=1)
        nonzero = counts > 0
        centers[nonzero] = sums[nonzero] / counts[nonzero, None]
        prev_labels = labels
    return labels, inertia


def kmeans_oracle(points: np.ndarray, c: int, restarts: int = 10, seed: int = 0,
                  product=nc_product):
    """k-means as dstl ran it before its restarts were laid out by their
    reductions: the same seeds, convergence rule and reseeding, with
    Generator.choice draws, fancy-indexed centers and argmin labels over
    an (n, c) score, its GEMM by default the (n, c) product dstl formed.
    Takes valid finite (d, n) input; returns (labels, inertia) of the best
    restart, the first on ties."""
    cols = np.ascontiguousarray(points, dtype=float)
    x = np.ascontiguousarray(cols.T)
    best_labels = None
    best_inertia = np.inf
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _plusplus_init_oracle(cols, c, rng)
        labels, inertia = _lloyd_oracle(x, cols, centers, c, product)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, float(best_inertia)


def assign_oracle(cols: np.ndarray, centers: np.ndarray):
    """Exact squared distance from every column of a (d, n) matrix to every
    center, one center at a time; returns (labels, d2) with the full (n, c)
    table, labels by argmin (ties to the lowest index)."""
    d2 = np.stack([((cols - ctr[:, None]) ** 2).sum(axis=0) for ctr in centers], axis=1)
    return np.argmin(d2, axis=1), d2


def centroid_sums_oracle(x: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per-cluster sums of the rows of x by unbuffered np.add.at."""
    sums = np.zeros((c, x.shape[1]))
    np.add.at(sums, labels, x)
    return sums


# ---------------------------------------------------------------------------
# clustering metric oracles (dict counting / exhaustive enumeration)


def pair_confusion_oracle(pred, truth):
    """(ss, sd, ds, dd) over all unordered sample pairs, counted one by one:
    same/different in prediction crossed with same/different in truth."""
    pred = list(pred)
    truth = list(truth)
    ss = sd = ds = dd = 0
    for i in range(len(pred)):
        for j in range(i + 1, len(pred)):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            if sp and st:
                ss += 1
            elif sp:
                sd += 1
            elif st:
                ds += 1
            else:
                dd += 1
    return ss, sd, ds, dd


def same_partition(pred, truth) -> bool:
    seen = {}
    for a, b in zip(pred, truth):
        if a in seen:
            if seen[a] != b:
                return False
        else:
            seen[a] = b
    return len(set(seen.values())) == len(seen)


def accuracy_oracle(pred, truth) -> float:
    """Best matched fraction over every injective cluster-to-class map,
    enumerated exhaustively (pad the smaller label set with dummies)."""
    pred = list(pred)
    truth = list(truth)
    pl = sorted(set(pred))
    tl = sorted(set(truth))
    size = max(len(pl), len(tl))
    pl = pl + [("pad-p", i) for i in range(size - len(pl))]
    tl = tl + [("pad-t", i) for i in range(size - len(tl))]
    best = 0
    for perm in itertools.permutations(range(size)):
        mapping = {pl[i]: tl[perm[i]] for i in range(size)}
        best = max(best, sum(1 for a, b in zip(pred, truth) if mapping[a] == b))
    return best / len(pred)


def ari_oracle(pred, truth) -> float:
    ss, sd, ds, dd = pair_confusion_oracle(pred, truth)
    total = ss + sd + ds + dd
    if total == 0:
        return 1.0
    same_p = ss + sd
    same_t = ss + ds
    expected = same_p * same_t / total
    maxim = (same_p + same_t) / 2.0
    if maxim == expected:
        return 1.0 if same_partition(pred, truth) else 0.0
    return (ss - expected) / (maxim - expected)


def f_score_oracle(pred, truth) -> float:
    ss, sd, ds, _ = pair_confusion_oracle(pred, truth)
    precision = ss / (ss + sd) if ss + sd > 0 else 0.0
    recall = ss / (ss + ds) if ss + ds > 0 else 0.0
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def nmi_oracle(pred, truth) -> float:
    """Mutual information over joint counts divided by the geometric mean of
    the marginal entropies, all from dictionaries and math.log."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    joint: dict = {}
    cp: dict = {}
    ct: dict = {}
    for a, b in zip(pred, truth):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        cp[a] = cp.get(a, 0) + 1
        ct[b] = ct.get(b, 0) + 1
    hp = -sum((v / n) * math.log(v / n) for v in cp.values())
    ht = -sum((v / n) * math.log(v / n) for v in ct.values())
    if hp == 0.0 or ht == 0.0:
        return 1.0 if same_partition(pred, truth) else 0.0
    mi = 0.0
    for (a, b), v in joint.items():
        mi += (v / n) * math.log(n * v / (cp[a] * ct[b]))
    return min(1.0, max(0.0, mi / math.sqrt(hp * ht)))


def purity_oracle(pred, truth) -> float:
    groups: dict = {}
    for a, b in zip(pred, truth):
        groups.setdefault(a, []).append(b)
    hits = 0
    for members in groups.values():
        hits += max(members.count(t) for t in set(members))
    return hits / len(list(pred))


def hungarian_cost_oracle(cost: np.ndarray) -> float:
    """Minimum assignment cost of a square matrix by brute force."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return best
