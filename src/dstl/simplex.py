"""Euclidean projection of matrix columns onto the probability simplex.

Each column g of a (d, n) array is mapped to the solution of
``min ||y - g||^2 s.t. y >= 0, sum(y) = 1``, which is
``y = max(g - theta, 0)`` for a per-column threshold theta.  The
sort-and-threshold closed form (Duchi et al., ICML 2008; Condat,
Math. Prog. 2016) finds theta exactly: with u the column sorted in
decreasing order, the support is the longest prefix j with
``u_j > (u_1 + ... + u_j - 1) / j`` and theta is that average.

The projection is unchanged by adding a constant to a column, so each
column is first shifted by its maximum.  Every support coordinate lies
within 1 of the maximum, so after the shift the threshold arithmetic runs
on numbers of magnitude at most 1 and its rounding error does not grow
with the scale of the input.

Single-candidate rule: a column whose shifted entries other than its
maximum u_1 = 0 are all at or below -1 has support 1.  For j >= 2,
j u_j - (u_1 + ... + u_j - 1) = u_j + 1 + sum_{1<i<j} (u_j - u_i) <= 0,
so the prefix test fails, theta = u_1 - 1 = -1, and the column projects
to the vertex at its maximum.  Only the other columns are sorted.  Near
a hard assignment those are few: after 12 sweeps of a benchmark fit,
under 1% of the Y step's columns at k5 n=32000 and about 2% at k10.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

__all__ = ["project_columns"]


def project_columns(g_cols: np.ndarray) -> np.ndarray:
    """Project every column of a (d, n) array onto the simplex."""
    g = np.asarray(g_cols, dtype=float)
    if g.ndim != 2:
        raise InputError(f"project_columns expects a matrix, got ndim={g.ndim}")
    if g.size == 0:
        raise InputError(f"project_columns: empty input of shape {g.shape}")
    top = g.max(axis=0)
    if not np.all(np.isfinite(top)):  # nan, +inf or an all -inf column
        raise NumericError("simplex projection of a column holding inf or nan")
    d = g.shape[0]
    # v = top - g is the shifted column negated, exactly up to the sign of
    # a zero, as rounding is symmetric.  An entry that overflows to +inf
    # lies far below the maximum and projects to 0.
    with np.errstate(over="ignore"):
        v = top - g
    # theta = -1 by the single-candidate rule; the other columns are
    # sorted, summed and searched as the rows of the (n, d) transpose, in
    # place where a temporary would be a fresh array of their size.
    # Sorting v upward and negating the rows gives u in decreasing order.
    # The candidates are counted in the smallest integer type that holds d,
    # which took a quarter (d = 5, 20) to a half (d = 50) of
    # np.count_nonzero's time.
    theta = np.full(g.shape[1], -1.0)
    rest = np.flatnonzero((v < 1.0).sum(axis=0, dtype=np.min_scalar_type(d)) > 1)
    u = v.T[rest]
    u.sort(axis=1)
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    css -= 1.0
    u *= np.arange(1, d + 1)
    last = d - 1 - np.argmax((u > css)[:, ::-1], axis=1)
    theta[rest] = np.take_along_axis(css, last[:, None], axis=1)[:, 0] / (last + 1.0)
    # (g - top) - theta, taken as -theta - v with the same rounding
    y = np.subtract(np.negative(theta), v, out=v)
    np.maximum(y, 0.0, out=y)
    sums = y.sum(axis=0)
    if not np.all(np.isfinite(y)) or np.max(np.abs(sums - 1.0)) > 1e-8 or y.min() < 0:
        raise NumericError("simplex projection produced an infeasible result")
    return y
