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
    d = g.shape[0]
    y = g - g.max(axis=0)
    # sorted, summed and searched as the rows of the (n, d) transpose, in
    # place where a temporary would be a fresh array of g's size
    u = np.negative(y.T, order="C")
    u.sort(axis=1)
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    css -= 1.0
    u *= np.arange(1, d + 1)
    last = d - 1 - np.argmax((u > css)[:, ::-1], axis=1)
    y -= np.take_along_axis(css, last[:, None], axis=1)[:, 0] / (last + 1.0)
    np.maximum(y, 0.0, out=y)
    sums = y.sum(axis=0)
    if not np.all(np.isfinite(y)) or np.max(np.abs(sums - 1.0)) > 1e-8 or y.min() < 0:
        raise NumericError("simplex projection produced an infeasible result")
    return y
