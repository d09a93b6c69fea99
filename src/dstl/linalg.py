"""Dense matrix kernels used by the alternating solver."""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

__all__ = ["thin_svd", "procrustes_max_trace", "soft_threshold"]


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = U @ diag(S) @ Vh``, returned as numpy's (U, S, Vh).

    For a (p, q) matrix U is (p, r), S the (r,) singular values in
    non-increasing order and Vh (r, q), with r = min(p, q).  A LAPACK
    failure, or non-finite singular values, raise NumericError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InputError(f"thin_svd expects a matrix, got ndim={a.ndim}")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on a {a.shape} matrix") from exc
    if not np.all(np.isfinite(s)):
        raise NumericError(f"SVD of a {a.shape} matrix gave non-finite singular values")
    return u, s, vh


def procrustes_max_trace(m: np.ndarray) -> np.ndarray:
    """Column-orthonormal W maximizing Tr(W.T @ M) over W.T @ W = I.

    The maximizer is the polar factor U @ Vh taken from the thin SVD of
    M, with trace value equal to the sum of singular values of M.  A zero
    M leaves every feasible W optimal; the fixed choice [I_k; 0] keeps the
    degenerate first iteration of the solver reproducible.

    Parameters
    ----------
    m : ndarray of shape (p, k), p >= k

    Returns
    -------
    ndarray of shape (p, k) with orthonormal columns.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise InputError(f"procrustes_max_trace expects a matrix, got ndim={m.ndim}")
    p, k = m.shape
    if p < k:
        raise InputError(f"procrustes_max_trace needs p >= k, got shape {m.shape}")
    if not m.any():
        return np.eye(p, k)
    u, _, vh = thin_svd(m)
    return u @ vh


def soft_threshold(a: np.ndarray, gamma: float) -> np.ndarray:
    """Elementwise shrinkage ``sign(a) * max(|a| - gamma, 0)``.

    This is the proximal operator of ``gamma * ||.||_1`` and the exact
    minimizer of ``gamma * |s| + (s - a)^2 / 2`` per entry.
    """
    if not np.isfinite(gamma) or gamma < 0:
        raise InputError(f"soft_threshold needs gamma >= 0, got {gamma}")
    a = np.asarray(a, dtype=float)
    return np.sign(a) * np.maximum(np.abs(a) - gamma, 0.0)
