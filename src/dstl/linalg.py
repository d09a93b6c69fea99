"""Dense matrix kernels used by the alternating solver."""

from __future__ import annotations

import numpy as np

from .errors import InputError, NumericError

__all__ = ["thin_svd", "svt", "procrustes_max_trace", "soft_threshold"]


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


def svt(a: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding of each matrix in a (..., p, q) stack.

    Returns the real or complex stack with every singular value sigma
    shrunk to max(sigma - tau, 0), and each matrix's shrunk nuclear norm.
    A wide stack is worked on as its transpose, so V comes from eigh of
    the Gram matrix G = A^H A on the smaller side, after one exact
    power-of-two scale that keeps G from overflowing before A does.  The
    output is A V diag(max(sigma - tau, 0) / sigma) V^H with sigma_i the
    norm of column i of A V, not sqrt(lambda_i).  A LAPACK failure or a
    non-finite sigma raises NumericError.

    Precision: V exactly diagonalizes G + E, ||E|| <= delta / 2 with delta
    = c eps sigma_max^2 (forming G and eigh are backward stable).  So each
    sigma^2 is within delta of its exact value: sigma below sqrt(delta)
    is not resolved.  Columns of A V are orthogonal up to delta, as
    (A v_i)^H A v_j = -v_i^H E v_j, so the output X = A V D V^H (D
    diagonal, 0 <= D <= I) has X^H X = V D (diag(sigma^2) + F) D V^H with
    F off-diagonal, ||F|| <= delta.  As ||sqrt(M) - sqrt(N)|| <=
    sqrt(||M - N||) for M, N >= 0, the returned norm is the nuclear norm
    of X within min(p, q) sqrt(delta): the tests assert that with c = 1
    for tau < 1e-8 sigma_max, and 1e-10 (1 + norm) above, where the kept
    sigma reach sqrt(delta) and the error is second order in F.
    """
    a = np.asarray(a)
    if a.ndim < 2 or not np.isfinite(tau) or tau < 0:
        raise InputError(f"svt needs matrices and tau >= 0, got ndim={a.ndim}, tau={tau}")
    wide = a.shape[-2] < a.shape[-1]
    a = a.swapaxes(-1, -2) if wide else a
    # capped at 2**1021, so that a subnormal stack does not scale by inf
    scale = np.ldexp(1.0, -max(int(np.frexp(np.abs(a).max())[1]), -1021))
    try:  # eigenvectors of (scale A)^H (scale A)
        _, v = np.linalg.eigh(((np.conjugate(a) * scale).swapaxes(-1, -2) @ a) * scale)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigh failed inside svt on a {a.shape} stack") from exc
    av = a @ (v * scale)
    sigma = np.linalg.norm(av, axis=-2)
    if not np.all(np.isfinite(sigma)):
        raise NumericError(f"svt of a {a.shape} stack gave non-finite singular values")
    kept = np.maximum(sigma - tau * scale, 0.0)
    ratio = np.divide(kept, sigma, out=np.zeros_like(kept), where=sigma > 0)
    av *= (ratio / scale)[..., None, :]
    out = v.conj() @ av.swapaxes(-1, -2) if wide else av @ v.conj().swapaxes(-1, -2)
    return out, kept.sum(axis=-1) / scale


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
