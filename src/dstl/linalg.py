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


# Gram stacks with at most this many columns take their eigenvectors from
# the vectorized Jacobi below; from 4 columns on LAPACK eigh is as fast
_JACOBI_MAX_Q = 3
# ... when the stack holds at least this many matrices per row of each:
# the Jacobi's fixed cost per call needs a large batch, and its einsum
# contractions over the p rows run without BLAS
_JACOBI_BATCH_PER_ROW = 60
# cyclic Jacobi sweeps before svt gives up, the last one only confirming
# that nothing is left to rotate; random 3-column stacks take 5
_JACOBI_SWEEPS = 30


def svt(a: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding of each matrix in a (..., p, q) stack.

    Returns the real or complex stack with every singular value sigma
    shrunk to max(sigma - tau, 0), and each matrix's shrunk nuclear norm.
    A wide stack is worked on as its transpose, so V comes from the
    Hermitian Gram matrix G = A^H A on the smaller side, after one exact
    power-of-two scale that keeps G from overflowing before A does.  The
    output is A V diag(max(sigma - tau, 0) / sigma) V^H with sigma_i the
    norm of column i of A V, not sqrt(lambda_i).  A non-finite sigma or a
    failed eigen step raises NumericError.

    The eigen step is chosen from the shape alone.  A stack of p x q
    matrices with q <= 3 that holds at least 60 p of them (the Fourier
    slices of a k5 m3 fit from n = 600 on, never the view stacks of
    matrix_nuclear, whose p is n) gets its eigenvectors from a cyclic
    Jacobi over the whole stack at once:
    the stack is read batch-last, as (p, q, ...) views of its memory, G,
    A V and the output are einsum contractions, and each rotation is a
    few elementwise operations, applied to the matrices whose pair (i, j)
    is still live, |g_ij| > eps sqrt(|g_ii|) sqrt(|g_jj|).  It stops after
    a sweep that finds no live pair, and raises NumericError if that has
    not happened within _JACOBI_SWEEPS sweeps.  It calls no BLAS, so its
    rounding does not depend on the BLAS thread count.  Elsewhere, where
    the Jacobi ties or loses, the per-matrix LAPACK eigh of a batched
    matmul Gram is used instead.

    Precision: V exactly diagonalizes G + E, ||E|| <= delta / 2 with delta
    = c eps sigma_max^2: forming G is backward stable, and so are eigh and
    Jacobi, whose stopping rule leaves each off-diagonal entry below
    eps sqrt(g_ii g_jj) <= eps ||G||.  So each
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
    batch = int(np.prod(a.shape[:-2]))
    jacobi = a.shape[-1] <= _JACOBI_MAX_Q and batch >= _JACOBI_BATCH_PER_ROW * a.shape[-2]
    if jacobi:
        b = np.moveaxis(a, (-2, -1), (0, 1))
        g = np.einsum("ri...,rj...->ij...", np.conjugate(b) * scale, b) * scale
        v = _jacobi_eigenvectors(g)
        av = np.einsum("ri...,ij...->rj...", b, v * scale)
        # batch-first views, for the shrink rule both paths share
        v, av = (np.moveaxis(x, (0, 1), (-2, -1)) for x in (v, av))
    else:
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
    if jacobi:
        out = np.einsum("...rj,...ij->ri...", av, np.conjugate(v))
        out = np.moveaxis(out, (0, 1), (-2, -1))
        out = out.swapaxes(-1, -2) if wide else out
    else:
        out = v.conj() @ av.swapaxes(-1, -2) if wide else av @ v.conj().swapaxes(-1, -2)
    return out, kept.sum(axis=-1) / scale


def _jacobi_eigenvectors(g: np.ndarray) -> np.ndarray:
    """Unitary V whose columns are eigenvectors of each Hermitian matrix
    in a batch-last (q, q, ...) stack, by cyclic Jacobi; overwrites g.

    Only the upper triangle of g is read.  A matrix whose pair (i, j) is
    not live gets the identity rotation there, which leaves its entries
    exactly as they are."""
    q = g.shape[0]
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    d = [g[i, i].real.copy() for i in range(q)]
    vt = np.zeros_like(g)  # vt[j] is column j of V
    for i in range(q):
        vt[i, i] = 1.0

    def entry(r, i):  # g_ri from the upper triangle
        return g[r, i] if r < i else np.conjugate(g[i, r])

    def store(r, i, x):
        g[min(r, i), max(r, i)] = x if r < i else np.conjugate(x)

    pairs = [(i, j) for i in range(q) for j in range(i + 1, q)]
    for _ in range(_JACOBI_SWEEPS):
        done = True
        for i, j in pairs:
            beta = g[i, j]
            size = np.abs(beta)
            live = size > eps * np.sqrt(np.abs(d[i])) * np.sqrt(np.abs(d[j]))
            if not live.any():
                continue
            done = False
            # t = tan(theta) of the smaller rotation zeroing g_ij, from
            # h = (g_jj - g_ii) / 2 and |g_ij| both divided by the larger of
            # them: nothing overflows, and the denominator is at least 1
            # (the added ~live makes it so for a pair not live, where t = 0)
            size *= live
            h = 0.5 * (d[j] - d[i])
            big = np.maximum(np.maximum(size, np.abs(h)), tiny)
            hn, sn = np.abs(h) / big, size / big
            u = np.copysign(live / big, h) / (hn + np.sqrt(hn * hn + sn * sn) + ~live)
            t = u * size
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = (c * u) * beta  # sin(theta) times the phase of g_ij
            c = c.astype(g.dtype)  # a complex c multiplies complex entries faster
            shift = t * size
            d[i] -= shift
            d[j] += shift
            g[i, j] = np.where(live, 0.0, beta)
            for r in set(range(q)) - {i, j}:
                x, y = entry(r, i), entry(r, j)
                x, y = c * x - np.conjugate(s) * y, s * x + c * y
                store(r, i, x)
                store(r, j, y)
            vt[i], vt[j] = c * vt[i] - np.conjugate(s) * vt[j], s * vt[i] + c * vt[j]
        if done:
            return vt.swapaxes(0, 1)
    raise NumericError(f"svt: the Jacobi eigen step did not converge in {_JACOBI_SWEEPS} "
                       f"sweeps on a {g.shape[2:]} stack of {q}x{q} Gram matrices")


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
