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


# entries per chunk of svt's batch, 2048 matrices of 5 x 3 (the Fourier
# slices of a k5 m3 fit): the temporaries are then 16-32 KB, which malloc
# hands from one chunk to the next, where whole-batch ones would be fresh
# pages on every call
_CHUNK_ENTRIES = 2048 * 15


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

    Shape rule: svt is built for many small matrices.  It works batch-last,
    on (p, q, chunk) copies of a fixed number of entries, and G, A V and
    the output are broadcast multiply-adds over the whole chunk, one per
    term of the inner sum (_batch_matmul), so a long matrix should be
    reduced first, as the matrix_nuclear H step does: A = R^H
    Q^H with Q^H row-orthonormal has the singular values of the small R^H,
    and thresholding R^H then multiplying by Q^H thresholds A.  The Gram
    width q alone picks the eigen step (_gram_eigenvectors): for q <= 3 a
    closed form, elementwise operations with no iteration and no BLAS, so
    that the rounding does not depend on the BLAS thread count, and LAPACK
    eigh from q = 4 on.

    Precision: both eigen steps return V with ||V^H V - I|| <= c eps and
    the off-diagonal part of V^H G V below c eps ||G||.  LAPACK eigh is
    backward stable.  In the closed form, the 2 x 2 rotation is exact, the
    complement [u1 u2] of v is orthonormal to O(eps), and v has a residual
    ||(G - l I) v|| of O(eps ||G||): r carries an error of O(eps), and l =
    m + 2 p cos(acos |r| / 3) moves by at most p / 3 times it (the
    derivative of cos(acos r / 3) lies in [1/9, 1/6] on [0, 1]), so l is
    accurate to O(eps ||G||) even where the other two eigenvalues coalesce
    and acos alone has a sqrt(eps) sensitivity; the two nonzero singular
    values of G - l I are the gaps from l, which, l being the most
    isolated, lie within a factor of 2 of each other, so the largest
    adjugate column, of norm at least their product over sqrt(3), leaves a
    residual of O(eps ||G||) once normalized.  The tests hold the closed
    form to 4 eps ||G|| and 8 eps.  So V is within O(eps) of a unitary Q
    that exactly diagonalizes G + E, ||E|| <= delta / 2 with delta = c eps
    sigma_max^2 (forming G is backward stable too), and each sigma^2 is
    within delta of its exact value: sigma below sqrt(delta) is not
    resolved.  Columns of A Q are orthogonal up to delta, as (A q_i)^H A
    q_j = -q_i^H E q_j, so the output X = A Q D Q^H (D diagonal, 0 <= D
    <= I) has X^H X = Q D (diag(sigma^2) + F) D Q^H with F off-diagonal,
    ||F|| <= delta.  As ||sqrt(M) - sqrt(N)|| <= sqrt(||M - N||) for M, N
    >= 0, the returned norm is the nuclear norm of X within min(p, q)
    sqrt(delta): the tests assert that with c = 1 for tau < 1e-8
    sigma_max, and 1e-10 (1 + norm) above, where the kept sigma reach
    sqrt(delta) and the error is second order in F.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.size == 0 or not np.isfinite(tau) or tau < 0:
        raise InputError(f"svt needs a non-empty stack and tau >= 0, got {a.shape}, tau={tau}")
    wide = a.shape[-2] < a.shape[-1]
    a = a.swapaxes(-1, -2) if wide else a
    scale = _inverse_power_of_two(_largest_part(a))
    batch, (p, q) = int(np.prod(a.shape[:-2])), a.shape[-2:]
    # batch-last (p, q, batch) views in, a (p, q, batch) array out; each
    # chunk of the batch is scaled into a contiguous copy
    rows = np.moveaxis(a.reshape((batch, p, q)), 0, 2)
    out = np.empty((p, q, batch), dtype=np.result_type(a.dtype, 1.0))
    kept = np.empty((q, batch))
    chunk = max(_CHUNK_ENTRIES // (p * q), 1)
    for lo in range(0, batch, chunk):
        hi = lo + chunk
        b = np.multiply(rows[..., lo:hi], scale, order="C")
        v = _gram_eigenvectors(_batch_matmul(np.conjugate(b).swapaxes(0, 1), b))
        av = _batch_matmul(b, v)
        sigma = np.linalg.norm(av, axis=0)
        if not np.all(np.isfinite(sigma)):
            raise NumericError(f"svt of a {a.shape} stack gave non-finite singular values")
        # shrunk / sigma / scale turns the columns of A V into the output's A V D
        kept[:, lo:hi] = shrunk = np.maximum(sigma - tau * scale, 0.0)
        av *= np.divide(shrunk, sigma, out=np.zeros_like(shrunk), where=sigma > 0) / scale
        # formed contiguous, then copied: V^H read strided, or the product
        # written straight into the strided slice of out, made it slower
        out[..., lo:hi] = _batch_matmul(av, np.conjugate(v.swapaxes(0, 1), order="C"))
    out = np.moveaxis(out, 2, 0).reshape(a.shape)
    return out.swapaxes(-1, -2) if wide else out, kept.sum(axis=0).reshape(a.shape[:-2]) / scale


def _batch_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[r, j] = sum_i a[r, i] b[i, j] for each matrix of a batch-last
    (p, s, chunk) a and (s, q, chunk) b, as a new (p, q, chunk) array.

    The sum runs over i in order, as one broadcast multiply over the whole
    chunk per term, added into the result: no BLAS, so the rounding does
    not depend on the BLAS thread count, and each entry depends only on
    its own matrix, not on the chunk around it."""
    c = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    np.multiply(a[:, :1], b[:1], out=c)
    term = np.empty_like(c)
    for i in range(1, a.shape[1]):
        c += np.multiply(a[:, i:i + 1], b[i:i + 1], out=term)
    return c


def _largest_part(a: np.ndarray):
    """The largest |Re| or |Im| of a stack's entries, within sqrt(2) of its
    largest modulus, read in two reductions of the (re, im) pairs as floats
    with no temporary, where np.abs would form every modulus."""
    if np.iscomplexobj(a):
        a = np.lib.stride_tricks.as_strided(a.real, a.shape + (2,),
                                            a.strides + (a.itemsize // 2,), writeable=False)
    return np.maximum(a.max(), -a.min())


def _inverse_power_of_two(x):
    """2^-e for each x = f 2^e, f in [1/2, 1), with e capped at -1021 so
    that a subnormal x does not scale by inf (and x = 0 gives 1)."""
    return np.ldexp(1.0, -np.maximum(np.frexp(x)[1], -1021))


def _gram_eigenvectors(g: np.ndarray) -> np.ndarray:
    """Unitary V whose columns are eigenvectors of each Hermitian matrix
    in a batch-last (q, q, ...) stack.

    From q = 4 on, LAPACK eigh of the stack moved batch-first, which
    reads the lower triangle.  Up to q = 3, a closed form that reads only
    the diagonal and the upper triangle: q = 1 gives 1 and q = 2 one
    exact rotation.  For q = 3 (Kopp, Int. J. Mod. Phys. C 19, 2008) each
    matrix is scaled by a power of two to a largest diagonal entry in
    [1/2, 1), and its most isolated eigenvalue l comes
    from the trigonometric formula (Smith, CACM 4, 1961) for K = G - m I,
    m = tr G / 3: with p^2 = ||K||_F^2 / 6 and r = det K / (2 p^3), the
    eigenvalues are m + 2 p cos((acos r + 2 pi j) / 3); the largest (j = 0)
    is the most isolated when r >= 0 and the smallest when r < 0, so l = m
    + sign(r) 2 p cos(acos |r| / 3).  Its eigenvector v is the largest of
    the three cross products of rows of G - l I, which are the columns of
    its adjugate, or e_0 if all three vanish (G = l I).  The cross product
    of v with the axis of its smallest entry, then of v with that, complete
    v to an orthonormal basis [v u1 u2], and the same exact rotation
    diagonalizes the 2 x 2 block [u1 u2]^H G [u1 u2]."""
    q = g.shape[0]
    if q == 1:
        return np.ones_like(g)
    if q == 2:
        c, s = _rotation(g[0, 0].real, g[1, 1].real, g[0, 1])
        return np.stack([np.stack([c, s]), np.stack([-np.conjugate(s), c])])
    if q > 3:
        try:
            _, v = np.linalg.eigh(np.moveaxis(g, (0, 1), (-2, -1)))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigh failed inside svt on a {g.shape} Gram stack") from exc
        # a contiguous copy: the products read V along the batch, and a
        # strided V made svt about 12% slower on k10 m5 Fourier slices
        return np.ascontiguousarray(np.moveaxis(v, (-2, -1), (0, 1)))
    batch = g.shape[2:]
    g = g.reshape(3, 3, -1)
    d0, d1, d2 = (g[i, i].real for i in range(3))
    scale = _inverse_power_of_two(np.maximum(np.maximum(d0, d1), d2))
    d0, d1, d2 = d0 * scale, d1 * scale, d2 * scale
    x, y, z = g[0, 1] * scale, g[0, 2] * scale, g[1, 2] * scale
    conj = np.conjugate
    ax, ay, az = _sq_abs(x), _sq_abs(y), _sq_abs(z)
    mean = (d0 + d1 + d2) / 3.0
    k0, k1, k2 = d0 - mean, d1 - mean, d2 - mean
    p = np.sqrt((k0 * k0 + k1 * k1 + k2 * k2 + 2.0 * (ax + ay + az)) / 6.0)
    xz = x * z
    det = k0 * (k1 * k2 - az) - k1 * ay - k2 * ax + 2.0 * _re_dot(xz, y)
    cube = 2.0 * p * p * p
    r = np.divide(det, cube, out=np.zeros_like(det), where=cube > 0)
    lam = mean + np.copysign(2.0 * p * np.cos(np.arccos(np.minimum(np.abs(r), 1.0)) / 3.0), r)
    e0, e1, e2 = d0 - lam, d1 - lam, d2 - lam
    # the adjugate of G - l I: diagonal a00, a11, a22; its three columns
    # are (a00, -conj(gam), conj(alp)), (gam, -a11, -conj(bet)) and
    # (alp, bet, a22), the cross products of rows 1 x 2, 0 x 2 and 0 x 1
    a00, a11, a22 = e1 * e2 - az, e0 * e2 - ay, e0 * e1 - ax
    alp, bet, gam = xz - y * e1, y * conj(x) - z * e0, x * e2 - y * conj(z)
    sa, sb, sg = _sq_abs(alp), _sq_abs(bet), _sq_abs(gam)
    n12, n02, n01 = a00 * a00 + sg + sa, sg + a11 * a11 + sb, sa + sb + a22 * a22
    first = (n12 >= n02) & (n12 >= n01)
    second = ~first & (n02 >= n01)
    v = [np.where(first, a00, np.where(second, gam, alp)),
         np.where(first, -conj(gam), np.where(second, -a11, bet)),
         np.where(first, conj(alp), np.where(second, -conj(bet), a22))]
    size = np.where(first, n12, np.where(second, n02, n01))
    small = size < np.finfo(float).tiny
    if small.any():  # |v|^2 is subnormal: scale v near 1 before its norm
        f = np.ldexp(1.0, -(np.frexp(size[small])[1] // 2))
        for w in v:
            w[small] *= f
        size[small] = sum(_sq_abs(w[small]) for w in v)
    found = size > 0
    inv = 1.0 / np.sqrt(np.where(found, size, 1.0))
    v = [np.where(found, v[0] * inv, 1.0), v[1] * inv, v[2] * inv]
    # u1 = conj(v x e_i) / |v x e_i| for i the axis of v's smallest entry
    m0, m1, m2 = (_sq_abs(w) for w in v)
    i0 = (m0 <= m1) & (m0 <= m2)
    i1 = ~i0 & (m1 <= m2)
    w = [np.where(i0, 0.0, np.where(i1, -v[2], v[1])),
         np.where(i0, v[2], np.where(i1, 0.0, -v[0])),
         np.where(i0, -v[1], np.where(i1, v[0], 0.0))]
    inv = 1.0 / np.sqrt(m0 + m1 + m2 - np.where(i0, m0, np.where(i1, m1, m2)))
    u1 = [conj(c) * inv for c in w]
    cv = [conj(c) for c in v]
    u2 = [(cv[1] * w[2] - cv[2] * w[1]) * inv, (cv[2] * w[0] - cv[0] * w[2]) * inv,
          (cv[0] * w[1] - cv[1] * w[0]) * inv]
    # the 2 x 2 block [u1 u2]^H G [u1 u2] from the upper triangle of G
    gu2 = [d0 * u2[0] + x * u2[1] + y * u2[2],
           conj(x) * u2[0] + d1 * u2[1] + z * u2[2],
           conj(y) * u2[0] + conj(z) * u2[1] + d2 * u2[2]]
    b11 = d0 * _sq_abs(u1[0]) + d1 * _sq_abs(u1[1]) + d2 * _sq_abs(u1[2]) + 2.0 * (
        _re_dot(x * u1[1], u1[0]) + _re_dot(y * u1[2], u1[0]) + _re_dot(z * u1[2], u1[1]))
    b22 = _re_dot(gu2[0], u2[0]) + _re_dot(gu2[1], u2[1]) + _re_dot(gu2[2], u2[2])
    b12 = conj(u1[0]) * gu2[0] + conj(u1[1]) * gu2[1] + conj(u1[2]) * gu2[2]
    c, s = _rotation(b11, b22, b12)
    cs = conj(s)
    rows = [(v[k], c * u1[k] - cs * u2[k], s * u1[k] + c * u2[k]) for k in range(3)]
    return np.array(rows).reshape((3, 3) + batch)


def _sq_abs(w: np.ndarray) -> np.ndarray:
    return w.real * w.real + w.imag * w.imag if np.iscomplexobj(w) else w * w


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a conj(b)), elementwise."""
    return a.real * b.real + a.imag * b.imag if np.iscomplexobj(a) else a * b


def _rotation(gii: np.ndarray, gjj: np.ndarray, gij: np.ndarray):
    """(c, s) of the smaller rotation [[c, s], [-conj(s), c]] that makes each
    positive semidefinite [[gii, gij], [conj(gij), gjj]] diagonal.

    Each matrix is first scaled by a power of two to a larger diagonal
    entry in [1/2, 1), and an off-diagonal entry that is then below the
    smallest normal number counts as zero, so that |g_ij| is never rounded
    on the grid of subnormals.  t = tan(theta) = sign(h) |g_ij| / (|h| +
    sqrt(h^2 + |g_ij|^2)), h = (g_jj - g_ii) / 2, is taken with h and
    |g_ij| both divided by the larger of them: nothing overflows, and the
    denominator is at least 1 (or 1 is added, for a matrix already
    diagonal with g_ii = g_jj)."""
    scale = _inverse_power_of_two(np.maximum(gii, gjj))
    gij = gij * scale
    size = np.abs(gij)
    size *= size >= np.finfo(float).tiny
    h = 0.5 * (gjj - gii) * scale
    big = np.maximum(size, np.abs(h))
    flat = big == 0
    big = big + flat
    hn, sn = np.abs(h) / big, size / big
    u = np.copysign(1.0, h) / (hn + np.sqrt(hn * hn + sn * sn) + flat)
    c = 1.0 / np.sqrt(1.0 + (u * sn) ** 2)
    return c, (c * u / big) * gij


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
    minimizer of ``gamma * |s| + (s - a)^2 / 2`` per entry.  It is taken
    as ``a - clip(a, -gamma, gamma)``, in one new array: the same values,
    except that an entry shrunk to zero is +0.0 whatever its sign.
    """
    if not np.isfinite(gamma) or gamma < 0:
        raise InputError(f"soft_threshold needs gamma >= 0, got {gamma}")
    a = np.asarray(a, dtype=float)
    out = np.clip(a, -gamma, gamma)
    return np.subtract(a, out, out=out)
