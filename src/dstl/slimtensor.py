"""Third-order tensor machinery for stacks of per-view feature matrices.

The solver holds m feature matrices (each k x n, with n the sample count)
views-first, as one (m, k, n) array.  The slim tensor of the model is its
(1, 0, 2) transpose, the k x m x n array whose third mode runs over
samples.  The spectral quantities here (nuclear norm, tubal shrinkage) act
on the frontal slices of the FFT taken along that sample mode, which is
axis 2 in both layouts.  Transposing every Fourier slice leaves its
singular values unchanged, so the routines take the (m, k, n) stack
directly and return results in the same layout.

For real input the spectrum is conjugate symmetric, so the routines
compute only the first floor(n/2)+1 slices and recover the rest by
mirroring (via rfft/irfft).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .linalg import svt

__all__ = [
    "stack_rotate",
    "unstack",
    "tensor_nuclear_norm",
    "tubal_shrinkage",
]


def stack_rotate(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack m equally-shaped (k, n) matrices views-first into an (m, k, n)
    array; entry (v, i, j) is entry (i, j) of the v-th input."""
    arrs = [np.asarray(m, dtype=float) for m in mats]
    if not arrs or any(a.ndim != 2 or a.shape != arrs[0].shape for a in arrs):
        raise InputError(
            f"stack_rotate needs equally-shaped matrices, got {[a.shape for a in arrs]}"
        )
    return np.stack(arrs)


def unstack(t: np.ndarray) -> list[np.ndarray]:
    """Recover the list of (k, n) matrices from an (m, k, n) stack."""
    return [np.ascontiguousarray(a) for a in t]


def _half_spectrum(t: np.ndarray):
    """rfft slices of an (m, k, n) stack moved to the batch axis, plus their
    multiplicity weights."""
    if np.ndim(t) != 3 or min(np.shape(t)) < 1:
        raise InputError(f"need a non-empty 3-d stack, got shape {np.shape(t)}")
    n = t.shape[2]
    half = np.moveaxis(np.fft.rfft(t, axis=2), 2, 0)  # (n//2 + 1, m, k)
    weights = np.full(half.shape[0], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return half, weights


def tensor_nuclear_norm(t: np.ndarray) -> float:
    """Sum of matrix nuclear norms of the Fourier-domain frontal slices.

    Conjugate slices share singular values, so only the half spectrum is
    decomposed and paired slices are counted twice.
    """
    half, weights = _half_spectrum(t)
    try:
        sv = np.linalg.svd(half, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("SVD failed inside tensor_nuclear_norm") from exc
    return float(np.sum(weights * sv.sum(axis=1)))


def tubal_shrinkage(t: np.ndarray, rho: float) -> tuple[np.ndarray, float]:
    """Proximal step of ``rho * tensor_nuclear_norm`` at the (m, k, n)
    stack t, and the tensor nuclear norm of the result.

    Each Fourier-domain frontal slice of the half spectrum has its
    singular values shrunk by n * rho (n the sample-mode length) in one
    batched ``svt`` call; mirroring and the inverse transform keep the
    result real.  Its norm is sum_f w_f sum_i max(sigma_fi - n * rho, 0),
    w_f the slice multiplicities, read off the shrunk singular values
    without a second decomposition, within the precision ``svt`` states.
    """
    if not np.isfinite(rho) or rho < 0:
        raise InputError(f"tubal_shrinkage needs rho >= 0, got {rho}")
    if rho == 0:
        return np.array(t, dtype=float), tensor_nuclear_norm(t)
    half, weights = _half_spectrum(t)
    n = t.shape[2]
    shrunk, norms = svt(half, n * rho)
    out = np.fft.irfft(np.moveaxis(shrunk, 0, 2), n=n, axis=2)
    return out, float(np.sum(weights * norms))
