"""Third-order tensor machinery for stacks of per-view feature matrices.

A collection of m feature matrices (each k x n, with n the sample count)
is arranged as a k x m x n array whose third mode runs over samples.  The
spectral quantities here (nuclear norm, tubal shrinkage) act on the
frontal slices of the FFT taken along that sample mode.

For real input the spectrum is conjugate symmetric, so the routines
compute only the first floor(n/2)+1 slices and recover the rest by
mirroring (via rfft/irfft).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError
from .linalg import svt

__all__ = [
    "SlimTensor",
    "stack_rotate",
    "unstack",
    "tensor_nuclear_norm",
    "tubal_shrinkage",
]


@dataclass(frozen=True)
class SlimTensor:
    """Real k x m x n array: m lateral slices of per-view features."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 3:
            raise InputError(f"SlimTensor needs a 3-d array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise InputError(f"SlimTensor dimensions must be >= 1, got {arr.shape}")
        object.__setattr__(self, "data", arr)


def stack_rotate(mats: Sequence[np.ndarray]) -> SlimTensor:
    """Arrange m equally-shaped (k, n) matrices into a k x m x n tensor.

    Matrix v becomes the lateral slice [:, v, :], so entry (i, v, j) of
    the tensor is entry (i, j) of the v-th input.
    """
    if len(mats) == 0:
        raise InputError("stack_rotate needs at least one matrix")
    arrs = [np.asarray(m, dtype=float) for m in mats]
    shape = arrs[0].shape
    for v, a in enumerate(arrs):
        if a.ndim != 2:
            raise InputError(f"stack_rotate: input {v} is not a matrix (ndim={a.ndim})")
        if a.shape != shape:
            raise InputError(
                f"stack_rotate: input {v} has shape {a.shape}, expected {shape}"
            )
    return SlimTensor(np.stack(arrs, axis=1))


def unstack(t: SlimTensor) -> list[np.ndarray]:
    """Recover the list of (k, n) matrices from a k x m x n tensor."""
    return [np.ascontiguousarray(t.data[:, v, :]) for v in range(t.data.shape[1])]


def _half_spectrum(data: np.ndarray):
    """rfft slices moved to the batch axis plus their multiplicity weights."""
    n = data.shape[2]
    half = np.moveaxis(np.fft.rfft(data, axis=2), 2, 0)  # (n//2 + 1, k, m)
    weights = np.full(half.shape[0], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return half, weights


def tensor_nuclear_norm(t: SlimTensor) -> float:
    """Sum of matrix nuclear norms of the Fourier-domain frontal slices.

    Conjugate slices share singular values, so only the half spectrum is
    decomposed and paired slices are counted twice.
    """
    half, weights = _half_spectrum(t.data)
    try:
        sv = np.linalg.svd(half, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("SVD failed inside tensor_nuclear_norm") from exc
    return float(np.sum(weights * sv.sum(axis=1)))


def tubal_shrinkage(t: SlimTensor, rho: float) -> tuple[SlimTensor, float]:
    """Proximal step of ``rho * tensor_nuclear_norm`` at t, and the tensor
    nuclear norm of the result.

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
        return SlimTensor(t.data.copy()), tensor_nuclear_norm(t)
    n = t.data.shape[2]
    half, weights = _half_spectrum(t.data)
    shrunk, norms = svt(half, n * rho)
    out = np.fft.irfft(np.moveaxis(shrunk, 0, 2), n=n, axis=2)
    return SlimTensor(out), float(np.sum(weights * norms))
