"""Alternating closed-form solver for the disentangled multi-view model.

Each view X^v (d_v x n) is factored as W^v (S^v + H^v) with a
column-orthonormal basis W^v and a latent representation split into a
sparse component S^v (elementwise l1 penalty, weight lambda1) and a
structured component H^v (spectral penalty on the stacked k x m x n
tensor, weight lambda2).  The H^v are tied across views to a shared
column-stochastic indicator Y through per-view rotations C^v (weight
lambda3).  Every block subproblem has an exact closed-form minimizer, so
the objective is non-increasing across updates.

The state is held views-first: S and H are (m, k, n) stacks and C an
(m, k, k) stack, so the C, S, H-target, Y and alignment steps are single
batched expressions.  The slim tensor of the spectral penalty is the
(1, 0, 2) transpose of H, and the tensor routines take H as it is.  W
stays a list of (d_v, k) bases, because d_v differs across views.

Blocks are updated in the fixed order W, C, S, H, Y from an all-zero
state; the loop stops once the relative squared change of the indicator
falls to epsilon (``stop_reason`` names why a run stopped).  Each sweep
forms W.T X once, in the W step, which returns it for the S and H steps
and the objective; ||X||^2 is summed once per fit.  One H step serves
both spectral penalties: the same batched singular value thresholding
acts on the Fourier slices of the slim tensor, or on the views for
``matrix_nuclear``.

The objective recorded after each sweep takes one decomposition per
sweep, the H step's own, and none at lambda2 = 0: the H step returns the
spectral norm of the H it produces, read off the singular values it
has just shrunk, and the fidelity term uses the orthonormal-basis identity
||X - W T||^2 = ||X||^2 - 2 <W.T X, T> + ||T||^2, so no d x n residual
is formed, except in a fit that explains all but 2^-12 of its data's
energy, where the identity would be mostly rounding.  The l1 and
alignment terms are summed directly.

Variants drop one ingredient at a time: ``no_S`` skips the S step, so S
stays zero, ``matrix_nuclear`` swaps the tensor spectral penalty for
independent per-view matrix nuclear norms, and ``no_Y`` skips the C and
Y steps, dropping the consensus coupling (clustering then runs on the
row-concatenated H^v).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import MultiViewDataset
from .errors import InputError, NumericError, check_integers
from .linalg import procrustes_max_trace, soft_threshold, svt
from .simplex import project_columns
from .slimtensor import tubal_shrinkage
# no fit calls these; perfbench/spans.py traces them in this module
from .linalg import thin_svd
from .slimtensor import stack_rotate, tensor_nuclear_norm, unstack

__all__ = [
    "VARIANTS",
    "Hyperparams",
    "SolverState",
    "TraceRecord",
    "variant_objective",
    "update_W",
    "update_C",
    "update_S",
    "update_H",
    "update_Y",
    "fit_variant",
    "stop_reason",
    "clustering_embedding",
    "constraint_violations",
]

VARIANTS = ("full", "no_S", "matrix_nuclear", "no_Y")


@dataclass(frozen=True)
class Hyperparams:
    """Solver knobs; ``k=None`` resolves to the dataset's class count.

    The solver never reads ``seed``: a fit starts from an all-zero state.
    The CLI uses it as the base seed of the k-means repeats (seed + r for
    repeat r)."""

    lambda1: float = 1.0
    lambda2: float = 0.01
    lambda3: float = 1e-4
    k: int | None = None
    epsilon: float = 1e-4
    max_iter: int = 100
    seed: int = 0
    variant: str = "full"

    def __post_init__(self):
        for nm in ("lambda1", "lambda2", "lambda3"):
            val = getattr(self, nm)
            if not np.isfinite(val) or val < 0:
                raise InputError(f"{nm} must be a finite nonnegative number, got {val}")
        if self.k is not None:
            check_integers(self, k=1)
        check_integers(self, max_iter=1, seed=0)
        if not (self.epsilon > 0):
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


@dataclass
class SolverState:
    """All block variables; S, H and C are stacked views-first."""

    W: list  # per view (d_v, k), column-orthonormal after each W update
    S: np.ndarray  # (m, k, n) sparse components
    H: np.ndarray  # (m, k, n) structured components
    C: np.ndarray  # (m, k, k) rotations, orthonormal after each C update
    Y: np.ndarray  # (k, n) indicator, columns on the simplex after each Y update


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    objective: float
    delta_y: float
    elapsed_ms: float


def _zero_state(ds: MultiViewDataset, k: int) -> SolverState:
    m, n = ds.n_views, ds.n_samples
    return SolverState(
        W=[np.zeros((d, k)) for d in ds.dims],
        S=np.zeros((m, k, n)),
        H=np.zeros((m, k, n)),
        C=np.zeros((m, k, k)),
        Y=np.zeros((k, n)),
    )


def resolve_k(ds: MultiViewDataset, hp: Hyperparams) -> int:
    if hp.k is not None:
        k = hp.k
    elif ds.labels is not None:
        k = ds.n_classes
    else:
        raise InputError("k is unset and the dataset has no labels to infer it from")
    if k > min(ds.dims):
        raise InputError(f"k={k} exceeds the smallest view dimension {min(ds.dims)}")
    return k


@contextmanager
def _updating(st: SolverState, block: str, t: int):
    """Guard one block update: a numeric failure inside it, or a non-finite
    block after it, raises NumericError naming the block and iteration."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(f"block {block} at iteration {t}: {exc}") from exc
    value = getattr(st, block)
    if not all(np.isfinite(a).all() for a in (value if isinstance(value, list) else [value])):
        raise NumericError(f"block {block} has non-finite entries at iteration {t}")


def update_W(ds: MultiViewDataset, st: SolverState) -> tuple[list, np.ndarray]:
    """Per view, the orthonormal basis maximizing Tr(W.T X (S+H).T).

    Returns the bases and the (m, k, n) stack of their projections W.T X,
    which the S and H steps and the objective of the same sweep read."""
    w = [procrustes_max_trace(x @ t.T) for x, t in zip(ds.views, st.S + st.H)]
    wtx = np.empty(st.H.shape)
    for v, (b, x) in enumerate(zip(w, ds.views)):
        np.matmul(b.T, x, out=wtx[v])
    return w, wtx


def update_C(st: SolverState) -> np.ndarray:
    """Per view, the rotation maximizing Tr(C.T H Y.T)."""
    return np.stack([procrustes_max_trace(a) for a in st.H @ st.Y.T])


def update_S(hp: Hyperparams, st: SolverState, wtx: np.ndarray) -> np.ndarray:
    """Exact prox step: shrink W.T X - H elementwise by lambda1 / 2."""
    return soft_threshold(wtx - st.H, hp.lambda1 / 2.0)


def _h_targets(hp: Hyperparams, st: SolverState, wtx: np.ndarray) -> np.ndarray:
    """Per-view quadratic centers of the H subproblem: the
    (lambda3-weighted) blend of the reconstruction residual and the
    rotated indicator."""
    lam3 = hp.lambda3
    t = wtx - st.S
    t /= lam3 + 1.0
    cy = st.C @ st.Y
    cy *= lam3 / (lam3 + 1.0)
    t += cy
    return t


def update_H(hp: Hyperparams, st: SolverState, wtx: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact prox step of the variant's spectral penalty at the blended
    target: tubal singular value thresholding, or for ``matrix_nuclear``
    singular value thresholding of each view, done on the small factor R^T
    of its thin QR R^T Q^T (Golub & Van Loan, Matrix Computations, 5.2):
    R^T has the view's singular values, and Q^T has orthonormal rows.

    Returns the new H and its spectral norm (the tensor nuclear norm, or
    the sum of the per-view nuclear norms); at lambda2 = 0 the prox is the
    identity and the norm, which the objective weighs by zero, is reported
    as 0.0 without a decomposition."""
    targets = _h_targets(hp, st, wtx)
    if hp.lambda2 == 0:
        return targets, 0.0
    tau = hp.lambda2 / (2.0 * (hp.lambda3 + 1.0))
    if hp.variant == "matrix_nuclear":
        # each k x n view is R^T Q^T, from the thin QR of its transpose
        q, r = np.linalg.qr(targets.swapaxes(1, 2))
        h, norms = svt(r.swapaxes(1, 2), tau)
        return h @ q.swapaxes(1, 2), float(norms.sum())
    return tubal_shrinkage(targets, tau)


def update_Y(st: SolverState) -> np.ndarray:
    """Column-wise simplex projection of the mean rotated representation."""
    return project_columns((st.C.swapaxes(1, 2) @ st.H).sum(axis=0) / len(st.H))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product, summed by numpy rather than BLAS so that
    its rounding does not depend on the BLAS thread count."""
    return float(np.sum(a * b))


def _sq_norm(a: np.ndarray) -> float:
    return _dot(a, a)


# variant_objective sums its fidelity term directly below this many
# eps ||X||^2 (2^-12 ||X||^2): there the identity's error of a few
# eps ||X||^2 could pass 1e-10 of its value
_IDENTITY_FLOOR = 2.0**40


def variant_objective(
    hp: Hyperparams, st: SolverState, views, wtx: np.ndarray, x_sq: float, spectral: float
) -> float:
    """Model objective: reconstruction + l1 + spectral penalty + consensus
    alignment.

    Reconstruction is ||X||^2 - 2 <W.T X, S + H> + ||S + H||^2 summed over
    views, from ``x_sq`` = sum_v ||X^v||^2 and the stack ``wtx`` of W.T X
    that the W step returned; it equals sum_v ||X^v - W^v (S^v + H^v)||^2
    only for column-orthonormal W.  Every call in ``fit_variant`` comes
    after a W update, where W is orthonormal; a caller with any other W
    gets a wrong value.  The identity's absolute rounding error is a few
    eps ||X||^2, so a fit that reconstructs its data would read as noise
    around zero, or below it; where the identity gives less than
    _IDENTITY_FLOOR eps ||X||^2 (2^-12 ||X||^2), the same term is summed
    from the ``views`` as sum_v ||X^v - W^v W^v.T X^v||^2 + ||W.T X -
    (S + H)||^2, free of that cancellation.

    ``spectral`` is the variant's own unweighted spectral norm of st.H
    (tensor nuclear norm, or summed per-view matrix nuclear norms), as the
    H step that produced st.H returned it.  The l1 and
    alignment terms add zero for ``no_S`` and ``no_Y``, whose S stays zero
    and whose lambda3 is zero."""
    latent = st.S + st.H
    fidelity = x_sq - 2.0 * _dot(wtx, latent) + _sq_norm(latent)
    if fidelity < _IDENTITY_FLOOR * np.finfo(float).eps * x_sq:
        fidelity = sum(_sq_norm(x - w @ p) for x, w, p in zip(views, st.W, wtx)) \
            + _sq_norm(wtx - latent)
    l1 = hp.lambda1 * float(np.abs(st.S).sum())
    r = st.C @ st.Y
    np.subtract(st.H, r, out=r)
    align = hp.lambda3 * _sq_norm(r)
    return float(fidelity + l1 + hp.lambda2 * spectral + align)


def stop_reason(trace: list[TraceRecord], hp: Hyperparams) -> str:
    """Why a ``fit_variant`` run with this trace stopped: ``converged`` once
    the embedding's relative change fell to epsilon (never judged on the
    first sweep, whose previous embedding is the zero start), else
    ``max_iter``."""
    if len(trace) >= 2 and trace[-1].delta_y <= hp.epsilon:
        return "converged"
    return "max_iter"


def clustering_embedding(st: SolverState, variant: str) -> np.ndarray:
    """Matrix handed to k-means: the indicator Y, or the row-concatenated
    structured components for the variant that never forms Y."""
    if variant == "no_Y":
        return st.H.reshape(-1, st.H.shape[2])
    return st.Y


def constraint_violations(st: SolverState, variant: str) -> dict:
    """Worst feasibility deviations; None for the blocks ``no_Y`` never updates (C, Y)."""
    eye_dev = lambda a: float(np.max(np.abs(a.T @ a - np.eye(a.shape[1]))))
    coupled = variant != "no_Y"
    return {
        "w_orthonormality": max(eye_dev(w) for w in st.W),
        "c_orthonormality": max(eye_dev(c) for c in st.C) if coupled else None,
        "y_column_sum": float(np.max(np.abs(st.Y.sum(axis=0) - 1.0))) if coupled else None,
        "y_negativity": float(max(0.0, -st.Y.min())) if coupled else None,
    }


def fit_variant(
    ds: MultiViewDataset,
    hp: Hyperparams,
    *,
    callback: Callable[[SolverState, TraceRecord], None] | None = None,
):
    """Run the alternating solver for hp.variant.

    Returns (state, trace).  The trace objective is the variant's own
    (reduced) objective, with lambda3 taken as zero for ``no_Y``; it takes
    its spectral term from the sweep's H step and equals a direct
    evaluation up to rounding.  delta_y tracks the clustering embedding,
    which is Y except for ``no_Y`` where it is the concatenated H; two
    identical all-zero embeddings count as unchanged (delta_y = 0).  The
    convergence test is skipped on the first iteration (the previous
    embedding is the zero initialization).  A non-finite block or
    objective raises NumericError.
    """
    variant = hp.variant
    if variant == "no_Y":
        # the model with the alignment term absent: the lambda3 -> 0 limit
        hp = replace(hp, lambda3=0.0)
    k = resolve_k(ds, hp)
    st = _zero_state(ds, k)
    prev_embed = clustering_embedding(st, variant).copy()
    trace: list[TraceRecord] = []
    # overflow surfaces as a non-finite block or objective, which
    # _updating and the objective check report as NumericError;
    # numpy's own warnings would only repeat it
    with np.errstate(all="ignore"):
        x_sq = sum(_sq_norm(x) for x in ds.views)
    for t in range(1, hp.max_iter + 1):
        tic = time.perf_counter()
        with np.errstate(all="ignore"):
            with _updating(st, "W", t):
                st.W, wtx = update_W(ds, st)
            if variant != "no_Y":
                with _updating(st, "C", t):
                    st.C = update_C(st)
            if variant != "no_S":
                with _updating(st, "S", t):
                    st.S = update_S(hp, st, wtx)
            with _updating(st, "H", t):
                st.H, spectral = update_H(hp, st, wtx)
            if variant != "no_Y":
                with _updating(st, "Y", t):
                    st.Y = update_Y(st)
            embed = clustering_embedding(st, variant)
            prev_norm = _sq_norm(prev_embed)
            change = _sq_norm(embed - prev_embed)
            obj = variant_objective(hp, st, ds.views, wtx, x_sq, spectral)
        if prev_norm > 0:
            delta = change / prev_norm
        else:
            delta = 0.0 if change == 0 else float("inf")
        if not np.isfinite(obj):
            raise NumericError(f"objective is not finite at iteration {t}")
        rec = TraceRecord(
            iter=t,
            objective=obj,
            delta_y=delta,
            elapsed_ms=(time.perf_counter() - tic) * 1e3,
        )
        trace.append(rec)
        if callback is not None:
            callback(st, rec)
        prev_embed = embed.copy()
        if stop_reason(trace, hp) == "converged":
            break
    return st, trace

