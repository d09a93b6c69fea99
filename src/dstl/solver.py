"""Alternating closed-form solver for the disentangled multi-view model.

Each view X^v (d_v x n) is factored as W^v (S^v + H^v) with a
column-orthonormal basis W^v and a latent representation split into a
sparse component S^v (elementwise l1 penalty, weight lambda1) and a
structured component H^v (spectral penalty on the stacked k x m x n
tensor, weight lambda2).  The H^v are tied across views to a shared
column-stochastic indicator Y through per-view rotations C^v (weight
lambda3).  Every block subproblem has an exact closed-form minimizer, so
the objective is non-increasing across updates.

Blocks are updated in the fixed order W, C, S, H, Y from an all-zero
state; the loop stops once the relative squared change of the indicator
falls to epsilon (``stop_reason`` names why a run stopped).

The objective recorded after each sweep takes one decomposition per
sweep, the H step's own, and none at lambda2 = 0: the H steps return the
spectral norm of the H they produce, read off the singular values they
have just shrunk, and the fidelity term uses the orthonormal-basis identity
||X - W T||^2 = ||X||^2 - 2 <W.T X, T> + ||T||^2, so no d x n residual
is formed.  The l1 and alignment terms are summed directly.

Variants drop one ingredient at a time: ``no_S`` pins S at zero,
``matrix_nuclear`` swaps the tensor spectral penalty for independent
per-view matrix nuclear norms, and ``no_Y`` drops the consensus coupling
(clustering then runs on the row-concatenated H^v).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import MultiViewDataset
from .errors import InputError, NumericError
from .linalg import procrustes_max_trace, soft_threshold, svt, thin_svd
from .simplex import project_columns
from .slimtensor import stack_rotate, tensor_nuclear_norm, tubal_shrinkage, unstack

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
    """Solver knobs; ``k=None`` resolves to the dataset's class count."""

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
        for nm in ("max_iter", "seed") if self.k is None else ("k", "max_iter", "seed"):
            val = getattr(self, nm)
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise InputError(f"{nm} must be an integer, got {val!r}")
        if self.k is not None and self.k < 1:
            raise InputError(f"k must be >= 1, got {self.k}")
        if not (self.epsilon > 0):
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")


@dataclass
class SolverState:
    """All block variables; lists hold one array per view."""

    W: list  # (d_v, k) column-orthonormal after each W update
    S: list  # (k, n) sparse components
    H: list  # (k, n) structured components
    C: list  # (k, k) rotations, orthonormal after each C update
    Y: np.ndarray  # (k, n) indicator, columns on the simplex after each Y update


@dataclass(frozen=True)
class TraceRecord:
    iter: int
    objective: float
    delta_y: float
    elapsed_ms: float


def _zero_state(ds: MultiViewDataset, k: int) -> SolverState:
    n = ds.n_samples
    return SolverState(
        W=[np.zeros((d, k)) for d in ds.dims],
        S=[np.zeros((k, n)) for _ in ds.views],
        H=[np.zeros((k, n)) for _ in ds.views],
        C=[np.zeros((k, k)) for _ in ds.views],
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


def _apply_block(st: SolverState, block: str, step: Callable, t: int) -> float | None:
    """Set one block to its update; a numeric failure inside the step, or a
    non-finite result, raises NumericError naming the block and iteration.
    Returns the spectral norm an H step reports with its update, None for
    the other blocks."""
    try:
        value = step()
    except NumericError as exc:
        raise NumericError(f"block {block} at iteration {t}: {exc}") from exc
    value, spectral = value if block == "H" else (value, None)
    if not all(np.isfinite(a).all() for a in (value if isinstance(value, list) else [value])):
        raise NumericError(f"block {block} has non-finite entries at iteration {t}")
    setattr(st, block, value)
    return spectral


def update_W(ds: MultiViewDataset, st: SolverState) -> list:
    """Per view, the orthonormal basis maximizing Tr(W.T X (S+H).T)."""
    return [
        procrustes_max_trace(x @ (s + h).T)
        for x, s, h in zip(ds.views, st.S, st.H)
    ]


def update_C(st: SolverState) -> list:
    """Per view, the rotation maximizing Tr(C.T H Y.T)."""
    return [procrustes_max_trace(h @ st.Y.T) for h in st.H]


def update_S(ds: MultiViewDataset, hp: Hyperparams, st: SolverState) -> list:
    """Exact prox step: shrink W.T X - H elementwise by lambda1 / 2."""
    gamma = hp.lambda1 / 2.0
    return [
        soft_threshold(w.T @ x - h, gamma)
        for w, x, h in zip(st.W, ds.views, st.H)
    ]


def _h_targets(ds: MultiViewDataset, hp: Hyperparams, st: SolverState) -> list:
    """Per-view quadratic centers of the H subproblem: the
    (lambda3-weighted) blend of the reconstruction residual and the
    rotated indicator."""
    lam3 = hp.lambda3
    blend = lam3 / (lam3 + 1.0)
    return [
        (w.T @ x - s) / (lam3 + 1.0) + blend * (c @ st.Y)
        for w, x, s, c in zip(st.W, ds.views, st.S, st.C)
    ]


def update_H(ds: MultiViewDataset, hp: Hyperparams, st: SolverState) -> tuple[list, float]:
    """Exact prox step of the tensor spectral penalty at the blended target.

    Returns the new H and its tensor nuclear norm; at lambda2 = 0 the prox
    is the identity and the norm, which the objective weighs by zero, is
    reported as 0.0 without a decomposition."""
    targets = _h_targets(ds, hp, st)
    if hp.lambda2 == 0:
        return targets, 0.0
    q = stack_rotate(targets)
    rho = hp.lambda2 / (2.0 * (hp.lambda3 + 1.0))
    h, norm = tubal_shrinkage(q, rho)
    return unstack(h), norm


def _update_H_matrix_nuclear(
    ds: MultiViewDataset, hp: Hyperparams, st: SolverState
) -> tuple[list, float]:
    """Variant H step: independent per-view singular value thresholding.

    Returns the new H and the sum of its per-view nuclear norms, reported
    as 0.0 at lambda2 = 0, as in ``update_H``."""
    targets = _h_targets(ds, hp, st)
    if hp.lambda2 == 0:
        return targets, 0.0
    thr = hp.lambda2 / (2.0 * (hp.lambda3 + 1.0))
    h, norms = svt(np.stack(targets), thr)
    return list(h), float(norms.sum())


def update_Y(st: SolverState) -> np.ndarray:
    """Column-wise simplex projection of the mean rotated representation."""
    m = len(st.H)
    f = st.C[0].T @ st.H[0]
    for c, h in zip(st.C[1:], st.H[1:]):
        f = f + c.T @ h
    return project_columns(f / m)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product, summed by numpy rather than BLAS so that
    its rounding does not depend on the BLAS thread count."""
    return float(np.sum(a * b))


def _sq_norm(a: np.ndarray) -> float:
    return _dot(a, a)


def variant_objective(
    ds: MultiViewDataset, hp: Hyperparams, st: SolverState, spectral: float | None = None
) -> float:
    """Model objective: reconstruction + l1 + spectral penalty + consensus
    alignment.

    Reconstruction is summed per view as ||X||^2 - 2 <W.T X, S + H> +
    ||S + H||^2, which equals ||X - W (S + H)||^2 only for column-
    orthonormal W.  Every call in ``fit_variant`` comes after a W update,
    where W is orthonormal; a caller with any other W gets a wrong value.

    ``spectral`` is the variant's own unweighted spectral norm of st.H
    (tensor nuclear norm, or summed per-view matrix nuclear norms), as the
    H step that produced st.H returned it; without it the norm is
    recomputed from st.H by a batched or per-view SVD.  The l1 and
    alignment terms add zero for ``no_S`` and ``no_Y``, whose S stays zero
    and whose lambda3 is zero."""
    fidelity = 0.0
    for x, w, s, h in zip(ds.views, st.W, st.S, st.H):
        latent = s + h
        fidelity += _dot(x, x) - 2.0 * _dot(w.T @ x, latent) + _dot(latent, latent)
    l1 = hp.lambda1 * sum(float(np.abs(s).sum()) for s in st.S)
    if spectral is None:
        if hp.variant == "matrix_nuclear":
            spectral = sum(float(thin_svd(h)[1].sum()) for h in st.H)
        else:
            spectral = tensor_nuclear_norm(stack_rotate(st.H))
    align = hp.lambda3 * sum(_sq_norm(h - c @ st.Y) for h, c in zip(st.H, st.C))
    return float(fidelity + l1 + hp.lambda2 * spectral + align)


def stop_reason(trace: list[TraceRecord], hp: Hyperparams) -> str:
    """Why a ``fit_variant`` run with this trace stopped: ``converged`` once
    the embedding's relative change fell to epsilon (never judged on the
    first sweep, whose previous embedding is the zero start), else
    ``max_iter``."""
    if len(trace) >= 2 and trace[-1].delta_y <= hp.epsilon:
        return "converged"
    return "max_iter"


def clustering_embedding(st: SolverState, variant: str = "full") -> np.ndarray:
    """Matrix handed to k-means: the indicator Y, or the row-concatenated
    structured components for the variant that never forms Y."""
    if variant == "no_Y":
        return np.concatenate(st.H, axis=0)
    return st.Y


def constraint_violations(st: SolverState, variant: str = "full") -> dict:
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
    record_objective: bool = True,
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
    h_step = _update_H_matrix_nuclear if variant == "matrix_nuclear" else update_H
    steps = [("W", lambda: update_W(ds, st))]
    if variant != "no_Y":
        steps.append(("C", lambda: update_C(st)))
    if variant != "no_S":
        steps.append(("S", lambda: update_S(ds, hp, st)))
    steps.append(("H", lambda: h_step(ds, hp, st)))
    if variant != "no_Y":
        steps.append(("Y", lambda: update_Y(st)))
    prev_embed = clustering_embedding(st, variant).copy()
    trace: list[TraceRecord] = []
    for t in range(1, hp.max_iter + 1):
        tic = time.perf_counter()
        # overflow surfaces as a non-finite block or objective, which
        # _apply_block and the objective check report as NumericError;
        # numpy's own warnings would only repeat it
        with np.errstate(all="ignore"):
            for block, step in steps:
                norm = _apply_block(st, block, step, t)
                if block == "H":
                    spectral = norm
            embed = clustering_embedding(st, variant)
            prev_norm = _sq_norm(prev_embed)
            change = _sq_norm(embed - prev_embed)
            obj = (variant_objective(ds, hp, st, spectral=spectral)
                   if record_objective else float("nan"))
        if prev_norm > 0:
            delta = change / prev_norm
        else:
            delta = 0.0 if change == 0 else float("inf")
        if record_objective and not np.isfinite(obj):
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

