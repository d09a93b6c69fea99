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
and the objective; ||X||^2 is summed once per fit.

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
# no fit calls stack_rotate or unstack; perfbench/spans.py traces them in this module
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
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if not (self.epsilon > 0):
            raise InputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")
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


def _apply_block(st: SolverState, block: str, step: Callable, t: int):
    """Set one block to its update; a numeric failure inside the step, or a
    non-finite result, raises NumericError naming the block and iteration.
    Returns what the W and H steps report with their update (W.T X and
    the spectral norm), None for the other blocks."""
    try:
        value = step()
    except NumericError as exc:
        raise NumericError(f"block {block} at iteration {t}: {exc}") from exc
    value, extra = value if block in ("W", "H") else (value, None)
    if not all(np.isfinite(a).all() for a in (value if isinstance(value, list) else [value])):
        raise NumericError(f"block {block} has non-finite entries at iteration {t}")
    setattr(st, block, value)
    return extra


def update_W(ds: MultiViewDataset, st: SolverState) -> tuple[list, np.ndarray]:
    """Per view, the orthonormal basis maximizing Tr(W.T X (S+H).T).

    Returns the bases and the (m, k, n) stack of their projections W.T X,
    which the S and H steps and the objective of the same sweep read."""
    w = [procrustes_max_trace(x @ t.T) for x, t in zip(ds.views, st.S + st.H)]
    return w, np.stack([b.T @ x for b, x in zip(w, ds.views)])


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
    return (wtx - st.S) / (lam3 + 1.0) + lam3 / (lam3 + 1.0) * (st.C @ st.Y)


def update_H(hp: Hyperparams, st: SolverState, wtx: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact prox step of the tensor spectral penalty at the blended target.

    Returns the new H and its tensor nuclear norm; at lambda2 = 0 the prox
    is the identity and the norm, which the objective weighs by zero, is
    reported as 0.0 without a decomposition."""
    targets = _h_targets(hp, st, wtx)
    if hp.lambda2 == 0:
        return targets, 0.0
    return tubal_shrinkage(targets, hp.lambda2 / (2.0 * (hp.lambda3 + 1.0)))


def _update_H_matrix_nuclear(
    hp: Hyperparams, st: SolverState, wtx: np.ndarray
) -> tuple[np.ndarray, float]:
    """Variant H step: independent per-view singular value thresholding.

    Returns the new H and the sum of its per-view nuclear norms, reported
    as 0.0 at lambda2 = 0, as in ``update_H``."""
    targets = _h_targets(hp, st, wtx)
    if hp.lambda2 == 0:
        return targets, 0.0
    h, norms = svt(targets, hp.lambda2 / (2.0 * (hp.lambda3 + 1.0)))
    return h, float(norms.sum())


def update_Y(st: SolverState) -> np.ndarray:
    """Column-wise simplex projection of the mean rotated representation."""
    return project_columns((st.C.swapaxes(1, 2) @ st.H).sum(axis=0) / len(st.H))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product, summed by numpy rather than BLAS so that
    its rounding does not depend on the BLAS thread count."""
    return float(np.sum(a * b))


def _sq_norm(a: np.ndarray) -> float:
    return _dot(a, a)


def variant_objective(
    hp: Hyperparams, st: SolverState, wtx: np.ndarray, x_sq: float,
    spectral: float | None = None,
) -> float:
    """Model objective: reconstruction + l1 + spectral penalty + consensus
    alignment.

    Reconstruction is ||X||^2 - 2 <W.T X, S + H> + ||S + H||^2 summed over
    views, from ``x_sq`` = sum_v ||X^v||^2 and the stack ``wtx`` of W.T X
    that the W step returned; it equals sum_v ||X^v - W^v (S^v + H^v)||^2
    only for column-orthonormal W.  Every call in ``fit_variant`` comes
    after a W update, where W is orthonormal; a caller with any other W
    gets a wrong value.

    ``spectral`` is the variant's own unweighted spectral norm of st.H
    (tensor nuclear norm, or summed per-view matrix nuclear norms), as the
    H step that produced st.H returned it; without it the norm is
    recomputed from st.H by a batched or per-view SVD.  The l1 and
    alignment terms add zero for ``no_S`` and ``no_Y``, whose S stays zero
    and whose lambda3 is zero."""
    latent = st.S + st.H
    fidelity = x_sq - 2.0 * _dot(wtx, latent) + _sq_norm(latent)
    l1 = hp.lambda1 * float(np.abs(st.S).sum())
    if spectral is None:
        if hp.variant == "matrix_nuclear":
            spectral = sum(float(thin_svd(h)[1].sum()) for h in st.H)
        else:
            spectral = tensor_nuclear_norm(st.H)
    align = hp.lambda3 * _sq_norm(st.H - st.C @ st.Y)
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
        return st.H.reshape(-1, st.H.shape[2])
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
    # what the W and H steps report with their updates: W.T X, spectral norm
    reported = {}
    steps = [("W", lambda: update_W(ds, st))]
    if variant != "no_Y":
        steps.append(("C", lambda: update_C(st)))
    if variant != "no_S":
        steps.append(("S", lambda: update_S(hp, st, reported["W"])))
    steps.append(("H", lambda: h_step(hp, st, reported["W"])))
    if variant != "no_Y":
        steps.append(("Y", lambda: update_Y(st)))
    prev_embed = clustering_embedding(st, variant).copy()
    trace: list[TraceRecord] = []
    # overflow surfaces as a non-finite block or objective, which
    # _apply_block and the objective check report as NumericError;
    # numpy's own warnings would only repeat it
    with np.errstate(all="ignore"):
        x_sq = sum(_sq_norm(x) for x in ds.views)
    for t in range(1, hp.max_iter + 1):
        tic = time.perf_counter()
        with np.errstate(all="ignore"):
            for block, step in steps:
                reported[block] = _apply_block(st, block, step, t)
            embed = clustering_embedding(st, variant)
            prev_norm = _sq_norm(prev_embed)
            change = _sq_norm(embed - prev_embed)
            obj = (variant_objective(hp, st, reported["W"], x_sq, spectral=reported["H"])
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

