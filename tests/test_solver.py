import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import dstl.slimtensor as slimtensor
import dstl.solver as solver
from dstl.data import MultiViewDataset, SynthSpec, generate_synthetic
from dstl.errors import InputError, NumericError
from dstl.solver import (
    VARIANTS,
    Hyperparams,
    SolverState,
    clustering_embedding,
    constraint_violations,
    fit_variant,
    resolve_k,
    update_C,
    update_H,
    update_S,
    update_W,
    update_Y,
    variant_objective,
)

from conftest import (
    data_energy,
    projections,
    random_column_stochastic,
    random_orthonormal,
    tnn_oracle,
)


def zero_state(ds, k):
    m, n = ds.n_views, ds.n_samples
    return SolverState(
        W=[np.zeros((d, k)) for d in ds.dims],
        S=np.zeros((m, k, n)),
        H=np.zeros((m, k, n)),
        C=np.zeros((m, k, k)),
        Y=np.zeros((k, n)),
    )


def random_state(rng, ds, k):
    n = ds.n_samples
    return SolverState(
        W=[random_orthonormal(rng, d, k) for d in ds.dims],
        S=np.stack([rng.standard_normal((k, n)) for _ in ds.views]),
        H=np.stack([rng.standard_normal((k, n)) for _ in ds.views]),
        C=np.stack([random_orthonormal(rng, k, k) for _ in ds.views]),
        Y=random_column_stochastic(rng, k, n),
    )


def objective(ds, hp, st):
    """variant_objective at st, with W.T X and ||X||^2 formed from ds."""
    return variant_objective(hp, st, projections(ds.views, st.W), data_energy(ds.views))


def small_dataset(seed=0, n=40, c=3, m=2, dims=(8, 7)):
    return generate_synthetic(
        SynthSpec(n=n, c=c, m=m, dims=dims, noise_sigma=0.05, seed=seed)
    )


def oracle_objective(ds, hp, st):
    """Term-by-term recomputation of the full objective, using the loop
    oracle for the tensor norm."""
    fidelity = sum(
        float(np.sum((x - w @ (s + h)) ** 2))
        for x, w, s, h in zip(ds.views, st.W, st.S, st.H)
    )
    l1 = hp.lambda1 * sum(float(np.abs(s).sum()) for s in st.S)
    spectral = hp.lambda2 * tnn_oracle(st.H)
    align = hp.lambda3 * sum(
        float(np.sum((h - c @ st.Y) ** 2)) for h, c in zip(st.H, st.C)
    )
    return fidelity + l1 + spectral + align


def test_objective_of_zero_state_is_data_energy():
    ds = small_dataset()
    hp = Hyperparams(k=3)
    st = zero_state(ds, 3)
    want = sum(float(np.sum(x**2)) for x in ds.views)
    assert abs(objective(ds, hp, st) - want) <= 1e-10 * want


def test_objective_matches_term_oracle():
    ds = small_dataset()
    hp = Hyperparams(lambda1=0.7, lambda2=0.3, lambda3=0.05, k=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        st = random_state(rng, ds, 3)
        want = oracle_objective(ds, hp, st)
        got = objective(ds, hp, st)
        assert abs(got - want) <= 1e-10 * (1.0 + want)


def test_update_w_fixed_point():
    # X = W0 G with G full row rank: W0 already maximizes the trace
    rng = np.random.default_rng(1)
    k, n = 3, 12
    w0 = [random_orthonormal(rng, 7, k), random_orthonormal(rng, 6, k)]
    g = [rng.standard_normal((k, n)) for _ in range(2)]
    ds = MultiViewDataset(tuple(w @ gi for w, gi in zip(w0, g)))
    st = zero_state(ds, k)
    st.S = 0.4 * np.stack(g)
    st.H = 0.6 * np.stack(g)
    ws, wtx = update_W(ds, st)
    for got, want in zip(ws, w0):
        assert np.max(np.abs(got - want)) <= 1e-8
    assert np.array_equal(wtx, projections(ds.views, ws))


def test_update_w_minimizes_fidelity():
    rng = np.random.default_rng(2)
    ds = small_dataset()
    st = random_state(rng, ds, 3)
    new_w, _ = update_W(ds, st)

    def fidelity(ws):
        return sum(
            float(np.sum((x - w @ (s + h)) ** 2))
            for x, w, s, h in zip(ds.views, ws, st.S, st.H)
        )

    base = fidelity(new_w)
    assert base <= fidelity(st.W) + 1e-9
    for _ in range(200):
        cand = [random_orthonormal(rng, d, 3) for d in ds.dims]
        assert base <= fidelity(cand) + 1e-9


def test_update_c_identity_when_h_equals_y():
    rng = np.random.default_rng(3)
    k, n = 4, 30
    y = random_column_stochastic(rng, k, n)
    ds = MultiViewDataset((rng.standard_normal((6, n)),))
    st = zero_state(ds, k)
    st.H = y[None].copy()
    st.Y = y
    c = update_C(st)[0]
    assert np.max(np.abs(c - np.eye(k))) <= 1e-8


def test_update_s_prox_identity_and_saturation():
    rng = np.random.default_rng(4)
    ds = small_dataset()
    st = random_state(rng, ds, 3)
    wtx = projections(ds.views, st.W)
    free = update_S(Hyperparams(lambda1=0.0, k=3), st, wtx)
    for s, w, x, h in zip(free, st.W, ds.views, st.H):
        assert np.array_equal(s, w.T @ x - h)
    crushed = update_S(Hyperparams(lambda1=1e9, k=3), st, wtx)
    for s in crushed:
        assert np.array_equal(s, np.zeros_like(s))


def test_update_h_lambda2_zero_returns_blend_target():
    rng = np.random.default_rng(5)
    ds = small_dataset()
    hp = Hyperparams(lambda1=0.5, lambda2=0.0, lambda3=0.2, k=3)
    st = random_state(rng, ds, 3)
    got, _ = update_H(hp, st, projections(ds.views, st.W))
    lam3 = hp.lambda3
    for h, w, x, s, c in zip(got, st.W, ds.views, st.S, st.C):
        want = (w.T @ x - s) / (lam3 + 1.0) + (lam3 / (lam3 + 1.0)) * (c @ st.Y)
        assert np.max(np.abs(h - want)) <= 1e-14


def decomposing_h_step(hp, st, wtx):
    """The H step of either kind as it ran at lambda2 = 0 before it skipped
    the decomposition: the prox at zero weight, with the norm the objective
    weighs by zero still computed."""
    targets = solver._h_targets(hp, st, wtx)
    if hp.variant == "matrix_nuclear":
        h, norms = solver.svt(targets, 0.0)
        return h, float(norms.sum())
    return targets, slimtensor.tensor_nuclear_norm(targets)


@pytest.mark.parametrize("variant", VARIANTS)
def test_lambda2_zero_fit_decomposes_nothing_in_h(variant, monkeypatch):
    ds = small_dataset(seed=11)
    hp = Hyperparams(lambda1=0.5, lambda2=0.0, lambda3=1e-2, k=3, max_iter=6,
                     epsilon=1e-300, variant=variant)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "update_H", decomposing_h_step)
        mp.setattr(solver, "_update_H_matrix_nuclear", decomposing_h_step)
        _, before = fit_variant(ds, hp)

    def forbidden(*args, **kwargs):
        raise AssertionError("spectral decomposition in a lambda2 = 0 fit")

    for module, name in ((solver, "svt"), (solver, "tubal_shrinkage"),
                         (solver, "tensor_nuclear_norm"), (solver, "thin_svd"),
                         (slimtensor, "svt"), (slimtensor, "tensor_nuclear_norm")):
        monkeypatch.setattr(module, name, forbidden)
    svd = np.linalg.svd

    def matrix_svd(a, *args, **kwargs):
        # the W and C Procrustes steps decompose single matrices; the
        # tensor norm's batched SVD would pass a stack
        assert np.ndim(a) == 2, "batched SVD in a lambda2 = 0 fit"
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", matrix_svd)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    _, after = fit_variant(ds, hp)
    assert len(after) == len(before) == hp.max_iter
    got = [(r.objective, r.delta_y) for r in after]
    want = [(r.objective, r.delta_y) for r in before]
    if variant == "matrix_nuclear":
        # svt at tau = 0 returned A V V^H, equal to A up to rounding
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    else:
        assert got == want


def test_update_h_large_lambda2_annihilates():
    rng = np.random.default_rng(6)
    ds = small_dataset()
    st = random_state(rng, ds, 3)
    got, norm = update_H(Hyperparams(lambda2=1e9, k=3), st, projections(ds.views, st.W))
    for h in got:
        assert np.max(np.abs(h)) == 0.0
    assert norm == 0.0


def test_update_y_fixed_point_on_simplex():
    rng = np.random.default_rng(7)
    k, n = 4, 25
    h0 = random_column_stochastic(rng, k, n)
    ds = MultiViewDataset((rng.standard_normal((5, n)), rng.standard_normal((6, n))))
    st = zero_state(ds, k)
    st.C = np.stack([np.eye(k), np.eye(k)])
    st.H = np.stack([h0, h0])
    y = update_Y(st)
    assert np.max(np.abs(y - h0)) <= 1e-12


def test_update_y_snaps_dominant_coordinate_to_vertex():
    # mean rotated column (10, 0, ..., 0) projects to the first vertex
    rng = np.random.default_rng(8)
    k, n = 3, 9
    ds = MultiViewDataset((rng.standard_normal((4, n)),))
    st = zero_state(ds, k)
    st.C = np.eye(k)[None]
    col = np.zeros((k, n))
    col[0] = 10.0
    st.H = col[None]
    y = update_Y(st)
    want = np.zeros((k, n))
    want[0] = 1.0
    assert np.max(np.abs(y - want)) <= 1e-12


def test_block_updates_never_increase_objective():
    ds = small_dataset(seed=3)
    hp = Hyperparams(lambda1=0.8, lambda2=0.05, lambda3=1e-2, k=3)
    st, _ = fit_variant(ds, hp, record_objective=False)  # warm, feasible state
    last = objective(ds, hp, st)
    wtx = lambda: projections(ds.views, st.W)
    for _ in range(3):
        for step in (
            lambda: setattr(st, "W", update_W(ds, st)[0]),
            lambda: setattr(st, "C", update_C(st)),
            lambda: setattr(st, "S", update_S(hp, st, wtx())),
            lambda: setattr(st, "H", update_H(hp, st, wtx())[0]),
            lambda: setattr(st, "Y", update_Y(st)),
        ):
            step()
            now = objective(ds, hp, st)
            assert now <= last + 1e-8 * (1.0 + abs(last))
            last = now


def test_trace_objective_monotone_and_converges():
    ds = generate_synthetic(
        SynthSpec(n=120, c=3, m=2, dims=(12, 10), noise_sigma=0.05,
                  corrupt_frac=0.1, seed=5)
    )
    hp = Hyperparams(lambda1=1.0, lambda2=0.01, k=3)
    _, trace = fit_variant(ds, hp)
    objs = [rec.objective for rec in trace]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-8 * (1.0 + abs(a))
    assert len(trace) < hp.max_iter
    assert trace[-1].delta_y <= hp.epsilon


def variant_oracle_objective(ds, hp, st):
    """oracle_objective with the variant's own spectral norm and, for
    no_Y, the alignment weight the fit uses (zero)."""
    if hp.variant == "no_Y":
        hp = replace(hp, lambda3=0.0)
    if hp.variant != "matrix_nuclear":
        return oracle_objective(ds, hp, st)
    per_view = sum(float(np.linalg.svd(h, compute_uv=False).sum()) for h in st.H)
    return oracle_objective(ds, replace(hp, lambda2=0.0), st) + hp.lambda2 * per_view


@pytest.mark.parametrize("variant", ["full", "no_S", "matrix_nuclear", "no_Y"])
@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_trace_objective_matches_oracle_every_iteration(variant, scale):
    # the fidelity identity subtracts nearly equal terms and the spectral
    # term comes from the H step; both must agree with the direct formula
    base = small_dataset(seed=17)
    ds = MultiViewDataset(tuple(x * scale for x in base.views), base.labels)
    hp = Hyperparams(lambda1=0.5 * scale, lambda2=0.05 * scale, lambda3=1e-2, k=3,
                     max_iter=8, epsilon=1e-300, variant=variant)
    gaps = []

    def check(st, rec):
        want = variant_oracle_objective(ds, hp, st)
        gaps.append(abs(rec.objective - want) / (1.0 + abs(want)))

    _, trace = fit_variant(ds, hp, callback=check)
    assert len(gaps) == len(trace) >= 3
    assert max(gaps) <= 1e-10


def test_trace_bookkeeping():
    ds = small_dataset(seed=6)
    hp = Hyperparams(k=3, max_iter=5, epsilon=1e-300)
    _, trace = fit_variant(ds, hp)
    assert [rec.iter for rec in trace] == [1, 2, 3, 4, 5]
    assert trace[0].delta_y == float("inf")
    assert all(np.isfinite(rec.objective) for rec in trace)
    assert all(rec.elapsed_ms >= 0 for rec in trace)
    assert all(rec.delta_y >= 0 for rec in trace[1:])


def test_record_objective_flag_skips_evaluation():
    ds = small_dataset(seed=7)
    _, trace = fit_variant(ds, Hyperparams(k=3, max_iter=3, epsilon=1e-300),
                   record_objective=False)
    assert all(np.isnan(rec.objective) for rec in trace)


def test_max_iter_one_yields_single_record():
    ds = small_dataset(seed=8)
    _, trace = fit_variant(ds, Hyperparams(k=3, max_iter=1))
    assert len(trace) == 1


def test_fit_is_deterministic():
    ds = small_dataset(seed=9)
    hp = Hyperparams(lambda1=1.0, lambda2=0.01, k=3, max_iter=10, epsilon=1e-300)
    st1, tr1 = fit_variant(ds, hp)
    st2, tr2 = fit_variant(ds, hp)
    assert [r.objective for r in tr1] == [r.objective for r in tr2]
    assert [r.delta_y for r in tr1] == [r.delta_y for r in tr2]
    assert st1.Y.tobytes() == st2.Y.tobytes()
    for a, b in zip(st1.H, st2.H):
        assert a.tobytes() == b.tobytes()


def test_fit_matches_manual_block_sweep():
    # replicating the documented update order reproduces fit bit for bit
    ds = small_dataset(seed=10)
    hp = Hyperparams(lambda1=0.8, lambda2=0.05, k=3, max_iter=3, epsilon=1e-300)
    seen = []
    fit_variant(ds, hp, callback=lambda st, rec: seen.append(
        ([w.copy() for w in st.W], [s.copy() for s in st.S],
         [h.copy() for h in st.H], [c.copy() for c in st.C], st.Y.copy())))
    st = zero_state(ds, 3)
    for t in range(3):
        st.W, wtx = update_W(ds, st)
        st.C = update_C(st)
        st.S = update_S(hp, st, wtx)
        st.H, _ = update_H(hp, st, wtx)
        st.Y = update_Y(st)
        ws, ss, hs, cs, y = seen[t]
        for a, b in zip(st.W, ws):
            assert np.array_equal(a, b)
        for a, b in zip(st.S, ss):
            assert np.array_equal(a, b)
        for a, b in zip(st.H, hs):
            assert np.array_equal(a, b)
        for a, b in zip(st.C, cs):
            assert np.array_equal(a, b)
        assert np.array_equal(st.Y, y)


def test_constraints_hold_after_fit():
    ds = small_dataset(seed=11)
    st, _ = fit_variant(ds, Hyperparams(lambda1=1.0, lambda2=0.01, k=3))
    v = constraint_violations(st)
    assert v["w_orthonormality"] <= 1e-10
    assert v["c_orthonormality"] <= 1e-10
    assert v["y_column_sum"] <= 1e-10
    assert v["y_negativity"] == 0.0


def test_constraint_violations_skip_blocks_the_variant_never_updates():
    # no_Y never updates C or Y, so their zero start is not a violation
    ds = small_dataset(seed=11)
    for variant in VARIANTS:
        st, _ = fit_variant(ds, Hyperparams(lambda1=1.0, lambda2=0.01, k=3, variant=variant))
        v = constraint_violations(st, variant)
        assert v["w_orthonormality"] <= 1e-10
        if variant == "no_Y":
            assert v["c_orthonormality"] is None
            assert v["y_column_sum"] is None and v["y_negativity"] is None
        else:
            assert v["c_orthonormality"] <= 1e-10
            assert v["y_column_sum"] <= 1e-10 and v["y_negativity"] == 0.0


def test_delta_y_definition():
    ds = small_dataset(seed=12)
    hp = Hyperparams(k=3, max_iter=4, epsilon=1e-300)
    embeds = []
    _, trace = fit_variant(ds, hp, callback=lambda st, rec: embeds.append(st.Y.copy()))
    for t in range(1, 4):
        prev, cur = embeds[t - 1], embeds[t]
        want = float(np.sum((cur - prev) ** 2) / np.sum(prev**2))
        assert abs(trace[t].delta_y - want) <= 1e-12 * (1.0 + want)


def test_variant_no_s_keeps_s_zero():
    ds = small_dataset(seed=13)
    hp = Hyperparams(lambda1=1.0, lambda2=0.01, k=3, max_iter=8,
                     epsilon=1e-300, variant="no_S")
    st, trace = fit_variant(ds, hp)
    for s in st.S:
        assert np.max(np.abs(s)) == 0.0
    want = (
        sum(float(np.sum((x - w @ h) ** 2))
            for x, w, h in zip(ds.views, st.W, st.H))
        + hp.lambda2 * tnn_oracle(st.H)
        + hp.lambda3 * sum(float(np.sum((h - c @ st.Y) ** 2))
                           for h, c in zip(st.H, st.C))
    )
    assert abs(trace[-1].objective - want) <= 1e-10 * (1.0 + want)


def test_variant_matrix_nuclear_objective_and_prox():
    ds = small_dataset(seed=14)
    hp = Hyperparams(lambda1=1.0, lambda2=0.4, k=3, max_iter=6,
                     epsilon=1e-300, variant="matrix_nuclear")
    st, trace = fit_variant(ds, hp)
    want = (
        sum(float(np.sum((x - w @ (s + h)) ** 2))
            for x, w, s, h in zip(ds.views, st.W, st.S, st.H))
        + hp.lambda1 * sum(float(np.abs(s).sum()) for s in st.S)
        + hp.lambda2 * sum(float(np.linalg.svd(h, compute_uv=False).sum())
                           for h in st.H)
        + hp.lambda3 * sum(float(np.sum((h - c @ st.Y) ** 2))
                           for h, c in zip(st.H, st.C))
    )
    assert abs(trace[-1].objective - want) <= 1e-10 * (1.0 + want)


def test_variant_matrix_nuclear_h_solves_per_view_prox():
    # with lambda3 = 0 the H target is W.T X - S, unaffected by the later
    # Y update, so the final H must minimize its own view's subproblem
    ds = small_dataset(seed=14)
    hp = Hyperparams(lambda1=1.0, lambda2=0.4, lambda3=0.0, k=3, max_iter=4,
                     epsilon=1e-300, variant="matrix_nuclear")
    st, _ = fit_variant(ds, hp)
    rng = np.random.default_rng(0)
    for h, w, x, s in zip(st.H, st.W, ds.views, st.S):
        q = w.T @ x - s

        def value(a):
            return float(np.sum((a - q) ** 2)) + hp.lambda2 * float(
                np.linalg.svd(a, compute_uv=False).sum()
            )

        base = value(h)
        for _ in range(200):
            cand = h + rng.standard_normal(h.shape) * rng.choice([1e-3, 0.1])
            assert base <= value(cand) + 1e-9


def test_variant_no_y_shape_and_objective():
    ds = small_dataset(seed=15)
    hp = Hyperparams(lambda1=1.0, lambda2=0.01, k=3, max_iter=8,
                     epsilon=1e-300, variant="no_Y")
    st, trace = fit_variant(ds, hp)
    for c in st.C:
        assert np.max(np.abs(c)) == 0.0
    assert np.max(np.abs(st.Y)) == 0.0
    embed = clustering_embedding(st, "no_Y")
    assert embed.shape == (2 * 3, ds.n_samples)
    assert np.array_equal(embed, np.concatenate(st.H, axis=0))
    want = (
        sum(float(np.sum((x - w @ (s + h)) ** 2))
            for x, w, s, h in zip(ds.views, st.W, st.S, st.H))
        + hp.lambda1 * sum(float(np.abs(s).sum()) for s in st.S)
        + hp.lambda2 * tnn_oracle(st.H)
    )
    assert abs(trace[-1].objective - want) <= 1e-10 * (1.0 + want)


def test_fit_variant_dispatches_on_variant():
    ds = small_dataset(seed=16)
    hp = Hyperparams(lambda1=1.0, lambda2=0.01, k=3, max_iter=5, epsilon=1e-300)
    assert hp.variant == "full"
    st_full, full = fit_variant(ds, hp)
    st_no_s, no_s = fit_variant(ds, replace(hp, variant="no_S"))
    assert any(np.max(np.abs(s)) > 0 for s in st_full.S)
    assert all(np.max(np.abs(s)) == 0 for s in st_no_s.S)
    assert no_s[-1].objective != full[-1].objective


def test_identical_zero_embeddings_count_as_converged():
    # lambda2 this large zeroes H, so the no_Y embedding stays at zero
    ds = small_dataset(seed=19)
    hp = Hyperparams(lambda2=1e12, k=3, variant="no_Y")
    st, trace = fit_variant(ds, hp)
    assert np.max(np.abs(clustering_embedding(st, "no_Y"))) == 0.0
    assert [rec.iter for rec in trace] == [1, 2]
    assert trace[-1].delta_y == 0.0


def test_non_finite_block_raises_numeric_error():
    # views near the float64 limit overflow inside the sweep: the fit fails
    # as a numeric error, never as bad input
    ds = small_dataset(seed=20)
    huge = MultiViewDataset(tuple(x * 1e160 for x in ds.views), ds.labels)
    for record in (True, False):
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="iteration"):
            fit_variant(huge, Hyperparams(k=3), record_objective=record)


@pytest.mark.parametrize("variant", ["full", "matrix_nuclear"])
def test_h_steps_keep_the_working_range(variant):
    # the H steps' Gram matrices square the data; their power-of-two scale
    # keeps them finite as long as the objective's ||X||^2 is, so views
    # x1e150 still fit and x1e153 fail in the objective, as a numeric error
    ds = generate_synthetic(SynthSpec(n=32000, c=5, m=3, dims=(30, 30, 30), seed=1,
                                      corrupt_frac=0.1))
    for factor, fits in ((1e150, True), (1e153, False)):
        big = MultiViewDataset(tuple(x * factor for x in ds.views), ds.labels)
        hp = Hyperparams(lambda1=5.0 * factor, lambda2=0.01 * factor, max_iter=2,
                         epsilon=1e-300, variant=variant)
        if fits:
            st, trace = fit_variant(big, hp)
            assert len(trace) == 2
            assert all(np.isfinite(rec.objective) for rec in trace)
            assert any(np.max(np.abs(h)) > 0 for h in st.H)
        else:
            with np.errstate(all="ignore"), pytest.raises(NumericError):
                fit_variant(big, hp)


_THREAD_PROBE = textwrap.dedent("""
    import hashlib
    import numpy as np
    from dstl import Hyperparams, SynthSpec, fit_variant, generate_synthetic
    ds = generate_synthetic(SynthSpec(n=4000, c=10, m=5, dims=(40, 35, 30, 25, 20),
                                      corrupt_frac=0.1, seed=1))
    for variant in ("full", "matrix_nuclear"):
        hp = Hyperparams(lambda1=5.0, lambda2=0.01, epsilon=1e-300, max_iter=12,
                         variant=variant)
        st, trace = fit_variant(ds, hp)
        digest = hashlib.sha256()
        for arr in (*st.H, st.Y):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr([rec.objective for rec in trace]).encode())
        print(variant, digest.hexdigest())
""")


def test_fit_does_not_depend_on_blas_threads_at_k10m5():
    # the ablation benchmark's shape: H, Y and the trace objectives of both
    # H steps are byte-identical under one and two BLAS threads
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert len(runs[0].splitlines()) == 2
    assert runs[0] == runs[1]


def test_resolve_k():
    ds = small_dataset(seed=18)
    assert resolve_k(ds, Hyperparams()) == 3
    assert resolve_k(ds, Hyperparams(k=2)) == 2
    with pytest.raises(InputError):
        resolve_k(ds, Hyperparams(k=50))
    unlabeled = MultiViewDataset((np.ones((4, 6)),))
    with pytest.raises(InputError):
        resolve_k(unlabeled, Hyperparams())


def test_hyperparams_validation():
    with pytest.raises(InputError):
        Hyperparams(lambda1=-0.1)
    with pytest.raises(InputError):
        Hyperparams(epsilon=0.0)
    with pytest.raises(InputError):
        Hyperparams(max_iter=0)
    with pytest.raises(InputError):
        Hyperparams(variant="fancy")
    with pytest.raises(InputError):
        Hyperparams(k=0)
    for bad in (dict(k=2.5), dict(k=True), dict(k="3"), dict(max_iter=2.5),
                dict(max_iter=True), dict(max_iter=None), dict(seed=0.5),
                dict(seed=-1)):
        with pytest.raises(InputError):
            Hyperparams(**bad)
    Hyperparams(k=np.int64(3), max_iter=np.int32(5), seed=np.int64(1))



_LAMBDAS = hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e300))


@settings(max_examples=300, deadline=None)
@given(
    variant=hst.sampled_from(VARIANTS),
    dims=hst.lists(hst.integers(1, 4), min_size=1, max_size=3),
    n=hst.integers(1, 9),
    k_frac=hst.floats(0.0, 1.0),
    kind=hst.sampled_from(["gaussian", "zero", "constant"]),
    scale_exp=hst.sampled_from([-150, -20, 0, 20, 150, 155, 160]),
    lambdas=hst.tuples(_LAMBDAS, _LAMBDAS, _LAMBDAS),
    seed=hst.integers(0, 2**16),
)
@example(variant="full", dims=[3, 2], n=1, k_frac=0.0, kind="gaussian", scale_exp=0,
         lambdas=(1.0, 0.01, 1e-4), seed=0)
@example(variant="matrix_nuclear", dims=[2, 4], n=2, k_frac=1.0, kind="gaussian",
         scale_exp=150, lambdas=(0.0, 1e-8, 0.0), seed=1)
@example(variant="no_S", dims=[3], n=5, k_frac=1.0, kind="constant", scale_exp=-150,
         lambdas=(1e300, 1e300, 1e300), seed=2)
@example(variant="no_Y", dims=[4, 4, 4], n=9, k_frac=1.0, kind="zero", scale_exp=160,
         lambdas=(0.0, 0.0, 0.0), seed=3)
@example(variant="full", dims=[2], n=1, k_frac=0.0, kind="gaussian", scale_exp=20,
         lambdas=(0.0, 0.0, 0.0), seed=0)
@example(variant="full", dims=[4, 3], n=7, k_frac=0.5, kind="gaussian", scale_exp=155,
         lambdas=(5.0, 0.01, 1e-4), seed=4)
@example(variant="full", dims=[2], n=2, k_frac=1.0, kind="gaussian", scale_exp=-150,
         lambdas=(1.0, 0.0, 1.237296983955347e+23), seed=0)
@example(variant="full", dims=[2], n=2, k_frac=0.0, kind="gaussian", scale_exp=-20,
         lambdas=(1.0, 1.0, 1.7976931348623166e+288), seed=0)
def test_whole_fit_properties(variant, dims, n, k_frac, kind, scale_exp, lambdas, seed):
    # every sweep of every variant, at the edges: n = 1 or 2, one view,
    # k = min d_v, all-zero and constant views, scales 1e+-150 and weights
    # 0 or 1e-8 ... 1e300.  The bounds are those of the oracle test above
    # (1e-10), criterion 3 (1e-8) and criterion 4 (1e-10), read in the
    # data's own units: the objective of views scaled by s, with lambda1
    # and lambda2 scaled alike, is s^2 times the unit-scale one (up to the
    # alignment term), so "1 +" becomes "s^2 +".
    k = 1 + int(k_frac * (min(dims) - 1))
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        views = [rng.standard_normal((d, n)) for d in dims]
        peak = max(float(np.max(np.abs(x))) for x in views)
        views = [x / peak for x in views]  # the largest entry is exactly +-1
    else:
        views = [np.full((d, n), 1.0 if kind == "constant" else 0.0) for d in dims]
    scale = 10.0**scale_exp
    ds = MultiViewDataset(tuple(x * scale for x in views))
    hp = Hyperparams(*lambdas, k=k, max_iter=6, epsilon=1e-300, variant=variant)
    lam3 = 0.0 if variant == "no_Y" else hp.lambda3
    eps = np.finfo(float).eps
    records = []

    def check(st, rec):
        # H and Y rounded to working precision (a few ulps per entry) sit
        # lambda3 * ||dH||^2 and m * lambda3 * ||dY||^2 above their block
        # minima, so no float64 iterate resolves the objective below this
        floor = lam3 * (4 * eps) ** 2 * (np.sum(st.H**2) + len(dims) * np.sum(st.Y**2))
        records.append((rec.objective, variant_oracle_objective(ds, hp, st),
                        constraint_violations(st, variant), floor))

    overflows = kind != "zero" and scale_exp > 152  # ||X||^2 is past float64
    try:
        fit_variant(ds, hp, callback=check)
    except NumericError:
        assert overflows, "numeric failure inside the working range"
        return
    assert not overflows, "no numeric failure past the working range"
    unit = 1.0 if kind == "zero" else scale**2
    prev = None
    for obj, want, viol, floor in records:
        assert abs(obj - want) <= 1e-10 * (unit + abs(want)), (obj, want)
        if prev is not None:
            assert obj - prev <= 1e-8 * (unit + abs(prev)) + floor, (prev, obj, floor)
        prev = obj
        assert viol["w_orthonormality"] <= 1e-10
        if variant != "no_Y":
            assert viol["c_orthonormality"] <= 1e-10
            assert viol["y_column_sum"] <= 1e-10 and viol["y_negativity"] == 0.0
