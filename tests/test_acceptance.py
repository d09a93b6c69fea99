"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single verdict line
(`[criterion N] name: PASS/FAIL ...`); run with ``pytest -v -s`` to see
the lines as they complete.  The battery combines oracle equivalences,
sampled block-optimality certificates, convergence and feasibility
guarantees, synthetic clustering quality, ablation direction, and
time/memory scaling of the command-line bench.
"""

import json
import os
import time
from itertools import product

import numpy as np
import pytest

import dstl.cli as cli
from dstl.data import MultiViewDataset, SynthSpec, generate_synthetic, load_dataset
from dstl.kmeans import KMeansConfig, kmeans
from dstl.metrics import accuracy, ari, f_score, hungarian_match, nmi
from dstl.simplex import project_columns
from dstl.slimtensor import tensor_nuclear_norm, tubal_shrinkage
from dstl.solver import (
    Hyperparams,
    SolverState,
    clustering_embedding,
    fit_variant,
    update_C,
    update_H,
    update_S,
    update_W,
    update_Y,
)

from conftest import (
    accuracy_oracle,
    ari_oracle,
    f_score_oracle,
    hungarian_cost_oracle,
    projections,
    random_column_stochastic,
    random_orthonormal,
    simplex_sort_oracle,
    tnn_oracle,
    tubal_shrinkage_oracle,
)

# frozen operating point used by the convergence/ablation/scaling criteria:
# strong sparsity with a light spectral penalty keeps H informative on the
# reference synthetic benchmark
LAMBDA1 = 5.0
LAMBDA2 = 0.01

REFERENCE_SPEC = dict(n=300, c=5, m=3, dims=(40, 30, 20), noise_sigma=0.05)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalences


def test_criterion_1_oracle_equivalence():
    tic = time.perf_counter()
    rng = np.random.default_rng(101)

    # 10000 vectors of random length, projected in batches of equal length
    vectors = [rng.uniform(-10, 10, size=int(rng.integers(1, 51))) for _ in range(10000)]
    worst_simplex = 0.0
    for d in sorted({g.size for g in vectors}):
        batch = [g for g in vectors if g.size == d]
        got = project_columns(np.stack(batch, axis=1))
        for j, g in enumerate(batch):
            worst_simplex = max(worst_simplex, float(np.max(np.abs(
                got[:, j] - simplex_sort_oracle(g)))))

    worst_tubal = 0.0
    for _ in range(1000):
        shape = tuple(int(rng.integers(1, 7)) for _ in range(3))
        t = rng.standard_normal(shape)
        rho = float(rng.uniform(0.0, 1.5))
        got = tubal_shrinkage(t, rho)[0]
        want = tubal_shrinkage_oracle(t, rho)
        worst_tubal = max(
            worst_tubal,
            float(np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))),
        )

    worst_tnn = 0.0
    for _ in range(1000):
        shape = tuple(int(rng.integers(1, 7)) for _ in range(3))
        t = rng.standard_normal(shape) * float(rng.choice([0.1, 1, 10]))
        want = tnn_oracle(t)
        worst_tnn = max(worst_tnn,
                        abs(tensor_nuclear_norm(t) - want) / (1.0 + want))

    worst_metric = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        pred = rng.integers(0, 3, size=n)
        truth = rng.integers(0, 3, size=n)
        pl, tl = pred.tolist(), truth.tolist()
        worst_metric = max(
            worst_metric,
            abs(accuracy(pred, truth) - accuracy_oracle(pl, tl)),
            abs(ari(pred, truth) - ari_oracle(pl, tl)),
            abs(f_score(pred, truth) - f_score_oracle(pl, tl)),
        )

    worst_hungarian = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 8))
        cost = rng.uniform(0, 10, size=(size, size))
        perm = hungarian_match(cost)
        got = float(cost[np.arange(size), perm].sum())
        worst_hungarian = max(worst_hungarian, abs(got - hungarian_cost_oracle(cost)))

    elapsed = time.perf_counter() - tic
    ok = (
        worst_simplex <= 1e-9
        and worst_tubal <= 1e-8
        and worst_tnn <= 1e-10
        and worst_metric <= 1e-12
        and worst_hungarian <= 1e-12
        and elapsed < 60.0
    )
    _report(
        1, "oracle equivalence", ok,
        f"simplex {worst_simplex:.2e}, tubal {worst_tubal:.2e}, "
        f"tnn {worst_tnn:.2e}, metrics {worst_metric:.2e}, "
        f"hungarian {worst_hungarian:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: sampled block optimality


def _batch_tnn(arr: np.ndarray) -> np.ndarray:
    """Tensor nuclear norm of a (B, k, m, n) batch via the half spectrum."""
    n = arr.shape[3]
    spec = np.moveaxis(np.fft.rfft(arr, axis=3), 3, 1)  # (B, nh, k, m)
    sv = np.linalg.svd(spec, compute_uv=False)
    weights = np.full(spec.shape[1], 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    return (weights[None, :, None] * sv).sum(axis=(1, 2))


def _fidelity_w_batch(x, t, wb):
    # wb: (B, d, k); t = S + H: (k, n)
    recon = np.einsum("bdk,kn->bdn", wb, t)
    return ((x[None] - recon) ** 2).sum(axis=(1, 2))


def _fidelity_latent_batch(x, w, tb):
    # tb: (B, k, n) candidate S + H with W fixed
    recon = np.einsum("dk,bkn->bdn", w, tb)
    return ((x[None] - recon) ** 2).sum(axis=(1, 2))


def _align_c_batch(h, y, cb):
    recon = np.einsum("bij,jn->bin", cb, y)
    return ((h[None] - recon) ** 2).sum(axis=(1, 2))


def _align_y_batch(h, c, yb):
    recon = np.einsum("ij,bjn->bin", c, yb)
    return ((h[None] - recon) ** 2).sum(axis=(1, 2))


def _batch_orthonormal(rng, b, p, k):
    q, _ = np.linalg.qr(rng.standard_normal((b, p, k)))
    return q


def test_criterion_2_block_optimality_sampling():
    rng = np.random.default_rng(202)
    n_candidates = 1000
    violations = 0
    slack = lambda best: 1e-9 * (1.0 + abs(best))

    for _ in range(100):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(2, 9))
        dims = [int(rng.integers(k, 9)) for _ in range(m)]
        ds = MultiViewDataset(tuple(rng.standard_normal((d, n)) for d in dims))
        hp = Hyperparams(
            lambda1=float(rng.uniform(0.1, 2.0)),
            lambda2=float(rng.uniform(0.1, 2.0)),
            lambda3=float(rng.uniform(0.01, 1.0)),
            k=k,
        )
        st = SolverState(
            W=[random_orthonormal(rng, d, k) for d in dims],
            S=np.stack([rng.standard_normal((k, n)) for _ in range(m)]),
            H=np.stack([rng.standard_normal((k, n)) for _ in range(m)]),
            C=np.stack([random_orthonormal(rng, k, k) for _ in range(m)]),
            Y=random_column_stochastic(rng, k, n),
        )
        wtx = projections(ds.views, st.W)

        # W block: fidelity per view against random orthonormal bases
        new_w, _ = update_W(ds, st)
        for v in range(m):
            t = st.S[v] + st.H[v]
            got = _fidelity_w_batch(ds.views[v], t, new_w[v][None])[0]
            cand = _fidelity_w_batch(
                ds.views[v], t, _batch_orthonormal(rng, n_candidates, dims[v], k)
            )
            violations += got > cand.min() + slack(cand.min())

        # C block: alignment per view against random rotations
        new_c = update_C(st)
        for v in range(m):
            got = _align_c_batch(st.H[v], st.Y, new_c[v][None])[0]
            cand = _align_c_batch(
                st.H[v], st.Y, _batch_orthonormal(rng, n_candidates, k, k)
            )
            violations += got > cand.min() + slack(cand.min())

        # S block: fidelity + l1, candidates mix perturbations and randoms
        new_s = update_S(hp, st, wtx)
        for v in range(m):
            scale = rng.choice([1e-3, 0.1, 1.0], size=(n_candidates, 1, 1))
            cands = np.concatenate([
                new_s[v][None] + rng.standard_normal((n_candidates, k, n)) * scale,
                rng.standard_normal((n_candidates, k, n)),
            ])
            got = (
                _fidelity_latent_batch(ds.views[v], st.W[v],
                                       (new_s[v] + st.H[v])[None])[0]
                + hp.lambda1 * np.abs(new_s[v]).sum()
            )
            vals = (
                _fidelity_latent_batch(ds.views[v], st.W[v], cands + st.H[v][None])
                + hp.lambda1 * np.abs(cands).sum(axis=(1, 2))
            )
            violations += got > vals.min() + slack(vals.min())

        # H block: fidelity + spectral penalty + alignment, joint over views
        new_h, _ = update_H(hp, st, wtx)

        def h_value(hb_list):
            vals = hp.lambda2 * _batch_tnn(np.stack(hb_list, axis=2))
            for v in range(m):
                vals = vals + _fidelity_latent_batch(
                    ds.views[v], st.W[v], st.S[v][None] + hb_list[v]
                )
                rot = st.C[v] @ st.Y
                vals = vals + hp.lambda3 * ((hb_list[v] - rot[None]) ** 2).sum(
                    axis=(1, 2)
                )
            return vals

        got = h_value([h[None] for h in new_h])[0]
        scale = rng.choice([1e-3, 0.1, 1.0], size=(n_candidates, 1, 1))
        cand_h = [
            np.concatenate([
                new_h[v][None] + rng.standard_normal((n_candidates, k, n)) * scale,
                rng.standard_normal((n_candidates, k, n)),
            ])
            for v in range(m)
        ]
        vals = h_value(cand_h)
        violations += got > vals.min() + slack(vals.min())

        # Y block: alignment against random and perturbed-projected columns
        new_y = update_Y(st)
        pert = new_y[None] + rng.standard_normal((n_candidates // 2, k, n)) * 0.1
        if k == 1:
            projected = np.ones_like(pert)
        else:
            flat = np.moveaxis(pert, 1, 0).reshape(k, -1)
            projected = np.moveaxis(
                project_columns(flat).reshape(k, pert.shape[0], n), 0, 1
            )
        cands = np.concatenate([
            np.stack([random_column_stochastic(rng, k, n)
                      for _ in range(n_candidates // 2)]),
            projected,
        ])

        def y_value(yb):
            vals = np.zeros(yb.shape[0])
            for v in range(m):
                vals = vals + _align_y_batch(st.H[v], st.C[v], yb)
            return vals

        got = y_value(new_y[None])[0]
        vals = y_value(cands)
        violations += got > vals.min() + slack(vals.min())

    _report(2, "block optimality sampling", violations == 0,
            f"{violations} violations over 100 states x 5 blocks")


# ---------------------------------------------------------------------------
# criteria 3 and 4 share the same battery of seeded runs


@pytest.fixture(scope="module")
def seeded_runs():
    tic = time.perf_counter()
    runs = []
    for seed in range(1, 21):
        ds = generate_synthetic(
            SynthSpec(corrupt_frac=0.1, seed=seed, **REFERENCE_SPEC)
        )
        hp = Hyperparams(lambda1=LAMBDA1, lambda2=LAMBDA2, k=5)
        per_iter = []
        _, trace = fit_variant(
            ds, hp,
            callback=lambda st, rec: per_iter.append({
                "w": max(float(np.max(np.abs(w.T @ w - np.eye(w.shape[1]))))
                         for w in st.W),
                "c": max(float(np.max(np.abs(c.T @ c - np.eye(c.shape[1]))))
                         for c in st.C),
                "ysum": float(np.max(np.abs(st.Y.sum(axis=0) - 1.0))),
                "yneg": float(max(0.0, -st.Y.min())),
            }),
        )
        runs.append({"seed": seed, "trace": trace, "per_iter": per_iter})
    return {"runs": runs, "seconds": time.perf_counter() - tic}


def test_criterion_3_monotone_convergence(seeded_runs):
    worst_rise = 0.0
    slowest = 0
    converged = True
    for run in seeded_runs["runs"]:
        objs = [rec.objective for rec in run["trace"]]
        for a, b in zip(objs, objs[1:]):
            worst_rise = max(worst_rise, (b - a) / (1.0 + abs(a)))
        slowest = max(slowest, len(run["trace"]))
        converged &= run["trace"][-1].delta_y <= 1e-4
    ok = (worst_rise <= 1e-8 and slowest <= 50 and converged
          and seeded_runs["seconds"] <= 120.0)
    _report(3, "monotone convergence", ok,
            f"worst relative rise {worst_rise:.2e}, slowest run "
            f"{slowest} iterations over 20 seeds, "
            f"{seeded_runs['seconds']:.0f}s")


def test_criterion_4_constraint_invariants(seeded_runs):
    worst = {"w": 0.0, "c": 0.0, "ysum": 0.0, "yneg": 0.0}
    for run in seeded_runs["runs"]:
        for snap in run["per_iter"]:
            for key in worst:
                worst[key] = max(worst[key], snap[key])

    # variant runs obey the same invariants for the blocks they update
    ds = generate_synthetic(SynthSpec(corrupt_frac=0.1, seed=1, **REFERENCE_SPEC))
    for variant in ("no_S", "matrix_nuclear", "no_Y"):
        hp = Hyperparams(lambda1=LAMBDA1, lambda2=LAMBDA2, k=5, variant=variant)

        def check(st, rec, variant=variant):
            worst["w"] = max(worst["w"], max(
                float(np.max(np.abs(w.T @ w - np.eye(w.shape[1])))) for w in st.W))
            if variant != "no_Y":
                worst["c"] = max(worst["c"], max(
                    float(np.max(np.abs(c.T @ c - np.eye(c.shape[1]))))
                    for c in st.C))
                worst["ysum"] = max(worst["ysum"],
                                    float(np.max(np.abs(st.Y.sum(axis=0) - 1.0))))
                worst["yneg"] = max(worst["yneg"], float(max(0.0, -st.Y.min())))

        fit_variant(ds, hp, record_objective=False, callback=check)

    ok = (worst["w"] <= 1e-10 and worst["c"] <= 1e-10
          and worst["ysum"] <= 1e-10 and worst["yneg"] == 0.0)
    _report(4, "constraint invariants", ok,
            f"W {worst['w']:.2e}, C {worst['c']:.2e}, col sums "
            f"{worst['ysum']:.2e}, negativity {worst['yneg']:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: synthetic clustering quality over a hyperparameter sub-grid


def test_criterion_5_synthetic_quality_grid():
    tic = time.perf_counter()
    grid1 = (0.5, 1.0, 5.0)
    grid2 = (1e-3, 1e-2, 5e-2)
    seeds = range(1, 11)
    datasets = {
        s: generate_synthetic(SynthSpec(corrupt_frac=0.1, seed=s, **REFERENCE_SPEC))
        for s in seeds
    }
    best = None
    for l1, l2 in product(grid1, grid2):
        accs, nmis = [], []
        for s in seeds:
            ds = datasets[s]
            st, _ = fit_variant(ds, Hyperparams(lambda1=l1, lambda2=l2, k=5),
                                record_objective=False)
            pred, _ = kmeans(st.Y, KMeansConfig(c=5, seed=s))
            accs.append(accuracy(pred, ds.labels))
            nmis.append(nmi(pred, ds.labels))
        cell = (float(np.median(accs)), float(np.median(nmis)), l1, l2)
        if best is None or cell[0] > best[0]:
            best = cell
    elapsed = time.perf_counter() - tic
    med_acc, med_nmi, l1, l2 = best
    ok = med_acc >= 0.95 and med_nmi >= 0.90 and elapsed <= 300.0
    _report(5, "synthetic clustering quality", ok,
            f"best cell lambda1={l1}, lambda2={l2}: median ACC {med_acc:.3f}, "
            f"median NMI {med_nmi:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: ablation direction under heavier corruption


def test_criterion_6_ablation_direction():
    means = {}
    for variant in ("full", "no_S", "matrix_nuclear"):
        accs = []
        for seed in range(1, 11):
            ds = generate_synthetic(
                SynthSpec(corrupt_frac=0.2, seed=seed, **REFERENCE_SPEC)
            )
            hp = Hyperparams(lambda1=LAMBDA1, lambda2=LAMBDA2, k=5, variant=variant)
            st, _ = fit_variant(ds, hp, record_objective=False)
            embed = clustering_embedding(st, variant)
            pred, _ = kmeans(embed, KMeansConfig(c=5, seed=seed))
            accs.append(accuracy(pred, ds.labels))
        means[variant] = float(np.mean(accs))
    ok = (means["full"] >= means["no_S"] - 0.02
          and means["full"] >= means["matrix_nuclear"] - 0.02)
    _report(6, "ablation direction", ok,
            "mean ACC " + ", ".join(f"{k}={v:.3f}" for k, v in means.items()))


# ---------------------------------------------------------------------------
# criterion 7: time and memory scaling of the bench command


def test_criterion_7_bench_scaling(tmp_path):
    tic = time.perf_counter()
    out = tmp_path / "bench"
    rc = cli.main([
        "bench", "--sizes", "1000,2000,4000", "--out", str(out),
        "--c", "5", "--m", "3", "--dims", "30,30,30",
        "--noise-sigma", "0.05", "--corrupt-frac", "0.1",
        "--k", "5", "--lambda1", str(LAMBDA1), "--lambda2", str(LAMBDA2),
        "--epsilon", "1e-300", "--max-iter", "20",
    ])
    assert rc == 0
    rows = [line.split(",") for line in
            (out / "timing.csv").read_text().strip().splitlines()[1:]]
    ns = [int(r[0]) for r in rows]
    times = [float(r[1]) for r in rows]
    peaks = [float(r[2]) for r in rows]
    iters = [int(r[3]) for r in rows]
    assert ns == [1000, 2000, 4000]
    assert iters == [20, 20, 20]  # fixed budget so the sizes are comparable
    ratio_t1 = times[1] / times[0]
    ratio_t2 = times[2] / times[1]
    ratio_mem = peaks[2] / peaks[0]
    elapsed = time.perf_counter() - tic
    ok = ratio_t1 <= 2.6 and ratio_t2 <= 2.6 and ratio_mem <= 4.5 and elapsed <= 600
    _report(7, "bench scaling", ok,
            f"time ratios {ratio_t1:.2f}, {ratio_t2:.2f} (cap 2.6); "
            f"peak memory ratio {ratio_mem:.2f} (cap 4.5); {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 8: optional real-data check (opt-in, needs a converted dataset)


@pytest.mark.skipif(
    "DSTL_NGS_MANIFEST" not in os.environ,
    reason="optional real-data criterion: set DSTL_NGS_MANIFEST to a manifest "
           "of the converted NGs dataset to enable",
)
def test_criterion_8_real_data_optional():
    ds = load_dataset(os.environ["DSTL_NGS_MANIFEST"])
    assert ds.labels is not None
    c = ds.n_classes
    best = (0.0, None, None)
    for l1, l2 in product(cli.TUNING_GRID, cli.TUNING_GRID):
        hp = Hyperparams(lambda1=l1, lambda2=l2, k=c)
        st, _ = fit_variant(ds, hp, record_objective=False)
        accs = [
            accuracy(kmeans(st.Y, KMeansConfig(c=c, seed=r))[0], ds.labels)
            for r in range(10)
        ]
        mean_acc = float(np.mean(accs))
        if mean_acc > best[0]:
            best = (mean_acc, l1, l2)
    ok = best[0] >= 0.95
    _report(8, "real-data clustering quality", ok,
            f"best mean ACC {best[0]:.3f} at lambda1={best[1]}, lambda2={best[2]}")
