"""Command-line entry point.

Subcommands: synth (write a synthetic dataset), fit (factorize and
cluster one dataset), eval (score a saved labeling against ground truth),
ablate (fit every model variant), bench (timing/memory scaling over
synthetic sizes).  Exit codes: 0 success, 2 invalid input, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    NORMALIZATIONS,
    MultiViewDataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    normalize,
    read_labels_csv,
    write_dataset,
    write_labels_csv,
    write_matrix_csv,
    write_text,
)
from .errors import InputError, NumericError, check_integer
from .kmeans import KMeansConfig, kmeans, kmeans_repeats
from .metrics import SCORES, accuracy, scores
from .solver import (
    VARIANTS,
    Hyperparams,
    clustering_embedding,
    fit_variant,
    resolve_k,
    stop_reason,
)

_NO_SCORE = {"mean": None, "std": None}

# metrics.json keys between the five scores and the environment, in file order
_FIT_KEYS = ("iterations", "stop_reason", "fit_seconds", "load_seconds", "cluster_seconds",
             "score_seconds", "variant", "hyperparams", "clusters_found", "argmax_agreement",
             "partitions_found", "error")

# built-in log ladder for the lambda1/lambda2 sweep (`ablate --grid default`)
TUNING_GRID = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0)


def _comma_list(option: str, text: str, kind: type) -> list:
    """Values of a comma-separated option; blank items are skipped."""
    try:
        return [kind(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InputError(
            f"{option}: expected comma-separated {kind.__name__} values, got {text!r}"
        ) from None


def _add_hyperparam_flags(p: argparse.ArgumentParser) -> None:
    dflt = Hyperparams()
    p.add_argument("--lambda1", type=float, default=dflt.lambda1,
                   help=f"sparsity weight (default {dflt.lambda1})")
    p.add_argument("--lambda2", type=float, default=dflt.lambda2,
                   help=f"spectral penalty weight (default {dflt.lambda2})")
    p.add_argument("--lambda3", type=float, default=dflt.lambda3,
                   help=f"consensus alignment weight (default {dflt.lambda3})")
    p.add_argument("--k", type=int, default=None,
                   help="latent dimension (default: number of classes in the labels)")
    p.add_argument("--epsilon", type=float, default=dflt.epsilon,
                   help=f"relative-change stopping threshold (default {dflt.epsilon})")
    p.add_argument("--max-iter", type=int, default=dflt.max_iter,
                   help=f"iteration cap (default {dflt.max_iter})")
    p.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    p.add_argument("--normalize", default="none", choices=NORMALIZATIONS,
                   help="per-view normalization applied after loading (default none)")


def _add_synth_flags(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    base = SynthSpec()
    if with_n:
        p.add_argument("--n", type=int, default=base.n,
                       help=f"number of samples (default {base.n})")
    p.add_argument("--c", type=int, default=base.c,
                   help=f"number of clusters (default {base.c})")
    p.add_argument("--m", type=int, default=base.m,
                   help=f"number of views (default {base.m})")
    dims = ",".join(map(str, base.dims))
    p.add_argument("--dims", default=dims,
                   help=f"comma-separated per-view dimensions (default {dims})")
    p.add_argument("--noise-sigma", type=float, default=base.noise_sigma,
                   help=f"additive Gaussian noise level (default {base.noise_sigma})")
    p.add_argument("--corrupt-frac", type=float, default=base.corrupt_frac,
                   help=f"fraction of entries replaced by outliers (default "
                        f"{base.corrupt_frac})")


def _hyperparams_from_args(args, variant: str | None = None) -> Hyperparams:
    return Hyperparams(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        lambda3=args.lambda3,
        k=args.k,
        epsilon=args.epsilon,
        max_iter=args.max_iter,
        seed=args.seed,
        variant=variant if variant is not None else getattr(args, "variant", "full"),
    )


def _synth_spec(args, n: int) -> SynthSpec:
    return SynthSpec(n=n, c=args.c, m=args.m, dims=_comma_list("--dims", args.dims, int),
                     noise_sigma=args.noise_sigma, corrupt_frac=args.corrupt_frac,
                     seed=args.seed)


def _load_normalized(args) -> tuple[MultiViewDataset, float]:
    """The dataset of --data, normalized, and the seconds that took."""
    tic = time.perf_counter()
    ds = normalize(load_dataset(args.data), args.normalize)
    return ds, time.perf_counter() - tic


def _synth_normalized(args, n: int) -> MultiViewDataset:
    return normalize(generate_synthetic(_synth_spec(args, n)), args.normalize)


def _run_pipeline(ds: MultiViewDataset, hp: Hyperparams, repeats: int):
    """Fit once (the solver is deterministic), cluster `repeats` times with
    distinct seeds, score each run against the labels when present.  The
    wall time of the one k-means call over all repeats is cluster_seconds,
    that of scoring them score_seconds.

    Also returns the evidence on the label rule: the accuracy of argmax(Y)
    against the chosen labels (None for ``no_Y``, which has no Y), and the
    number of distinct partitions the repeats found."""
    check_integer("repeats", repeats, 1)
    tic = time.perf_counter()
    st, trace = fit_variant(ds, hp)
    fit_seconds = time.perf_counter() - tic
    embed = clustering_embedding(st, hp.variant)
    k = st.Y.shape[0]
    clusters = ds.n_classes if ds.labels is not None else k
    tic = time.perf_counter()
    runs = kmeans_repeats(embed, KMeansConfig(c=clusters, seed=hp.seed), repeats)
    cluster_seconds = time.perf_counter() - tic
    tic = time.perf_counter()
    best_labels = None
    best_inertia = np.inf
    partitions = set()
    for pred, inertia in runs:
        partitions.add(_canonical_labels(pred).tobytes())
        if inertia < best_inertia:
            best_labels, best_inertia = pred, inertia
    summary = None
    if ds.labels is not None:
        per_run = [scores(pred, ds.labels) for pred, _ in runs]
        summary = {}
        for name in SCORES:
            vals = [run[name] for run in per_run]
            summary[name] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
    agreement = None
    if hp.variant != "no_Y":
        agreement = float(accuracy(np.argmax(embed, axis=0), best_labels))
    score_seconds = time.perf_counter() - tic
    return {
        "trace": trace,
        "fit_seconds": fit_seconds,
        "cluster_seconds": cluster_seconds,
        "score_seconds": score_seconds,
        "embedding": embed,
        "labels": best_labels,
        "scores": summary,
        "k": k,
        "argmax_agreement": agreement,
        "partitions_found": len(partitions),
    }


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """The labeling renumbered by first appearance, so that two labelings
    of the same partition are equal."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.empty(first.size, dtype=np.intp)
    order[np.argsort(first)] = np.arange(first.size)
    return order[inverse]


def _hyperparams_payload(hp: Hyperparams, k: int) -> dict:
    """Every hyperparameter but the variant, with k resolved."""
    payload = asdict(replace(hp, k=k))
    del payload["variant"]
    return payload


def _environment() -> dict:
    """The package, numpy, BLAS and Python versions and the OpenBLAS
    thread setting (None when unset) that a run's outputs came from."""
    return {
        "dstl": __version__,
        "numpy": np.__version__,
        "blas": _blas_library(),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _blas_library() -> str | None:
    """Name and version of the BLAS numpy was built with, as numpy reports
    them; None where it reports none (numpy < 1.25 cannot say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    name = blas.get("name")
    return f"{name} {blas.get('version', '')}".strip() if name else None


def _metrics_record(summary: dict | None, **fit) -> dict:
    """A metrics.json record: the five scores (null without labels), the
    fit keys (null unless given), then the environment."""
    record = {name: dict(summary[name] if summary else _NO_SCORE) for name in SCORES}
    record.update((key, fit.get(key)) for key in _FIT_KEYS)
    return {**record, "environment": _environment()}


def _write_numeric_failure(out: Path, ds: MultiViewDataset, hp: Hyperparams,
                           load_seconds: float, exc: NumericError) -> None:
    """metrics.json for a fit or its k-means that failed numerically: the
    same keys, with stop_reason numeric_failure and the error message."""
    payload = _metrics_record(None, stop_reason="numeric_failure",
                              load_seconds=load_seconds, variant=hp.variant,
                              hyperparams=_hyperparams_payload(hp, resolve_k(ds, hp)),
                              error=str(exc))
    write_text(out / "metrics.json", _json_text(payload))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _trace_text(trace) -> str:
    return "iter,objective,delta_y,elapsed_ms\n" + "".join(
        f"{r.iter},{r.objective:.17g},{r.delta_y:.17g},{r.elapsed_ms:.17g}\n"
        for r in trace
    )


def _fit_and_write(out: Path, ds: MultiViewDataset, hp: Hyperparams, repeats: int,
                   load_seconds: float, grid: list[float] | None = None) -> dict:
    """Run the pipeline, or with a grid the grid sweep, and write its labels,
    embedding, trace and metrics.json to out; a numeric failure writes the
    failure metrics.json there instead and re-raises.  load_seconds, the
    time taken to load and normalize ds, goes into metrics.json."""
    try:
        if grid is None:
            result = _run_pipeline(ds, hp, repeats)
        else:
            result, hp = _best_grid_cell(ds, hp, grid, repeats)
    except NumericError as exc:
        _write_numeric_failure(out, ds, hp, load_seconds, exc)
        raise
    trace = result["trace"]
    write_labels_csv(out / "labels.csv", result["labels"])
    write_matrix_csv(out / "embedding.csv", result["embedding"])
    write_text(out / "trace.csv", _trace_text(trace))
    payload = _metrics_record(
        result["scores"], iterations=len(trace), stop_reason=stop_reason(trace, hp),
        fit_seconds=result["fit_seconds"], load_seconds=load_seconds,
        cluster_seconds=result["cluster_seconds"], score_seconds=result["score_seconds"],
        variant=hp.variant,
        hyperparams=_hyperparams_payload(hp, result["k"]),
        clusters_found=int(np.count_nonzero(np.bincount(result["labels"]))),
        argmax_agreement=result["argmax_agreement"],
        partitions_found=result["partitions_found"])
    write_text(out / "metrics.json", _json_text(payload))
    return payload


def _summary_line(name: str, payload: dict) -> str:
    if payload["acc"]["mean"] is None:
        body = "no labels, metrics skipped"
    else:
        body = "  ".join(
            f"{key}={payload[key]['mean']:.4f}±{payload[key]['std']:.4f}"
            for key in SCORES
        )
    return (
        f"{name}: {body}  (iterations={payload['iterations']}, "
        f"fit_seconds={payload['fit_seconds']:.3f})"
    )


def cmd_synth(args) -> int:
    ds = generate_synthetic(_synth_spec(args, args.n))
    manifest = write_dataset(ds, args.out)
    print(f"wrote {ds.name}: m={ds.n_views} views, n={ds.n_samples} samples, "
          f"dims={list(ds.dims)} -> {manifest}")
    return 0


def cmd_fit(args) -> int:
    ds, load_seconds = _load_normalized(args)
    hp = _hyperparams_from_args(args)
    payload = _fit_and_write(Path(args.out), ds, hp, args.repeats, load_seconds)
    print(_summary_line(f"fit[{hp.variant}] {ds.name}", payload))
    return 0


def cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    if ds.labels is None:
        raise InputError("eval needs a dataset with ground-truth labels")
    pred = read_labels_csv(args.pred)
    if pred.size != ds.n_samples:
        raise InputError(
            f"{args.pred}: {pred.size} predictions for {ds.n_samples} samples"
        )
    payload = _metrics_record(
        {name: {"mean": value, "std": 0.0} for name, value in scores(pred, ds.labels).items()}
    )
    if args.out is not None:
        write_text(Path(args.out) / "metrics.json", _json_text(payload))
    print("  ".join(f"{name}={payload[name]['mean']:.4f}" for name in SCORES))
    return 0


def _grid_values(spec: str) -> list[float]:
    if spec == "default":
        return list(TUNING_GRID)
    values = _comma_list("--grid", spec, float)
    if not values:
        raise InputError("--grid needs at least one value")
    return values


def cmd_ablate(args) -> int:
    ds, load_seconds = _load_normalized(args)
    if ds.labels is None:
        raise InputError("ablate needs a dataset with ground-truth labels")
    grid = _grid_values(args.grid) if args.grid is not None else None
    out = Path(args.out)
    rows = []
    for variant in VARIANTS:
        hp = _hyperparams_from_args(args, variant=variant)
        payload = _fit_and_write(out / variant, ds, hp, args.repeats, load_seconds, grid)
        rows.append((variant, payload))
        print(_summary_line(f"ablate[{variant}]", payload))
    table = "variant," + ",".join(SCORES) + "\n"
    for variant, payload in rows:
        cells = ",".join(f"{payload[name]['mean']:.17g}" for name in SCORES)
        table += f"{variant},{cells}\n"
    write_text(out / "ablation.csv", table)
    return 0


def _best_grid_cell(ds, hp: Hyperparams, grid: list[float], repeats: int):
    """Sweep (lambda1, lambda2) over grid x grid, keep the cell with the
    best mean accuracy (first cell on ties).  A numeric failure names the
    cell it happened in."""
    best = None
    for l1, l2 in product(grid, grid):
        cell_hp = replace(hp, lambda1=l1, lambda2=l2)
        try:
            result = _run_pipeline(ds, cell_hp, repeats)
        except NumericError as exc:
            raise NumericError(f"grid cell lambda1={l1!r}, lambda2={l2!r}: {exc}") from exc
        score = result["scores"]["acc"]["mean"]
        if best is None or score > best[0]:
            best = (score, result, cell_hp)
    return best[1], best[2]


def cmd_bench(args) -> int:
    sizes = _comma_list("--sizes", args.sizes, int)
    if not sizes:
        raise InputError("--sizes needs at least one value")
    if any(s < args.c for s in sizes):
        raise InputError(f"every size must be >= c={args.c}")
    hp = _hyperparams_from_args(args)
    # warm-up outside the timed region: BLAS/FFT setup, code paths
    fit_variant(_synth_normalized(args, max(10 * args.c, 50)), replace(hp, max_iter=2))
    datasets = [_synth_normalized(args, n) for n in sizes]
    # a size's times are the least process CPU times of 3 untraced fits and
    # of the k-means on each fit's embedding, taken in rounds over the
    # sizes, so a slow phase of the host slows them alike
    times = [np.inf] * len(sizes)
    kmeans_times = [np.inf] * len(sizes)
    for _ in range(3):
        for i, ds in enumerate(datasets):
            tic = time.process_time()
            st, _ = fit_variant(ds, hp)
            times[i] = min(times[i], time.process_time() - tic)
            embed = clustering_embedding(st, hp.variant)
            tic = time.process_time()
            kmeans(embed, KMeansConfig(c=args.c, seed=hp.seed))
            kmeans_times[i] = min(kmeans_times[i], time.process_time() - tic)
            # the next fit starts with this one and its embedding freed
            st = embed = None
    table = "n,fit_seconds,peak_mb,iterations,kmeans_seconds\n"
    for n, fit_seconds, kmeans_seconds in zip(sizes, times, kmeans_times):
        # tracemalloc slows every allocation, so the memory peak comes from
        # one more, traced run
        tracemalloc.start()
        try:
            _, trace = fit_variant(_synth_normalized(args, n), hp)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        print(f"n={n}: fit_seconds={fit_seconds:.3f} peak_mb={peak_mb:.2f} "
              f"iterations={len(trace)} kmeans_seconds={kmeans_seconds:.3f}")
        table += f"{n},{fit_seconds:.6f},{peak_mb:.3f},{len(trace)},{kmeans_seconds:.6f}\n"
    write_text(Path(args.out) / "timing.csv", table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dstl",
        description="Disentangled slim-tensor learning for multi-view clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic multi-view dataset")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="factorize a dataset and cluster it")
    p.add_argument("--data", required=True, help="path to manifest.json")
    p.add_argument("--out", required=True, help="output directory")
    _add_hyperparam_flags(p)
    p.add_argument("--variant", default="full", choices=list(VARIANTS),
                   help="model variant (default full)")
    p.add_argument("--repeats", type=int, default=10,
                   help="clustering repetitions aggregated in metrics.json (default 10)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score a saved labeling against ground truth")
    p.add_argument("--data", required=True, help="path to manifest.json (labels required)")
    p.add_argument("--pred", required=True, help="labels file to score")
    p.add_argument("--out", default=None, help="optional directory for metrics.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="fit every model variant and tabulate scores")
    p.add_argument("--data", required=True, help="path to manifest.json (labels required)")
    p.add_argument("--out", required=True, help="output directory")
    _add_hyperparam_flags(p)
    p.add_argument("--repeats", type=int, default=10,
                   help="clustering repetitions per variant (default 10)")
    p.add_argument("--grid", default=None,
                   help="sweep lambda1/lambda2 per variant: 'default' for the "
                        "built-in log ladder (1e-4 ... 5) or a comma-separated "
                        "list of values")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("bench", help="time the solver over synthetic sizes")
    p.add_argument("--sizes", required=True,
                   help="comma-separated sample counts, e.g. 1000,2000,4000")
    p.add_argument("--out", required=True, help="output directory")
    _add_synth_flags(p, with_n=False)
    _add_hyperparam_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
