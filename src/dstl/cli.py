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
    make_dir,
    normalize,
    read_labels_csv,
    write_dataset,
    write_labels_csv,
    write_matrix_csv,
    write_output,
    write_text,
)
from .errors import InputError, NumericError
from .kmeans import KMeansConfig, kmeans
from .metrics import accuracy, ari, f_score, nmi, purity
from .solver import (
    VARIANTS,
    Hyperparams,
    clustering_embedding,
    fit_variant,
    resolve_k,
    stop_reason,
)

_METRICS = (
    ("acc", accuracy),
    ("nmi", nmi),
    ("purity", purity),
    ("ari", ari),
    ("fscore", f_score),
)

_NO_SCORE = {"mean": None, "std": None}

# metrics.json keys between the five scores and the environment, in file order
_FIT_KEYS = ("iterations", "stop_reason", "fit_seconds", "variant", "hyperparams",
             "clusters_found", "error")

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


def _load_normalized(args) -> MultiViewDataset:
    return normalize(load_dataset(args.data), args.normalize)


def _run_pipeline(ds: MultiViewDataset, hp: Hyperparams, repeats: int):
    """Fit once (the solver is deterministic), cluster `repeats` times with
    distinct seeds, score each run against the labels when present."""
    if repeats < 1:
        raise InputError(f"repeats must be >= 1, got {repeats}")
    tic = time.perf_counter()
    st, trace = fit_variant(ds, hp)
    fit_seconds = time.perf_counter() - tic
    embed = clustering_embedding(st, hp.variant)
    k = st.Y.shape[0]
    clusters = ds.n_classes if ds.labels is not None else k
    best_labels = None
    best_inertia = np.inf
    per_run: dict[str, list[float]] = {name: [] for name, _ in _METRICS}
    for r in range(repeats):
        pred, inertia = kmeans(embed, KMeansConfig(c=clusters, seed=hp.seed + r))
        if inertia < best_inertia:
            best_labels, best_inertia = pred, inertia
        if ds.labels is not None:
            for name, fn in _METRICS:
                per_run[name].append(fn(pred, ds.labels))
    scores = None
    if ds.labels is not None:
        scores = {
            name: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
            for name, vals in per_run.items()
        }
    return {
        "trace": trace,
        "fit_seconds": fit_seconds,
        "embedding": embed,
        "labels": best_labels,
        "scores": scores,
        "k": k,
    }


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


def _metrics_record(scores: dict | None, **fit) -> dict:
    """A metrics.json record: the five scores (null without labels), the
    fit keys (null unless given), then the environment."""
    record = {name: dict(scores[name] if scores else _NO_SCORE) for name, _ in _METRICS}
    record.update((key, fit.get(key)) for key in _FIT_KEYS)
    return {**record, "environment": _environment()}


def _write_numeric_failure(out: Path, ds: MultiViewDataset, hp: Hyperparams,
                           exc: NumericError) -> None:
    """metrics.json for a fit or its k-means that failed numerically: the
    same keys, with stop_reason numeric_failure and the error message."""
    payload = _metrics_record(None, stop_reason="numeric_failure", variant=hp.variant,
                              hyperparams=_hyperparams_payload(hp, resolve_k(ds, hp)),
                              error=str(exc))
    write_output(make_dir(out) / "metrics.json", write_text, _json_text(payload))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _trace_text(trace) -> str:
    return "iter,objective,delta_y,elapsed_ms\n" + "".join(
        f"{r.iter},{r.objective:.17g},{r.delta_y:.17g},{r.elapsed_ms:.17g}\n"
        for r in trace
    )


def _write_fit_outputs(out: Path, result, hp: Hyperparams) -> dict:
    make_dir(out)
    write_output(out / "labels.csv", write_labels_csv, result["labels"])
    write_output(out / "embedding.csv", write_matrix_csv, result["embedding"])
    write_output(out / "trace.csv", write_text, _trace_text(result["trace"]))
    trace = result["trace"]
    payload = _metrics_record(
        result["scores"], iterations=len(trace), stop_reason=stop_reason(trace, hp),
        fit_seconds=result["fit_seconds"], variant=hp.variant,
        hyperparams=_hyperparams_payload(hp, result["k"]),
        clusters_found=int(np.unique(result["labels"]).size))
    write_output(out / "metrics.json", write_text, _json_text(payload))
    return payload


def _summary_line(name: str, payload: dict) -> str:
    if payload["acc"]["mean"] is None:
        body = "no labels, metrics skipped"
    else:
        body = "  ".join(
            f"{key}={payload[key]['mean']:.4f}±{payload[key]['std']:.4f}"
            for key, _ in _METRICS
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
    ds = _load_normalized(args)
    hp = _hyperparams_from_args(args)
    try:
        result = _run_pipeline(ds, hp, args.repeats)
    except NumericError as exc:
        _write_numeric_failure(Path(args.out), ds, hp, exc)
        raise
    payload = _write_fit_outputs(Path(args.out), result, hp)
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
        {name: {"mean": float(fn(pred, ds.labels)), "std": 0.0} for name, fn in _METRICS}
    )
    if args.out is not None:
        write_output(make_dir(args.out) / "metrics.json", write_text, _json_text(payload))
    print("  ".join(f"{name}={payload[name]['mean']:.4f}" for name, _ in _METRICS))
    return 0


def _grid_values(spec: str) -> list[float]:
    if spec == "default":
        return list(TUNING_GRID)
    values = _comma_list("--grid", spec, float)
    if not values:
        raise InputError("--grid needs at least one value")
    return values


def cmd_ablate(args) -> int:
    ds = _load_normalized(args)
    if ds.labels is None:
        raise InputError("ablate needs a dataset with ground-truth labels")
    grid = _grid_values(args.grid) if args.grid is not None else None
    out = Path(args.out)
    rows = []
    for variant in VARIANTS:
        hp = _hyperparams_from_args(args, variant=variant)
        try:
            if grid is None:
                result = _run_pipeline(ds, hp, args.repeats)
            else:
                result, hp = _best_grid_cell(ds, hp, grid, args.repeats)
        except NumericError as exc:
            _write_numeric_failure(out / variant, ds, hp, exc)
            raise
        payload = _write_fit_outputs(out / variant, result, hp)
        rows.append((variant, payload))
        print(_summary_line(f"ablate[{variant}]", payload))
    table = "variant," + ",".join(name for name, _ in _METRICS) + "\n"
    for variant, payload in rows:
        cells = ",".join(f"{payload[name]['mean']:.17g}" for name, _ in _METRICS)
        table += f"{variant},{cells}\n"
    write_output(out / "ablation.csv", write_text, table)
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
    if hp.k is None:
        hp = replace(hp, k=args.c)
    # warm-up outside the timed region: BLAS/FFT setup, code paths
    warm = generate_synthetic(_synth_spec(args, max(10 * args.c, 50)))
    fit_variant(normalize(warm, args.normalize), replace(hp, max_iter=2))
    table = "n,fit_seconds,peak_mb,iterations"
    table += ",kmeans_seconds\n" if args.include_kmeans else "\n"
    for n in sizes:
        spec = _synth_spec(args, n)
        # time an untraced fit by process CPU time; tracemalloc slows every
        # allocation, so the memory peak comes from a second, traced run
        ds = normalize(generate_synthetic(spec), args.normalize)
        tic = time.process_time()
        st, trace = fit_variant(ds, hp)
        fit_seconds = time.process_time() - tic
        tracemalloc.start()
        try:
            fit_variant(normalize(generate_synthetic(spec), args.normalize), hp)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        shown = (f"n={n}: fit_seconds={fit_seconds:.3f} peak_mb={peak_mb:.2f} "
                 f"iterations={len(trace)}")
        table += f"{n},{fit_seconds:.6f},{peak_mb:.3f},{len(trace)}"
        if args.include_kmeans:
            embed = clustering_embedding(st, hp.variant)
            tic = time.process_time()
            kmeans(embed, KMeansConfig(c=args.c, seed=hp.seed))
            kmeans_seconds = time.process_time() - tic
            shown += f" kmeans_seconds={kmeans_seconds:.3f}"
            table += f",{kmeans_seconds:.6f}"
        print(shown)
        table += "\n"
    write_output(make_dir(args.out) / "timing.csv", write_text, table)
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
    p.add_argument("--include-kmeans", action="store_true",
                   help="also run and time k-means per size (extra column)")
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
