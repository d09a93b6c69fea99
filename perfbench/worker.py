"""solve_large worker: dstl's library path in one process.

    python3 perfbench/worker.py CONFIG_JSON

CONFIG_JSON holds ``spec`` (SynthSpec fields), ``hyper`` (Hyperparams
fields), ``seconds``, ``min_ops`` and ``trace``.  The worker imports
dstl, generates the dataset in memory, warms up, prints
``{"event": "ready", "cpu_s": ...}`` with its CPU time so far, then runs
operations one after another and prints one ``{"event": "op", ...}``
line per operation, with its CPU time and perf_counter interval.  An operation is
``dstl.fit_variant`` (variant full) followed by one ``dstl.kmeans`` call
on Y; both are looked up on the package at call time, which is where the
spans wrap them.  With ``trace`` true, operations alternate untraced and
traced, and the wrappers are removed again after every traced one.
Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import checks
import spans


def _emit(doc: dict) -> None:
    print(json.dumps(doc), flush=True)


def _warm_up(dstl, spec: dict, hyper: dict) -> None:
    """Small fit and k-means so lazy library set-up is not timed."""
    small = dstl.generate_synthetic(dstl.SynthSpec(**{**spec, "n": 50 * spec["c"]}))
    st, _ = dstl.fit_variant(small, dstl.Hyperparams(**{**hyper, "max_iter": 2}))
    dstl.kmeans(st.Y, dstl.KMeansConfig(c=spec["c"]))


def _operation(dstl, ds, hp, energy: float, recorder: spans.Recorder | None) -> dict:
    def run():
        t0, c0 = time.perf_counter(), time.process_time()
        st, trace = dstl.fit_variant(ds, hp)
        labels, _ = dstl.kmeans(st.Y, dstl.KMeansConfig(c=ds.n_classes))
        return st, trace, labels, t0, time.perf_counter(), time.process_time() - c0

    if recorder is None:
        st, trace, labels, t0, t1, cpu = run()
    else:
        with spans.installed(recorder):
            st, trace, labels, t0, t1, cpu = run()
    n, c = ds.n_samples, ds.n_classes
    errors = (checks.labels_errors(labels, n, c) + checks.simplex_errors(st.Y)
              + checks.monotone_errors(r.objective for r in trace))
    op = {
        "event": "op",
        "traced": recorder is not None,
        "wall_s": t1 - t0,
        "cpu_s": cpu,
        "t0": t0,
        "t1": t1,
        "errors": errors,
        "iterations": len(trace),
        "objective_final_rel": trace[-1].objective / energy,
        "acc": dstl.accuracy(labels, ds.labels),
        "nmi": dstl.nmi(labels, ds.labels),
        "digests": {"full": checks.digest(labels)},
    }
    if recorder is not None:
        op["spans"] = spans.summarize(recorder.spans)
        op["top_ms"] = spans.top_level_ms(recorder.spans)
    return op


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[0])
    import dstl

    spec = cfg["spec"]
    ds = dstl.generate_synthetic(dstl.SynthSpec(**spec))
    hp = dstl.Hyperparams(**cfg["hyper"])
    energy = sum(float((x * x).sum()) for x in ds.views)
    _warm_up(dstl, spec, cfg["hyper"])
    # CPU since the process started: interpreter start-up, import, generation, warm-up
    _emit({"event": "ready", "cpu_s": time.process_time()})

    start, done = time.perf_counter(), 0
    while True:
        # untraced, traced, traced, untraced, ...: pairs alternate their order
        recorder = spans.Recorder() if cfg["trace"] and done % 4 in (1, 2) else None
        op_start = time.perf_counter()
        try:
            _emit(_operation(dstl, ds, hp, energy, recorder))
        except spans.TraceSetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 70
        except Exception as exc:  # one failed operation must not stop the run
            traceback.print_exc()
            _emit({"event": "op", "traced": recorder is not None,
                   "wall_s": time.perf_counter() - op_start, "cpu_s": 0.0,
                   "t0": op_start, "t1": time.perf_counter(),
                   "errors": [f"{type(exc).__name__}: {exc}"]})
        done += 1
        elapsed = time.perf_counter() - start
        if done >= cfg["min_ops"] and elapsed + elapsed / done > cfg["seconds"]:
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
