#!/usr/bin/env python3
"""dstl benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload fit_ref --seed 1 --seconds 30 --trace 0

Run from anywhere inside a dstl checkout; the program is taken from the
checkout's ``src/``.  Workloads (see README.md in this directory):

- ``fit_ref``: ``dstl fit`` as a child process on a CSV manifest.
- ``solve_large``: ``fit_variant`` + ``kmeans`` in one worker process.
- ``ablate_k10m5``: ``dstl ablate --repeats 1`` as a child process.

Operations run one after another from this single client.  ``--trace 0``
reports the end-to-end metrics: the client, its children and a metronome
process share one core, and times are CPU seconds rescaled by the
metronome's speed (metronome.py).  ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics in wall time.
Progress and an environment stamp go to stdout first; the last line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files live in ``.perfbench_work/`` under the checkout and are
removed on exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import metronome
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

VARIANTS = ("full", "no_S", "matrix_nuclear", "no_Y")
Y_FREE_VARIANT = "no_Y"
CORRUPT_FRAC = 0.1
# a fixed sweep count: at the default epsilon the sweep count ranged 9-30
# across data seeds, which made per-seed work, not the code, set the spread
HYPER = {"lambda1": 5.0, "lambda2": 0.01, "epsilon": 1e-300, "max_iter": 12}
# one BLAS thread ran steadier than two on a 2-core machine (README.md); main()
# sets it before numpy loads, so numpy users here are imported inside functions
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3            # set-ups per run; setup_s is their median
MIN_OPS = 3           # untraced operations per run, even past --seconds
STARTUP_PROBES = 3    # `python -c "import dstl.cli"` runs for cli.startup_s
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    kind: str                # "cli" (child process per operation) or "library"
    spec: dict               # SynthSpec fields, seed excluded
    command: str | None = None
    repeats: int = 1

    @property
    def variants(self) -> tuple[str, ...]:
        return VARIANTS if self.command == "ablate" else ("full",)


WORKLOADS = {
    "fit_ref": Workload("cli", dict(n=8000, c=5, m=3, dims=(30, 30, 30)), "fit", 10),
    "solve_large": Workload("library", dict(n=32000, c=5, m=3, dims=(30, 30, 30))),
    "ablate_k10m5": Workload(
        "cli", dict(n=4000, c=10, m=5, dims=(40, 35, 30, 25, 20)), "ablate", 1),
}

END_TO_END = (
    ("run_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
    ("iterations", "count"), ("acc", "ratio"), ("nmi", "ratio"),
    ("objective_final_rel", "ratio"), ("pass_rate", "ratio"),
)
SPAN_STATS = (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"), ("share", "ratio"))
DERIVED = (
    ("cli.startup_s", "s"), ("cli.self_ms", "ms"), ("data.load_dataset.mb_per_s", "MB/s"),
    ("slimtensor.svd_slices", "count"), ("solver.objective_share", "ratio"),
    ("kmeans.restarts", "count"), ("kmeans.ms_per_restart", "ms"), ("trace.overhead_s", "s"),
)


@dataclass
class Op:
    """One operation: timing, checks and, when traced, its span summary."""

    wall_s: float
    cpu_s: float = 0.0
    t0: float = 0.0              # perf_counter interval the CPU time was spent in
    t1: float = 0.0
    rss_mb: float = 0.0
    errors: list = field(default_factory=list)
    traced: bool = False
    iterations: int = 0
    acc: float = 0.0
    nmi: float = 0.0
    objective_final_rel: float = 0.0
    digests: dict = field(default_factory=dict)
    spans: dict | None = None
    cli_self_ms: float = 0.0


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.wl = WORKLOADS[name]
        self.seconds, self.trace, self.work = seconds, trace, work
        self.spec = {**self.wl.spec, "corrupt_frac": CORRUPT_FRAC, "seed": seed}
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
        self.setups: list[tuple[float, float, float]] = []   # (CPU s, t0, t1)
        self.startup_s: list[float] = []
        self.data_bytes = 0
        self.energy = 0.0

    # -- child processes -------------------------------------------------

    def spawn(self, cmd: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S):
        """Run cmd to completion; (exit code, start, end, rusage of that child)."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.work)
            code, usage = _reap(proc, _kill_after(proc, timeout))
            t1 = time.perf_counter()
        return code, t0, t1, usage

    def probe_startup(self) -> None:
        for i in range(STARTUP_PROBES):
            code, t0, t1, _ = self.spawn([sys.executable, "-c", "import dstl.cli"],
                                         self.work / f"startup{i}.log")
            if code != 0:
                log = self.work / f"startup{i}.log"
                raise RuntimeError(f"import dstl.cli failed: {_tail(log)}")
            self.startup_s.append(t1 - t0)

    # -- set-up ----------------------------------------------------------

    def setup_dataset(self) -> Path:
        """Generate and write the dataset SETUPS times; the bytes repeat."""
        import dstl

        out = self.work / "data"
        for _ in range(SETUPS):
            t0, c0 = time.perf_counter(), time.process_time()
            ds = dstl.generate_synthetic(dstl.SynthSpec(**self.spec))
            manifest = dstl.write_dataset(ds, out)
            self.setups.append((time.process_time() - c0, t0, time.perf_counter()))
        self.energy = sum(float((x * x).sum()) for x in ds.views)
        self.data_bytes = sum(p.stat().st_size for p in out.iterdir())
        return manifest

    # -- operations ------------------------------------------------------

    def cli_op(self, manifest: Path, index: int, traced: bool) -> Op:
        out = self.work / f"op{index}"
        args = [self.wl.command, "--data", str(manifest), "--out", str(out),
                "--repeats", str(self.wl.repeats)]
        for key, value in HYPER.items():
            args += [f"--{key.replace('_', '-')}", repr(value)]
        span_file = self.work / f"spans{index}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), "--", *args]
        else:
            cmd = [sys.executable, "-m", "dstl.cli", *args]
        log = self.work / f"op{index}.log"
        code, t0, t1, usage = self.spawn(cmd, log)
        op = Op(wall_s=t1 - t0, cpu_s=usage.ru_utime + usage.ru_stime, t0=t0, t1=t1,
                rss_mb=usage.ru_maxrss / 1024.0, traced=traced)
        if code != 0:
            op.errors.append(f"exit code {code}: {_tail(log)}")
        else:
            self.check_cli_outputs(out, op)
            if traced:
                with open(span_file, encoding="utf-8") as fh:
                    op.spans = spans.summarize(json.load(fh)["spans"])
                op.cli_self_ms = op.spans["cli.main"]["self_ms"]
        shutil.rmtree(out, ignore_errors=True)
        return op

    def check_cli_outputs(self, out: Path, op: Op) -> None:
        import numpy as np

        import checks

        n, c = self.spec["n"], self.spec["c"]
        accs, nmis = [], []
        for variant in self.wl.variants:
            vdir = out if self.wl.command == "fit" else out / variant
            try:
                labels = np.loadtxt(vdir / "labels.csv", dtype=np.int64, ndmin=1)
                op.errors += [f"{variant}: {e}" for e in checks.labels_errors(labels, n, c)]
                op.digests[variant] = checks.digest(labels)
                if variant != Y_FREE_VARIANT:
                    emb = np.loadtxt(vdir / "embedding.csv", delimiter=",", ndmin=2)
                    op.errors += [f"{variant}: {e}" for e in checks.simplex_errors(emb)]
                objectives = _trace_column(vdir / "trace.csv", "objective")
                op.errors += [f"{variant}: {e}" for e in checks.monotone_errors(objectives)]
                with open(vdir / "metrics.json", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except (OSError, ValueError, KeyError) as exc:
                op.errors.append(f"{variant}: unreadable output: {exc}")
                continue
            op.iterations += int(payload["iterations"])
            accs.append(payload["acc"]["mean"])
            nmis.append(payload["nmi"]["mean"])
            if variant == "full":
                op.objective_final_rel = objectives[-1] / self.energy
        if accs:
            op.acc, op.nmi = statistics.fmean(accs), statistics.fmean(nmis)
        if self.wl.command == "ablate":
            table = out / "ablation.csv"
            rows = table.read_text(encoding="utf-8").splitlines()[1:] if table.is_file() else []
            if sorted(r.split(",")[0] for r in rows) != sorted(VARIANTS):
                op.errors.append("ablation.csv does not list every variant once")

    def worker(self, seconds: float, min_ops: int) -> list[Op]:
        """One solve_large worker process; appends its set-up time."""
        cfg = {"spec": self.spec, "hyper": HYPER, "seconds": seconds,
               "min_ops": min_ops, "trace": self.trace}
        log = self.work / f"worker{len(self.setups)}.log"
        ops: list[Op] = []
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.work, text=True)
            timer = _kill_after(proc, seconds + CHILD_TIMEOUT_S)
            try:
                for line in proc.stdout:
                    doc = json.loads(line)
                    if doc["event"] == "ready":
                        self.setups.append((doc["cpu_s"], t0, time.perf_counter()))
                    else:
                        ops.append(_library_op(doc))
            finally:
                proc.stdout.close()
                code, usage = _reap(proc, timer)
        for op in ops:
            op.rss_mb = usage.ru_maxrss / 1024.0
        if code != 0 or not ops:
            ops.append(Op(wall_s=time.perf_counter() - t0, rss_mb=usage.ru_maxrss / 1024.0,
                          errors=[f"worker exit code {code}: {_tail(log)}"]))
        return ops

    # -- workloads -------------------------------------------------------

    def run(self) -> list[Op]:
        # warm the bytecode cache so no timed step pays for compiling dstl
        self.spawn([sys.executable, "-c", "import dstl.cli"], self.work / "warm.log")
        if self.trace:
            t0 = time.perf_counter()
            self.probe_startup()
            budget = self.seconds - (time.perf_counter() - t0)
        else:
            budget = self.seconds
        if self.wl.kind == "library":
            if self.trace:
                return self.worker(budget, min_ops=2)
            ops: list[Op] = []
            t0 = time.perf_counter()
            for w in range(SETUPS):
                left = budget - (time.perf_counter() - t0)
                ops += self.worker(left / (SETUPS - w), min_ops=-(-MIN_OPS // SETUPS))
            return ops
        manifest = self.setup_dataset()
        if self.trace:
            # pairs alternate which side runs first, so drift cancels in trace.overhead_s
            return _loop(budget, 1, lambda i: [self.cli_op(manifest, 2 * i + j, (i + j) % 2 == 1)
                                               for j in (0, 1)])
        return _loop(budget, MIN_OPS, lambda i: [self.cli_op(manifest, i, False)])


def _kill_after(proc: subprocess.Popen, timeout: float) -> threading.Timer:
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    return timer


def _reap(proc: subprocess.Popen, timer: threading.Timer):
    """Wait for proc, then stop its kill timer; (exit code, rusage)."""
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _loop(seconds: float, min_steps: int, step) -> list[Op]:
    """Closed loop: run steps back to back until the next would overrun."""
    ops: list[Op] = []
    t0, steps = time.perf_counter(), 0
    while True:
        ops += step(steps)
        steps += 1
        elapsed = time.perf_counter() - t0
        if steps >= min_steps and elapsed + elapsed / steps > seconds:
            return ops


def _library_op(doc: dict) -> Op:
    op = Op(wall_s=doc["wall_s"], cpu_s=doc["cpu_s"], t0=doc["t0"], t1=doc["t1"],
            errors=doc["errors"], traced=doc["traced"])
    if "iterations" in doc:
        op.iterations, op.acc, op.nmi = doc["iterations"], doc["acc"], doc["nmi"]
        op.objective_final_rel, op.digests = doc["objective_final_rel"], doc["digests"]
    if doc.get("spans") is not None:
        op.spans = doc["spans"]
        op.cli_self_ms = doc["wall_s"] * 1e3 - doc["top_ms"]
    return op


def _trace_column(path: Path, column: str) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:] if line]


def _tail(log: Path, limit: int = 400) -> str:
    try:
        text = log.read_text(encoding="utf-8", errors="replace").strip()
    except OSError:
        return ""
    return text[-limit:].replace("\n", " | ")


def _check_determinism(ops: list[Op]) -> None:
    """dstl is deterministic: every operation of a run gives the same labels."""
    first = next((o.digests for o in ops if o.digests), None)
    for op in ops:
        if op.digests and op.digests != first:
            op.errors.append("labels differ from the run's first operation")


def _median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(bench: Bench, ops: list[Op], metro: metronome.Metronome) -> dict:
    ok = [o for o in ops if not o.errors]
    return {
        "run_s": _median(metro.to_ref_s(o.cpu_s, o.t0, o.t1) for o in ops if o.cpu_s > 0),
        "peak_rss_mb": _median(o.rss_mb for o in ops),
        "setup_s": _median(metro.to_ref_s(*setup) for setup in bench.setups),
        "iterations": _median(o.iterations for o in ok),
        "acc": _median(o.acc for o in ok),
        "nmi": _median(o.nmi for o in ok),
        "objective_final_rel": _median(o.objective_final_rel for o in ok),
        "pass_rate": len(ok) / len(ops),
    }


def per_layer(bench: Bench, ops: list[Op]) -> dict:
    traced = [o for o in ops if o.spans is not None]
    plain = [o for o in ops if not o.traced]
    out: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        rows = [(o.spans[name], o.wall_s * 1e3) for o in traced]
        out[f"{name}.calls"] = _median(r["calls"] for r, _ in rows)
        out[f"{name}.ms"] = _median(r["ms"] for r, _ in rows)
        out[f"{name}.self_ms"] = _median(r["self_ms"] for r, _ in rows)
        out[f"{name}.share"] = _median(r["self_ms"] / wall for r, wall in rows)

    def per_op(fn) -> float:
        return _median(fn(o.spans) for o in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["cli.startup_s"] = _median(bench.startup_s)
    out["cli.self_ms"] = _median(o.cli_self_ms for o in traced)
    out["data.load_dataset.mb_per_s"] = per_op(lambda s: ratio(
        s["data.load_dataset"]["calls"] * bench.data_bytes / 1e6,
        s["data.load_dataset"]["ms"] / 1e3))
    out["slimtensor.svd_slices"] = per_op(lambda s: s["slimtensor.tubal_shrinkage"]["work"]
                                          + s["slimtensor.tensor_nuclear_norm"]["work"])
    out["solver.objective_share"] = per_op(lambda s: ratio(
        s["solver.variant_objective"]["ms"], s["solver.fit_variant"]["ms"]))
    out["kmeans.restarts"] = per_op(lambda s: s["kmeans.kmeans"]["work"])
    out["kmeans.ms_per_restart"] = per_op(lambda s: ratio(
        s["kmeans.kmeans"]["ms"], s["kmeans.kmeans"]["work"]))
    out["trace.overhead_s"] = (_median(o.wall_s for o in traced)
                               - _median(o.wall_s for o in plain))
    return out


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(SRC / "dstl"),
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        **{var: os.environ[var] for var in THREAD_VARS[:2]},
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dstl" / "__init__.py").is_file():
        print(f"perfbench: no dstl sources at {SRC}; run from a dstl checkout",
              file=sys.stderr)
        return 2
    affinity = os.sched_getaffinity(0)
    nproc, cpu = len(affinity), min(affinity)
    os.environ.update({var: str(min(BLAS_THREADS, nproc)) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    if not args.trace:
        # the client, every child and the metronome share one core (metronome.py)
        os.sched_setaffinity(0, {cpu})
    if args.trace:
        try:
            spans.resolve()
        except spans.TraceSetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        t0 = time.perf_counter()
        if args.trace:
            ops = bench.run()
        else:
            with metronome.Metronome(bench.env, work) as metro:
                ops = bench.run()
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    _check_determinism(ops)

    failed = sum(1 for o in ops if o.errors)
    if args.trace:
        values, units = per_layer(bench, ops), dict(
            [(f"{n}.{s}", u) for n in spans.SPAN_NAMES for s, u in SPAN_STATS] + list(DERIVED))
    else:
        values, units = end_to_end(bench, ops, metro), dict(END_TO_END)
    stamp = environment(args.seed, nproc)
    if args.trace:
        stamp["trace.overhead_s"] = values["trace.overhead_s"]
    else:
        stamp["metronome"] = {"cpu": cpu, "nice": metronome.NICE,
                              "tick_ref_s": metronome.TICK_REF_S,
                              "tick_s": _median(cpu_s for _, _, cpu_s in metro.ticks)}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {failed} failed, {elapsed:.1f} s")
    for op in ops:
        for err in op.errors:
            print(f"  FAILED: {err}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_rate':<36} {failed / len(ops):>14.6g} ratio")
        print(f"  unscaled medians: {_median(o.wall_s for o in ops):.4g} s wall and "
              f"{_median(o.cpu_s for o in ops):.4g} s CPU per operation (beside the metronome)")
    print("env " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
