import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import dstl
import dstl.cli as cli
import dstl.slimtensor as slimtensor
import dstl.solver as solver
from dstl.data import (
    MultiViewDataset,
    SynthSpec,
    generate_synthetic,
    load_dataset,
    read_labels_csv,
    write_dataset,
)
from dstl.errors import NumericError

METRIC_KEYS = ("acc", "nmi", "purity", "ari", "fscore")


def make_synth(tmp_path, name="data", **over):
    args = {
        "--n": "60", "--c": "3", "--m": "2", "--dims": "6,5",
        "--noise-sigma": "0.05", "--seed": "0",
    }
    args.update(over)
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for k, v in args.items():
        argv += [k, v]
    assert cli.main(argv) == 0
    return out / "manifest.json"


def fit_args(manifest, out, extra=()):
    return ["fit", "--data", str(manifest), "--out", str(out),
            "--lambda1", "1.0", "--lambda2", "0.01", "--repeats", "3",
            *extra]


def test_synth_writes_loadable_dataset(tmp_path):
    manifest = make_synth(tmp_path)
    ds = load_dataset(manifest)
    assert ds.n_samples == 60
    assert ds.dims == (6, 5)
    assert ds.n_classes == 3


def test_synth_same_seed_same_bytes(tmp_path):
    m1 = make_synth(tmp_path, name="a")
    m2 = make_synth(tmp_path, name="b")
    for fname in ("manifest.json", "view0.csv", "view1.csv", "labels.csv"):
        assert (m1.parent / fname).read_bytes() == (m2.parent / fname).read_bytes()


def test_fit_outputs(tmp_path, capsys):
    manifest = make_synth(tmp_path)
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out)) == 0
    assert "acc=" in capsys.readouterr().out

    labels = read_labels_csv(out / "labels.csv")
    assert labels.size == 60

    embedding = np.loadtxt(out / "embedding.csv", delimiter=",")
    assert embedding.shape == (3, 60)

    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "iter,objective,delta_y,elapsed_ms"
    iters = [int(row.split(",")[0]) for row in lines[1:]]
    assert iters == list(range(1, len(iters) + 1))
    objs = [float(row.split(",")[1]) for row in lines[1:]]
    assert all(b <= a + 1e-8 * (1 + abs(a)) for a, b in zip(objs, objs[1:]))

    payload = json.loads((out / "metrics.json").read_text())
    assert set(payload) == set(METRIC_KEYS) | {
        "iterations", "stop_reason", "fit_seconds", "variant", "hyperparams",
        "clusters_found", "error", "environment",
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert payload["environment"] == {
        "dstl": dstl.__version__, "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    for key in METRIC_KEYS:
        assert 0.0 <= payload[key]["mean"] <= 1.0
        assert payload[key]["std"] >= 0.0
    assert payload["iterations"] == len(iters)
    assert payload["clusters_found"] == len(set(labels.tolist()))
    assert payload["error"] is None
    assert payload["variant"] == "full"
    hp = payload["hyperparams"]
    assert hp == {"lambda1": 1.0, "lambda2": 0.01, "lambda3": 1e-4, "k": 3,
                  "epsilon": 1e-4, "max_iter": 100, "seed": 0}


def test_fit_single_iteration_trace(tmp_path):
    manifest = make_synth(tmp_path)
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out, ["--max-iter", "1"])) == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["iterations"] == 1
    assert payload["stop_reason"] == "max_iter"


def test_fit_records_stop_reason(tmp_path):
    manifest = make_synth(tmp_path)
    capped = tmp_path / "capped"
    assert cli.main(fit_args(manifest, capped,
                             ["--epsilon", "1e-300", "--max-iter", "3"])) == 0
    payload = json.loads((capped / "metrics.json").read_text())
    assert (payload["iterations"], payload["stop_reason"]) == (3, "max_iter")
    default = tmp_path / "default"
    assert cli.main(fit_args(manifest, default)) == 0
    payload = json.loads((default / "metrics.json").read_text())
    assert payload["iterations"] < payload["hyperparams"]["max_iter"]
    assert payload["stop_reason"] == "converged"


def test_fit_is_deterministic(tmp_path):
    manifest = make_synth(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(fit_args(manifest, out1)) == 0
    assert cli.main(fit_args(manifest, out2)) == 0
    assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()
    assert (out1 / "embedding.csv").read_bytes() == (out2 / "embedding.csv").read_bytes()
    p1 = json.loads((out1 / "metrics.json").read_text())
    p2 = json.loads((out2 / "metrics.json").read_text())
    for key in METRIC_KEYS:
        assert p1[key] == p2[key]


def test_fit_unlabeled_requires_k(tmp_path):
    rng = np.random.default_rng(0)
    ds = MultiViewDataset((rng.standard_normal((5, 30)),), name="anon")
    manifest = write_dataset(ds, tmp_path / "anon")
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out)) == 2
    assert cli.main(fit_args(manifest, out, ["--k", "2"])) == 0
    payload = json.loads((out / "metrics.json").read_text())
    for key in METRIC_KEYS:
        assert payload[key] == {"mean": None, "std": None}
    assert payload["hyperparams"]["k"] == 2
    labels = read_labels_csv(out / "labels.csv")
    assert labels.size == 30


def test_fit_normalize_flag(tmp_path):
    manifest = make_synth(tmp_path)
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out,
                             ["--normalize", "zscore-per-feature"])) == 0


def test_fit_variant_flag(tmp_path):
    manifest = make_synth(tmp_path)
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out, ["--variant", "no_Y"])) == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["variant"] == "no_Y"
    embedding = np.loadtxt(out / "embedding.csv", delimiter=",")
    assert embedding.shape == (6, 60)  # concatenated H: m * k rows


def test_eval_scores_ground_truth_as_perfect(tmp_path, capsys):
    manifest = make_synth(tmp_path)
    out = tmp_path / "scores"
    rc = cli.main(["eval", "--data", str(manifest),
                   "--pred", str(manifest.parent / "labels.csv"),
                   "--out", str(out)])
    assert rc == 0
    assert "acc=1.0000" in capsys.readouterr().out
    payload = json.loads((out / "metrics.json").read_text())
    for key in METRIC_KEYS:
        assert payload[key] == {"mean": 1.0, "std": 0.0}
    assert payload["iterations"] is None
    assert payload["stop_reason"] is None
    assert payload["fit_seconds"] is None
    assert payload["variant"] is None
    assert payload["hyperparams"] is None
    assert payload["clusters_found"] is None
    assert payload["error"] is None
    assert payload["environment"]["dstl"] == dstl.__version__


def test_eval_rejects_mismatched_predictions(tmp_path):
    manifest = make_synth(tmp_path)
    bad = tmp_path / "short.csv"
    bad.write_text("0\n1\n")
    rc = cli.main(["eval", "--data", str(manifest), "--pred", str(bad)])
    assert rc == 2


def test_labels_past_int64_are_invalid_input(tmp_path, capsys):
    # in the dataset's labels file and in an eval --pred file alike
    manifest = make_synth(tmp_path)
    huge = "\n".join(["0"] * 59 + ["99999999999999999999"]) + "\n"
    pred = tmp_path / "pred.csv"
    pred.write_text(huge)
    labels = manifest.parent / "labels.csv"
    for argv, bad in ((["eval", "--data", str(manifest), "--pred", str(pred)], pred),
                      (fit_args(manifest, tmp_path / "o"), labels)):
        labels.write_text(huge if bad == labels else labels.read_text())
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "line 60" in err


def test_eval_requires_labels(tmp_path):
    rng = np.random.default_rng(1)
    ds = MultiViewDataset((rng.standard_normal((4, 10)),))
    manifest = write_dataset(ds, tmp_path / "anon")
    pred = tmp_path / "pred.csv"
    pred.write_text("\n".join("0" for _ in range(10)) + "\n")
    assert cli.main(["eval", "--data", str(manifest), "--pred", str(pred)]) == 2


def test_ablate_covers_all_variants(tmp_path):
    manifest = make_synth(tmp_path)
    out = tmp_path / "ablation"
    rc = cli.main(["ablate", "--data", str(manifest), "--out", str(out),
                   "--lambda1", "1.0", "--lambda2", "0.01", "--repeats", "2"])
    assert rc == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,acc,nmi,purity,ari,fscore"
    assert [row.split(",")[0] for row in lines[1:]] == list(cli.VARIANTS)
    for variant in cli.VARIANTS:
        payload = json.loads((out / variant / "metrics.json").read_text())
        assert payload["variant"] == variant

    # the full-variant row reproduces a plain fit with identical settings
    run = tmp_path / "plain"
    assert cli.main(fit_args(manifest, run, ["--repeats", "2"])) == 0
    plain = json.loads((run / "metrics.json").read_text())
    full = json.loads((out / "full" / "metrics.json").read_text())
    for key in METRIC_KEYS:
        assert full[key] == plain[key]
    assert full["environment"] == plain["environment"]
    full_row = lines[1].split(",")
    assert float(full_row[1]) == plain["acc"]["mean"]


def test_ablate_grid_sweep(tmp_path):
    manifest = make_synth(tmp_path)
    out = tmp_path / "ablation"
    rc = cli.main(["ablate", "--data", str(manifest), "--out", str(out),
                   "--grid", "0.5,1.0", "--repeats", "1"])
    assert rc == 0
    payload = json.loads((out / "full" / "metrics.json").read_text())
    assert payload["hyperparams"]["lambda1"] in (0.5, 1.0)
    assert payload["hyperparams"]["lambda2"] in (0.5, 1.0)


def test_ablate_rejects_empty_grid_and_missing_labels(tmp_path):
    manifest = make_synth(tmp_path)
    for grid in ("", ",", "0.5,abc"):
        assert cli.main(["ablate", "--data", str(manifest),
                         "--out", str(tmp_path / "x"), "--grid", grid]) == 2
    rng = np.random.default_rng(2)
    anon = write_dataset(MultiViewDataset((rng.standard_normal((4, 10)),)),
                         tmp_path / "anon")
    assert cli.main(["ablate", "--data", str(anon),
                     "--out", str(tmp_path / "y"), "--k", "2"]) == 2


def test_bench_writes_timing_table(tmp_path):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--sizes", "40,80", "--out", str(out),
                   "--c", "2", "--m", "1", "--dims", "6", "--k", "2",
                   "--max-iter", "3", "--epsilon", "1e-300"])
    assert rc == 0
    lines = (out / "timing.csv").read_text().strip().splitlines()
    assert lines[0] == "n,fit_seconds,peak_mb,iterations"
    rows = [row.split(",") for row in lines[1:]]
    assert [int(r[0]) for r in rows] == [40, 80]
    for r in rows:
        assert float(r[1]) > 0
        assert float(r[2]) > 0
        assert int(r[3]) == 3


def test_bench_evaluates_the_objective_every_sweep(tmp_path, monkeypatch):
    # bench times the sweep that fit runs, objective evaluation included
    calls = []
    objective = solver.variant_objective
    monkeypatch.setattr(solver, "variant_objective",
                        lambda *a: calls.append(1) or objective(*a))
    rc = cli.main(["bench", "--sizes", "40,80", "--c", "3", "--m", "2",
                   "--dims", "6,5", "--epsilon", "1e-300", "--max-iter", "3",
                   "--out", str(tmp_path / "bench")])
    assert rc == 0
    # 2 warm-up sweeps, then 2 sizes x (timed fit + traced fit) x 3 sweeps
    assert len(calls) == 2 + 2 * 2 * 3
    # so, as in fit, an objective that overflows float64 is a numeric failure
    assert cli.main(["bench", "--sizes", "40", "--c", "2", "--m", "1", "--dims", "6",
                     "--noise-sigma", "1e153", "--max-iter", "1",
                     "--out", str(tmp_path / "huge")]) == 3


def test_bench_optional_kmeans_column(tmp_path):
    out = tmp_path / "bench"
    rc = cli.main(["bench", "--sizes", "40", "--out", str(out),
                   "--c", "2", "--m", "1", "--dims", "6", "--k", "2",
                   "--max-iter", "2", "--include-kmeans"])
    assert rc == 0
    lines = (out / "timing.csv").read_text().strip().splitlines()
    assert lines[0] == "n,fit_seconds,peak_mb,iterations,kmeans_seconds"
    assert float(lines[1].split(",")[4]) >= 0


def test_bench_rejects_bad_sizes(tmp_path):
    assert cli.main(["bench", "--sizes", "", "--out", str(tmp_path / "b"),
                     "--c", "2", "--m", "1", "--dims", "6"]) == 2
    assert cli.main(["bench", "--sizes", "3", "--out", str(tmp_path / "b"),
                     "--c", "5", "--m", "1", "--dims", "6"]) == 2


def test_missing_manifest_exit_code(tmp_path, capsys):
    rc = cli.main(fit_args(tmp_path / "nope" / "manifest.json", tmp_path / "o"))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["manifest.json", "view1.csv", "labels.csv", "pred.csv"])
def test_missing_input_file_is_invalid_input_naming_it_once(tmp_path, capsys, missing):
    manifest = make_synth(tmp_path)
    gone = manifest.parent / missing
    gone.unlink(missing_ok=True)
    argv = (["eval", "--data", str(manifest), "--pred", str(gone)] if missing == "pred.csv"
            else fit_args(manifest, tmp_path / "o"))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert err[0].count(str(gone)) == 1


def test_out_naming_a_file_is_invalid_input(tmp_path, capsys):
    manifest = make_synth(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    for argv in (fit_args(manifest, taken),
                 ["ablate", "--data", str(manifest), "--out", str(taken), "--repeats", "1",
                  "--max-iter", "2"],
                 ["bench", "--sizes", "30", "--out", str(taken), "--max-iter", "2"]):
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(taken) in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, message", [
    (["ablate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["ablate", "--repeats", "0"], "repeats must be >= 1, got 0"),
    (["ablate", "--k", "50"], "k=50 exceeds the smallest view dimension 5"),
    (["bench", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["bench", "--noise-sigma", "inf"],
     "noise_sigma must be a finite nonnegative number, got inf"),
    (["bench", "--k", "50"], "k=50 exceeds the smallest view dimension 20"),
    (["bench", "--dims", "4,x,3"], "--dims: expected comma-separated int values, got '4,x,3'"),
], ids=["ablate-seed", "ablate-repeats", "ablate-k", "bench-seed", "bench-noise-sigma",
        "bench-k", "bench-dims"])
def test_invalid_input_leaves_no_output_directory(tmp_path, capsys, argv, message):
    # the output directory appears with the first output, not before
    out = tmp_path / "o"
    data = (["--data", str(make_synth(tmp_path))] if argv[0] == "ablate"
            else ["--sizes", "30"])
    capsys.readouterr()
    assert cli.main([*argv, *data, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unwritable_output_file_is_invalid_input(tmp_path, capsys):
    # the output directory exists, but one file in it cannot be written
    manifest = make_synth(tmp_path)
    for name in ("labels.csv", "embedding.csv", "trace.csv", "metrics.json"):
        out = tmp_path / f"blocked-{name}"
        (out / name).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(fit_args(manifest, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / name) in err
        assert "Traceback" not in err


def test_synth_unwritable_output_file_is_invalid_input(tmp_path, capsys):
    for name in ("view0.csv", "labels.csv", "manifest.json"):
        out = tmp_path / f"blocked-{name}"
        (out / name).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(["synth", "--out", str(out), "--n", "20", "--c", "2",
                         "--m", "1", "--dims", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / name) in err


@pytest.mark.parametrize("command", ["fit", "ablate", "synth", "bench"])
def test_negative_seed_is_invalid_input(tmp_path, capsys, command):
    manifest = make_synth(tmp_path)
    argv = {
        "fit": fit_args(manifest, tmp_path / "o"),
        "ablate": ["ablate", "--data", str(manifest), "--out", str(tmp_path / "o"),
                   "--repeats", "1"],
        "synth": ["synth", "--out", str(tmp_path / "o")],
        "bench": ["bench", "--sizes", "30", "--out", str(tmp_path / "o")],
    }[command]
    capsys.readouterr()
    assert cli.main([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


@pytest.mark.parametrize("command,sigma", [("synth", "nan"), ("bench", "inf")])
def test_non_finite_noise_sigma_is_invalid_input(tmp_path, capsys, command, sigma):
    argv = {
        "synth": ["synth", "--n", "20", "--out", str(tmp_path / "o")],
        "bench": ["bench", "--sizes", "30", "--out", str(tmp_path / "o")],
    }[command]
    assert cli.main([*argv, "--noise-sigma", sigma]) == 2
    assert capsys.readouterr().err.startswith("error: noise_sigma must be a finite")


def test_non_utf8_view_is_invalid_input(tmp_path, capsys):
    manifest = make_synth(tmp_path)
    view = manifest.parent / "view1.csv"
    view.write_bytes(view.read_bytes().replace(b"\n", b"\xff\n", 1))
    capsys.readouterr()
    assert cli.main(fit_args(manifest, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(view) in err


def test_numeric_failure_exit_code(tmp_path, monkeypatch, capsys):
    manifest = make_synth(tmp_path)

    def explode(*args, **kwargs):
        raise NumericError("boom")

    monkeypatch.setattr(cli, "fit_variant", explode)
    rc = cli.main(fit_args(manifest, tmp_path / "o"))
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("variant, module", [("full", slimtensor),
                                             ("matrix_nuclear", solver)])
def test_svt_failure_exits_numeric_failure_naming_block_h(tmp_path, monkeypatch, capsys,
                                                          variant, module):
    # a non-finite spectrum inside either H step's svt call, in both eigen
    # steps: k3 m2 matrices have Gram matrices of 2 (Fourier slices) or 3
    # (QR factors of the views) columns and take the closed form; at k4 m4
    # they have 4 and take eigh
    svt = module.svt
    monkeypatch.setattr(module, "svt", lambda a, tau: svt(a * np.nan, tau))
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g) or eigh(g))
    shapes = {"k3m2": {}, "k4m4": {"--c": "4", "--m": "4", "--dims": "6,5,6,5"}}
    for name, over in shapes.items():
        manifest = make_synth(tmp_path, name, **over)
        capsys.readouterr()
        assert cli.main(fit_args(manifest, tmp_path / f"out_{name}", ["--variant", variant])) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: block H at iteration 1: ") and "svt" in err
        payload = json.loads((tmp_path / f"out_{name}" / "metrics.json").read_text())
        assert payload["stop_reason"] == "numeric_failure" and payload["variant"] == variant
        assert bool(calls) == (name == "k4m4")


def test_overflow_exits_numeric_failure(tmp_path, capsys):
    # finite views whose products overflow float64 are a numeric failure (3),
    # not invalid input (2)
    ds = load_dataset(make_synth(tmp_path))
    huge = MultiViewDataset(tuple(x * 1e160 for x in ds.views), ds.labels, "huge")
    manifest = write_dataset(huge, tmp_path / "huge")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(fit_args(manifest, tmp_path / "o"))
    assert rc == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure:")
    # the failure is also on record in metrics.json, with the same message
    payload = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert payload["stop_reason"] == "numeric_failure"
    assert payload["error"] == err[0].removeprefix("numeric failure: ")
    assert payload["iterations"] is None and payload["clusters_found"] is None
    assert payload["variant"] == "full" and payload["hyperparams"]["k"] == 3
    assert payload["environment"]["numpy"] == np.__version__
    assert not (tmp_path / "o" / "labels.csv").exists()



def test_ablate_records_numeric_failure_of_the_failing_variant(tmp_path, capsys):
    ds = load_dataset(make_synth(tmp_path))
    huge = MultiViewDataset(tuple(x * 1e160 for x in ds.views), ds.labels, "huge")
    manifest = write_dataset(huge, tmp_path / "huge")
    out = tmp_path / "abl"
    capsys.readouterr()
    assert cli.main(["ablate", "--data", str(manifest), "--out", str(out),
                     "--grid", "0.5", "--repeats", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: grid cell lambda1=0.5, lambda2=0.5:")
    payload = json.loads((out / "full" / "metrics.json").read_text())
    assert payload["stop_reason"] == "numeric_failure"
    assert err.rstrip("\n").endswith(payload["error"])
    assert not (out / "ablation.csv").exists()

def test_fit_reports_fewer_clusters_than_asked(tmp_path, capsys):
    # lambda2 this large zeroes H, so every no_Y embedding column is the
    # same point: k-means finds one cluster of the three asked for, and the
    # fit still succeeds
    manifest = make_synth(tmp_path)
    out = tmp_path / "run"
    assert cli.main(fit_args(manifest, out, ["--variant", "no_Y", "--lambda2", "1e12"])) == 0
    assert np.max(np.abs(np.loadtxt(out / "embedding.csv", delimiter=","))) == 0.0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["clusters_found"] == 1
    assert set(read_labels_csv(out / "labels.csv").tolist()) == {0}


def test_module_entry_point(tmp_path):
    manifest_dir = tmp_path / "d"
    proc = subprocess.run(
        [sys.executable, "-m", "dstl.cli", "synth", "--out", str(manifest_dir),
         "--n", "20", "--c", "2", "--m", "1", "--dims", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (manifest_dir / "manifest.json").is_file()


@pytest.mark.parametrize("module", ["dstl", "dstl.cli"])
def test_import_loads_no_scipy(module):
    # the runtime needs numpy and the stdlib only; scipy is a test oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {module}, sys; sys.exit('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr or f"import {module} loaded scipy"


def test_fit_and_ablate_score_with_scipy_unimportable(tmp_path):
    manifest = make_synth(tmp_path)
    script = ("import sys; sys.modules['scipy'] = None; from dstl.cli import main; "
              "sys.exit(main(sys.argv[1:]))")
    for argv in (fit_args(manifest, tmp_path / "fit"),
                 ["ablate", "--data", str(manifest), "--out", str(tmp_path / "abl"),
                  "--repeats", "1"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    for out in (tmp_path / "fit", tmp_path / "abl" / "full"):
        payload = json.loads((out / "metrics.json").read_text())
        assert 0.0 < payload["acc"]["mean"] <= 1.0


def test_environment_records_blas_threads(tmp_path, monkeypatch):
    manifest = make_synth(tmp_path)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert cli.main(fit_args(manifest, tmp_path / "unset")) == 0
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert cli.main(fit_args(manifest, tmp_path / "three")) == 0
    env = [json.loads((tmp_path / d / "metrics.json").read_text())["environment"]
           for d in ("unset", "three")]
    assert env[0]["OPENBLAS_NUM_THREADS"] is None
    assert env[1]["OPENBLAS_NUM_THREADS"] == "3"


def test_fit_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the reference benchmark's data and fit, under one and two BLAS threads
    ds = generate_synthetic(SynthSpec(n=8000, c=5, m=3, dims=(30, 30, 30),
                                      corrupt_frac=0.1, seed=1))
    manifest = write_dataset(ds, tmp_path / "data")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "dstl.cli", "fit", "--data", str(manifest),
             "--out", str(out), "--repeats", "1", "--seed", "1", "--lambda1", "5",
             "--lambda2", "0.01", "--epsilon", "1e-300", "--max-iter", "12"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        trace = [line.rsplit(",", 1)[0] for line in
                 (out / "trace.csv").read_text().splitlines()]  # drop elapsed_ms
        runs.append(((out / "labels.csv").read_bytes(),
                     (out / "embedding.csv").read_bytes(), trace))
    assert runs[0] == runs[1]


_CLI_LAMBDAS = hst.one_of(hst.just(0.0), hst.floats(1e-8, 1e300))


@settings(max_examples=150, deadline=None)
@given(
    variant=hst.sampled_from(dstl.VARIANTS),
    dims=hst.lists(hst.integers(1, 4), min_size=1, max_size=3),
    n=hst.integers(1, 9),
    k_frac=hst.floats(0.0, 1.0),
    kind=hst.sampled_from(["gaussian", "zero", "constant"]),
    scale_exp=hst.sampled_from([-150, -20, 0, 20, 150, 155, 160]),
    lambdas=hst.tuples(_CLI_LAMBDAS, _CLI_LAMBDAS, _CLI_LAMBDAS),
    epsilon=hst.sampled_from([1e-300, 1e-4]),
    seed=hst.integers(0, 2**16),
)
@example(variant="full", dims=[2], n=1, k_frac=0.0, kind="gaussian", scale_exp=10,
         lambdas=(0.0, 0.0, 0.0), epsilon=1e-4, seed=0)
@example(variant="no_Y", dims=[4, 4, 4], n=9, k_frac=1.0, kind="zero", scale_exp=160,
         lambdas=(0.0, 0.0, 0.0), epsilon=1e-300, seed=3)
@example(variant="matrix_nuclear", dims=[3, 2], n=7, k_frac=1.0, kind="gaussian",
         scale_exp=155, lambdas=(5.0, 0.01, 1e-4), epsilon=1e-4, seed=4)
@example(variant="no_S", dims=[3], n=5, k_frac=1.0, kind="constant", scale_exp=-150,
         lambdas=(1e300, 1e300, 1e300), epsilon=1e-300, seed=2)
def test_fit_exit_code_stop_reason_and_clusters_agree_at_the_edges(
        variant, dims, n, k_frac, kind, scale_exp, lambdas, epsilon, seed):
    # test_whole_fit_properties' edges through `dstl fit` on CSV: n = 1 or
    # 2, one view, k = min d_v, zero and constant views, scales 1e+-150
    # (1e155 and 1e160 overflow).  Every input is valid, so the exit code is
    # 0 or, past the working range, 3, and metrics.json, trace.csv,
    # labels.csv and stderr tell the same story
    k = 1 + int(k_frac * (min(dims) - 1))
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        views = [rng.standard_normal((d, n)) for d in dims]
        peak = max(float(np.max(np.abs(x))) for x in views)
        views = [x / peak for x in views]
    else:
        views = [np.full((d, n), 1.0 if kind == "constant" else 0.0) for d in dims]
    classes = min(n, k)
    ds = MultiViewDataset(tuple(x * 10.0**scale_exp for x in views),
                          np.arange(n) % classes)
    overflows = kind != "zero" and scale_exp > 152
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_dataset(ds, Path(tmp) / "data")
        out = Path(tmp) / "out"
        argv = ["fit", "--data", str(manifest), "--out", str(out), "--k", str(k),
                "--lambda1", repr(lambdas[0]), "--lambda2", repr(lambdas[1]),
                "--lambda3", repr(lambdas[2]), "--epsilon", repr(epsilon),
                "--max-iter", "4", "--variant", variant, "--repeats", "2"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["variant"] == variant and payload["hyperparams"]["k"] == k
        if rc == 3:
            assert overflows, err.getvalue()
            assert payload["stop_reason"] == "numeric_failure"
            assert payload["iterations"] is None and payload["clusters_found"] is None
            assert err.getvalue() == f"numeric failure: {payload['error']}\n"
            assert not (out / "labels.csv").exists()
            return
        assert rc == 0 and not overflows, err.getvalue()
        assert err.getvalue() == "" and payload["error"] is None
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert payload["iterations"] == len(rows)
        last_delta = float(rows[-1].split(",")[2])
        if payload["stop_reason"] == "converged":
            assert 2 <= len(rows) <= 4 and last_delta <= epsilon
        else:
            assert payload["stop_reason"] == "max_iter"
            assert len(rows) == 4 and not last_delta <= epsilon
        labels = read_labels_csv(out / "labels.csv")
        assert labels.size == n
        assert payload["clusters_found"] == np.unique(labels).size
        assert 1 <= payload["clusters_found"] <= classes
