import json

import numpy as np
import pytest

from dstl.data import (
    MultiViewDataset,
    SynthSpec,
    _latent_blobs,
    generate_synthetic,
    load_dataset,
    normalize,
    read_labels_csv,
    read_matrix_csv,
    write_dataset,
    write_matrix_csv,
)
from dstl.errors import InputError
from dstl.kmeans import KMeansConfig, kmeans
from dstl.metrics import accuracy


def write_manifest(tmp_path, views, labels=None, name="toy"):
    for i, v in enumerate(views):
        write_matrix_csv(tmp_path / f"v{i}.csv", np.asarray(v, dtype=float))
    doc = {
        "name": name,
        "views": [{"path": f"v{i}.csv"} for i in range(len(views))],
        "labels": None,
    }
    if labels is not None:
        (tmp_path / "y.csv").write_text("\n".join(str(x) for x in labels) + "\n")
        doc["labels"] = "y.csv"
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


def test_load_two_view_manifest(tmp_path):
    p = write_manifest(
        tmp_path,
        [np.arange(12.0).reshape(3, 4), np.ones((2, 4))],
        labels=[0, 1, 2, 1],
    )
    ds = load_dataset(p)
    assert ds.n_views == 2
    assert ds.n_samples == 4
    assert ds.dims == (3, 2)
    assert ds.n_classes == 3
    assert ds.name == "toy"
    assert np.array_equal(ds.views[0], np.arange(12.0).reshape(3, 4))


def test_load_without_labels(tmp_path):
    p = write_manifest(tmp_path, [np.ones((2, 3))])
    ds = load_dataset(p)
    assert ds.labels is None
    assert ds.n_classes is None


def test_inconsistent_sample_counts_names_both_files(tmp_path):
    p = write_manifest(tmp_path, [np.ones((2, 4)), np.ones((2, 5))])
    with pytest.raises(InputError) as exc:
        load_dataset(p)
    msg = str(exc.value)
    assert "v0.csv" in msg and "v1.csv" in msg


def test_label_count_mismatch(tmp_path):
    p = write_manifest(tmp_path, [np.ones((2, 4))], labels=[0, 1, 0])
    with pytest.raises(InputError):
        load_dataset(p)


def test_missing_class_rejected(tmp_path):
    p = write_manifest(tmp_path, [np.ones((2, 4))], labels=[0, 0, 2, 2])
    with pytest.raises(InputError) as exc:
        load_dataset(p)
    assert "1" in str(exc.value)


def test_non_numeric_cell_reports_position(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0,3.0\n4.0,oops,6.0\n")
    with pytest.raises(InputError) as exc:
        read_matrix_csv(bad)
    msg = str(exc.value)
    assert "bad.csv" in msg and "row 2" in msg and "column 2" in msg


def test_missing_view_file(tmp_path):
    doc = {"name": "x", "views": [{"path": "nope.csv"}], "labels": None}
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(InputError):
        load_dataset(p)


def test_invalid_json(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{not json")
    with pytest.raises(InputError):
        load_dataset(p)


def test_ragged_rows_rejected(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError) as exc:
        read_matrix_csv(bad)
    assert "row 2" in str(exc.value)


def test_labels_reader_rejects_non_integer(tmp_path):
    bad = tmp_path / "y.csv"
    bad.write_text("0\n1\nx\n")
    with pytest.raises(InputError) as exc:
        read_labels_csv(bad)
    assert "line 3" in str(exc.value)


def test_labels_reader_rejects_labels_past_int64(tmp_path):
    bad = tmp_path / "y.csv"
    for text in ("0\n99999999999999999999\n", "0\n-9223372036854775809\n"):
        bad.write_text(text)
        with pytest.raises(InputError) as exc:
            read_labels_csv(bad)
        assert "y.csv" in str(exc.value) and "line 2" in str(exc.value)
    bad.write_text("9223372036854775807\n-9223372036854775808\n")
    assert read_labels_csv(bad).tolist() == [2**63 - 1, -(2**63)]


def test_huge_class_id_is_rejected_without_enumerating_classes():
    # a class id near the int64 limit implies ~2**62 classes, almost all empty
    with pytest.raises(InputError) as exc:
        MultiViewDataset((np.ones((2, 3)),), labels=np.array([0, 2**62, 1]))
    assert "have no samples" in str(exc.value) and "the first is 2" in str(exc.value)


def test_normalize_none_is_identity():
    ds = generate_synthetic(SynthSpec(n=20, c=2, m=1, dims=(4,), seed=0))
    assert normalize(ds, "none") is ds


def test_normalize_unit_column_example():
    ds = MultiViewDataset((np.array([[3.0], [4.0]]),))
    out = normalize(ds, "unit-column-l2")
    assert np.max(np.abs(out.views[0][:, 0] - np.array([0.6, 0.8]))) <= 1e-15


def test_normalize_unit_column_keeps_zero_columns():
    ds = MultiViewDataset((np.array([[0.0, 3.0], [0.0, 4.0]]),))
    out = normalize(ds, "unit-column-l2")
    assert np.array_equal(out.views[0][:, 0], np.zeros(2))
    norms = np.linalg.norm(out.views[0], axis=0)
    assert abs(norms[1] - 1.0) <= 1e-12


def test_normalize_zscore_rows():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 50)) * 4 + 2
    out = normalize(MultiViewDataset((x,)), "zscore-per-feature")
    mu = out.views[0].mean(axis=1)
    sd = out.views[0].std(axis=1)
    assert np.max(np.abs(mu)) <= 1e-12
    assert np.max(np.abs(sd - 1.0)) <= 1e-12


def test_normalize_zscore_constant_row_becomes_zero():
    x = np.vstack([np.full(5, 7.0), np.arange(5.0)])
    out = normalize(MultiViewDataset((x,)), "zscore-per-feature")
    assert np.array_equal(out.views[0][0], np.zeros(5))


def test_normalize_unknown_mode():
    ds = MultiViewDataset((np.ones((2, 2)),))
    with pytest.raises(InputError):
        normalize(ds, "l1")


def test_dataset_validation():
    with pytest.raises(InputError):
        MultiViewDataset(())
    with pytest.raises(InputError):
        MultiViewDataset((np.ones((2, 3)), np.ones((2, 4))))
    with pytest.raises(InputError):
        MultiViewDataset((np.array([[np.nan, 1.0]]),))
    with pytest.raises(InputError):
        MultiViewDataset((np.ones((2, 3)),), labels=np.array([0, 0, -1]))


def test_views_are_read_only():
    ds = generate_synthetic(SynthSpec(n=10, c=2, m=1, dims=(3,), seed=1))
    with pytest.raises(ValueError):
        ds.views[0][0, 0] = 5.0


def test_synthetic_shapes_and_balance():
    spec = SynthSpec(n=103, c=5, m=2, dims=(7, 9), noise_sigma=0.1, seed=3)
    ds = generate_synthetic(spec)
    assert ds.dims == (7, 9)
    assert ds.n_samples == 103
    counts = np.bincount(ds.labels, minlength=5)
    assert counts.min() >= 103 // 5
    assert counts.max() <= 103 // 5 + 1


def test_synthetic_deterministic_and_seed_sensitive():
    spec = SynthSpec(n=40, c=3, m=2, dims=(5, 6), corrupt_frac=0.1, seed=9)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    for va, vb in zip(a.views, b.views):
        assert va.tobytes() == vb.tobytes()
    assert np.array_equal(a.labels, b.labels)
    other = generate_synthetic(SynthSpec(n=40, c=3, m=2, dims=(5, 6),
                                         corrupt_frac=0.1, seed=10))
    assert not np.array_equal(a.views[0], other.views[0])


def test_synthetic_corruption_changes_entries():
    base = SynthSpec(n=50, c=2, m=1, dims=(8,), noise_sigma=0.0, seed=4)
    clean = generate_synthetic(base)
    dirty = generate_synthetic(
        SynthSpec(n=50, c=2, m=1, dims=(8,), noise_sigma=0.0,
                  corrupt_frac=0.1, seed=4)
    )
    diff = clean.views[0] != dirty.views[0]
    assert diff.sum() == round(0.1 * clean.views[0].size)


def test_synthetic_validation():
    with pytest.raises(InputError):
        SynthSpec(n=3, c=5)
    with pytest.raises(InputError):
        SynthSpec(corrupt_frac=0.6)
    with pytest.raises(InputError):
        SynthSpec(m=2, dims=(4,))
    with pytest.raises(InputError):
        SynthSpec(seed=-1)
    # a NaN sigma once meant no noise and inf a non-finite view entry
    for sigma in (float("nan"), float("inf")):
        with pytest.raises(InputError, match="noise_sigma must be a finite nonnegative"):
            SynthSpec(noise_sigma=sigma)
    # counts and seeds are integers, as in Hyperparams; numpy integers pass
    for bad in ({"c": 2.5}, {"n": 30.0}, {"m": 1.0, "dims": (4,)}, {"seed": 1.5},
                {"n": True, "c": True}):
        with pytest.raises(InputError, match="must be an integer"):
            SynthSpec(**bad)
    spec = SynthSpec(n=np.int64(30), c=np.int32(3), m=np.int64(1), dims=(4,),
                     seed=np.uint8(2))
    assert generate_synthetic(spec).n_samples == 30


def test_latent_points_are_separable():
    # clustering the generator's own latent coordinates recovers the labels
    spec = SynthSpec(n=300, c=5, m=3, dims=(40, 30, 20), seed=0)
    z, labels = _latent_blobs(spec, np.random.default_rng(spec.seed))
    pred, _ = kmeans(z, KMeansConfig(c=5, seed=0))
    assert accuracy(pred, labels) >= 0.99


def test_write_then_load_round_trips_bits(tmp_path):
    ds = generate_synthetic(
        SynthSpec(n=23, c=3, m=2, dims=(4, 6), noise_sigma=0.3,
                  corrupt_frac=0.05, seed=11)
    )
    manifest = write_dataset(ds, tmp_path / "out")
    back = load_dataset(manifest)
    assert back.n_views == ds.n_views
    for a, b in zip(ds.views, back.views):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert back.name == ds.name


def test_round_trip_awkward_values(tmp_path):
    x = np.array([[0.1, 1.0 / 3.0, 1e-300], [-0.0, 123456789.123456789, 5e300]])
    write_matrix_csv(tmp_path / "m.csv", x)
    back = read_matrix_csv(tmp_path / "m.csv")
    assert back.tobytes() == x.tobytes()


def test_written_files_use_lf_endings(tmp_path):
    write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)))
    raw = (tmp_path / "m.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_write_dataset_without_labels(tmp_path):
    ds = MultiViewDataset((np.ones((2, 3)),), name="plain")
    manifest = write_dataset(ds, tmp_path)
    doc = json.loads(manifest.read_text())
    assert doc["labels"] is None
    assert load_dataset(manifest).labels is None
