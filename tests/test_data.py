import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import dstl.cli as cli
import dstl.data as data

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
    write_text,
)
from dstl.errors import InputError
from dstl.kmeans import KMeansConfig, kmeans
from dstl.metrics import accuracy

from conftest import read_labels_csv_oracle, read_matrix_csv_oracle


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
    # int() takes 1_0 as 10 and the Arabic-Indic digit one as 1; a label,
    # like a view cell, is ASCII with no underscore
    bad = tmp_path / "y.csv"
    for cell in ("x", "1_0", "\u0661"):
        bad.write_text(f"0\n 2 \n{cell}\n+3\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            read_labels_csv(bad)
        assert "y.csv" in str(exc.value) and "line 3" in str(exc.value)
    bad.write_text("0\n 2 \n+3\n")
    assert read_labels_csv(bad).tolist() == [0, 2, 3]


def test_labels_reader_rejects_labels_past_int64(tmp_path):
    bad = tmp_path / "y.csv"
    for text in ("0\n99999999999999999999\n", "0\n-9223372036854775809\n"):
        bad.write_text(text)
        with pytest.raises(InputError) as exc:
            read_labels_csv(bad)
        assert "y.csv" in str(exc.value) and "line 2" in str(exc.value)
    bad.write_text("9223372036854775807\n-9223372036854775808\n")
    assert read_labels_csv(bad).tolist() == [2**63 - 1, -(2**63)]


# label lines the C reader and int() read alike, lines only int() reads
# (blank lines of whitespace beyond space and tab) and lines neither reads
LABEL_LINES = ("0", "7", "+3", "-12", " 2 ", "\t5", "00042", "-0", "9223372036854775807",
               "-9223372036854775808", "", "  ", "\xa0", "\x0c", "\u3000", "\xa09",
               "1.0", "1_0", "1e3", "0x10", "1,2", "1 2", "x", "\u0661", "\u200b4", "+-3",
               "18446744073709551616", "9223372036854775808")


@settings(max_examples=300, deadline=None)
@given(lines=hst.lists(hst.sampled_from(LABEL_LINES), max_size=8),
       end=hst.sampled_from(["\n", "\r\n", "\r"]), last=hst.booleans())
@example(lines=["1", "  ", "2"], end="\n", last=True)
@example(lines=["1,2", "3,4"], end="\n", last=True)
@example(lines=[], end="\n", last=False)
def test_labels_reader_agrees_with_the_line_reader(lines, end, last):
    # the same labels, or the same message, as int() line by line
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "y.csv"
        path.write_bytes((end.join(lines) + (end if last else "")).encode())
        try:
            want = read_labels_csv_oracle(path)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                read_labels_csv(path)
            assert str(got.value) == str(exc)
        else:
            got = read_labels_csv(path)
            assert got.dtype == np.int64 and np.array_equal(got, want)


def test_labels_with_whitespace_only_lines_parse_without_the_locator(tmp_path, monkeypatch):
    # such a line is blank by the line rule; the reader drops it before
    # numpy's reader, so no label comes from a Python line scan
    def locate(path):
        raise AssertionError(f"the locator scanned {path}")

    monkeypatch.setattr(data, "_locate_bad_label", locate)
    path = tmp_path / "y.csv"
    path.write_text("1\n  \n\xa0\n2\n\u3000\n 0 \n", encoding="utf-8")
    got = read_labels_csv(path)
    assert got.dtype == np.int64 and got.tolist() == [1, 2, 0]


@pytest.mark.parametrize("labels, message", [
    ([0.7, 1.9, 0.2], "label 0 is not an integer: 0.7"),
    (["a", "b", "a"], "label 0 is not an integer: 'a'"),
    ([0.0, float("nan"), 1.0], "label 1 is not an integer: nan"),
    ([0.0, 1e300, 1.0], "label 1 is not an integer: 1e+300"),
    ([0, None, 1], "label 1 is not an integer: None"),
])
def test_labels_that_are_not_integers_are_invalid_input(labels, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no invalid cast on the way
        with pytest.raises(InputError) as exc:
            MultiViewDataset((np.ones((2, 3)),), labels=labels)
    assert str(exc.value) == message


def test_integer_valued_float_and_bool_labels_are_class_ids():
    views = (np.ones((2, 3)),)
    for labels, want in (([1.0, 0.0, 1.0], [1, 0, 1]), ([True, False, True], [1, 0, 1]),
                         (np.array([2, 0, 1], dtype=np.uint8), [2, 0, 1])):
        got = MultiViewDataset(views, labels=labels).labels
        assert got.dtype == np.int64 and got.tolist() == want


def test_huge_class_id_is_rejected_without_enumerating_classes():
    # a class id near the int64 limit implies ~2**62 classes, almost all empty
    with pytest.raises(InputError) as exc:
        MultiViewDataset((np.ones((2, 3)),), labels=np.array([0, 2**62, 1]))
    assert str(exc.value) == (f"{2**62 - 2} of the classes 0..{2**62} have no samples, "
                              f"the first is 2")


@pytest.mark.parametrize("labels, message", [
    ([0, 3, 1], "1 of the classes 0..3 have no samples, the first is 2"),  # id >= n
    ([0, 3, 1, 3], "1 of the classes 0..3 have no samples, the first is 2"),  # id < n
    ([2, 2, 0, 2], "1 of the classes 0..2 have no samples, the first is 1"),
    ([4, 4, 4, 4, 4], "4 of the classes 0..4 have no samples, the first is 0"),
])
def test_missing_classes_are_counted_and_the_first_named(labels, message):
    with pytest.raises(InputError) as exc:
        MultiViewDataset((np.ones((2, len(labels))),), labels=np.array(labels))
    assert str(exc.value) == message


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


# doubles whose decimal forms are hard to read back: the smallest and
# largest subnormals, the smallest normal, signed zero, the largest double,
# +-1e308 and values that need all 17 significant digits
AWKWARD_VALUES = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 0.0, -0.0,
                  1.7976931348623157e308, 1e308, -1e308, 0.1, 1 / 3, 2 / 3 * 1e-300,
                  9007199254740993.0, 1.0000000000000002, 123456789.12345679]
CELL_FORMATS = [repr, "{:.17g}".format, "{:.17e}".format, "{:.16E}".format]


@hst.composite
def view_file_text(draw):
    """A valid view file as text and the values it holds: cells in several
    float formats with optional spaces and tabs around them, LF, CRLF or
    lone CR line ends, blank lines anywhere, with or without a final line
    end; 1 x n and d x 1 shapes among them."""
    d, n = draw(hst.integers(1, 5)), draw(hst.integers(1, 5))
    value = hst.one_of(hst.sampled_from(AWKWARD_VALUES),
                       hst.floats(allow_nan=False, allow_infinity=False))
    pad = hst.sampled_from(["", " ", "\t", " \t  "])
    end = hst.sampled_from(["\n", "\r\n", "\r"])
    values = draw(hst.lists(hst.lists(value, min_size=n, max_size=n), min_size=d, max_size=d))
    text = ""
    for row in values:
        text += "".join(draw(hst.lists(end, max_size=2)))
        text += ",".join(draw(pad) + draw(hst.sampled_from(CELL_FORMATS))(x) + draw(pad)
                         for x in row)
        text += draw(end)
    if not draw(hst.booleans()):
        text = text.rstrip("\r\n")
    return text, values


@settings(max_examples=300, deadline=None)
@given(file=view_file_text())
def test_reader_returns_the_oracle_bits_on_valid_files(file):
    text, values = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "view.csv"
        path.write_bytes(text.encode())
        got = read_matrix_csv(path)
        want = read_matrix_csv_oracle(path)
    assert got.shape == want.shape == (len(values), len(values[0]))
    assert got.tobytes() == want.tobytes() == np.array(values).tobytes()


# malformed view files and the message each gives; cells are named by the
# line they are on, counted from 1 with blank lines, a non-finite value by
# its row among the data rows
BAD_VIEW_FILES = {
    "ragged": (b"1,2\n3,4\n5\n", "{path}: row 3 has 1 columns, expected 2"),
    "empty-cell": (b"1,,3\n", "{path}: row 1, column 2: not a number: ''"),
    "trailing-comma": (b"1,2,\n3,4,\n", "{path}: row 1, column 3: not a number: ''"),
    "whitespace-line": (b"1,2\n \t \n3,4\n", "{path}: row 2 has 1 columns, expected 2"),
    "whitespace-line-one-column": (b"1\n \t \n3\n", "{path}: row 2, column 1: not a number: ''"),
    "last-row-and-column": (b"1,2\r\n\r\n3,4\r\n5, x \r\n",
                            "{path}: row 4, column 2: not a number: 'x'"),
    "underscore": (b"1,1_0\n", "{path}: row 1, column 2: not a number: '1_0'"),
    "arabic-indic-digit": ("1,\u0661\n".encode(), "{path}: row 1, column 2: not a number: '\u0661'"),
    "bom": (b"\xef\xbb\xbf1,2\n", "{path}: row 1, column 1: not a number: '\\ufeff1'"),
    "nan": (b"1,2\n3,nan\n", "{path}: non-finite value at row 2, column 2"),
    "overflow": (b"1,2\n\n3,4\n-1e400,5\n", "{path}: non-finite value at row 3, column 1"),
    "empty": (b"", "{path}: empty matrix file"),
    "blank-lines": (b"\n\r\n\r\r\n", "{path}: empty matrix file"),
    "invalid-utf8": (b"1,2\n\xff,3\n", "cannot read {path}: 'utf-8' codec can't decode "
                                        "byte 0xff in position 4: invalid start byte"),
    "directory": (None, "cannot read {path}: Is a directory"),
}


@pytest.mark.parametrize("raw, message", BAD_VIEW_FILES.values(), ids=BAD_VIEW_FILES.keys())
def test_malformed_view_file_is_invalid_input_naming_file_and_cell(tmp_path, capsys, raw,
                                                                  message):
    path = tmp_path / "bad.csv"
    if raw is None:
        path.mkdir()
    else:
        path.write_bytes(raw)
    message = message.format(path=path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == message
        # through the CLI: exit 2, one error line that names the file once
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"views": [{"path": "bad.csv"}], "labels": None}))
        capsys.readouterr()
        rc = cli.main(["fit", "--data", str(manifest), "--out", str(tmp_path / "o"),
                       "--repeats", "1"])
    assert not caught
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n" and err.count(str(path)) == 1
    assert not (tmp_path / "o").exists()


def test_reader_error_the_locator_cannot_place_names_the_file(tmp_path, monkeypatch):
    # a ValueError of numpy's reader in a file whose every line passes the
    # locator is still invalid input naming the file, with numpy's reason
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")

    def loadtxt(*args, **kwargs):
        raise ValueError("the reason")

    monkeypatch.setattr(data.np, "loadtxt", loadtxt)
    with pytest.raises(InputError, match=f"^{path}: the reason$"):
        read_matrix_csv(path)


# the pieces of float syntax, and characters around and inside it that
# float() and numpy's reader treat differently: underscores, non-ASCII
# digits, ASCII and non-ASCII whitespace, a byte order mark, NUL
CELL_PIECES = ["0", "1", "7", "\u0661", "\uff11", "_", ".", "e", "E", "+", "-", "inf",
               "nan", "infinity", "x", "j", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
               "\x85", "\xa0", "\u2003", "\u3000", "\ufeff", "\u200b", "\x00"]


@settings(max_examples=500, deadline=None)
@given(cell=hst.one_of(
    hst.lists(hst.sampled_from(CELL_PIECES), max_size=8).map("".join),
    hst.text(alphabet=hst.characters(exclude_characters=",\n\r"), max_size=8),
))
@example(cell="1_0")
@example(cell="\u0661")
@example(cell="")
@example(cell=" \t ")
@example(cell="\x1c1\x1c")
@example(cell="\xa01e400\u3000")
def test_locator_cell_test_agrees_with_loadtxt(cell):
    # the locator must reject exactly the cells numpy's reader rejects, or
    # it would name the wrong cell; a line holds the cell after a valid one
    try:
        np.loadtxt(io.StringIO(f"0,{cell}\n"), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert data._is_number(cell) == accepted


def test_written_files_use_lf_endings(tmp_path):
    write_matrix_csv(tmp_path / "m.csv", np.ones((2, 2)))
    raw = (tmp_path / "m.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize("write, value", [(write_text, "x\n"),
                                          (write_matrix_csv, np.ones((2, 2)))],
                         ids=["write_text", "write_matrix_csv"])
def test_a_write_that_fails_at_close_is_invalid_input(write, value):
    # /dev/full takes the open and the buffered write; the flush at close
    # fails with ENOSPC
    with pytest.raises(InputError, match="^cannot write /dev/full: "):
        write(Path("/dev/full"), value)


def test_write_dataset_without_labels(tmp_path):
    ds = MultiViewDataset((np.ones((2, 3)),), name="plain")
    manifest = write_dataset(ds, tmp_path)
    doc = json.loads(manifest.read_text())
    assert doc["labels"] is None
    assert load_dataset(manifest).labels is None
