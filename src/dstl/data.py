"""Multi-view dataset container, CSV/JSON ingestion, normalization, synthesis.

On-disk layout: a UTF-8 JSON manifest ``{"name": ..., "views": [{"path":
...}, ...], "labels": path-or-null}`` with paths resolved relative to the
manifest's directory.  Each view file is a headerless CSV holding a d_v x
n matrix (one row per feature, one column per sample); the labels file
holds one integer per line.  Floats are serialized with the shortest
round-trip decimal representation so write followed by load reproduces
matrices bit for bit.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError, check_integers

__all__ = [
    "MultiViewDataset",
    "NORMALIZATIONS",
    "SynthSpec",
    "load_dataset",
    "write_dataset",
    "normalize",
    "generate_synthetic",
    "read_matrix_csv",
    "read_labels_csv",
    "write_matrix_csv",
    "write_labels_csv",
    "write_text",
]

_CENTER_SCALE = 5.0   # latent blob centers sit at _CENTER_SCALE * e_i
_OUTLIER_SCALE = 5.0  # corrupted entries are uniform in +-5 * view std


@dataclass(frozen=True)
class MultiViewDataset:
    """Immutable collection of per-view feature matrices over shared samples.

    views[v] is d_v x n (features x samples); labels, when present, hold
    one class id per sample with every class in [0, c) occurring at least
    once.
    """

    views: tuple[np.ndarray, ...]
    labels: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        if len(self.views) == 0:
            raise InputError("dataset needs at least one view")
        frozen = []
        n = None
        for v, raw in enumerate(self.views):
            arr = np.array(raw, dtype=float)
            if arr.ndim != 2:
                raise InputError(f"view {v}: expected a matrix, got ndim={arr.ndim}")
            if min(arr.shape) < 1:
                raise InputError(f"view {v}: empty matrix of shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                bad = np.argwhere(~np.isfinite(arr))[0]
                raise InputError(
                    f"view {v}: non-finite entry at row {bad[0] + 1}, column {bad[1] + 1}"
                )
            if n is None:
                n = arr.shape[1]
            elif arr.shape[1] != n:
                raise InputError(
                    f"inconsistent sample counts: view 0 has {n} columns, "
                    f"view {v} has {arr.shape[1]}"
                )
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "views", tuple(frozen))
        if self.labels is not None:
            lab = _class_ids(self.labels)
            if lab.ndim != 1:
                raise InputError(f"labels must be a vector, got ndim={lab.ndim}")
            if lab.size != n:
                raise InputError(f"{lab.size} labels for {n} samples")
            if lab.min() < 0:
                raise InputError(f"negative class id {lab.min()}")
            c = int(lab.max()) + 1
            # a class id of n or more leaves a class empty, so the bincount
            # of the common case stays within n entries; it also keeps plain
            # np.unique, which imports numpy.ma on its first call, off the
            # common path
            present = np.unique(lab) if c > n else np.flatnonzero(np.bincount(lab))
            if present.size != c:
                # among 0..present.size at least one class is missing
                first = int(np.setdiff1d(np.arange(present.size + 1), present)[0])
                raise InputError(f"{c - present.size} of the classes 0..{c - 1} "
                                 f"have no samples, the first is {first}")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.views)

    @property
    def n_classes(self) -> int | None:
        if self.labels is None:
            return None
        return int(self.labels.max()) + 1


def _class_ids(labels) -> np.ndarray:
    """labels as an int64 array; an entry that is not an integer in int64's
    range (a bool is one, and so is an integer-valued float) is an
    InputError naming the first."""
    lab = np.asarray(labels)
    if lab.dtype.kind not in "biu":
        for i, value in enumerate(lab.ravel().tolist()):
            whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
            if not (whole and -2**63 <= value < 2**63):
                raise InputError(f"label {i} is not an integer: {value!r}")
    return lab.astype(np.int64)


NORMALIZATIONS = ("none", "unit-column-l2", "zscore-per-feature")


def normalize(ds: MultiViewDataset, mode: str) -> MultiViewDataset:
    """Per-view normalization; ``none`` returns the dataset untouched.

    unit-column-l2 rescales every nonzero column to unit norm (zero
    columns stay zero); zscore-per-feature centers and scales each feature
    row by its population standard deviation (constant rows become zero).
    """
    if mode not in NORMALIZATIONS:
        raise InputError(
            f"unknown normalization mode {mode!r}; expected one of {NORMALIZATIONS}"
        )
    if mode == "none":
        return ds
    out = []
    for x in ds.views:
        if mode == "unit-column-l2":
            norms = np.linalg.norm(x, axis=0, keepdims=True)
            out.append(x / np.where(norms == 0, 1.0, norms))
        else:
            mu = x.mean(axis=1, keepdims=True)
            sd = x.std(axis=1, keepdims=True)
            out.append(np.where(sd == 0, 0.0, (x - mu) / np.where(sd == 0, 1.0, sd)))
    return MultiViewDataset(tuple(out), ds.labels, ds.name)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a separable synthetic benchmark with optional corruption."""

    n: int = 300
    c: int = 5
    m: int = 3
    dims: tuple[int, ...] = (40, 30, 20)
    noise_sigma: float = 0.05
    corrupt_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        check_integers(self, c=2, n=1, m=1, seed=0)
        if self.n < self.c:
            raise InputError(f"need n >= c, got n={self.n}, c={self.c}")
        if len(self.dims) != self.m:
            raise InputError(f"{len(self.dims)} dims given for m={self.m} views")
        if min(self.dims) < 1:
            raise InputError(f"view dimensions must be >= 1, got {self.dims}")
        if not (0.0 <= self.corrupt_frac <= 0.5):
            raise InputError(f"corrupt_frac must lie in [0, 0.5], got {self.corrupt_frac}")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise InputError(f"noise_sigma must be a finite nonnegative number, "
                             f"got {self.noise_sigma}")


def _latent_blobs(spec: SynthSpec, rng: np.random.Generator):
    """Balanced cluster labels plus latent points: c unit-variance blobs
    centered on scaled coordinate axes of the c-dimensional latent space."""
    base, rem = divmod(spec.n, spec.c)
    counts = [base + 1 if i < rem else base for i in range(spec.c)]
    labels = np.repeat(np.arange(spec.c), counts)
    rng.shuffle(labels)
    centers = _CENTER_SCALE * np.eye(spec.c)
    z = centers[:, labels] + rng.standard_normal((spec.c, spec.n))
    return z, labels


def generate_synthetic(spec: SynthSpec) -> MultiViewDataset:
    """Deterministic synthetic multi-view dataset.

    Latent blob points are pushed through one random linear map per view,
    Gaussian noise is added, and (optionally) a fraction of entries is
    replaced by uniform outliers spanning +-5 view standard deviations.
    The same spec always produces the same bytes.
    """
    rng = np.random.default_rng(spec.seed)
    z, labels = _latent_blobs(spec, rng)
    views = []
    for d in spec.dims:
        a = rng.standard_normal((d, spec.c))
        x = a @ z
        if spec.noise_sigma > 0:
            x = x + spec.noise_sigma * rng.standard_normal((d, spec.n))
        n_bad = int(round(spec.corrupt_frac * x.size))
        if n_bad:
            flat = rng.choice(x.size, size=n_bad, replace=False)
            scale = _OUTLIER_SCALE * float(x.std())
            x.ravel()[flat] = rng.uniform(-scale, scale, size=n_bad)
        views.append(x)
    name = f"synthetic-n{spec.n}-c{spec.c}-m{spec.m}-seed{spec.seed}"
    return MultiViewDataset(tuple(views), labels, name)


@contextmanager
def _text_in(path: Path):
    """A UTF-8 text file opened for reading; an OSError or a decoding error
    on the way is an InputError naming the path once."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        # an OSError's own text repeats the path; its strerror does not
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {path}: {reason}") from None


def _text_lines(path: Path):
    """Lines of a UTF-8 text file, opened by _text_in."""
    with _text_in(path) as fh:
        yield from fh


def _loadtxt(path: Path, lines, locate, **options) -> np.ndarray:
    """np.loadtxt of comma-separated lines of the file at path, at least
    2-d.  When numpy's reader rejects them, locate(path) raises at the bad
    line, or, when it finds none, numpy's reason is reported."""
    with warnings.catch_warnings():
        # a file with no data is reported by the caller, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, **options)
        except UnicodeDecodeError:  # a ValueError too; _text_in names the file
            raise
        except ValueError as exc:
            locate(path)
            raise InputError(f"{path}: {exc}") from None


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Parse a headerless CSV matrix file; errors carry file and position.

    numpy's C reader parses the file.  Blank lines are skipped, and a cell
    is an ASCII decimal float with optional surrounding whitespace.  When
    the reader rejects the file, _locate_bad_cell scans it again to name
    the row and column."""
    path = Path(path)
    with _text_in(path) as fh:
        arr = _loadtxt(path, fh, _locate_bad_cell)
    if arr.size == 0:
        raise InputError(f"{path}: empty matrix file")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise InputError(
            f"{path}: non-finite value at row {bad[0] + 1}, column {bad[1] + 1}"
        )
    return arr


def _locate_bad_cell(path: Path) -> None:
    """Raise an InputError at the first line of a matrix file whose width
    differs from the first data line's, or that holds a cell _is_number
    rejects; lines are counted from 1, blank lines included.  Returns when
    every line passes."""
    width = None
    for i, line in enumerate(_text_lines(path)):
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise InputError(
                f"{path}: row {i + 1} has {len(cells)} columns, expected {width}"
            )
        for j, c in enumerate(cells):
            if not _is_number(c):
                raise InputError(
                    f"{path}: row {i + 1}, column {j + 1}: "
                    f"not a number: {c.strip()!r}"
                )


def _is_number(cell: str) -> bool:
    """Whether np.loadtxt reads the cell as a float: after the whitespace
    str.strip removes, an ASCII string that float() parses, with no
    underscore (float() takes 1_0 and non-ASCII digits; loadtxt does not)."""
    s = cell.strip()
    if not s.isascii() or "_" in s:
        return False
    try:
        float(s)
    except ValueError:
        return False
    return True


def read_labels_csv(path: str | Path) -> np.ndarray:
    """Parse a one-integer-per-line labels file of ASCII decimal integers.

    numpy's C reader parses the file, without its blank lines: a line of
    whitespace alone is blank here, as str.strip has it.  When the reader
    rejects the file, _locate_bad_label scans it again to name the line."""
    path = Path(path)
    with _text_in(path) as fh:
        labels = _loadtxt(path, (line for line in fh if not line.isspace()),
                          _locate_bad_label, dtype=np.int64)
    if labels.shape[1] != 1:  # a comma on every line, which int() and so the locator reject
        _locate_bad_label(path)
    if labels.size == 0:
        raise InputError(f"{path}: empty labels file")
    return labels.ravel()


def _locate_bad_label(path: Path) -> None:
    """Raise an InputError at the first line of a labels file that, once
    stripped, is neither blank nor an ASCII decimal int64; lines are
    counted from 1, blank lines included.  Returns when every line passes."""
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    for i, line in enumerate(_text_lines(path)):
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii() or "_" in line:  # int() takes 1_0 and non-ASCII digits
                raise ValueError(line)
            value = int(line)
        except ValueError:
            raise InputError(
                f"{path}: line {i + 1}: not an integer label: {line!r}"
            ) from None
        if not lo <= value <= hi:
            raise InputError(f"{path}: line {i + 1}: label outside int64: {line!r}")


def load_dataset(manifest_path: str | Path) -> MultiViewDataset:
    """Load a dataset from its JSON manifest; all errors are InputError."""
    p = Path(manifest_path)
    try:
        doc = json.loads("".join(_text_lines(p)))
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{p}: manifest must be a JSON object")
    entries = doc.get("views")
    if not isinstance(entries, list) or not entries:
        raise InputError(f"{p}: manifest needs a non-empty 'views' list")
    base = p.parent
    views = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise InputError(f"{p}: views[{i}] must be an object with a 'path' string")
        views.append(read_matrix_csv(base / entry["path"]))
    widths = {v.shape[1] for v in views}
    if len(widths) > 1:
        detail = ", ".join(
            f"{entries[i]['path']}: {v.shape[1]}" for i, v in enumerate(views)
        )
        raise InputError(f"{p}: views disagree on sample count ({detail})")
    labels = None
    labels_rel = doc.get("labels")
    if labels_rel is not None:
        if not isinstance(labels_rel, str):
            raise InputError(f"{p}: 'labels' must be a path string or null")
        lp = base / labels_rel
        labels = read_labels_csv(lp)
        if labels.size != views[0].shape[1]:
            raise InputError(
                f"{lp}: {labels.size} labels for {views[0].shape[1]} samples"
            )
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{p}: 'name' must be a string")
    return MultiViewDataset(tuple(views), labels, name or p.stem)


@contextmanager
def _text_out(path: Path):
    """A UTF-8 text file with LF line endings, opened for writing after its
    parent directories are made; an OSError on the way, close included, is
    an InputError naming the directory or the file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {path.parent}: "
                         f"{exc.strerror}") from None
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def write_matrix_csv(path: Path, arr: np.ndarray) -> None:
    """Headerless CSV, LF line endings, shortest round-trip float format."""
    rows = np.atleast_2d(np.asarray(arr, dtype=float))
    with _text_out(path) as fh:
        for row in rows:  # one row at a time: no copy of the whole file
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def write_labels_csv(path: Path, labels: np.ndarray) -> None:
    with _text_out(path) as fh:
        fh.write("\n".join(str(int(v)) for v in labels))
        fh.write("\n")


def write_text(path: Path, text: str) -> None:
    with _text_out(path) as fh:
        fh.write(text)


def write_dataset(ds: MultiViewDataset, out_dir: str | Path) -> Path:
    """Write manifest plus view/label files; returns the manifest path.

    Loading the result reproduces the dataset bit for bit.
    """
    out = Path(out_dir)
    view_names = [f"view{v}.csv" for v in range(ds.n_views)]
    for fname, arr in zip(view_names, ds.views):
        write_matrix_csv(out / fname, arr)
    labels_name = None
    if ds.labels is not None:
        labels_name = "labels.csv"
        write_labels_csv(out / labels_name, ds.labels)
    manifest = {
        "name": ds.name,
        "views": [{"path": fname} for fname in view_names],
        "labels": labels_name,
    }
    mpath = out / "manifest.json"
    write_text(mpath, json.dumps(manifest, indent=2) + "\n")
    return mpath
