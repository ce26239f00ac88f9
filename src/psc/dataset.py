"""Data ingestion, stratified fold planning, seeded Gaussian simulators, and
every file psc writes: JSON by write_json, CSV by write_csv or write_rows,
so one place holds their layout and 17-digit float text.

All randomness goes through a PCG64 generator seeded explicitly; Gaussian
variates are produced by the Box-Muller transform of uniform pairs. The same
seed gives byte-identical output under the same numpy build and CPU features:
numpy picks its log1p, sin and cos kernels by CPU feature, and they can round
the last bit differently.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Angles per block of standard_normal's Box-Muller step (256 KiB of scratch).
_NORMAL_BLOCK = 32768
# Columns per centred block of centred_gram. Sized by columns, not bytes:
# narrower blocks at a few hundred rows make the products slower.
_GRAM_BLOCK = 4096


class DatasetError(ValueError):
    """Invalid or inconsistent input data."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabeledMatrix:
    """n x d sample matrix with +/-1 labels."""

    samples: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        y = np.asarray(self.labels).ravel()  # checked before the int cast, which truncates 1.7 to 1
        if X.ndim != 2:
            raise DatasetError("samples must be a 2-D matrix")
        if X.shape[1] == 0:
            raise DatasetError("need at least one feature column")
        if X.shape[0] != y.shape[0]:
            raise DatasetError(
                f"label count {y.shape[0]} does not match sample count {X.shape[0]}"
            )
        if X.shape[0] < 2:
            raise DatasetError("need at least 2 samples")
        if not np.isfinite(X).all():
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise DatasetError(f"non-finite value at row {i}, column {j}")
        if not ((y == 1) | (y == -1)).all():
            raise DatasetError("labels must be +1 or -1")
        y = y.astype(np.int64, copy=False)
        if (y == 1).sum() == 0 or (y == -1).sum() == 0:
            raise DatasetError("need at least one sample per class")
        if self.feature_names is not None and len(self.feature_names) != X.shape[1]:
            raise DatasetError("feature_names length does not match column count")
        object.__setattr__(self, "samples", _freeze(X))
        object.__setattr__(self, "labels", _freeze(y))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class ClassStats:
    """Per-class means and counts."""

    u1: np.ndarray  # mean of class +1
    u2: np.ndarray  # mean of class -1
    n1: int
    n2: int

    @cached_property
    def mean(self) -> np.ndarray:
        """The mean of all rows, r = (n1 u1 + n2 u2) / n; read-only, as every read shares it."""
        return _freeze((self.n1 * self.u1 + self.n2 * self.u2) / (self.n1 + self.n2))


@dataclass(frozen=True)
class FoldPlan:
    assignments: np.ndarray  # fold index in [0, k) per sample, for k folds

    def __post_init__(self):
        object.__setattr__(
            self, "assignments", _freeze(np.asarray(self.assignments, dtype=np.int64))
        )

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def make_rng(seed: int) -> np.random.Generator:
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DatasetError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller over PCG64 uniforms (stream-stable).

    The first half of the output takes radius * cos(angle), the second half
    radius * sin(angle). The radii are formed in place in the output; the
    angles are drawn and used in blocks of _NORMAL_BLOCK in one scratch
    array, so the peak is the output plus at most 256 KiB.
    """
    count = int(np.prod(shape))
    half = (count + 1) // 2
    z = np.empty(2 * half)
    cos_part, radius = z[:half], z[half:]
    rng.random(out=radius)  # u1
    # radius = sqrt(-2 log(1 - u1)); 1-u1 in (0,1], log never hits 0
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    scratch = np.empty(min(half, _NORMAL_BLOCK))
    for start in range(0, half, _NORMAL_BLOCK):
        stop = min(start + _NORMAL_BLOCK, half)
        angle = scratch[:stop - start]
        rng.random(out=angle)  # u2, continuing the stream block by block
        angle *= 2.0 * np.pi
        np.cos(angle, out=cos_part[start:stop])
        cos_part[start:stop] *= radius[start:stop]
        np.sin(angle, out=angle)
        radius[start:stop] *= angle
    return z[:count].reshape(shape)


def class_stats(data: LabeledMatrix) -> ClassStats:
    """Class means without copying a class: each starts at 0.0, adds its
    class's rows in row order and divides by the count, which is how numpy's
    axis-0 mean reduces a C-ordered matrix, bit for bit."""
    pos = data.labels == 1
    n1 = int(pos.sum())
    n2 = data.n - n1
    u1 = np.zeros(data.d)
    u2 = np.zeros(data.d)
    for row, is_pos in zip(data.samples, pos.tolist()):
        total = u1 if is_pos else u2
        total += row
    u1 /= n1
    u2 /= n2
    return ClassStats(u1=u1, u2=u2, n1=n1, n2=n2)


def centred_gram(samples: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """K = Xc Xc^T for the rows Xc = X - 1 centre^T, without an n x d copy.

    Centring first keeps a large common offset from cancelling in later
    n-space products. K is summed over blocks of at most _GRAM_BLOCK
    columns, each centred into one reused n x block buffer. The first
    block's product is K itself, not added to zeros, so a single block
    (d <= _GRAM_BLOCK) keeps the bits of one Xc @ Xc.T.
    """
    n, d = samples.shape
    buffer = np.empty((n, min(d, _GRAM_BLOCK)))
    K = None
    for start in range(0, d, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, d)
        block = np.subtract(samples[:, start:stop], centre[start:stop],
                            out=buffer[:, :stop - start])
        if K is None:
            K = block @ block.T
        else:
            K += block @ block.T
    return K


def gram_coordinates(gram: np.ndarray) -> np.ndarray:
    """n x n coordinates Z with Z Z^T = gram, for the PSD Gram of n rows.

    With gram = V diag(s) V^T, Z = V sqrt(s): one column per eigenpair,
    largest eigenvalue first, every column kept. For the Gram of the
    centred rows Xc = U S W^T that is Z = Xc W, the centred rows in the
    basis of their right singular vectors, up to rounding.

    An eigenvalue at most n * eps * max(s) from zero is within eigh's
    rounding of it and reads as 0, as a negative one does. A square root
    would turn it into a column of order sqrt(eps) of the largest, and rows
    that are all equal would then differ by that much in Z.
    """
    s, V = np.linalg.eigh(gram)
    s, V = s[::-1], V[:, ::-1]
    floor = gram.shape[0] * np.finfo(np.float64).eps * max(s[0], 0.0)
    return V * np.sqrt(np.where(s > floor, s, 0.0))


def load_csv(path, label_column: str, positive_labels) -> LabeledMatrix:
    """Read a header-first CSV; rows whose label string is in positive_labels
    get +1, all others -1. Column order is preserved."""
    positive_labels = set(positive_labels)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")  # a leading BOM is not a header cell
    except FileNotFoundError:
        raise DatasetError(f"no such file: {path}") from None
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: empty file") from None
            if label_column not in header:
                raise DatasetError(f"{path}: label column {label_column!r} not in header")
            if header.count(label_column) > 1:
                raise DatasetError(f"{path}: label column {label_column!r} appears more than once in header")
            label_idx = header.index(label_column)
            feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
            parsed = _parse_body(fh, len(header), label_idx, positive_labels)
            if parsed is None:
                fh.seek(0)
                next(reader)
                parsed = _parse_rows(path, reader, header, label_idx, positive_labels)
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over the field limit
        raise DatasetError(f"{path}: {exc}") from None
    samples, labels = parsed
    if (labels == 1).all() or (labels == -1).all():
        raise DatasetError(f"{path}: binarization produced a single class")
    try:
        return LabeledMatrix(samples, labels, feature_names)
    except DatasetError as exc:  # a file that holds only its label column
        raise DatasetError(f"{path}: {exc}") from None


def _parse_body(fh, width: int, label_idx: int, positive_labels: set[str]):
    """The data rows as (samples, labels) from one np.loadtxt call, or None
    for a file that _parse_rows must judge.

    loadtxt splits and unquotes cells as csv.reader does, and it converts a
    cell with PyOS_string_to_double, so every cell it accepts gets float()'s
    bits. But it skips blank lines, which csv.reader reads as empty records,
    it warns on a file with no data row, it takes the width from the first
    row, not the header, and it rejects some cells that float() accepts
    (underscores, non-ASCII digits)."""
    first = next(fh, "")
    if not first or first.isspace():
        return None
    blank = False

    def lines():
        nonlocal blank
        yield first
        for line in fh:
            blank |= line.isspace()
            yield line

    def label(cell: str) -> float:
        return 1.0 if cell in positive_labels else -1.0

    try:
        table = np.loadtxt(lines(), delimiter=",", quotechar='"', comments=None, ndmin=2,
                           converters={label_idx: label})
    except ValueError:
        return None
    if blank or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return np.delete(table, label_idx, axis=1), table[:, label_idx].astype(np.int64)


def _parse_rows(path, reader, header: list[str], label_idx: int, positive_labels: set[str]):
    """The data rows as (samples, labels), one cell at a time with float(),
    raising at the first row of the wrong length and at the first cell that
    is not a finite number."""
    rows, labels = [], []
    for row_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise DatasetError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
        labels.append(1 if row[label_idx] in positive_labels else -1)
        values = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[i]!r}: cannot parse {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DatasetError(
                    f"{path}: row {row_no}, column {header[i]!r}: non-finite value {cell!r}"
                )
            values.append(v)
        rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return np.array(rows), np.array(labels, dtype=np.int64)


def write_csv(data: LabeledMatrix, path, label_column: str = "label") -> None:
    """Inverse of load_csv with positive_labels={'1'}; floats at 17 sig digits.

    Names may need quoting, so csv.writer writes the header. Numbers never
    do, so each data row is one %-format of its cells: "%.17g" gives
    format(v, ".17g")'s text, and the row ends in CRLF as csv.writer's do."""
    names = data.feature_names or tuple(f"f{i}" for i in range(data.d))
    if label_column in names:
        raise DatasetError(f"label column {label_column!r} is also a feature name")
    row_format = "%.17g," * data.d + "%d\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(names) + [label_column])
        for row, label in zip(data.samples, data.labels.tolist()):
            fh.write(row_format % (*row.tolist(), label))


def write_rows(path, header, rows) -> None:
    """A CSV in write_csv's dialect: csv.writer's CRLF rows in UTF-8, and a
    float cell as format(v, ".17g"), which float() reads back to the same
    bits. Other cells are written as csv.writer writes them."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format(v, ".17g") if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_json(doc, path) -> None:
    """doc as JSON with sorted keys and a two-space indent, then a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Per-class shuffle under a seeded PCG64 generator, then round-robin."""
    labels = np.asarray(labels)
    if k < 2:
        raise DatasetError("k must be at least 2")
    if not ((labels == 1) | (labels == -1)).all():
        raise DatasetError("labels must be +1 or -1")
    rng = make_rng(seed)
    assignments = np.empty(labels.shape[0], dtype=np.int64)
    for cls in (1, -1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise DatasetError(f"class {cls:+d} has {idx.size} samples, fewer than k={k}")
        perm = rng.permutation(idx)
        assignments[perm] = np.arange(perm.size) % k
    return FoldPlan(assignments=assignments)


def simulate_hdlss(d: int, n_pos: int, n_neg: int, seed: int) -> LabeledMatrix:
    """Two spherical Gaussians at +/- c*1_d with c = 1.35/sqrt(d)."""
    if d < 1 or n_pos < 1 or n_neg < 1:
        raise DatasetError("d and class counts must be positive")
    c = 1.35 / math.sqrt(d)
    rng = make_rng(seed)
    X = standard_normal(rng, (n_pos + n_neg, d))
    X[:n_pos] += c
    X[n_pos:] -= c
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return LabeledMatrix(X, labels)


FIG1_MU = np.array([1.0, 2.5])
FIG1_SIGMA = np.array([[1.5, 0.5], [0.5, 1.5]])


def simulate_fig1(n_pos: int, n_neg: int, seed: int) -> LabeledMatrix:
    """2-D correlated Gaussians at +/- (1, 2.5) with the fixed covariance above."""
    if n_pos < 1 or n_neg < 1:
        raise DatasetError("class counts must be positive")
    rng = make_rng(seed)
    chol = np.linalg.cholesky(FIG1_SIGMA)
    Z = standard_normal(rng, (n_pos + n_neg, 2))
    X = Z @ chol.T
    X[:n_pos] += FIG1_MU
    X[n_pos:] -= FIG1_MU
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return LabeledMatrix(X, labels)
