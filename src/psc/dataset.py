"""Data ingestion, stratified fold planning, and seeded Gaussian simulators.

All randomness goes through a PCG64 generator seeded explicitly; Gaussian
variates are produced by the Box-Muller transform of uniform pairs, so the
same seed gives byte-identical output on any platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


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
        y = np.asarray(self.labels, dtype=np.int64).ravel()
        if X.ndim != 2:
            raise DatasetError("samples must be a 2-D matrix")
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
    """Per-class means and counts; m is the imbalance factor."""

    u1: np.ndarray  # mean of class +1
    u2: np.ndarray  # mean of class -1
    n1: int
    n2: int
    m: float


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
    return np.random.Generator(np.random.PCG64(seed))


def standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals via Box-Muller over PCG64 uniforms (stream-stable)."""
    count = int(np.prod(shape))
    half = (count + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], log never hits 0
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]
    return z.reshape(shape)


def class_stats(data: LabeledMatrix) -> ClassStats:
    pos = data.labels == 1
    n1 = int(pos.sum())
    n2 = data.n - n1
    u1 = data.samples[pos].mean(axis=0)
    u2 = data.samples[~pos].mean(axis=0)
    return ClassStats(u1=u1, u2=u2, n1=n1, n2=n2, m=max(n1, n2) / min(n1, n2))


def load_csv(path, label_column: str, positive_labels) -> LabeledMatrix:
    """Read a header-first CSV; rows whose label string is in positive_labels
    get +1, all others -1. Column order is preserved."""
    positive_labels = set(positive_labels)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DatasetError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        if label_column not in header:
            raise DatasetError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        rows, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetError(f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}")
            labels.append(1 if row[label_idx] in positive_labels else -1)
            # numpy parses a str cell with float()'s rules, so the bits are float()'s
            try:
                values = np.array(row[:label_idx] + row[label_idx + 1:], dtype=np.float64)
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                values = _parse_row(path, row_no, header, row, label_idx)
            rows.append(values)
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    labels = np.asarray(labels, dtype=np.int64)
    if (labels == 1).all() or (labels == -1).all():
        raise DatasetError(f"{path}: binarization produced a single class")
    return LabeledMatrix(np.asarray(rows), labels, feature_names)


def _parse_row(path, row_no: int, header: list[str], row: list[str], label_idx: int) -> list[float]:
    """Parse a row's feature cells one at a time, raising at the first cell
    that is not a finite number."""
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
    return values


def write_csv(data: LabeledMatrix, path, label_column: str = "label") -> None:
    """Inverse of load_csv with positive_labels={'1'}; floats at 17 sig digits."""
    names = data.feature_names or tuple(f"f{i}" for i in range(data.d))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + [label_column])
        for row, label in zip(data.samples, data.labels):
            writer.writerow([format(v, ".17g") for v in row] + [str(int(label))])


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Per-class shuffle under a seeded PCG64 generator, then round-robin."""
    labels = np.asarray(labels, dtype=np.int64)
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
