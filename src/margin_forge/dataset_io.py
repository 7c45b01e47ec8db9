"""Loading, validation, generation, and splitting of binary-labeled datasets.

Labels always live in {-1, +1} internally.  Raw files may use any two
label values; the lexicographically/numerically smaller one maps to -1.
Rows with missing or non-numeric feature values are rejected outright.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset file or invalid dataset contents."""


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus {-1,+1} labels."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DatasetError("features must be a nonempty 2-D matrix")
        if y.shape != (x.shape[0],):
            raise DatasetError("labels length must match the row count")
        if not np.all(np.isfinite(x)):
            raise DatasetError("non-finite feature values")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise DatasetError("labels must be -1 or +1")
        if self.feature_names is not None and len(self.feature_names) != x.shape[1]:
            raise DatasetError("feature_names length must match the column count")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[int, int]:
        return {-1: int(np.sum(self.labels == -1)), +1: int(np.sum(self.labels == +1))}

    def take(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(name or self.name, self.features[idx], self.labels[idx],
                       self.feature_names)


def _map_labels(raw: list[str], path: Path) -> np.ndarray:
    distinct = sorted(set(raw))
    if len(distinct) > 2:
        raise DatasetError(f"{path}: more than two classes: {distinct[:5]}")
    if len(distinct) == 1:
        try:
            only = float(distinct[0])
        except ValueError:
            only = None
        if only in (-1.0, 1.0):
            return np.full(len(raw), only)
        raise DatasetError(f"{path}: single label value {distinct[0]!r} has no {{-1,+1}} mapping")
    try:
        ordered = sorted(distinct, key=float)
    except ValueError:
        ordered = distinct  # lexicographic fallback for non-numeric labels
    mapping = {ordered[0]: -1.0, ordered[1]: 1.0}
    return np.array([mapping[v] for v in raw])


def _parse_delimited(lines: list[str], path: Path, label_column: int,
                     delimiter: str | None):
    if delimiter is None:
        delimiter = "\t" if "\t" in lines[0] else ","
    rows = [ln.split(delimiter) for ln in lines]
    width = len(rows[0])
    if width < 2:
        raise DatasetError(f"{path}: need at least one feature column plus the label")
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"{path}: row {i + 1} has {len(row)} fields, expected {width}")
    col = label_column if label_column >= 0 else width + label_column
    if not 0 <= col < width:
        raise DatasetError(f"{path}: label column {label_column} out of range")

    def is_number(tok: str) -> bool:
        try:
            float(tok)
        except ValueError:
            return False
        return True

    # a header row has no numeric feature tokens at all; a mixed row is data with a typo
    header = None
    first_feats = [tok for j, tok in enumerate(rows[0]) if j != col]
    if not any(is_number(tok.strip()) for tok in first_feats):
        header = [tok.strip() for j, tok in enumerate(rows[0]) if j != col]
        rows = rows[1:]
        if not rows:
            raise DatasetError(f"{path}: header only, no data rows")

    raw_labels = [row.pop(col).strip() for row in rows]
    try:
        # one conversion of every row: numpy applies float() to each str
        return np.array(rows, dtype=float), raw_labels, header
    except ValueError:
        pass  # the token loop below names the first bad token
    features = np.empty((len(rows), width - 1))
    for i, row in enumerate(rows):
        for k, tok in enumerate(row):
            tok = tok.strip()
            if tok == "":
                raise DatasetError(f"{path}: row {i + 1} has a missing value")
            try:
                features[i, k] = float(tok)
            except ValueError:
                raise DatasetError(f"{path}: non-numeric feature token {tok!r} in row {i + 1}")
    return features, raw_labels, header


def _parse_sparse(lines: list[str], path: Path):
    # whitespace-separated "label idx:val ..." records, 1-based, absent = 0
    raw_labels = []
    records = []
    max_index = 0
    for i, ln in enumerate(lines):
        parts = ln.split()
        raw_labels.append(parts[0])
        entries = {}
        for tok in parts[1:]:
            if ":" not in tok:
                raise DatasetError(f"{path}: row {i + 1}: expected idx:val, got {tok!r}")
            idx_s, val_s = tok.split(":", 1)
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DatasetError(f"{path}: row {i + 1}: bad sparse entry {tok!r}")
            if idx < 1:
                raise DatasetError(f"{path}: row {i + 1}: indices are 1-based")
            if idx in entries:
                raise DatasetError(f"{path}: row {i + 1}: duplicate index {idx}")
            entries[idx] = val
            max_index = max(max_index, idx)
        records.append(entries)
    if max_index == 0:
        raise DatasetError(f"{path}: no feature entries found")
    features = np.zeros((len(records), max_index))
    for i, entries in enumerate(records):
        for idx, val in entries.items():
            features[i, idx - 1] = val
    return features, raw_labels


FORMATS = ("delimited", "sparse-index")


def load_dataset(path, fmt: str = "delimited", *, label_column: int = -1,
                 delimiter: str | None = None) -> Dataset:
    """Read a delimited or sparse-index file into a validated Dataset."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{path}: empty file")
    if fmt == "delimited":
        features, raw_labels, header = _parse_delimited(lines, path, label_column, delimiter)
        names = tuple(header) if header else None
    elif fmt == "sparse-index":
        features, raw_labels = _parse_sparse(lines, path)
        names = None
    else:
        raise ValueError(f"unknown format {fmt!r}")
    labels = _map_labels(raw_labels, path)
    return Dataset(path.stem, features, labels, names)


def write_dataset(data: Dataset, path) -> None:
    """Comma-delimited dump, label last; %.17g keeps the reload within 1e-12."""
    path = Path(path)
    with path.open("w") as fh:
        if data.feature_names is not None:
            fh.write(",".join([*data.feature_names, "label"]) + "\n")
        for row, label in zip(data.features, data.labels):
            fields = [f"{v:.17g}" for v in row] + [f"{int(label):d}"]
            fh.write(",".join(fields) + "\n")


def split_indices(data: Dataset, train_fraction: float,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Index sets behind stratified_split; sorted, disjoint, exhaustive."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_parts = []
    for cls in (-1.0, 1.0):
        idx = np.nonzero(data.labels == cls)[0]
        if idx.size == 0:
            raise DatasetError(f"class {int(cls):+d} has no members to split")
        n_train = math.ceil(train_fraction * idx.size)
        if n_train == 0:
            raise DatasetError(f"class {int(cls):+d} would receive zero training rows")
        train_parts.append(rng.permutation(idx)[:n_train])
    train = np.sort(np.concatenate(train_parts))
    mask = np.zeros(data.n_rows, dtype=bool)
    mask[train] = True
    test = np.nonzero(~mask)[0]
    return train, test


def stratified_split(data: Dataset, train_fraction: float,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    train_idx, test_idx = split_indices(data, train_fraction, seed)
    if test_idx.size == 0:
        raise DatasetError("train_fraction leaves no test rows")
    return (data.take(train_idx, f"{data.name}/train"),
            data.take(test_idx, f"{data.name}/test"))


def check_paired(train: Dataset, test: Dataset) -> None:
    """Designated-test-file pairing: feature spaces must agree."""
    if train.n_features != test.n_features:
        raise DatasetError(
            f"paired files disagree on feature count: {train.n_features} vs {test.n_features}")


def generate_synthetic(kind: str, n: int, noise: float, seed: int) -> Dataset:
    """Deterministic synthetic sets with balanced classes (difference <= 1)."""
    if n < 4:
        raise ValueError("need n >= 4")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    n_neg = n // 2
    n_pos = n - n_neg
    if kind == "two-gaussians":
        neg = np.array([-2.0, 0.0]) + noise * rng.standard_normal((n_neg, 2))
        pos = np.array([+2.0, 0.0]) + noise * rng.standard_normal((n_pos, 2))
    elif kind == "ring-vs-disk":
        r_neg = np.sqrt(rng.random(n_neg))
        a_neg = rng.random(n_neg) * 2 * np.pi
        neg = np.column_stack([r_neg * np.cos(a_neg), r_neg * np.sin(a_neg)])
        r_pos = 1.5 + rng.random(n_pos)
        a_pos = rng.random(n_pos) * 2 * np.pi
        pos = np.column_stack([r_pos * np.cos(a_pos), r_pos * np.sin(a_pos)])
        neg = neg + noise * rng.standard_normal(neg.shape)
        pos = pos + noise * rng.standard_normal(pos.shape)
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    features = np.vstack([neg, pos])
    labels = np.concatenate([np.full(n_neg, -1.0), np.full(n_pos, 1.0)])
    order = rng.permutation(n)
    return Dataset(f"{kind}-n{n}-s{seed}", features[order], labels[order])
