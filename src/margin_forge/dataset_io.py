"""Loading, validation, generation, and splitting of binary-labeled datasets.

Labels always live in {-1, +1} internally.  Raw files may use any two
label values.  When every label is a number, labels are classed by value
(1, 1.0 and +1 are one class, and nan is a missing label) and the smaller
maps to -1; otherwise the lexicographically smaller string maps to -1.
Rows with missing or non-numeric feature values are rejected outright.
"""
from __future__ import annotations

import codecs
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset file or invalid dataset contents."""


# largest dense matrix a sparse-index file may expand to: rows x largest
# index cells, 256 MiB of float64
SPARSE_MAX_CELLS = 2 ** 25
# bytes read and decoded at a time by read_lines
CHUNK = 256 * 1024
# delimited rows split and converted at a time by the reader, and formatted
# and written at a time by the writer: their tokens or text are the transient
ROW_BLOCK = 512
# what ends a line for str.splitlines, "\r" aside, which "\n" may follow
_LINE_ENDS = frozenset("\n\v\f\x1c\x1d\x1e\x85\u2028\u2029")


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
        for j, name in enumerate(self.feature_names or ()):
            if not isinstance(name, str):
                raise DatasetError(f"feature name {j} {name!r} is not a str")
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
        """The rows at the given integer indices, in that order.

        A boolean mask is refused, not read as the indices 0 and 1.
        """
        idx = np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):  # bool is not an integer dtype
            raise DatasetError("indices must be integer row numbers")
        return Dataset(name or self.name, self.features[idx], self.labels[idx],
                       self.feature_names)


def read_lines(path: Path) -> Iterator[str]:
    """The lines of a UTF-8 file, as str.splitlines gives them for its whole
    text, read and decoded CHUNK bytes at a time.

    A leading byte order mark is dropped.  A file that is not UTF-8 raises
    DatasetError, when the reading reaches it, naming the first byte that
    does not decode and its offset in the file.  The byte order mark is
    dropped from the decoded text rather than by the utf-8-sig codec, whose
    incremental decoder returns nothing, and no error, for a file that is
    only the first one or two bytes of a mark.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0
    at_start = True   # no character decoded yet
    tail = ""         # a last line that may run on into the next chunk
    with path.open("rb") as fh:
        while True:
            raw = fh.read(CHUNK)
            read += len(raw)
            try:
                text = decoder.decode(raw, final=not raw)
            except UnicodeDecodeError as exc:
                at = read - len(exc.object) + exc.start
                raise DatasetError(f"{path}: not UTF-8 text: byte "
                                   f"{exc.object[exc.start]:#04x} at offset {at}") from None
            if at_start and text:
                at_start = False
                if text[0] == "\ufeff":
                    text = text[1:]
            text = tail + text
            if not raw:
                yield from text.splitlines()
                return
            if not text:
                continue
            lines = text.splitlines()
            # a last "\r" may be the first half of "\r\n"
            if text[-1] in _LINE_ENDS:
                tail = ""
            else:
                tail = lines.pop() + ("\r" if text[-1] == "\r" else "")
            yield from lines


def _map_labels(raw: list[str], path: Path) -> np.ndarray:
    tokens = sorted(set(raw))
    try:
        value = {tok: float(tok) for tok in tokens}  # numeric labels: 1 and 1.0 are one class
    except ValueError:
        value = {tok: tok for tok in tokens}  # non-numeric labels: lexicographic order
    else:
        for tok, v in value.items():
            if math.isnan(v):
                raise DatasetError(f"{path}: row {raw.index(tok) + 1} has a missing label {tok!r}")
    classes = sorted(set(value.values()))
    if len(classes) > 2:
        raise DatasetError(f"{path}: more than two classes: {tokens[:5]}")
    if len(classes) == 1:
        if classes[0] in (-1.0, 1.0):
            return np.full(len(raw), classes[0])
        raise DatasetError(f"{path}: single label value {tokens[0]!r} has no {{-1,+1}} mapping")
    sign = {classes[0]: -1.0, classes[1]: 1.0}
    mapping = {tok: sign[v] for tok, v in value.items()}
    return np.array([mapping[tok] for tok in raw])


def _drain(lines: Iterator[str]) -> None:
    """Read the remaining lines, so that a byte that does not decode, later
    in the file, is raised before a fault already found."""
    for _ in lines:
        pass


def _parse_delimited(lines: Iterator[str], path: Path, label_column: int,
                     delimiter: str | None):
    """Features, raw label tokens and header of a delimited file, in one
    pass over its nonblank lines.

    The first line fixes the delimiter and the field count.  The data rows
    are split and converted ROW_BLOCK at a time into float64 blocks, so the
    split tokens of only one block are alive at once.  numpy applies float()
    to each str, and a block it refuses is read token by token to find its
    first bad token.  A fault is raised only once the last line is read, by
    this precedence: a byte that does not decode, a first line of one field,
    the first line whose field count differs from the first line's, a label
    column out of range, a header with no data rows, the first bad token.
    Once a label-column or token fault is found, later lines only have their
    delimiters counted.
    """
    first = next(lines)
    if delimiter is None:
        delimiter = "\t" if "\t" in first else ","
    head = first.split(delimiter)
    width = len(head)
    if width < 2:
        _drain(lines)
        raise DatasetError(f"{path}: need at least one feature column plus the label")
    col = label_column if label_column >= 0 else width + label_column

    def is_number(tok: str) -> bool:
        try:
            float(tok)
        except ValueError:
            return False
        return True

    fault = None
    header = None
    if not 0 <= col < width:
        fault = f"{path}: label column {label_column} out of range"
    # a header row has no numeric feature tokens at all; a mixed row is data with a typo
    elif not any(is_number(tok.strip()) for j, tok in enumerate(head) if j != col):
        header = [tok.strip() for j, tok in enumerate(head) if j != col]

    blocks = []
    raw_labels = []

    def convert(block: list[str]) -> str | None:
        """Append the block's features and labels; the fault of its first
        bad token, if it has one."""
        start = len(raw_labels)
        rows = [ln.split(delimiter) for ln in block]
        raw_labels.extend(row.pop(col).strip() for row in rows)
        try:
            blocks.append(np.array(rows, dtype=float))
            return None
        except ValueError:
            pass  # the token loop below names the first bad token
        values = np.empty((len(rows), width - 1))
        for i, row in enumerate(rows):
            for k, tok in enumerate(row):
                tok = tok.strip()
                if tok == "":
                    return f"{path}: row {start + i + 1} has a missing value"
                try:
                    values[i, k] = float(tok)
                except ValueError:
                    return f"{path}: non-numeric feature token {tok!r} in row {start + i + 1}"
        blocks.append(values)
        return None

    block = [] if header else [first]
    for i, ln in enumerate(lines, 2):
        if ln.count(delimiter) != width - 1:
            _drain(lines)
            raise DatasetError(f"{path}: row {i} has {ln.count(delimiter) + 1} fields, "
                               f"expected {width}")
        if fault is None:
            block.append(ln)
            if len(block) == ROW_BLOCK:
                fault = convert(block)
                block = []
    if fault is None and header is not None and not (blocks or block):
        fault = f"{path}: header only, no data rows"
    if fault is None and block:
        fault = convert(block)
    if fault is not None:
        raise DatasetError(fault)
    return np.concatenate(blocks), raw_labels, header


def _parse_sparse(lines: Iterator[str], path: Path):
    # whitespace-separated "label idx:val ..." records, 1-based, absent = 0
    raw_labels = []
    records = []
    max_index = max_row = 0
    try:
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
                if idx > max_index:
                    max_index, max_row = idx, i + 1
            records.append(entries)
    except DatasetError:
        _drain(lines)
        raise
    if max_index == 0:
        raise DatasetError(f"{path}: no feature entries found")
    if len(records) * max_index > SPARSE_MAX_CELLS:
        raise DatasetError(
            f"{path}: row {max_row}: index {max_index} would expand {len(records)} rows "
            f"to more than the cap of {SPARSE_MAX_CELLS} dense cells")
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
    lines = (ln for ln in read_lines(path) if ln.strip())
    first = next(lines, None)
    if first is None:
        raise DatasetError(f"{path}: empty file")
    lines = itertools.chain([first], lines)
    if fmt == "delimited":
        features, raw_labels, header = _parse_delimited(lines, path, label_column, delimiter)
        names = tuple(header) if header else None
    elif fmt == "sparse-index":
        features, raw_labels = _parse_sparse(lines, path)
        names = None
    else:
        _drain(lines)
        raise ValueError(f"unknown format {fmt!r}")
    labels = _map_labels(raw_labels, path)
    return Dataset(path.stem, features, labels, names)


def _name_fault(j: int, name: str) -> str | None:
    """Why load_dataset would not read feature name j back as it is: it
    would split or strip it, take it for a number (which makes the header a
    data row) or a byte order mark, or it is not UTF-8 text; None if it
    reads back."""
    if "," in name or "\t" in name:
        return "holds a delimiter"
    if any(c in _LINE_ENDS or c == "\r" for c in name):
        return "holds a line break"
    if name != name.strip():
        return "has leading or trailing whitespace"
    if j == 0 and name.startswith("\ufeff"):
        return "starts with a byte order mark"
    try:
        float(name)
    except ValueError:
        pass
    else:
        return "reads as a number"
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:
        return "is not UTF-8 text"
    return None


def write_dataset(data: Dataset, path) -> None:
    """Comma-delimited dump, label last, that load_dataset reads back bit
    for bit: %.17g gives every float64 exactly.

    Feature names that would not read back as they are raise DatasetError
    before the file is opened.  The rows are formatted ROW_BLOCK at a time,
    each from one %-template over Python floats, and written one block at
    a time.
    """
    path = Path(path)
    for j, name in enumerate(data.feature_names or ()):
        fault = _name_fault(j, name)
        if fault is not None:
            raise DatasetError(f"feature name {j} {name!r} {fault}")
    template = ",".join(["%.17g"] * data.n_features) + ",%d\n"
    with path.open("w", encoding="utf-8") as fh:
        if data.feature_names is not None:
            fh.write(",".join([*data.feature_names, "label"]) + "\n")
        for a in range(0, data.n_rows, ROW_BLOCK):
            rows = data.features[a:a + ROW_BLOCK].tolist()
            labels = data.labels[a:a + ROW_BLOCK].tolist()
            fh.write("".join([template % (*row, label) for row, label in zip(rows, labels)]))


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
