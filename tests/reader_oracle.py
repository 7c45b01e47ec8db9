"""Whole-file reference for the dataset reader.

This is the route load_dataset took before it streamed the file: decode the
whole file, split it into a list of lines, check every line's field count,
then convert the data rows ROW_BLOCK at a time.  The streaming reader must
give exactly what this route gives: the same features bit for bit, the same
labels and names, or the same DatasetError text.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from margin_forge.dataset_io import SPARSE_MAX_CELLS, Dataset, DatasetError, _map_labels

ROW_BLOCK = 2048


def read_text(path: Path) -> str:
    """The text of a UTF-8 file, a leading byte order mark dropped.

    A file that is not UTF-8 raises DatasetError naming the first byte that
    does not decode and its offset in the file.
    """
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = exc.start + len(raw) - len(exc.object)  # the codec decodes after a BOM
        raise DatasetError(f"{path}: not UTF-8 text: byte {raw[at]:#04x} at offset {at}") from None


def _parse_delimited(lines: list[str], path: Path, label_column: int,
                     delimiter: str | None):
    if delimiter is None:
        delimiter = "\t" if "\t" in lines[0] else ","
    first = lines[0].split(delimiter)
    width = len(first)
    if width < 2:
        raise DatasetError(f"{path}: need at least one feature column plus the label")
    for i, ln in enumerate(lines):
        if ln.count(delimiter) != width - 1:
            raise DatasetError(f"{path}: row {i + 1} has {ln.count(delimiter) + 1} fields, "
                               f"expected {width}")
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
    if not any(is_number(tok.strip()) for j, tok in enumerate(first) if j != col):
        header = [tok.strip() for j, tok in enumerate(first) if j != col]
        lines = lines[1:]
        if not lines:
            raise DatasetError(f"{path}: header only, no data rows")

    features = np.empty((len(lines), width - 1))
    raw_labels = []
    for start in range(0, len(lines), ROW_BLOCK):
        rows = [ln.split(delimiter) for ln in lines[start:start + ROW_BLOCK]]
        raw_labels += [row.pop(col).strip() for row in rows]
        try:
            features[start:start + len(rows)] = np.array(rows, dtype=float)
            continue
        except ValueError:
            pass  # the token loop below names the first bad token
        for i, row in enumerate(rows, start):
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
    max_index = max_row = 0
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


def load_dataset(path, fmt: str = "delimited", *, label_column: int = -1,
                 delimiter: str | None = None) -> Dataset:
    """Read a delimited or sparse-index file into a validated Dataset."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
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
