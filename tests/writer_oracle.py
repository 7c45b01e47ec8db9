"""Row-by-row reference for the dataset writer.

This is the route write_dataset took before it formatted whole blocks of
rows from one template: each value of each row formatted with an f-string
on a numpy scalar, each row joined and written on its own.  The blocked
writer must write exactly the bytes this route writes.
"""
from __future__ import annotations

from pathlib import Path

from margin_forge.dataset_io import Dataset


def write_dataset(data: Dataset, path) -> None:
    """Comma-delimited dump, label last; %.17g keeps the reload within 1e-12."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if data.feature_names is not None:
            fh.write(",".join([*data.feature_names, "label"]) + "\n")
        for row, label in zip(data.features, data.labels):
            fields = [f"{v:.17g}" for v in row] + [f"{int(label):d}"]
            fh.write(",".join(fields) + "\n")
