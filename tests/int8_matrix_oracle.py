"""One-byte-per-vote reference for the packed prediction matrix.

This is the storage PredictionMatrix used before it packed each vote into
one bit: a C-ordered, read-only int8 (T, n) array of the signed votes,
read by int32 sums and by column tiles cast to float64 or float32.  It
takes the readers' names (vote_counts, learner_sums, weighted_sum, gram and
dense), so compute_margins, the bounds and the reweighting schemes run on
it unchanged.  The packed readers must give exactly what these give, bit
for bit.  float64_twin holds the same votes in float64 around the narrowing,
which is what every reader's result must also equal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TILE = 512   # columns per tile, as the packed matrix cuts them


@dataclass(frozen=True)
class Int8Matrix:
    entries: np.ndarray   # (T, n) of +-1: y_i h_t(x_i)
    labels: np.ndarray    # (n,) of +-1

    def __post_init__(self):
        h = np.asarray(self.entries)
        y = np.array(self.labels, dtype=float)
        if h.ndim != 2 or h.shape[0] < 1 or y.shape != (h.shape[1],):
            raise ValueError("entries must be (T, n), T >= 1, with one label per row")
        if h.dtype == np.int8:
            votes = h.size == 0 or (h.min() >= -1 and h.max() <= 1
                                    and np.count_nonzero(h) == h.size)
        else:
            votes = np.all(np.isin(h, (-1.0, 1.0)))
        if not votes or not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("entries and labels must be -1 or +1")
        h = np.asarray(h, dtype=np.int8, order="C")
        h.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "entries", h)
        object.__setattr__(self, "labels", y)

    def leading(self, count: int) -> "Int8Matrix":
        if not 1 <= count <= self.n_learners:
            raise ValueError(f"count must lie in [1, {self.n_learners}]")
        view = object.__new__(Int8Matrix)
        object.__setattr__(view, "entries", self.entries[:count])
        object.__setattr__(view, "labels", self.labels)
        return view

    @property
    def n_rows(self) -> int:
        return self.entries.shape[1]

    @property
    def n_learners(self) -> int:
        return self.entries.shape[0]

    def dense(self) -> np.ndarray:
        return self.entries.astype(float)

    def vote_counts(self) -> np.ndarray:
        return self.entries.sum(axis=0, dtype=np.int32)

    def learner_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1, dtype=np.int32)

    def weighted_sum(self, w: np.ndarray) -> np.ndarray:
        out = np.empty(self.n_rows)
        for a, b, tile in column_tiles(self.entries, float):
            np.matmul(w, tile, out=out[a:b])
        return out

    def gram(self) -> np.ndarray:
        out = np.zeros((self.n_learners,) * 2)
        for _, _, tile in column_tiles(self.entries, np.float32):
            out += tile @ tile.T
        return out


def column_tiles(entries: np.ndarray, dtype):
    """Yield (a, b, tile): entries[:, a:b] cast to dtype, tiles starting at
    multiples of TILE with the remainder folded into the last one."""
    T, n = entries.shape
    cuts = [*range(0, max(n // TILE, 1) * TILE, TILE), n]
    buffer = np.empty(T * (cuts[-1] - cuts[-2]), dtype=dtype)
    for a, b in zip(cuts, cuts[1:]):
        tile = buffer[:T * (b - a)].reshape(T, b - a)
        np.copyto(tile, entries[:, a:b])
        yield a, b, tile


def float64_twin(matrix) -> Int8Matrix:
    """The votes of matrix held in float64, built around the narrowing in
    Int8Matrix.__post_init__."""
    twin = object.__new__(Int8Matrix)
    object.__setattr__(twin, "entries", matrix.entries.astype(float))
    object.__setattr__(twin, "labels", matrix.labels)
    return twin
