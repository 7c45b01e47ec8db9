"""Vote margins of an ensemble and their summary statistics.

The margin of observation i is y_i times the weighted learner sum, so
with simplex weights it lives in [-1, +1]: +1 means every learner got
the point right, negative means the combined vote errs (0 counts as
correct under the +1 tie rule).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import PredictionMatrix


@dataclass(frozen=True)
class MarginProfile:
    margins: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.margins, dtype=float)
        if m.ndim != 1 or m.size < 1 or not np.all(np.isfinite(m)):
            raise ValueError("margins must be a nonempty finite vector")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "margins", m)

    @property
    def n(self) -> int:
        return self.margins.size

    @property
    def mean(self) -> float:
        return float(self.margins.mean())

    @property
    def variance(self) -> float:
        # population convention: divide by n
        return float(self.margins.var())

    @property
    def min(self) -> float:
        return float(self.margins.min())

    @property
    def max(self) -> float:
        return float(self.margins.max())

    @property
    def spread(self) -> float:
        return self.max - self.min

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.margins ** 2))

    def percentile(self, xi: float) -> float:
        """The ceil(n*xi)-th smallest margin (lower empirical quantile)."""
        if not 0.0 < xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")
        k = math.ceil(self.n * xi)
        return float(np.sort(self.margins)[k - 1])


def simplex_weights(w, n_learners: int) -> np.ndarray:
    """Vote weights passed in by a caller, as a float vector: one finite,
    nonnegative weight per learner, summing to 1."""
    a = np.asarray(w, dtype=float)
    if a.shape != (n_learners,):
        raise ValueError("one vote weight per learner required")
    if not np.all(np.isfinite(a)):
        raise ValueError("vote weights must be finite")
    if np.any(a < 0) or abs(a.sum() - 1.0) > 1e-9:
        raise ValueError("vote weights must be nonnegative and sum to 1")
    return a


TILE = 2048   # columns per tile of column_tiles


def column_tiles(entries: np.ndarray, dtype):
    """Yield (a, b, tile): entries[:, a:b] cast to dtype, for column cuts
    that cover the matrix.

    Tiles start at multiples of TILE and the remainder is folded into the
    last one, so no tile but a lone one is narrower than TILE and fewer than
    2 * TILE columns are one tile.  Each tile is cast into the leading
    elements of one reused buffer of at most T * (2 * TILE - 1) cells,
    instead of a (T, n) copy; a tile is valid until the next one is drawn.
    """
    T, n = entries.shape
    cuts = [*range(0, max(n // TILE, 1) * TILE, TILE), n]
    buffer = np.empty(T * (cuts[-1] - cuts[-2]), dtype=dtype)
    for a, b in zip(cuts, cuts[1:]):
        tile = buffer[:T * (b - a)].reshape(T, b - a)
        np.copyto(tile, entries[:, a:b])
        yield a, b, tile


def vote_product(w: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """w @ entries.astype(float), cast one float64 column tile at a time
    (column_tiles).

    At one BLAS thread the result was the full cast's bit for bit on every
    shape tried, with OpenBLAS 0.3.31 and its SkylakeX kernel (the only
    build and CPU checked): it sums each column over T in an order that
    does not depend on the column count at these widths.
    tests/test_vote_storage.py pins the shapes; a last tile 1-3 columns
    wide, which the fold rules out, is where it was seen to differ.
    """
    out = np.empty(entries.shape[1])
    for a, b, tile in column_tiles(entries, float):
        np.matmul(w, tile, out=out[a:b])
    return out


def compute_margins(matrix: PredictionMatrix, weights) -> MarginProfile:
    w = np.asarray(weights, dtype=float)
    if w.shape != (matrix.n_learners,):
        raise ValueError("one weight per learner required")
    # the entries are signed votes, so w @ entries is the margin itself;
    # equal weights scale the integer vote count once: a tied vote is exactly 0.
    # The count is summed in int32 (the default int8 sum widens to int64,
    # which is slower); the weighted margin is formed in float64 from the int8
    # entries, tile by tile
    s = matrix.entries
    if np.all(w == w[0]):
        return MarginProfile(s.sum(axis=0, dtype=np.int32).astype(float) * w[0])
    return MarginProfile(vote_product(w, s))


def cmd(profile: MarginProfile) -> list[tuple[float, float]]:
    """Cumulative distribution of margins at each distinct margin theta, in
    ascending order: the fraction of margins <= theta (inclusive)."""
    ordered = np.sort(profile.margins)
    grid = np.unique(ordered)
    counts = np.searchsorted(ordered, grid, side="right")
    return [(float(t), float(c) / profile.n) for t, c in zip(grid, counts)]


def write_cmd(rows, path) -> None:
    """Write (theta, fraction) rows as a tab-separated two-column series."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for theta, frac in rows:
            fh.write(f"{theta:.17g}\t{frac:.17g}\n")


def export_cmd(profile: MarginProfile, path) -> None:
    """Tab-separated two-column series (theta, fraction) for plotting."""
    write_cmd(cmd(profile), path)


@dataclass(frozen=True)
class MarginImprovement:
    mean: float
    min: float


def margin_improvement(old: MarginProfile, new: MarginProfile) -> MarginImprovement:
    if old.n != new.n:
        raise ValueError("profiles must cover the same observations")
    deltas = new.margins - old.margins
    return MarginImprovement(float(deltas.mean()), float(deltas.min()))


def training_error_from_margins(profile: MarginProfile, labels) -> float:
    """Fraction misclassified by the combined vote.  A zero margin means a
    zero vote sum, which the tie rule sends to +1: correct only for y=+1."""
    y = np.asarray(labels, dtype=float)
    if y.shape != (profile.n,):
        raise ValueError("one label per margin required")
    m = profile.margins
    wrong = (m < 0) | ((m == 0) & (y < 0))
    return float(np.mean(wrong))
