"""Benchmark data sets: the pima-, sonar- and ionosphere-shaped clouds.

The formula and shapes are those of `tests/bench_data.py`, and with the
default row count and data seed 0 the sets are the ones acceptance check 7
runs on.  The row count is a parameter here so the snapshot-score workload
can draw a large scoring file of the same shape.  The data sets stay fixed;
the benchmark seed drives the splits and ensembles drawn from them.
"""
import numpy as np

from margin_forge.dataset_io import Dataset

# name: (rows, features, informative, shift, noise, flip)
SHAPES = {
    "pima-like": (768, 8, 3, 0.5, 0.5, 0.12),
    "sonar-like": (208, 60, 8, 0.55, 0.4, 0.07),
    "ionosphere-like": (351, 34, 6, 0.7, 0.4, 0.05),
}


def cloud(shape, rows=None, data_seed=0):
    n_default, p, informative, shift, noise, flip = SHAPES[shape]
    n = n_default if rows is None else rows
    rng = np.random.default_rng(data_seed)
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rng.shuffle(y)
    x = rng.normal(size=(n, p))
    x[:, :informative] += shift * y[:, None]
    x += noise * rng.normal(size=(n, p))
    y = np.where(rng.random(n) < flip, -y, y)
    return Dataset(shape, x, y)
