"""Brute-force oracles that the fast paths are checked against. They share
no code with the package's kernels."""

import numpy as np

from clusterlab.distances import Metric


def row_distances(X, y, metric=Metric.EUCLIDEAN):
    """Distances from every row of ``X`` to the point ``y``: coordinate
    differences, then numpy's sum over each row."""
    diff = np.asarray(X, dtype=np.float64) - np.asarray(y, dtype=np.float64).reshape(-1)
    metric = Metric.coerce(metric)
    if metric is Metric.MANHATTAN:
        return np.abs(diff).sum(axis=1)
    sq = (diff * diff).sum(axis=1)
    return sq if metric is Metric.SQEUCLIDEAN else np.sqrt(sq)


def nearest_neighbor(query, X, exclude=None, metric=Metric.EUCLIDEAN):
    """Index and distance of the row of ``X`` closest to ``query``, by
    :func:`row_distances` on every row; ties break toward the lowest index,
    and ``exclude`` leaves one row out. Hopkins' oracle."""
    dists = row_distances(X, query, metric)
    if exclude is not None:
        dists[exclude] = np.inf
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])
