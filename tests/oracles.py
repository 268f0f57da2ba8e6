"""Brute-force oracles that the fast paths are checked against."""

import numpy as np

from clusterlab.distances import Metric, _rows_to_point


def nearest_neighbor(query, X, exclude=None, metric=Metric.EUCLIDEAN):
    """Index and distance of the row of ``X`` closest to ``query``, by the
    exact kernel on every row; ties break toward the lowest index, and
    ``exclude`` leaves one row out. Hopkins' oracle."""
    dists = _rows_to_point(np.asarray(X, dtype=np.float64),
                           np.asarray(query, dtype=np.float64).reshape(-1), Metric.coerce(metric))
    if exclude is not None:
        dists[exclude] = np.inf
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])
