"""Partitioning Around Medoids: greedy BUILD then best-improvement SWAP.

PAM is distance-native: it accepts either a feature matrix (distances are
computed with the configured metric) or a precomputed
:class:`~clusterlab.distances.DistanceMatrix`. The whole procedure is
deterministic; ties between equal-cost choices break toward the lowest
(medoid index, candidate index) pair.
"""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from .distances import DistanceMatrix, Metric, pairwise_distances
from .exceptions import InvalidMedoidError, TooFewPointsError


def pam_cost(dist, medoids) -> float:
    """Total distance from every point to its nearest medoid."""
    D = dist.square() if isinstance(dist, DistanceMatrix) else np.asarray(dist)
    n = D.shape[0]
    idx = [int(m) for m in medoids]
    if not idx:
        raise InvalidMedoidError("medoid set must be non-empty")
    if len(set(idx)) != len(idx):
        raise InvalidMedoidError(f"medoid indices must be distinct: {idx}")
    if any(not 0 <= m < n for m in idx):
        raise InvalidMedoidError(f"medoid index out of range for n={n}: {idx}")
    return float(D[:, idx].min(axis=1).sum())


def _set_cost(D, medoids):
    return float(D[:, medoids].min(axis=1).sum())


def _build(D, k):
    """Greedy initialization: start from the most central point, then add
    whichever point lowers the total cost the most."""
    medoids = [int(np.argmin(D.sum(axis=1)))]
    nearest = D[:, medoids[0]].copy()
    for _ in range(1, k):
        in_set = np.zeros(D.shape[0], dtype=bool)
        in_set[medoids] = True
        cands = np.flatnonzero(~in_set)
        costs = np.minimum(nearest[:, None], D[:, cands]).sum(axis=0)
        chosen = int(cands[np.argmin(costs)])
        medoids.append(chosen)
        nearest = np.minimum(nearest, D[:, chosen])
    return sorted(medoids)


def _swap(D, medoids, max_swap_iters):
    n = D.shape[0]
    cost = _set_cost(D, medoids)
    swaps = 0
    converged = False
    for _ in range(max_swap_iters):
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        cands = np.flatnonzero(~in_set)
        if cands.size == 0:
            converged = True
            break
        best = None  # (estimated cost, medoid, candidate)
        for pos, m in enumerate(medoids):
            others = medoids[:pos] + medoids[pos + 1 :]
            rest = D[:, others].min(axis=1) if others else np.full(n, np.inf)
            costs = np.minimum(rest[:, None], D[:, cands]).sum(axis=0)
            j = int(np.argmin(costs))
            if best is None or costs[j] < best[0]:
                best = (float(costs[j]), m, int(cands[j]))
        proposal = sorted(set(medoids) - {best[1]} | {best[2]})
        new_cost = _set_cost(D, proposal)  # canonical, same reduction order as cost
        if new_cost < cost:
            medoids = proposal
            cost = new_cost
            swaps += 1
        else:
            converged = True
            break
    return medoids, cost, swaps, converged


class KMedoids(BaseEstimator):
    """PAM clustering around k actual data points.

    Attributes after fit: ``medoid_indices_`` (sorted row indices),
    ``labels_`` (nearest-medoid assignment, each medoid in its own cluster),
    ``inertia_`` (total point-to-medoid distance), ``n_swaps_``,
    ``converged_`` (False only when max_swap_iters ran out).
    """

    def __init__(self, n_clusters=2, max_swap_iters=200, metric=Metric.EUCLIDEAN):
        self.n_clusters = n_clusters
        self.max_swap_iters = max_swap_iters
        self.metric = metric

    def fit(self, X, y=None):
        dist = X if isinstance(X, DistanceMatrix) else pairwise_distances(X, self.metric)
        D = dist.square()
        n = dist.n
        k = int(self.n_clusters)
        if k < 1:
            raise ValueError("n_clusters must be at least 1")
        if int(self.max_swap_iters) < 0:
            raise ValueError(f"max_swap_iters must be non-negative, got {self.max_swap_iters}")
        if n < k:
            raise TooFewPointsError(n, k)

        medoids = _build(D, k)
        medoids, cost, swaps, converged = _swap(D, medoids, int(self.max_swap_iters))

        labels = D[:, medoids].argmin(axis=1)
        labels[medoids] = np.arange(k)  # a medoid always owns its cluster
        self.medoid_indices_ = np.array(medoids, dtype=np.int64)
        self.labels_ = labels.astype(np.int64)
        self.inertia_ = cost
        self.n_swaps_ = swaps
        self.converged_ = converged
        return self

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

    @property
    def cluster_sizes_(self):
        check_is_fitted(self, "labels_")
        return np.bincount(self.labels_, minlength=int(self.n_clusters))
