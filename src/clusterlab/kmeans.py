"""Lloyd's K-means with k-means++ or uniform-random seeding and restarts."""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_feature_matrix, as_labels, resolve_seed
from .distances import Metric, _rows, _rows_to_point, _screened_nearest
from .exceptions import MissingCenterError, TooFewPointsError

INIT_KMEANS_PP = "k-means++"
INIT_RANDOM = "random"


def wss(X, labels, centers) -> float:
    """Within-cluster sum of squares: sum of squared Euclidean distances
    from each point to the center of its assigned cluster."""
    X = as_feature_matrix(X, allow_empty=True)
    centers = np.asarray(centers, dtype=np.float64)
    labels = as_labels(labels, X.shape[0])
    if labels.size and labels.max() >= centers.shape[0]:
        raise MissingCenterError(int(labels.max()))
    diff = X - centers[labels]
    return float((diff * diff).sum(axis=1).sum())


def _init_centers(X, k, init, rng):
    n = X.shape[0]
    if init == INIT_RANDOM:
        return X[np.sort(rng.choice(n, size=k, replace=False))].copy()
    if init != INIT_KMEANS_PP:
        raise ValueError(f"unknown init {init!r}; use {INIT_KMEANS_PP!r} or {INIT_RANDOM!r}")
    # k-means++: first center uniform, then D^2 sampling
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(n)]
    d2 = _rows_to_point(X, centers[0], Metric.SQEUCLIDEAN)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining mass at chosen centers
        centers[j] = X[idx]
        d2 = np.minimum(d2, _rows_to_point(X, centers[j], Metric.SQEUCLIDEAN))
    return centers


def _repair_empty(labels, point_d2, k):
    """Seize the point farthest from its center for each empty cluster.

    Counts are recomputed after every seizure because taking the sole member
    of a cluster empties it in turn. Seized points are locked (sentinel -1)
    so the loop fills each empty cluster at most once and terminates.
    """
    while True:
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels
        j = int(np.argmax(point_d2))
        labels[j] = empty[0]
        point_d2[j] = -1.0


def _center_means(X, labels, k):
    """Per-cluster coordinate means, bit-identical to
    ``X[labels == j].mean(axis=0)`` for every j.

    For d >= 2 that mean adds a cluster's rows in row order onto +0.0 (so a
    coordinate whose members all read -0.0 sums to +0.0), exactly as one
    ``bincount`` over (label, coordinate) bins does. A single column is
    summed pairwise instead, so d = 1 keeps the per-cluster mean.
    """
    d = X.shape[1]
    if d == 1:
        return np.array([X[labels == j].mean(axis=0) for j in range(k)])
    bins = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=X.ravel(), minlength=k * d).reshape(k, d)
    return sums / np.bincount(labels, minlength=k)[:, None]


def _lloyd(rows, mean, k, init, rng, max_iter, tol):
    """One restart on ``rows``, the data prepared for the screen around its
    ``mean``."""
    X = rows.raw
    centers = _init_centers(X, k, init, rng)
    path = []
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        labels, point_d2 = _screened_nearest(rows, _rows(centers, mean))
        labels = _repair_empty(labels, point_d2, k)
        new_centers = _center_means(X, labels, k)
        diff = X - new_centers[labels]
        objective = float((diff * diff).sum(axis=1).sum())  # wss() without re-validation
        # Lloyd steps never increase the objective; seizure only trims it
        assert not path or objective <= path[-1] + 1e-9 * (1.0 + path[-1])
        path.append(objective)
        shift_sq = ((new_centers - centers) ** 2).sum(axis=1)
        centers = new_centers
        if np.sqrt(shift_sq.max()) <= tol:
            converged = True
            break
    return labels, centers, path[-1], n_iter, converged, path


class KMeans(BaseEstimator):
    """K-means clustering via Lloyd's algorithm.

    Runs ``n_init`` independent restarts (restart r uses substream
    random_state + r) and keeps the lowest-objective result, so output is
    reproducible for a fixed seed. Assignment uses squared Euclidean
    distance with ties to the lowest cluster id; empty clusters are repaired
    by seizing the point farthest from its current center. Assignment (in
    ``fit`` and ``predict``) screens the (point, center) pairs with one GEMM
    around the data mean (the centers' mean in ``predict``) and decides with
    the exact row kernel on the pairs within a derived rounding slack of each
    point's best (see ``distances._screened_nearest``), so labels equal those
    of a full distance table bit for bit.

    Attributes after fit: ``labels_``, ``cluster_centers_``, ``inertia_``
    (the within-cluster sum of squares), ``n_iter_``, ``converged_``,
    ``objective_path_`` (per-iteration objective of the winning restart),
    ``random_state_`` (the resolved seed echoed for provenance).
    """

    def __init__(
        self,
        n_clusters=2,
        init=INIT_KMEANS_PP,
        n_init=25,
        max_iter=100,
        tol=1e-9,
        random_state=None,
    ):
        self.n_clusters = n_clusters
        self.init = init
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def fit(self, X, y=None):
        X = as_feature_matrix(X)
        n = X.shape[0]
        k = int(self.n_clusters)
        if k < 1:
            raise ValueError("n_clusters must be at least 1")
        if n < k:
            raise TooFewPointsError(n, k)
        if self.n_init < 1 or self.max_iter < 1:
            raise ValueError("n_init and max_iter must be at least 1")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        seed = resolve_seed(self.random_state)
        mean = X.mean(axis=0)
        rows = _rows(X, mean)

        best = None
        for r in range(int(self.n_init)):
            rng = np.random.default_rng(seed + r)
            result = _lloyd(rows, mean, k, self.init, rng, int(self.max_iter), float(self.tol))
            if best is None or result[2] < best[2]:
                best = result
                best_restart = r

        labels, centers, objective, n_iter, converged, path = best
        self.labels_ = labels
        self.cluster_centers_ = centers
        self.inertia_ = wss(X, labels, centers)  # recomputed, self-consistent
        self.n_iter_ = n_iter
        self.converged_ = converged
        self.objective_path_ = tuple(path)
        self.best_restart_ = best_restart
        self.random_state_ = seed
        return self

    def predict(self, X):
        check_is_fitted(self, "cluster_centers_")
        X = as_feature_matrix(X)
        if X.shape[1] != self.cluster_centers_.shape[1]:
            raise ValueError(
                f"X has {X.shape[1]} features, expected {self.cluster_centers_.shape[1]}"
            )
        mean = self.cluster_centers_.mean(axis=0)
        return _screened_nearest(_rows(X, mean), _rows(self.cluster_centers_, mean))[0]

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

    @property
    def cluster_sizes_(self):
        check_is_fitted(self, "labels_")
        return np.bincount(self.labels_, minlength=int(self.n_clusters))
