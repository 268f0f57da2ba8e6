"""Lloyd's K-means with k-means++ or uniform-random seeding and restarts."""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_feature_matrix, as_labels, resolve_seed
from .distances import Metric, _nearest, _rows, _rows_to_point
from .exceptions import AnalysisError, MissingCenterError, TooFewPointsError

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
    return _objective(X, labels, centers)


def _point_d2(X, labels, centers):
    """Each point's exact squared distance to the center of its cluster."""
    return _rows_to_point(X, np.take(centers, labels, axis=0), Metric.SQEUCLIDEAN)


def _objective(X, labels, centers) -> float:
    """:func:`wss` on arguments known to be valid."""
    return float(_point_d2(X, labels, centers).sum())


def _init_centers(X, k, init, rng):
    """The k starting centers, each point's nearest of them (ties to the
    lower index) and its exact squared distance to it: the first
    assignment, which k-means++ has on hand once it has drawn its seeds.
    Random init returns ``(centers, None, None)``."""
    n = X.shape[0]
    if init == INIT_RANDOM:
        return X[np.sort(rng.choice(n, size=k, replace=False))].copy(), None, None
    if init != INIT_KMEANS_PP:
        raise ValueError(f"unknown init {init!r}; use {INIT_KMEANS_PP!r} or {INIT_RANDOM!r}")
    # k-means++: first center uniform, then D^2 sampling
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(n)]
    labels = np.zeros(n, dtype=np.intp)
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        d2 = _rows_to_point(X, centers[0], Metric.SQEUCLIDEAN)
        for j in range(1, k):
            total = d2.sum()
            if total == np.inf:  # the weights d2 / total would be NaN
                raise AnalysisError(
                    "k-means++ cannot seed: the squared distances to the first seed overflow "
                    "float64; use --init random or normalise the data")
            if total > 0:
                idx = rng.choice(n, p=d2 / total)
            else:
                idx = rng.integers(n)  # all remaining mass at chosen centers
            centers[j] = X[idx]
            dj = _rows_to_point(X, centers[j], Metric.SQEUCLIDEAN)
            labels[dj < d2] = j
            d2 = np.minimum(d2, dj)
    return centers, labels, d2


def _repair_empty(labels, point_d2, k):
    """Seize the point farthest from its center for each empty cluster;
    return the labels and their counts.

    Counts are recomputed after every seizure because taking the sole member
    of a cluster empties it in turn. Seized points are locked (sentinel -1)
    so the loop fills each empty cluster at most once and terminates.
    """
    while True:
        counts = np.bincount(labels, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0:
            return labels, counts
        j = int(np.argmax(point_d2))
        labels[j] = empty[0]
        point_d2[j] = -1.0


def _center_means(X, labels, counts, offsets):
    """Per-cluster coordinate means, bit-identical to
    ``X[labels == j].mean(axis=0)`` for every j, given ``counts``, the
    cluster sizes, and ``offsets``, ``np.tile(np.arange(d), n)``: the
    coordinate of each element of ``X.ravel()``.

    For d >= 2 that mean adds a cluster's rows in row order onto +0.0 (so a
    coordinate whose members all read -0.0 sums to +0.0), exactly as one
    ``bincount`` over (label, coordinate) bins does. A single column is
    summed pairwise instead, so d = 1 keeps the per-cluster mean.
    """
    k, d = counts.size, X.shape[1]
    if d == 1:
        return np.array([X[labels == j].mean(axis=0) for j in range(k)])
    bins = (labels * d).repeat(d) + offsets
    sums = np.bincount(bins, weights=X.ravel(), minlength=k * d).reshape(k, d)
    return sums / counts[:, None]


def _lloyd(rows, mean, offsets, k, init, rng, max_iter, tol):
    """One restart on ``rows``, the data prepared for the screen around its
    ``mean``: ``(labels, centers, objective, n_iter, converged)``. The
    objective is computed once, on the final labels and centers."""
    X = rows.raw
    centers, labels, point_d2 = _init_centers(X, k, init, rng)
    converged = False
    previous = None
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if n_iter > 1 or labels is None:  # k-means++ seeding made the first assignment
            previous = labels
            labels, point_d2 = _nearest(rows, _rows(centers, mean)), None
        counts = np.bincount(labels, minlength=k)
        if counts.min() == 0:
            if point_d2 is None:  # the repair's exact distances
                point_d2 = _point_d2(X, labels, centers)
            labels, counts = _repair_empty(labels, point_d2, k)
        if previous is not None and (labels == previous).all():
            new_centers = centers  # they depend on the labels alone
        else:
            new_centers = _center_means(X, labels, counts, offsets)
        # NaN at an inf center: no convergence
        shift_sq = _rows_to_point(new_centers, centers, Metric.SQEUCLIDEAN)
        centers = new_centers
        if np.sqrt(shift_sq.max()) <= tol:
            converged = True
            break
    return labels, centers, _objective(X, labels, centers), n_iter, converged


class KMeans(BaseEstimator):
    """K-means clustering via Lloyd's algorithm.

    Runs ``n_init`` independent restarts (restart r uses substream
    random_state + r) and keeps the lowest-objective result, so output is
    reproducible for a fixed seed. Assignment uses squared Euclidean
    distance with ties to the lowest cluster id; empty clusters are repaired
    by seizing the point farthest from its current center. Assignment (in
    ``fit`` and ``predict``) screens the (point, center) pairs with one GEMM
    around the data mean (the centers' mean in ``predict``) and runs the
    exact row kernel only for points left with more than one center within
    a derived rounding slack of their best (see ``distances._nearest``), so
    labels equal those of a full distance table bit for bit.

    A restart runs the exact kernel over all points once, on its final
    labels and centers, for the objective that ranks it; its iterations run
    it only where the screen leaves a point undecided. k-means++ seeding
    computes each point's exact distance to every seed, so it hands the
    first iteration its assignment; the repair of an empty cluster computes
    the distances it needs; and an iteration whose labels repeat the last
    one's keeps its centers.

    Attributes after fit: ``labels_``, ``cluster_centers_``, ``inertia_``
    (the within-cluster sum of squares), ``n_iter_``, ``converged_``,
    ``best_restart_``, ``n_iter_per_restart_`` (iterations of each
    restart, in order), ``random_state_`` (the resolved seed echoed for
    provenance).
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
        if not 0 <= self.tol < np.inf:  # NaN fails both
            raise ValueError("tol must be non-negative")
        seed = resolve_seed(self.random_state)
        mean = X.mean(axis=0)
        rows, offsets = _rows(X, mean), np.tile(np.arange(X.shape[1]), n)
        max_iter, tol = int(self.max_iter), float(self.tol)
        best, n_iters = None, []
        for r in range(int(self.n_init)):
            rng = np.random.default_rng(seed + r)
            result = _lloyd(rows, mean, offsets, k, self.init, rng, max_iter, tol)
            n_iters.append(result[3])
            if best is None or result[2] < best[2]:
                best, best_restart = result, r

        labels, centers, objective, n_iter, converged = best
        self.labels_ = labels
        self.cluster_centers_ = centers
        self.inertia_ = objective  # the final objective is wss(X, labels, centers)
        self.n_iter_ = n_iter
        self.converged_ = converged
        self.best_restart_ = best_restart
        self.n_iter_per_restart_ = tuple(n_iters)
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
        return _nearest(_rows(X, mean), _rows(self.cluster_centers_, mean))

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

    @property
    def cluster_sizes_(self):
        check_is_fitted(self, "labels_")
        return np.bincount(self.labels_, minlength=int(self.n_clusters))
