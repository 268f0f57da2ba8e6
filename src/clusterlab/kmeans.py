"""Lloyd's K-means with k-means++ or uniform-random seeding and restarts."""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_feature_matrix, as_integer, as_labels, check_domain, resolve_seed
from .distances import (Metric, _block_rows, _d2_to_picks, _nearest, _rows, _rows_to_point,
                        _to_columns)
from .exceptions import MissingCenterError, TooFewPointsError

INIT_KMEANS_PP = "k-means++"
INIT_RANDOM = "random"


def wss(X, labels, centers) -> float:
    """Within-cluster sum of squares: sum of squared Euclidean distances
    from each point to the center of its assigned cluster. Raises
    ValueError on non-finite centers, and :class:`AnalysisError` when the
    points and centers lie outside ``_checks.check_domain``, where the sum
    could overflow."""
    X = as_feature_matrix(X, allow_empty=True)
    centers = as_feature_matrix(centers, "centers", allow_empty=True)
    labels = as_labels(labels, X.shape[0])
    if labels.size and labels.max() >= centers.shape[0]:
        raise MissingCenterError(int(labels.max()))
    if labels.size:
        check_domain(X, centers)
    return _objective(X, labels, centers)


def _objective(X, labels, centers) -> float:
    """:func:`wss` on arguments known to be valid."""
    return float(_d2_to_picks(X, centers, labels).sum())


def _starts(X, k, init, rngs):
    """The k starting centers of each restart in a group, one per ``rng``,
    (g, k, d), with each point's nearest of them (ties to the lower index),
    (g, n): the first assignment, which k-means++ has on hand once it has
    drawn its seeds. Random init returns ``(centers, None)``.

    k-means++ draws each restart's seeds from its own ``rng``, exactly as
    ``rng.choice`` draws them for a restart on its own, in one inverse-CDF
    step for the whole group (see :func:`_draw`), and computes the exact
    distances of every point to the group's new seeds in one call of
    :func:`distances._to_columns`, which reads the points in place through
    the view ``X.T``. Beside labels, d2 and the seed distances, (g, n)
    each, it holds that call's registers, at most two blocks of
    ``_SCREEN_ELEMENTS`` up to d = 128."""
    (n, d), g = X.shape, len(rngs)
    if init == INIT_RANDOM:
        picks = [np.sort(rng.choice(n, size=k, replace=False)) for rng in rngs]
        return X[np.array(picks)], None
    # k-means++: first center uniform, then D^2 sampling
    centers = np.empty((g, k, d), dtype=np.float64)
    centers[:, 0] = X[[rng.integers(n) for rng in rngs]]
    labels = np.zeros((g, n), dtype=np.intp)
    d2, dj = np.empty((g, n)), np.empty((g, n))
    _to_columns(centers[:, 0], X.T, d2)
    for j in range(1, k):
        centers[:, j] = X[_draw(d2, rngs, dj)]  # dj holds the draw's cdf until the pass
        _to_columns(centers[:, j], X.T, dj)
        np.putmask(labels, dj < d2, j)
        np.minimum(d2, dj, out=d2)
    return centers, labels


def _draw(d2, rngs, cdf):
    """Each restart's next k-means++ seed, drawn with weights ``d2[r]``:
    the index ``rngs[r].choice(n, p=d2[r] / d2[r].sum())`` returns, with
    the generator left in the same state, or ``rngs[r].integers(n)`` when
    every weight is 0 (every point sits on a seed). ``cdf``, (g, n), is
    overwritten.

    ``choice`` divides the cumulative sum of p by its last entry and
    returns ``searchsorted(cdf, rng.random(), side="right")``; here each of
    those steps but the last is one call for the whole group. ``choice``'s
    checks on p (no entry negative or NaN, a sum within sqrt(eps) of 1)
    always pass on exact squared distances of rows that
    ``_checks.check_domain`` accepts, so they are left out."""
    total = d2.sum(axis=1)  # numpy's pairwise sum of each row, as d2[r].sum()
    live = total > 0
    np.divide(d2, np.where(live, total, 1.0)[:, None], out=cdf)  # zeros stay zeros
    np.add.accumulate(cdf, axis=1, out=cdf)
    np.divide(cdf, np.where(live, cdf[:, -1], 1.0)[:, None], out=cdf)
    return [row.searchsorted(rng.random(), side="right") if ok else rng.integers(row.size)
            for row, ok, rng in zip(cdf, live, rngs)]


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


def _means(X, keys, counts, columns):
    """Per-cluster coordinate means of each restart of a group, (g, k, d),
    bit-identical to ``X[labels[r] == j].mean(axis=0)`` for every r and j,
    given each point's bin ``keys[r] = r*k + labels[r]``, ``counts``, the
    (g, k) cluster sizes, and ``columns``, ``X.T`` repeated for as many
    restarts as one call sums (the view ``X.T`` itself for one restart).

    For d >= 2 that mean adds a cluster's rows in row order onto +0.0 (so a
    coordinate whose members all read -0.0 sums to +0.0), exactly as
    ``bincount`` does: one call per coordinate for as many restarts as
    ``columns`` holds. A single column is summed pairwise instead, so d = 1
    keeps the per-cluster mean.
    """
    (g, k), (n, d) = counts.shape, X.shape
    if d == 1:
        return np.array([[X[part == j].mean(axis=0) for j in range(r * k, r * k + k)]
                         for r, part in enumerate(keys)])
    sums = np.empty((d, g * k))
    step = columns.shape[1] // n
    for s in range(0, g, step):
        e = min(s + step, g)
        part = keys[s:e].ravel()
        for c in range(d):
            sums[c, s * k:e * k] = np.bincount(part, weights=columns[c, :part.size],
                                               minlength=e * k)[s * k:]
    return (sums / counts.ravel()).T.reshape(g, k, d)


def _restarts(rows, mean, k, init, seeds, max_iter, tol):
    """A group of restarts on ``rows``, the data prepared for the screen
    around its ``mean``, one per seed, in lockstep: each iteration screens
    the centers of every restart still running in one call of
    ``distances._nearest`` (which walks blocks of data rows once the g*k
    centres' screen is more than a block), counts their clusters in one
    ``bincount``, sums them (one ``bincount`` per coordinate for every
    ``_block_rows(n * d)`` restarts, see :func:`_means`) and measures their
    shifts in one call. A restart leaves the group once it
    converges or reaches ``max_iter``, and its objective is computed then,
    on its final labels and centers. Returns each restart's ``(objective,
    labels, centers, n_iter, converged)``, in the order of ``seeds``."""
    X = rows.raw
    centers, labels = _starts(X, k, init, [np.random.default_rng(s) for s in seeds])
    columns = np.tile(X.T, min(_block_rows(X.size), len(seeds))) if len(seeds) > 1 else X.T
    running = np.arange(len(seeds))  # the restarts still iterating
    offsets = k * running[:, None]  # restart r's clusters are bins r*k to r*k + k - 1
    done = [None] * len(seeds)
    for n_iter in range(1, max_iter + 1):
        g = running.size
        if labels is None:  # else k-means++ seeding made the first assignment
            labels = _nearest(rows, _rows(centers, mean))
        keys = labels + offsets[:g]
        counts = np.bincount(keys.ravel(), minlength=g * k).reshape(g, k)
        if counts.min() == 0:
            for r in np.flatnonzero(counts.min(axis=1) == 0):
                d2 = _d2_to_picks(X, centers[r], labels[r])
                labels[r], counts[r] = _repair_empty(labels[r], d2, k)
                keys[r] = labels[r] + offsets[r]
        new_centers = _means(X, keys, counts, columns)
        shift_sq = _rows_to_point(new_centers, centers, Metric.SQEUCLIDEAN)
        converged = np.sqrt(shift_sq.max(axis=1)) <= tol
        leaving = converged if n_iter < max_iter else np.ones(g, dtype=bool)
        if leaving.any():
            for r in np.flatnonzero(leaving):
                part, center = labels[r].copy(), new_centers[r].copy()
                done[running[r]] = (_objective(X, part, center), part, center, n_iter,
                                    bool(converged[r]))
            running, new_centers = running[~leaving], new_centers[~leaving]
            if not running.size:
                return done
        centers, labels = new_centers, None


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

    Restarts run in groups of ``distances._block_rows(2 * n)``, sized by
    the state each restart holds, not by k: a group's (g, n) arrays (its
    labels, their bins, the seeding's distances) take half a block of about
    ``_SCREEN_ELEMENTS`` (256 KB) each, so n = 683 runs 23 restarts a group
    at every k, and n > 8,192 runs one. The restarts of a group iterate in
    lockstep, sharing each iteration's screen, cluster counts, centre sums
    and shifts, and a restart leaves its group once it converges or reaches
    ``max_iter``. The screen of the group's g*k centres walks blocks of
    data rows (see ``distances._nearest``), and every other temporary of a
    group is a blocked walk of the same budget, so memory does not grow
    with ``n_init`` or k.

    A restart runs the exact kernel over all points once, on its final
    labels and centers, for the objective that ranks it; its iterations run
    it only where the screen leaves a point undecided. k-means++ seeding
    computes each point's exact distance to every seed, so it hands the
    first iteration its assignment; the repair of an empty cluster computes
    the distances it needs, with the bits the seeding had. Each iteration's
    labels and bins are fresh arrays: no state passes between steps but the
    centres. ``fit`` and ``predict`` (the new rows and the centers together)
    raise :class:`AnalysisError` on rows outside ``_checks.check_domain``,
    where no squared distance or sum of them overflows.

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
        k = as_integer(self.n_clusters, "n_clusters")
        if k < 1:
            raise ValueError("n_clusters must be at least 1")
        if n < k:
            raise TooFewPointsError(n, k)
        n_init, max_iter = as_integer(self.n_init, "n_init"), as_integer(self.max_iter, "max_iter")
        if n_init < 1 or max_iter < 1:
            raise ValueError("n_init and max_iter must be at least 1")
        if not 0 <= self.tol < np.inf:  # NaN fails both
            raise ValueError("tol must be non-negative")
        if self.init not in (INIT_KMEANS_PP, INIT_RANDOM):
            raise ValueError(
                f"unknown init {self.init!r}; use {INIT_KMEANS_PP!r} or {INIT_RANDOM!r}")
        seed = resolve_seed(self.random_state)
        check_domain(X)
        mean = X.mean(axis=0)
        rows, tol = _rows(X, mean), float(self.tol)
        group = _block_rows(2 * n)  # restarts whose (g, n) arrays fill half a block each
        best, n_iters = None, []
        for first in range(0, n_init, group):
            seeds = range(seed + first, seed + min(first + group, n_init))
            for result in _restarts(rows, mean, k, self.init, seeds, max_iter, tol):
                n_iters.append(result[3])
                if best is None or result[0] < best[0]:
                    best, best_restart = result, len(n_iters) - 1

        objective, labels, centers, n_iter, converged = best
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
        check_domain(X, self.cluster_centers_)
        mean = self.cluster_centers_.mean(axis=0)
        return _nearest(_rows(X, mean), _rows(self.cluster_centers_, mean))

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

    @property
    def cluster_sizes_(self):
        check_is_fitted(self, "labels_")
        return np.bincount(self.labels_, minlength=int(self.n_clusters))
