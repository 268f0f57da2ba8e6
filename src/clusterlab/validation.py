"""Partition quality: silhouette analysis and the k-sweep.

The sweep uses one pairwise distance matrix, passed in or computed once, for
the silhouette of every k and for every PAM fit, and one PAM BUILD, for its
largest k, whose prefixes start every smaller k's SWAP. Each k is one
:func:`sweep_point`, and :func:`sweep_result` assembles the points;
``pipeline.analyze`` maps the same two over its own items.

Silhouette sums. Point i's distances to cluster c add up over j in
ascending order, as a textbook loop does: row j's distances are added to the
k x n sums one row after another, ``sums[label[j]] += D[:, j]``, so each sum
rounds exactly like ``np.bincount(labels, weights=D[i])``. A
``DistanceMatrix`` is exactly symmetric, so its row j serves for column j; a
raw array may not be, so its columns are read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._checks import as_feature_matrix, as_labels, distinct, resolve_seed
from ._parallel import fork_map
from .distances import DistanceMatrix, Metric, pairwise_distances
from .exceptions import SingleClusterError
from .kmeans import KMeans
from .kmedoids import KMedoids, _build

ALGORITHMS = ("kmeans", "pam")

# spreads per-k seed substreams so they cannot collide with the per-restart
# substreams (seed + r, r < n_init) used inside one KMeans fit
_SWEEP_SEED_STRIDE = 7919


@dataclass(frozen=True)
class SilhouetteReport:
    """Per-point widths plus the aggregates used for plots and reports."""

    widths: np.ndarray  # (n,) values in [-1, 1]
    cluster_labels: tuple[int, ...]  # distinct input labels, ascending
    cluster_sizes: tuple[int, ...]
    cluster_means: tuple[float, ...]
    overall: float
    plot_order: np.ndarray  # indices sorted by (cluster, width desc, index)

    def __post_init__(self):
        self.widths.setflags(write=False)
        self.plot_order.setflags(write=False)


def silhouette_report(dist, labels) -> SilhouetteReport:
    """Silhouette width of every point given a distance matrix and labels.

    For point i with cluster C: a(i) is the mean distance to the other
    members of C, b(i) the smallest mean distance to any other cluster, and
    s(i) = (b - a) / max(a, b). Members of singleton clusters get width 0.
    """
    if isinstance(dist, DistanceMatrix):
        cols = dist.square()  # row j is column j (see the module docstring)
    else:
        D = np.asarray(dist, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"expected a square distance matrix, got {D.shape}")
        cols = D.T
    n = cols.shape[0]
    raw = as_labels(labels, n)
    uniq, inv = distinct(raw)
    k = uniq.size
    if k < 2:
        raise SingleClusterError(f"need at least 2 clusters, got {k}")
    counts = np.bincount(inv, minlength=k)

    sums = np.zeros((k, n))  # sums[c, i]: point i's distances to cluster c
    for c, col in zip(inv.tolist(), cols):
        sums[c] += col
    every = np.arange(n)
    own = sums[inv, every]
    sums /= counts[:, None]
    sums[inv, every] = np.inf
    b = sums.min(axis=0)
    a = own / np.maximum(counts[inv] - 1, 1)
    denom = np.maximum(a, b)
    widths = np.zeros(n, dtype=np.float64)
    np.divide(b - a, denom, out=widths, where=(denom != 0.0) & (counts[inv] > 1))

    cluster_means = tuple(
        float(widths[inv == c].mean()) for c in range(k)
    )
    order = np.lexsort((np.arange(n), -widths, inv))
    return SilhouetteReport(
        widths=widths,
        cluster_labels=tuple(int(u) for u in uniq),
        cluster_sizes=tuple(int(c) for c in counts),
        cluster_means=cluster_means,
        overall=float(widths.mean()),
        plot_order=order,
    )


@dataclass(frozen=True)
class KSweepResult:
    ks: tuple[int, ...]
    avg_silhouette: tuple[float, ...]
    wss: tuple[float, ...]  # K-means WSS, or total medoid cost for PAM
    best_k: int

    def __post_init__(self):
        if not (len(self.ks) == len(self.avg_silhouette) == len(self.wss)):
            raise ValueError("sweep lists must be aligned")
        if self.best_k not in self.ks:
            raise ValueError("best_k must be one of the swept ks")


def check_k_range(k_range: tuple[int, int], n: int) -> tuple[int, int]:
    """The sweep's k range as ints; it must lie within [2, n - 1]."""
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if not (2 <= k_lo <= k_hi <= n - 1):
        raise ValueError(f"k range [{k_lo}, {k_hi}] must lie within [2, {n - 1}]")
    return k_lo, k_hi


def sweep_k(
    X,
    k_range: tuple[int, int] = (2, 10),
    algorithm: str = "kmeans",
    metric=Metric.EUCLIDEAN,
    seed: int | None = None,
    n_init: int = 25,
    max_iter: int = 100,
    tol: float = 1e-9,
    max_swap_iters: int = 200,
    dist: DistanceMatrix | None = None,
) -> KSweepResult:
    """Run the chosen algorithm for every k in the inclusive range and score
    each partition by average silhouette; best_k maximizes it (ties toward
    the smaller k).

    ``dist`` is the pairwise distance matrix of ``X`` under ``metric``, when
    the caller already holds it; otherwise it is computed here.

    The points of the sweep are independent: each k's fit and silhouette
    may run in a forked process, one per usable CPU (see
    ``_parallel.fork_map``). The distance matrix and PAM's BUILD are made
    first and shared; the result is the same bit for bit whatever the
    process count, and an error is the one a serial sweep would raise.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    X = as_feature_matrix(X)
    n = X.shape[0]
    k_lo, k_hi = check_k_range(k_range, n)
    seed = resolve_seed(seed)
    metric = Metric.coerce(metric)
    if dist is None:
        dist = pairwise_distances(X, metric)
    elif (dist.n, dist.metric) != (n, metric):
        raise ValueError(f"distance matrix is {dist.metric.value} over {dist.n} points, "
                         f"expected {metric.value} over {n}")

    ks = tuple(range(k_lo, k_hi + 1))
    # one BUILD for PAM: each k's is a prefix of k_hi's
    order = _build(dist.square(), k_hi) if algorithm == "pam" else None
    point = functools.partial(sweep_point, X=X, dist=dist, algorithm=algorithm, seed=seed,
                              n_init=n_init, max_iter=max_iter, tol=tol,
                              max_swap_iters=max_swap_iters, order=order)
    # both algorithms' fits take longer as k grows
    return sweep_result(ks, fork_map(point, ks, cost=lambda k: k))


def sweep_point(k, *, X, dist, algorithm, seed, n_init, max_iter, tol, max_swap_iters=None,
                order=None) -> tuple[float, float]:
    """One point of a k sweep: (average silhouette, objective) of the fit at
    k. K-means fits ``X`` from its own seed substream; PAM's SWAP, which
    alone reads ``max_swap_iters`` and ``order``, starts from the first k
    medoids of ``order``, the BUILD for the sweep's largest k; the
    silhouette reads ``dist``. :func:`sweep_k` checks the arguments."""
    if algorithm == "kmeans":
        est = KMeans(
            n_clusters=k, n_init=n_init, max_iter=max_iter, tol=tol,
            random_state=seed + _SWEEP_SEED_STRIDE * k,
        ).fit(X)
    else:
        est = KMedoids(
            n_clusters=k, max_swap_iters=max_swap_iters, metric=dist.metric
        )._swap_from(dist.square(), order)
    return silhouette_report(dist, est.labels_).overall, float(est.inertia_)


def sweep_result(ks, points) -> KSweepResult:
    """The sweep of the ks whose :func:`sweep_point` values are ``points``,
    in the same order; best_k maximizes the silhouette (ties toward the
    smaller k)."""
    sils, objectives = zip(*points)
    best_k = ks[int(np.argmax(sils))]
    return KSweepResult(ks=tuple(ks), avg_silhouette=sils, wss=objectives, best_k=best_k)
