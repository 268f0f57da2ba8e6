"""Partition quality: silhouette analysis and the k-sweep.

The sweep uses one pairwise distance matrix, passed in or computed once, for
the silhouette of every k and for every PAM fit; its dense form is expanded
once and shared (see ``DistanceMatrix.square``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import as_feature_matrix, as_labels, resolve_seed
from .distances import DistanceMatrix, Metric, pairwise_distances
from .exceptions import SingleClusterError
from .kmeans import KMeans
from .kmedoids import KMedoids

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
        D = dist.square()
    else:
        D = np.asarray(dist, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"expected a square distance matrix, got {D.shape}")
    n = D.shape[0]
    raw = as_labels(labels, n)
    uniq, inv = np.unique(raw, return_inverse=True)
    k = uniq.size
    if k < 2:
        raise SingleClusterError(f"need at least 2 clusters, got {k}")
    counts = np.bincount(inv, minlength=k)

    widths = np.zeros(n, dtype=np.float64)
    for i in range(n):
        own = inv[i]
        if counts[own] == 1:
            continue  # singleton convention: width 0
        sums = np.bincount(inv, weights=D[i], minlength=k)
        a = sums[own] / (counts[own] - 1)
        b = min(sums[c] / counts[c] for c in range(k) if c != own)
        denom = max(a, b)
        widths[i] = 0.0 if denom == 0.0 else (b - a) / denom

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

    D = dist.square()
    ks = tuple(range(k_lo, k_hi + 1))
    sils, objectives = [], []
    for k in ks:
        if algorithm == "kmeans":
            est = KMeans(
                n_clusters=k, n_init=n_init, max_iter=max_iter, tol=tol,
                random_state=seed + _SWEEP_SEED_STRIDE * k,
            ).fit(X)
        else:
            est = KMedoids(
                n_clusters=k, max_swap_iters=max_swap_iters, metric=metric
            ).fit(dist)
        sils.append(silhouette_report(D, est.labels_).overall)
        objectives.append(float(est.inertia_))

    best_k = ks[int(np.argmax(sils))]
    return KSweepResult(
        ks=ks, avg_silhouette=tuple(sils), wss=tuple(objectives), best_k=best_k
    )
