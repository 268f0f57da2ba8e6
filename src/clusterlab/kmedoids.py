"""Partitioning Around Medoids: greedy BUILD then best-improvement SWAP.

PAM is distance-native: it accepts either a feature matrix (distances are
computed with the configured metric) or a precomputed
:class:`~clusterlab.distances.DistanceMatrix`. The whole procedure is
deterministic; ties between equal-cost choices break toward the lowest
(medoid index, candidate index) pair.

Both phases read the dense matrix ``D = DistanceMatrix.square()`` one block
of rows (about ``_SCREEN_ELEMENTS`` distances) at a time, and allocate no
n x n or n x (n - k) temporary.

Row sums. Adding candidate c, or swapping it in, costs
``np.minimum(D[:, c], r).sum()`` for a per-point bound r (the distance to
the nearest kept medoid). Gathered as ``D[:, cands]``, numpy returns those
columns F-ordered, so the sum runs pairwise down each contiguous column.
``square()`` is exactly symmetric, so the contiguous row ``D[c]`` holds the
same values in the same order and ``np.minimum(D[c], r).sum()`` has the same
bits. Summing an n x n C-ordered buffer along axis 0 would not: it adds
rows one after another, which rounds differently and picks other medoids on
duplicate points. BUILD computes every candidate's cost this way, exactly.

SWAP screens, then decides. Each iteration takes every point's nearest and
second-nearest medoid distances dn and ds (ds = inf when k = 1). Removing
medoid i leaves ds on i's own points and dn elsewhere, so two k x n GEMMs of
the points' one-hot cluster matrix with each row block, SV[j, c] = sum over
j's points o of min(D[o, c], dn[o]) and SU likewise with ds, give
E[i, c] = sum_j SV[j, c] - SV[i, c] + SU[i, c], the cost of swapping medoid i
for c up to rounding (FastPAM1: Schubert and Rousseeuw, "Faster k-Medoids
Clustering", arXiv:1810.05691). The exact row kernel above then costs every
pair whose E lies within a derived slack of the smallest (see
``_best_swap``), and those exact costs alone pick the swap.
"""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from .distances import _EPS, _SCREEN_ELEMENTS, DistanceMatrix, Metric, pairwise_distances
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


def _row_block(n):
    """Rows of ``D`` per block, so a block holds about _SCREEN_ELEMENTS."""
    return max(1, _SCREEN_ELEMENTS // n)


def _row_costs(D, rows, rest):
    """``np.minimum(D[c], rest).sum()`` for every c in ``rows``, gathered one
    row block at a time."""
    step = _row_block(D.shape[0])
    return np.concatenate([np.minimum(D[rows[s : s + step]], rest).sum(axis=1)
                           for s in range(0, rows.size, step)])


def _build(D, k):
    """Greedy initialization: start from the most central point, then add
    whichever point lowers the total cost the most, each step's costs summed
    along rows of D (see the module docstring)."""
    n = D.shape[0]
    step = _row_block(n)
    medoids = [int(np.argmin(D.sum(axis=1)))]
    nearest = D[medoids[0]].copy()
    costs = np.empty(n)
    for _ in range(1, k):
        for s in range(0, n, step):
            costs[s : s + step] = np.minimum(D[s : s + step], nearest).sum(axis=1)
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        cands = np.flatnonzero(~in_set)
        chosen = int(cands[np.argmin(costs[cands])])
        medoids.append(chosen)
        nearest = np.minimum(nearest, D[chosen])
    return sorted(medoids)


def _best_swap(D, medoids, valid):
    """(medoid position, candidate) of the cheapest swap, ties to the lowest
    pair; ``valid`` marks the candidate rows, the non-medoids. Swapping medoid i for c costs ``np.minimum(D[c], rest_i).sum()``,
    rest_i being each point's distance to its nearest medoid other than i;
    the screen E ranks every pair first (see the module docstring).

    Slack. Let u = eps/2, g(m) = m*u/(1 - m*u), C the exact sum of a pair's
    terms, K the kernel's value and M = max_c sum_j SV[j, c] + max SU as
    computed; every term is non-negative.
      - Kernel error: K sums n terms in some order, so |K - C| <= g(n)*C,
        and C <= sum_j SV[j, c] + SU[i, c] <= 1.01*M.
      - Screen error: the GEMM products are by 0 or 1, so exact; each SV and
        SU entry sums n terms through at most n roundings, blocks and
        accumulator included, in any order and with or without FMA;
        sum_j adds k - 1 more, and the subtraction and the addition round
        once each, every value involved below 1.01*M. So
        |E - C| <= 1.03*(3n + k + 2)*u*M.
    If p minimises K and q minimises E, then C[p] - C[q] <= 2.05*n*u*M and
    E[p] - E[q] <= (4.12*n + 1.03*k + 2.06)*eps*M <= 4.12*(n + k + 2)*eps*M
    while (4n + k + 2)*u < 0.01. The slack is 8*(n + k + 2)*eps*M; the excess
    covers the rounding of M, of the slack and of E[q] + slack. Sums,
    differences and minima are exact in gradual underflow, so no absolute
    term is needed. A non-finite threshold (an infinite distance gives
    0 * inf = nan in the GEMM, or the sums overflow) sends every pair to the
    exact kernel.
    """
    n, k = D.shape[0], len(medoids)
    Dm = D[:, medoids]
    owner = Dm.argmin(axis=1)
    if k > 1:
        two = np.partition(Dm, 1, axis=1)
        dn, ds = two[:, 0], two[:, 1]
    else:
        dn, ds = Dm[:, 0], np.full(n, np.inf)
    onehot = (owner == np.arange(k)[:, None]).astype(np.float64)
    SV = np.zeros((k, n))
    SU = np.zeros((k, n))
    step = _row_block(n)
    buf = np.empty((min(step, n), n))
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, inf - inf
        for s in range(0, n, step):
            blk = D[s : s + step]
            part = buf[: blk.shape[0]]
            SV += onehot[:, s : s + step] @ np.minimum(blk, dn[s : s + step, None], out=part)
            SU += onehot[:, s : s + step] @ np.minimum(blk, ds[s : s + step, None], out=part)
        total = SV.sum(axis=0)
        E = total - SV + SU
        slack = 8 * (n + k + 2) * _EPS * (total.max() + SU.max())
        thresh = E[:, valid].min() + slack
    if np.isfinite(thresh):
        screened = (E <= thresh) & valid
    else:  # overflow or infinite distances: the exact kernel decides alone
        screened = np.broadcast_to(valid, (k, n))
    best = None  # (cost, position, candidate)
    for pos in range(k):
        rows = np.flatnonzero(screened[pos])
        if rows.size == 0:
            continue
        costs = _row_costs(D, rows, np.where(owner == pos, ds, dn))
        j = int(np.argmin(costs))
        if best is None or costs[j] < best[0]:
            best = (costs[j], pos, int(rows[j]))
    return best[1:]


def _swap(D, medoids, max_swap_iters):
    n = D.shape[0]
    cost = _set_cost(D, medoids)
    swaps = 0
    converged = False
    for _ in range(max_swap_iters):
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        if in_set.all():
            converged = True
            break
        pos, cand = _best_swap(D, medoids, ~in_set)
        proposal = sorted(set(medoids) - {medoids[pos]} | {cand})
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
