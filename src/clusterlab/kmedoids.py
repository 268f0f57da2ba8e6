"""Partitioning Around Medoids: greedy BUILD then best-improvement SWAP.

PAM is distance-native: it accepts either a feature matrix (distances are
computed with the configured metric) or a precomputed
:class:`~clusterlab.distances.DistanceMatrix`. The whole procedure is
deterministic; ties between equal-cost choices break toward the lowest
(medoid index, candidate index) pair.

Both phases read the dense matrix ``D = DistanceMatrix.square()`` one row
block at a time (blocks sized by ``distances``), and allocate no n x n or
n x (n - k) temporary: a few blocks beside the O(n k) per-point arrays
(``tests/test_kmedoids.py`` traces this at n = 1500). Each block's minimum
runs against a bound written out in as many rows as the block, so both
operands have one shape: on a 21 x 1500 block numpy takes 1.6 times as long
against a broadcast row and 2.2 times against a broadcast column.

BUILD prefixes. Greedy BUILD for k is the first k steps of BUILD for any
larger k, so ``_build`` returns the medoids in the order it adds them and
SWAP starts from a sorted prefix: a k-sweep runs BUILD once, for its largest
k (``validation.sweep_k``).

Row sums. Adding candidate c, or swapping it in, costs
``np.minimum(D[:, c], r).sum()`` for a per-point bound r (the distance to
the nearest kept medoid). Gathered as ``D[:, cands]``, numpy returns those
columns F-ordered, so the sum runs pairwise down each contiguous column.
``square()`` is exactly symmetric, so the contiguous row ``D[c]`` holds the
same values in the same order and ``np.minimum(D[c], r).sum()`` has the same
bits. Summing an n x n C-ordered buffer along axis 0 would not: it adds
rows one after another, which rounds differently and picks other medoids on
duplicate points. BUILD computes every row's cost this way, exactly, in
contiguous row-block views of D against a (b, n) tile of r that it updates
in place after each pick, and takes the argmin over the candidate rows.

SWAP screens, then decides. Each iteration takes every point's nearest and
second-nearest medoid distances dn and ds (ds = inf when k = 1). Removing
medoid i leaves ds on i's own points and dn elsewhere, so the per-cluster
sums SV[c, j] = sum over j's points o of min(D[c, o], dn[o]), and SU
likewise with ds, give E[i, c] = sum_j SV[c, j] - SV[c, i] + SU[c, i], the
cost of swapping medoid i for c up to rounding (FastPAM1: Schubert and
Rousseeuw, "Faster k-Medoids Clustering", arXiv:1810.05691). The screen
walks row blocks of D with the candidates c as rows and all points o as
columns (row c is column c). dn and ds are written once into one (2, b, n)
operand, and each block takes one minimum into a (2, b, n) buffer and one
(2b, n) @ (n, k) GEMM with the points' one-hot owner matrix: b candidates'
rows of SV and SU. The exact row kernel above then costs every pair whose
E lies within a derived slack of the smallest (see ``_best_swap``), and
those exact costs alone pick the swap. The winner's row sum is the new
total cost: it adds the same per-point minima, in the same order, as
``pam_cost`` of the swapped set.
"""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_integer
from .distances import _EPS, DistanceMatrix, Metric, _block_rows, pairwise_distances
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


def _row_costs(D, tile, rows=None):
    """``np.minimum(D[c], bound).sum()`` for every row c of D, or for every
    c in the index array ``rows``, one block of rows at a time against
    ``tile``, the bound repeated in each of its rows, so that the minimum
    runs on operands of one shape. Blocks of every row are views of D;
    blocks of ``rows`` are gathered."""
    step = tile.shape[0]
    costs = np.empty(D.shape[0] if rows is None else rows.size)
    buf = np.empty_like(tile)
    for s in range(0, costs.size, step):
        block = D[s : s + step] if rows is None else D[rows[s : s + step]]
        b = block.shape[0]
        costs[s : s + b] = np.minimum(block, tile[:b], out=buf[:b]).sum(axis=1)
    return costs


def _tile(bound, rows):
    """A (b, n) operand whose b rows each hold the n-vector ``bound``: one
    block of ``_block_rows(n)`` rows, or ``rows`` when fewer."""
    return np.tile(bound, (min(_block_rows(bound.size), rows), 1))


def _build(D, k):
    """Greedy BUILD: the k medoids in the order they are added. The first is
    the most central point; each next one lowers the total cost the most,
    ties to the lowest index, each step's costs summed along rows of D (see
    the module docstring). The first k of BUILD for any larger k are these."""
    n = D.shape[0]
    order = [int(np.argmin(D.sum(axis=1)))]
    nearest = _tile(D[order[0]], n)  # each row: every point's distance to its nearest medoid
    in_set = np.zeros(n, dtype=bool)
    in_set[order] = True
    for _ in range(1, k):
        cands = np.flatnonzero(~in_set)
        chosen = int(cands[np.argmin(_row_costs(D, nearest)[cands])])
        order.append(chosen)
        in_set[chosen] = True
        np.minimum(nearest, D[chosen], out=nearest)
    return order


def _cluster_sums(D, owner, dn, ds, k):
    """SV and SU of the SWAP screen, candidate-major: (n, k) arrays with
    SV[c, j] the sum over cluster j's points o of min(D[c, o], dn[o]), and
    SU likewise with ds. Each block of b candidate rows takes one minimum
    of the block, repeated twice, against dn and ds written once in as many
    rows, and one GEMM of the (2b, n) result with the one-hot (n, k) owner
    matrix; the bounds and the result are one block each."""
    n = D.shape[0]
    step = min(_block_rows(2 * n), n)
    bounds = np.empty((2, step, n))
    bounds[0], bounds[1] = dn, ds
    buf = np.empty(2 * step * n)
    onehot = (owner[:, None] == np.arange(k)).astype(np.float64)
    sums = np.empty((2, n, k))
    for s in range(0, n, step):
        block = D[s : s + step]
        b = block.shape[0]
        part = np.minimum(block, bounds[:, :b], out=buf[: 2 * b * n].reshape(2, b, n))
        sums[:, s : s + b] = (part.reshape(2 * b, n) @ onehot).reshape(2, b, k)
    return sums


def _best_swap(D, medoids, valid):
    """(cost, medoid position, candidate) of the cheapest swap, ties to the
    lowest pair; ``valid`` marks the candidate rows, the non-medoids. Swapping
    medoid i for c costs ``np.minimum(D[c], rest_i).sum()``, rest_i being
    each point's distance to its nearest medoid other than i; the screen E
    ranks every pair first (see the module docstring).

    Slack. Let u = eps/2, g(m) = m*u/(1 - m*u), C the exact sum of a pair's
    terms, K the kernel's value and M = max_c sum_j SV[c, j] + max SU as
    computed; every term is non-negative.
      - Kernel error: K sums n terms in some order, so |K - C| <= g(n)*C,
        and C <= sum_j SV[c, j] + SU[c, i] <= 1.01*M.
      - Screen error: the GEMM products are by 0 or 1, so exact; each SV and
        SU entry is one GEMM entry, a sum of n terms, so at most n
        roundings, in any order and with or without FMA; sum_j adds k - 1
        more, and the subtraction and the addition round once each, every
        value involved below 1.01*M. So |E - C| <= 1.03*(3n + k + 2)*u*M.
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
        Dm.partition(1, axis=1)
        dn, ds = Dm[:, 0], Dm[:, 1]
    else:
        dn, ds = Dm[:, 0], np.full(n, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf, inf - inf
        SV, SU = _cluster_sums(D, owner, dn, ds, k)
        total = SV.sum(axis=1)
        E = (total[:, None] - SV + SU).T
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
        costs = _row_costs(D, _tile(np.where(owner == pos, ds, dn), rows.size), rows)
        j = int(np.argmin(costs))
        if best is None or costs[j] < best[0]:
            best = (float(costs[j]), pos, int(rows[j]))
    return best


def _swap(D, medoids, max_swap_iters):
    n = D.shape[0]
    cost = pam_cost(D, medoids)
    swaps = 0
    converged = False
    for _ in range(max_swap_iters):
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        if in_set.all():
            converged = True
            break
        new_cost, pos, cand = _best_swap(D, medoids, ~in_set)
        if new_cost < cost:
            medoids = sorted(set(medoids) - {medoids[pos]} | {cand})
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
        self._check_params()  # before the O(n^2) distances
        dist = X if isinstance(X, DistanceMatrix) else pairwise_distances(X, self.metric)
        k = int(self.n_clusters)
        if dist.n < k:
            raise TooFewPointsError(dist.n, k)
        return self._swap_from(dist.square(), _build(dist.square(), k))

    def _check_params(self):
        if as_integer(self.n_clusters, "n_clusters") < 1:
            raise ValueError("n_clusters must be at least 1")
        if as_integer(self.max_swap_iters, "max_swap_iters") < 0:
            raise ValueError(f"max_swap_iters must be non-negative, got {self.max_swap_iters}")

    def _swap_from(self, D, order):
        """SWAP from the first n_clusters medoids of ``order``, a BUILD order
        (see ``_build``) of at least that many, then the fitted attributes."""
        self._check_params()
        k = int(self.n_clusters)
        medoids, cost, swaps, converged = _swap(D, sorted(order[:k]), int(self.max_swap_iters))
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
