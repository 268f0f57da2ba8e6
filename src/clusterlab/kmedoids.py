"""Partitioning Around Medoids: greedy BUILD then best-improvement SWAP.

PAM is distance-native: it accepts either a feature matrix (distances are
computed with the configured metric) or a precomputed
:class:`~clusterlab.distances.DistanceMatrix`. The whole procedure is
deterministic; ties between equal-cost choices break toward the lowest
(medoid index, candidate index) pair.

Both phases read the dense matrix ``D = DistanceMatrix.square()``, and its
float32 copy (below), one row block at a time (blocks sized by
``distances``), and allocate no n x n or n x (n - k) temporary: a few blocks
beside the O(n k) per-point arrays (``tests/test_kmedoids.py`` traces this
at n = 1500). Each block's minimum
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
duplicate points. This exact kernel runs on row blocks against a (b, n)
tile of r, and its costs alone pick each medoid and each swap.

Screens in float32. Both phases rank every choice on
``DistanceMatrix.square32`` first: one float32 copy of D, scaled by the
power of two 2**-e that puts the largest distance in [0.5, 1), so that no
scaled sum overflows and only values far below the largest lose relative
precision. The matrix builds it on PAM's first use, 4*n*n bytes beside
D's 8*n*n, and holds it until the matrix itself dies, with the run: a
k-sweep builds it in the parent, for BUILD, before its points fork, and
the children read it copy-on-write. A screen sums minima of the copy's
entries, each the rounded minimum of the same entries of D, in float32,
and hands the exact kernel only the choices within a derived slack of
the smallest (see ``_build`` and ``_best_swap``); its arithmetic, the GEMM's
order on any BLAS kernel among it, decides no result. Without the copy
(an infinite distance, sums of distances that could overflow, or more
than 2**20 points) the exact kernel costs every choice. Each BUILD step
screens every candidate row's cost in contiguous row-block views of the
copy, then takes the exact argmin over the rows the screen kept, ties to
the lowest index.

SWAP screens, then decides. Each iteration takes every point's nearest and
second-nearest medoid distances dn and ds (ds = inf when k = 1). Removing
medoid i leaves ds on i's own points and dn elsewhere, so the per-cluster
sums SV[c, j] = sum over j's points o of min(D[c, o], dn[o]), and SU
likewise with ds, give E[i, c] = sum_j SV[c, j] - SV[c, i] + SU[c, i], the
cost of swapping medoid i for c up to rounding (FastPAM1: Schubert and
Rousseeuw, "Faster k-Medoids Clustering", arXiv:1810.05691). The screen
walks row blocks of the copy with the candidates c as rows and all points o
as columns (row c is column c). dn and ds are written once into one
(2, b, n) operand, and each block takes one minimum into a (2, b, n) buffer
and one (2b, n) @ (n, k) GEMM with the points' one-hot owner matrix, all in
float32: b candidates' rows of SV and SU, from which E is formed in
float64. The exact row kernel then costs every pair whose E lies within a
derived slack of the smallest (see ``_best_swap``), and those exact costs
alone pick the swap. The winner's row sum is the new total cost: it adds
the same per-point minima, in the same order, as ``pam_cost`` of the
swapped set.
"""

from __future__ import annotations

import numpy as np

from ._base import BaseEstimator, check_is_fitted
from ._checks import as_integer
from .distances import DistanceMatrix, Metric, _block_rows, pairwise_distances
from .exceptions import InvalidMedoidError, TooFewPointsError

_U32 = 2.0**-24  # float32's unit roundoff
_TINY32 = float(np.finfo(np.float32).tiny)  # its smallest normal, 2**-126


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
    blocks of ``rows`` are gathered. The sums are in D's precision (float32
    on the copy, see ``_approx_costs``), returned as float64."""
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


def _scaled32(x, e):
    """``x * 2**-e`` rounded once to float32, as ``DistanceMatrix.square32``
    rounds D."""
    return np.ldexp(x, -e).astype(np.float32)


def _approx_costs(dist, bound, rows):
    """BUILD's screen: ``np.minimum(D[c], bound).sum()`` for each c of the
    index array ``rows``, scaled by 2**-e and summed in float32 on the copy
    (see ``_build``); every row is summed, in views of the copy."""
    F, e = dist.square32
    return _row_costs(F, _tile(_scaled32(bound, e), dist.n))[rows]


def _build(dist, k):
    """Greedy BUILD: the k medoids in the order they are added. The first is
    the most central point; each next one lowers the total cost the most,
    ties to the lowest index, each step's costs summed along rows of D (see
    the module docstring). The first k of BUILD for any larger k are these.

    Each step screens every candidate row on the float32 copy, then runs the
    exact kernel on the rows whose screen value A lies within a slack of the
    smallest, and its costs alone pick the row.

    Slack. In units of 2**-e, let u = 2**-24, tau = 2**-126 (float32's
    smallest normal), g(m) = m*u/(1 - m*u), and C the exact sum of a row's
    n terms t = min(D[c, o], bound[o]), all non-negative.
      - Screen error: the copy's term is t rounded once (the float64
        scaling is exact but for a loss below 2**-1075, and a minimum of
        rounded values is the rounded minimum), so it errs by at most
        u*t + tau, tau covering a term below float32's normal range, and a
        flush to zero. The float32 sum adds n of them in any order, erring
        by at most g(n - 1) times their sum, and by tau more per addition
        if results are flushed. So |A - C| <= g(n)*C + 3*n*tau.
      - Kernel error: the float64 kernel K errs by at most g'(n)*C, with
        2**-53 for u; sums of n distances do not overflow, or there is no
        copy.
    If p minimises K and q minimises A, then C[p] <= (1 + 3*g'(n))*C[q], so
    A[p] - A[q] <= (2*g(n) + 4*g'(n))*C[q] + 6*n*tau, and
    C[q] <= (A[q] + 3*n*tau)/(1 - g(n)). The copy exists only for n <= 2**20,
    so n*u <= 1/16, g(n) <= 1.067*n*u, 1/(1 - g(n)) <= 1.072, and
    A[p] - A[q] <= 2.29*n*u*A[q] + 7*n*tau. The slack, 3*n*u*A[q] + 8*n*tau,
    leaves 0.71*n*u*A[q] + n*tau for the float64 rounding of the slack and
    of A[q] + slack."""
    D, n = dist.square(), dist.n
    nearest = np.full(n, np.inf)  # every point's distance to its nearest medoid
    in_set = np.zeros(n, dtype=bool)
    order = []
    for _ in range(k):
        rows = np.flatnonzero(~in_set)
        if dist.square32 is not None:
            approx = _approx_costs(dist, nearest, rows)
            best = approx.min()
            rows = rows[approx <= best + (3 * n * _U32 * best + 8 * n * _TINY32)]
        chosen = int(rows[np.argmin(_row_costs(D, _tile(nearest, rows.size), rows))])
        order.append(chosen)
        in_set[chosen] = True
        np.minimum(nearest, D[chosen], out=nearest)
    return order


def _cluster_sums(dist, owner, dn, ds, k):
    """SV and SU of the SWAP screen, candidate-major, scaled by 2**-e and
    summed in float32 on the copy: (n, k) float64 arrays with SV[c, j] the
    sum over cluster j's points o of min(D[c, o], dn[o]), and SU likewise
    with ds. Each block of b candidate rows takes one minimum of the block,
    repeated twice, against dn and ds written once in as many rows, and one
    GEMM of the (2b, n) result with the one-hot (n, k) owner matrix; the
    bounds and the result are one block each."""
    (F, e), n = dist.square32, dist.n
    step = min(_block_rows(2 * n), n)
    bounds = np.empty((2, step, n), dtype=np.float32)
    bounds[0], bounds[1] = _scaled32(dn, e), _scaled32(ds, e)
    buf = np.empty(2 * step * n, dtype=np.float32)
    onehot = (owner[:, None] == np.arange(k)).astype(np.float32)
    sums = np.empty((2, n, k), dtype=np.float32)
    for s in range(0, n, step):
        block = F[s : s + step]
        b = block.shape[0]
        part = np.minimum(block, bounds[:, :b], out=buf[: 2 * b * n].reshape(2, b, n))
        sums[:, s : s + b] = (part.reshape(2 * b, n) @ onehot).reshape(2, b, k)
    return sums.astype(np.float64)


def _best_swap(dist, medoids, valid):
    """(cost, medoid position, candidate) of the cheapest swap, ties to the
    lowest pair, and the number of pairs the screen handed to the exact
    kernel; ``valid`` marks the candidate rows, the non-medoids. Swapping
    medoid i for c costs ``np.minimum(D[c], rest_i).sum()``, rest_i being
    each point's distance to its nearest medoid other than i; the screen E
    ranks every pair first (see the module docstring).

    Slack. In units of 2**-e, with u, tau and g as in ``_build``, C the
    exact sum of a pair's terms, K the kernel's value and
    M = max_c sum_j SV[c, j] + max SU as computed; every term is
    non-negative.
      - Screen error: each SV and SU entry is a float32 sum of rounded
        terms, as a row of BUILD's screen is (the GEMM's products are by 0
        or 1, so exact), so an entry x errs by at most g(n)*x + 3*n*tau.
        E adds k + 2 entries, sum_j SV[c, j] + SV[c, i] + SU[c, i], whose
        exact values add up to at most 2*(M + 3*n*(k + 1)*tau)/(1 - g(n)),
        and its float64 arithmetic rounds k + 1 times. With n <= 2**20,
        |E - C| <= 2.29*n*u*M + 3.5*n*(k + 2)*tau, float64 rounding aside.
      - Kernel error: |K - C| <= g'(n)*C, with 2**-53 for u, and C is at
        most sum_j SV[c, j] + SU[c, i], below 1.08*M but for tau terms.
    If p minimises K and q minimises E, then C[p] - C[q] <= 3*g'(n)*C[q] and
    E[p] - E[q] <= 4.58*n*u*M + 7*n*(k + 2)*tau, float64 rounding aside. The
    slack is 5*n*u*M + 8*n*(k + 2)*tau; the excess covers the float64
    rounding of E, of M, of the slack and of E[q] + slack. Without the copy
    (an infinite distance, or sums that could overflow) every pair goes to
    the exact kernel.
    """
    D, n, k = dist.square(), dist.n, len(medoids)
    Dm = D[:, medoids]
    owner = Dm.argmin(axis=1)
    if k > 1:
        Dm.partition(1, axis=1)
        dn, ds = Dm[:, 0], Dm[:, 1]
    else:
        dn, ds = Dm[:, 0], np.full(n, np.inf)
    if dist.square32 is None:
        screened = np.broadcast_to(valid, (k, n))
    else:
        SV, SU = _cluster_sums(dist, owner, dn, ds, k)
        total = SV.sum(axis=1)
        E = (total[:, None] - SV + SU).T
        slack = 5 * n * _U32 * (total.max() + SU.max()) + 8 * n * (k + 2) * _TINY32
        screened = (E <= E[:, valid].min() + slack) & valid
    best, pairs = None, 0  # best: (cost, position, candidate)
    for pos in range(k):
        rows = np.flatnonzero(screened[pos])
        pairs += rows.size
        if rows.size == 0:
            continue
        costs = _row_costs(D, _tile(np.where(owner == pos, ds, dn), rows.size), rows)
        j = int(np.argmin(costs))
        if best is None or costs[j] < best[0]:
            best = (float(costs[j]), pos, int(rows[j]))
    return best, pairs


def _swap(dist, medoids, max_swap_iters):
    """SWAP from ``medoids``: (medoids, cost, swaps, converged, the pairs
    the screens handed to the exact kernel)."""
    n = dist.n
    cost = pam_cost(dist, medoids)
    swaps = pairs = 0
    converged = False
    for _ in range(max_swap_iters):
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        if in_set.all():
            converged = True
            break
        (new_cost, pos, cand), screened = _best_swap(dist, medoids, ~in_set)
        pairs += screened
        if new_cost < cost:
            medoids = sorted(set(medoids) - {medoids[pos]} | {cand})
            cost = new_cost
            swaps += 1
        else:
            converged = True
            break
    return medoids, cost, swaps, converged, pairs


class KMedoids(BaseEstimator):
    """PAM clustering around k actual data points.

    Attributes after fit: ``medoid_indices_`` (sorted row indices),
    ``labels_`` (nearest-medoid assignment, each medoid in its own cluster),
    ``inertia_`` (total point-to-medoid distance), ``n_swaps_``,
    ``converged_`` (False only when max_swap_iters ran out),
    ``n_screened_pairs_`` (the (medoid, candidate) pairs that SWAP's screen
    handed to the exact kernel, summed over its iterations).
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
        return self._swap_from(dist, _build(dist, k))

    def _check_params(self):
        if as_integer(self.n_clusters, "n_clusters") < 1:
            raise ValueError("n_clusters must be at least 1")
        if as_integer(self.max_swap_iters, "max_swap_iters") < 0:
            raise ValueError(f"max_swap_iters must be non-negative, got {self.max_swap_iters}")

    def _swap_from(self, dist, order):
        """SWAP on the DistanceMatrix ``dist`` from the first n_clusters
        medoids of ``order``, a BUILD order (see ``_build``) of at least that
        many, then the fitted attributes."""
        self._check_params()
        k = int(self.n_clusters)
        medoids, cost, swaps, converged, pairs = _swap(dist, sorted(order[:k]),
                                                       int(self.max_swap_iters))
        labels = dist.square()[:, medoids].argmin(axis=1)
        labels[medoids] = np.arange(k)  # a medoid always owns its cluster
        self.medoid_indices_ = np.array(medoids, dtype=np.int64)
        self.labels_ = labels.astype(np.int64)
        self.inertia_ = cost
        self.n_swaps_ = swaps
        self.converged_ = converged
        self.n_screened_pairs_ = pairs
        return self

    def fit_predict(self, X, y=None):
        return self.fit(X).labels_

    @property
    def cluster_sizes_(self):
        check_is_fitted(self, "labels_")
        return np.bincount(self.labels_, minlength=int(self.n_clusters))
