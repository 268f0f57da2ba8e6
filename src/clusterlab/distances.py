"""Distance kernels and the condensed pairwise distance matrix.

Every distance is computed by one shared row kernel: coordinate differences,
then a numpy sum over each row. numpy sums a row pairwise (8-way unrolled
once a row has 8 or more coordinates), not strictly left to right, but a
row's sum depends only on that row's values, never on how many rows are in
the call. So a distance computed in a batch, for one pair, or in the
screened search of :func:`_screened_nearest` is the same bit pattern, and
results match a naive per-pair computation exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ._checks import as_feature_matrix
from .exceptions import DimensionMismatchError, EmptyCandidateSetError


_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class Metric(enum.Enum):
    """Supported dissimilarities.

    Euclidean and Manhattan are true metrics; squared Euclidean violates the
    triangle inequality and is provided for objective computations only.
    """

    EUCLIDEAN = "euclidean"
    SQEUCLIDEAN = "sqeuclidean"
    MANHATTAN = "manhattan"

    @classmethod
    def coerce(cls, value) -> "Metric":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            options = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown metric {value!r}; choose from {options}") from None


def _rows_to_point(X: np.ndarray, y: np.ndarray, metric: Metric) -> np.ndarray:
    """Distances from every row of X to the single point y."""
    diff = X - y
    if metric is Metric.MANHATTAN:
        return np.abs(diff).sum(axis=1)
    sq = (diff * diff).sum(axis=1)
    if metric is Metric.SQEUCLIDEAN:
        return sq
    return np.sqrt(sq)


def _screened_nearest(A, B, a_sq, b_sq=None, exclude=None):
    """Nearest row of ``B`` to every row of ``A`` under squared Euclidean
    distance, ties to the lowest index, and that exact squared distance.

    ``a_sq`` holds the rows' squared norms of ``A`` (``b_sq`` of ``B``,
    computed when omitted); they only size the rounding slack below.
    ``exclude[i]``, when given, removes row ``exclude[i]`` of ``B`` from the
    search for row i; ``B`` must then have at least two rows. Returns
    ``(index, d2)``, two arrays of length len(A).

    Screen: S[i, j] = |b_j|^2 - 2 a_i.b_j ranks the pairs with one GEMM
    (|a_i|^2 is the same for a whole row, so it is left out). Decide: the
    exact row kernel of this module, ((a - b)**2).sum(), runs on every pair
    whose screen value lies within ``slack`` of its row's smallest, and its
    values alone pick the index.

    Slack. Let u = eps/2, g(n) = n*u/(1 - n*u), M = |a|^2 + max_j |b_j|^2,
    T = |a - b|^2 in exact arithmetic and s = T - |a|^2.
      - Screen error: 2*a.b from the GEMM errs by at most
        2*g(d)*sum|a_k b_k| <= g(d)*M, in any summation order and with or
        without FMA; |b|^2 errs by at most g(d)*M, and the final addition
        rounds a value of size about |s| <= 2M. So |S - s| <= 2*g(d+1)*M.
      - Kernel error: each term takes three roundings (difference, square)
        and the sum d - 1 more, so |E - T| <= g(d+2)*T <= g(d+2)*2M.
    If j* minimises E and j0 minimises S, then T[j*] - T[j0] <= 4*g(d+2)*M,
    hence S[j*] - S[j0] <= 8*g(d+2)*M <= 4.04*(d+2)*eps*M while (d+2)*u
    < 0.01. The slack is twice that, 8*(d+2)*eps*M, which also covers the
    rounding of the norms fed in and of S[j0] + slack. In gradual underflow
    each of the at most 6d products above can lose half a subnormal more,
    hence the absolute term. Non-finite thresholds (overflow) make every
    pair a candidate, so the exact kernel decides alone.
    """
    q = A.shape[0]
    if b_sq is None:
        b_sq = (B * B).sum(axis=1)
    S = A @ B.T
    S *= -2.0
    S += b_sq
    every = np.arange(q)
    if exclude is not None:
        S[every, exclude] = np.inf
    idx = S.argmin(axis=1)
    slack = 8 * (A.shape[1] + 2) * (_EPS * (a_sq + b_sq.max()) + _SUBNORMAL)
    thresh = S[every, idx] + slack
    cand = S <= thresh[:, None]
    overflow = ~np.isfinite(thresh)
    if overflow.any():  # every row is a candidate; pick the lowest allowed one
        cand[overflow] = True
        idx[overflow] = 0 if exclude is None else exclude[overflow] == 0
        if exclude is not None:
            cand[every, exclude] = False
    diff = A - B[idx]
    d2 = (diff * diff).sum(axis=1)
    cand[every, idx] = False
    if not cand.any():  # the usual case: the screen's pick is the only candidate
        return idx, d2
    rows, cols = np.nonzero(cand)  # the other candidates, by row, then index
    diff = A[rows] - B[cols]
    other = (diff * diff).sum(axis=1)
    order = np.lexsort((cols, other, rows))  # by row, then exact d2, then index
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = rows[order[1:]] != rows[order[:-1]]
    order = order[lead]  # each row's best other candidate
    rows, cols, other = rows[order], cols[order], other[order]
    wins = (other < d2[rows]) | ((other == d2[rows]) & (cols < idx[rows]))
    idx[rows[wins]] = cols[wins]
    d2[rows[wins]] = other[wins]
    return idx, d2


def distance(a, b, metric=Metric.EUCLIDEAN) -> float:
    """Distance between two vectors under the chosen metric."""
    metric = Metric.coerce(metric)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(a.shape[-1], b.shape[-1])
    return float(_rows_to_point(a.reshape(1, -1), b.reshape(-1), metric)[0])


def condensed_index(i: int, j: int, n: int) -> int:
    """Position of pair (i, j), i < j, in the condensed value sequence."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"invalid pair ({i}, {j}) for n={n}")
    if i > j:
        i, j = j, i
    return i * n - (i * (i + 1)) // 2 + (j - i - 1)


@dataclass(frozen=True)
class DistanceMatrix:
    """Condensed upper-triangular pairwise distances for n points.

    ``values[condensed_index(i, j, n)]`` holds d(i, j) for i < j; the
    diagonal is implicitly zero and symmetry comes from single storage.
    """

    n: int
    metric: Metric
    values: np.ndarray  # shape (n * (n - 1) / 2,)
    _dense: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        expected = self.n * (self.n - 1) // 2
        if vals.shape != (expected,):
            raise ValueError(
                f"expected {expected} condensed entries for n={self.n}, "
                f"got shape {vals.shape}"
            )
        if vals.size and vals.min() < 0:
            raise ValueError("distances must be non-negative")
        self.values.setflags(write=False)

    def get(self, i: int, j: int) -> float:
        if i == j:
            if not 0 <= i < self.n:
                raise IndexError(f"index {i} out of range for n={self.n}")
            return 0.0
        return float(self.values[condensed_index(i, j, self.n)])

    def square(self) -> np.ndarray:
        """The dense symmetric (n, n) array with a zero diagonal.

        Expanded on the first call and cached on the instance, so every
        caller shares one read-only array: the matrix then holds
        8*n*(n-1)/2 + 8*n*n bytes.
        """
        if self._dense is None:
            full = np.zeros((self.n, self.n), dtype=np.float64)
            start = 0
            for i in range(self.n - 1):
                stop = start + self.n - 1 - i
                full[i, i + 1 :] = self.values[start:stop]
                full[i + 1 :, i] = self.values[start:stop]
                start = stop
            full.setflags(write=False)
            object.__setattr__(self, "_dense", full)
        return self._dense


def pairwise_distances(X, metric=Metric.EUCLIDEAN) -> DistanceMatrix:
    """All pairwise distances, condensed.

    Accepts an (n, d) array or a Dataset. Entry (i, j) equals
    ``distance(X[i], X[j], metric)`` exactly.
    """
    metric = Metric.coerce(metric)
    X = as_feature_matrix(X)
    n = X.shape[0]
    values = np.empty(n * (n - 1) // 2, dtype=np.float64)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        values[start:stop] = _rows_to_point(X[i + 1 :], X[i], metric)
        start = stop
    return DistanceMatrix(n=n, metric=metric, values=values)


def nearest_neighbor(query, X, exclude: int | None = None, metric=Metric.EUCLIDEAN):
    """Index and distance of the row closest to ``query``.

    Ties break toward the lowest index; ``exclude`` removes one row from
    consideration (used for leave-one-out lookups).
    """
    metric = Metric.coerce(metric)
    X = as_feature_matrix(X)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != X.shape[1]:
        raise DimensionMismatchError(query.shape[0], X.shape[1])
    if X.shape[0] - (1 if exclude is not None else 0) < 1:
        raise EmptyCandidateSetError("no candidate rows to search")
    dists = _rows_to_point(X, query, metric)
    if exclude is not None:
        if not 0 <= exclude < X.shape[0]:
            raise IndexError(f"exclude index {exclude} out of range")
        dists = dists.copy()
        dists[exclude] = np.inf
    idx = int(np.argmin(dists))
    return idx, float(dists[idx])
