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
from typing import NamedTuple

import numpy as np

from ._checks import as_feature_matrix
from .exceptions import DimensionMismatchError, EmptyCandidateSetError


_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

#: elements per screen temporary (256 KB of float64): screens walk their
#: queries or rows in blocks of this many distances, so memory stays flat as
#: n grows
_SCREEN_ELEMENTS = 32768


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


class _Rows(NamedTuple):
    """Rows prepared for :func:`_screened_nearest`: ``raw``, which the exact
    kernel reads, and ``shifted`` = raw - center with its squared row norms
    ``sq`` and their largest, ``top``, which the screen reads. Both sides of
    one search share the center."""

    raw: np.ndarray
    shifted: np.ndarray
    sq: np.ndarray
    top: float


def _rows(raw, center) -> _Rows:
    """``raw`` prepared for the screen, shifted by ``center``."""
    with np.errstate(over="ignore", invalid="ignore"):  # the screen's overflow
        shifted = raw - center
        sq = (shifted * shifted).sum(axis=1)
    return _Rows(raw, shifted, sq, sq.max())


def _screened_nearest(A: _Rows, B: _Rows, exclude=None):
    """Nearest row of ``B`` to every row of ``A`` under squared Euclidean
    distance, ties to the lowest index, and that exact squared distance.

    ``exclude[i]``, when given, removes row ``exclude[i]`` of ``B`` from the
    search for row i; ``B`` must then have at least two rows. Returns
    ``(index, d2)``, two arrays of length len(A).

    Screen: S[i, j] = |b'_j|^2 + (-2 a'_i).b'_j ranks the pairs with one GEMM,
    on the rows shifted by a common center, a' = a - c and b' = b - c
    (|a'_i|^2 is the same for a whole row, so it is left out). Decide: the
    exact row kernel of this module, ((a - b)**2).sum() on the raw rows,
    runs on every pair whose screen value lies within ``slack`` of its row's
    smallest, and its values alone pick the index. Any finite center gives
    the same result; one near the data, such as its mean, keeps the slack
    small, because the slack grows with the shifted norms.

    Slack. Let u = eps/2, g(n) = n*u/(1 - n*u), M = max_i |a'_i|^2 +
    max_j |b'_j|^2 (``top`` of both sides; one row's |a'|^2 would do),
    T = |a - b|^2 in exact arithmetic, T' = |a' - b'|^2 for the rounded
    shifted rows, and s = T' - |a'|^2.
      - Shift error: each coordinate of a' - b' differs from a - b by at
        most 1.01*u*(|a'_k| + |b'_k|), so |T' - T| <= 4.1*u*M.
      - Screen error: (-2a').b' from the GEMM errs by at most
        2*g(d)*sum|a'_k b'_k| <= g(d)*M, in any summation order and with or
        without FMA; |b'|^2 errs by at most g(d)*M, and the final addition
        rounds a value of size about |s| <= 2M. So |S - s| <= 2*g(d+1)*M.
      - Kernel error: each term takes three roundings (difference, square)
        and the sum d - 1 more, so |E - T| <= g(d+2)*T <= g(d+2)*2.01M.
    If j* minimises E and j0 minimises S, then T[j*] - T[j0] <= 4.03*g(d+2)*M,
    hence S[j*] - S[j0] <= 8.03*g(d+2)*M + 8.2*u*M <= (4.06*(d+2) + 4.1)*eps*M
    while (d+2)*u < 0.01. The slack, 8*(d+2)*eps*M, exceeds that by
    (3.94*(d+2) - 4.1)*eps*M > 7.7*eps*M for every d >= 1, which also covers
    the rounding of the norms and of S[j0] + slack. Sums and differences,
    the shift's among them, are exact in gradual underflow, but each of the
    at most 6d products above can lose half a subnormal more, hence the
    absolute term. Non-finite thresholds (overflow) make every pair a
    candidate, so the exact kernel decides alone.
    """
    idx, cand = _candidates(A, B, exclude)
    every = np.arange(A.raw.shape[0])
    diff = A.raw - B.raw[idx]
    d2 = (diff * diff).sum(axis=1)
    cand[every, idx] = False
    if not cand.any():  # the usual case: the screen's pick is the only candidate
        return idx, d2
    rows, cols = np.nonzero(cand)  # the other candidates, by row, then index
    diff = A.raw[rows] - B.raw[cols]
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


def _candidates(A: _Rows, B: _Rows, exclude=None):
    """The screen of :func:`_screened_nearest`: each row's pick ``idx`` and
    the (len(A), len(B)) mask of the pairs the exact kernel must check,
    every row's pick among them."""
    q = A.raw.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):  # the screen's overflow
        if q <= B.raw.shape[0]:  # scale the smaller side; doubling is exact
            S = (-2.0 * A.shifted) @ B.shifted.T
        else:
            S = A.shifted @ (-2.0 * B.shifted).T
        S += B.sq
        every = np.arange(q)
        if exclude is not None:
            S[every, exclude] = np.inf
        idx = S.argmin(axis=1)
        slack = 8 * (A.raw.shape[1] + 2) * (_EPS * (A.top + B.top) + _SUBNORMAL)
        thresh = S[every, idx] + slack
        cand = S <= thresh[:, None]
    overflow = ~np.isfinite(thresh)
    if overflow.any():  # every row is a candidate; pick the lowest allowed one
        cand[overflow] = True
        idx[overflow] = 0 if exclude is None else exclude[overflow] == 0
        if exclude is not None:
            cand[every, exclude] = False
    return idx, cand


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
