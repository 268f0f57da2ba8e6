"""Distance kernels and the dense pairwise distance matrix.

Every distance is computed by one shared row kernel: coordinate differences,
then a numpy sum over each row. numpy sums a row pairwise (8-way unrolled
once a row has 8 or more coordinates), not strictly left to right, but a
row's sum depends only on that row's values, never on how many rows are in
the call. So a distance computed in a batch, in a block of the dense
pairwise matrix, for one pair, or in the screened search is the same bit
pattern, and results match a naive per-pair computation exactly.

The screened search, :func:`_nearest`, ranks pairs with a GEMM and returns
indices alone; it runs the exact kernel only on the rows its screen leaves
more than one candidate. It searches the centres of many K-means restarts
at once, each group of centres on its own. :func:`_screened_nearest` adds
one exact pass over the picks for callers that need the distances too
(Hopkins); Lloyd's step needs them only to repair an empty cluster, and
computes them then.

Memory. This module alone sizes the package's temporaries. Every blocked
walk (the screened nearest search here, the build of the dense matrix,
PAM's BUILD and SWAP over its rows, and K-means' groups of restarts, whose
screen, seeding distances and centre sums each take a block) holds about
``_SCREEN_ELEMENTS`` float64 values (256 KB) per block, with row or restart
counts from :func:`_block_rows` (one, when one alone is larger), so memory
stays flat as n and the number of restarts grow. The dense (n, n) matrix is
the one O(n^2) allocation: :func:`pairwise_distances` refuses n points of d
features, with :class:`AnalysisError` and before it allocates anything, when
the matrix's 8n² bytes plus one block of its build,
8*max(_SCREEN_ELEMENTS, n*d) bytes, exceed :func:`physical_memory`.
"""

from __future__ import annotations

import enum
import os
from typing import NamedTuple

import numpy as np

from ._checks import as_feature_matrix
from .exceptions import AnalysisError, DimensionMismatchError


_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

#: elements per block temporary (256 KB of float64)
_SCREEN_ELEMENTS = 32768


def _block_rows(width: int) -> int:
    """Rows per block when a row holds ``width`` elements: about
    _SCREEN_ELEMENTS elements, and at least one row."""
    return max(1, _SCREEN_ELEMENTS // width)


def physical_memory() -> int:
    """Bytes of physical memory of the host the program runs on."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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
    """Distances from every row of X to the single point y, or between the
    rows of X and y broadcast against each other."""
    diff = X - y
    if metric is Metric.MANHATTAN:
        return np.abs(diff).sum(axis=-1)
    sq = (diff * diff).sum(axis=-1)
    if metric is Metric.SQEUCLIDEAN:
        return sq
    return np.sqrt(sq)


class _Rows(NamedTuple):
    """Rows prepared for :func:`_nearest`: ``raw``, which the exact
    kernel reads, and ``shifted`` = raw - center with its squared row norms
    ``sq`` and their largest, ``top``, which the screen reads. Both sides of
    one search share the center. The searched side may hold g groups of m
    rows: ``raw`` (g, m, d), ``sq`` (g, m) and ``top`` (g,), one per group."""

    raw: np.ndarray
    shifted: np.ndarray
    sq: np.ndarray
    top: float | np.ndarray


def _rows(raw, center) -> _Rows:
    """``raw`` prepared for the screen, shifted by ``center``."""
    with np.errstate(over="ignore", invalid="ignore"):  # the screen's overflow
        shifted = raw - center
        sq = (shifted * shifted).sum(axis=-1)
    return _Rows(raw, shifted, sq, sq.max(axis=-1))


def _screened_nearest(A: _Rows, B: _Rows, exclude=None):
    """:func:`_nearest` and the exact squared distance of each row of ``A``
    to its pick: ``(index, d2)``, two arrays of length len(A)."""
    idx = _nearest(A, B, exclude)
    return idx, _rows_to_point(A.raw, np.take(B.raw, idx, axis=0), Metric.SQEUCLIDEAN)


def _nearest(A: _Rows, B: _Rows, exclude=None):
    """Index of the nearest row of ``B`` to every row of ``A`` under squared
    Euclidean distance, ties to the lowest index. When ``B`` holds g groups
    of rows, each group is searched on its own and the result is the
    (g, len(A)) array of indices within the groups.

    ``exclude[i]``, when given, removes row ``exclude[i]`` of ``B`` (one
    group) from the search for row i; ``B`` must then have at least two
    rows. The rows of ``A`` are searched in blocks of
    ``_block_rows(B.sq.size)``; a row's result does not depend on the other
    rows of its block.

    Screen: S[i, j] = |b'_j|^2 + (-2 a'_i).b'_j ranks the pairs with one GEMM,
    on the rows shifted by a common center, a' = a - c and b' = b - c
    (|a'_i|^2 is the same for a whole row, so it is left out). Decide: a
    row keeps the pairs whose screen value lies within ``slack`` of its
    smallest. A row left with one pair takes it; on a row left with more,
    the exact row kernel of this module, ((a - b)**2).sum() on the raw rows,
    runs on each of them, and its values alone pick the index. Any finite
    center gives the same result; one near the data, such as its mean,
    keeps the slack small, because the slack grows with the shifted norms.
    The layout of S and the order of the GEMM's sums change nothing below.

    Slack. Let u = eps/2, g(n) = n*u/(1 - n*u), M = max_i |a'_i|^2 +
    max_j |b'_j|^2 (``top`` of both sides, of the group searched; one row's
    |a'|^2 would do), T = |a - b|^2 in exact arithmetic, T' = |a' - b'|^2
    for the rounded shifted rows, and s = T' - |a'|^2.
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
    if B.raw.ndim == 2:
        return _nearest(A, _grouped(B), exclude)[0]
    step = _block_rows(B.sq.size)
    if A.raw.shape[0] <= step:
        return _nearest_block(A, B, exclude)
    idx = np.empty((B.sq.shape[0], A.raw.shape[0]), dtype=np.intp)
    for s in range(0, idx.shape[1], step):
        part = slice(s, s + step)
        block = _Rows(A.raw[part], A.shifted[part], A.sq[part], A.top)
        idx[:, part] = _nearest_block(block, B, None if exclude is None else exclude[part])
    return idx


def _grouped(B: _Rows) -> _Rows:
    """``B`` as g groups of rows: one group, when it holds plain rows."""
    if B.raw.ndim == 3:
        return B
    return _Rows(B.raw[None], B.shifted[None], B.sq[None], np.reshape(B.top, 1))


def _nearest_block(A: _Rows, B: _Rows, exclude=None):
    """:func:`_nearest` on one block of rows of ``A`` and the g groups of
    ``B``: a (g, len(A)) array."""
    idx, cand = _candidates(A, B, exclude)
    if np.count_nonzero(cand) == idx.size:  # the usual case: each pick is its row's only candidate
        return idx
    multi = np.flatnonzero(np.count_nonzero(cand, axis=1) > 1)  # places in idx
    group, rows = np.divmod(multi, idx.shape[1])
    at, cols = np.nonzero(cand[group, :, rows])  # their candidates, by place, then index
    d2 = _rows_to_point(A.raw[rows[at]], B.raw[group[at], cols], Metric.SQEUCLIDEAN)
    order = np.lexsort((cols, d2, at))  # by place, then exact d2, then index
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = at[order[1:]] != at[order[:-1]]
    idx.flat[multi[at[order[lead]]]] = cols[order[lead]]  # each row's best candidate
    return idx


def _candidates(A: _Rows, B: _Rows, exclude=None):
    """The screen of :func:`_nearest`, on B's g groups of m rows: each row's
    pick in each group, ``idx`` (g, len(A)), and the (g, m, len(A)) mask of
    the pairs it keeps, every pick among them (in the first layout below, a
    transposed view).

    The layout of S follows the shapes. Rows of B many against rows of A
    few (Hopkins' queries against the data, and any search with
    exclusions): a row of S holds one row of A against all of B, and its
    ``argmin`` is the pick. Rows of B few, in one or many groups, against
    rows of A many (K-means' centres against the data): a row of S holds
    one row of B against all of A, so the minimum over the rows of a group
    runs across contiguous rows of S, and a row's pick is read off its one
    candidate, the only case that keeps it.
    """
    B = _grouped(B)
    (g, m, d), q = B.raw.shape, A.raw.shape[0]
    rows_first = g == 1 and (q < m or exclude is not None)
    top = A.top + (B.top[0] if rows_first else B.top)  # a scalar costs less per block
    slack = 8 * (d + 2) * _EPS * top + 8 * (d + 2) * _SUBNORMAL
    with np.errstate(over="ignore", invalid="ignore"):  # the screen's overflow
        if not rows_first:
            S = (-2.0 * B.shifted).reshape(g * m, d) @ A.shifted.T  # doubling is exact
            S = S.reshape(g, m, q)
            S += B.sq[:, :, None]
            thresh = S.min(axis=1) + slack[:, None]
            cand = S <= thresh[:, None, :]
            if not np.isfinite(thresh).all():  # overflow: every pair of those rows is a candidate
                cand |= ~np.isfinite(thresh)[:, None, :]
            # a row's one candidate j is the sum of j over its candidates;
            # rows with more are decided by the exact kernel
            order = np.arange(m, dtype=np.min_scalar_type(m))
            return np.einsum("gmq,m->gq", cand, order).astype(np.intp), cand
        S = (-2.0 * A.shifted) @ B.shifted[0].T
        S += B.sq[0]
        every = np.arange(q)
        if exclude is not None:
            S[every, exclude] = np.inf
        idx = S.argmin(axis=1)
        thresh = S[every, idx] + slack
        cand = S <= thresh[:, None]
    overflow = ~np.isfinite(thresh)
    if overflow.any():  # every row is a candidate; pick the lowest allowed one
        cand[overflow] = True
        idx[overflow] = 0 if exclude is None else exclude[overflow] == 0
        if exclude is not None:
            cand[every, exclude] = False
    return idx[None], cand.T[None]


def distance(a, b, metric=Metric.EUCLIDEAN) -> float:
    """Distance between two vectors under the chosen metric."""
    metric = Metric.coerce(metric)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(a.shape[-1], b.shape[-1])
    return float(_rows_to_point(a.reshape(1, -1), b.reshape(-1), metric)[0])


class DistanceMatrix:
    """Pairwise distances of n points under ``metric``, held as one dense,
    read-only (n, n) array.

    The array must have a zero diagonal and be exactly symmetric: PAM and
    the silhouette read row j where they mean column j.
    :func:`pairwise_distances` builds it so.
    """

    def __init__(self, square, metric=Metric.EUCLIDEAN):
        D = np.asarray(square, dtype=np.float64)
        if D.ndim != 2 or D.shape[0] != D.shape[1]:
            raise ValueError(f"expected a square distance matrix, got shape {D.shape}")
        if D.size and D.min() < 0:
            raise ValueError("distances must be non-negative")
        D.setflags(write=False)
        self.n, self.metric, self._square = D.shape[0], Metric.coerce(metric), D

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"invalid pair ({i}, {j}) for n={self.n}")
        return float(self._square[i, j])

    def square(self) -> np.ndarray:
        """The dense (n, n) array, 8*n*n bytes, shared by every caller."""
        return self._square


def pairwise_distances(X, metric=Metric.EUCLIDEAN) -> DistanceMatrix:
    """All pairwise distances.

    Accepts an (n, d) array or a Dataset. Entry (i, j) equals
    ``distance(X[i], X[j], metric)`` exactly. Rows are computed in blocks
    of b rows from s on: the block's upper triangle, ``X[s:s+b]`` against
    ``X[s:]`` (b*(n - s)*d differences, about ``_SCREEN_ELEMENTS``), is
    written to its rows and mirrored into its columns. Negation is exact,
    so the result is exactly symmetric. Raises :class:`AnalysisError`,
    before allocating, when the matrix would not fit in memory (see the
    module docstring).
    """
    metric = Metric.coerce(metric)
    X = as_feature_matrix(X)
    n, d = X.shape
    need, have = 8 * n * n + 8 * max(_SCREEN_ELEMENTS, n * d), physical_memory()
    if need > have:
        raise AnalysisError(f"{n} points need {need / 1e6:.1f} MB for their pairwise distance "
                            f"matrix, more than the {have / 1e6:.1f} MB of physical memory")
    D = np.empty((n, n))
    s = 0
    while s < n:
        e = s + _block_rows((n - s) * d)
        block = _rows_to_point(X[s:e, None], X[None, s:], metric)
        D[s:e, s:] = block
        D[s:, s:e] = block.T
        s = e
    return DistanceMatrix(D, metric)
