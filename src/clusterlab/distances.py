"""Distance kernels and the dense pairwise distance matrix.

Every distance has the bits of one row kernel, :func:`_rows_to_point`:
coordinate differences, then a numpy sum over each row. numpy sums a row
pairwise (8-way unrolled once a row has 8 or more coordinates), not strictly
left to right, but a row's sum depends only on that row's values, never on
how many rows are in the call. So a distance computed in a batch, for one
pair, or in the screened search is the same bit pattern, and results match
a naive per-pair computation exactly. Two kernels compute it:
  - the row kernel itself, for small and gathered calls: a Lloyd step's
    centre shifts, the distances to picks (:func:`_d2_to_picks`) and the
    screen's recheck. A call costs a few ufunc calls, where the other
    kernel would cost two or three per coordinate;
  - :func:`_to_columns`, the one coordinate-major kernel, for the wide
    passes: the dense pairwise matrix (:func:`pairwise_distances`) and the
    k-means++ seeding distances of a group of restarts (``kmeans._starts``).
    It measures rows against the columns of a transposed operand in any
    layout (seeding reads the view ``X.T`` in place), adding the d terms
    of many entries one coordinate at a time, in numpy's row-sum order
    (:func:`_summation_order`), on registers that it allocates itself,
    where numpy's sum over a short last axis is slow; the entries keep the
    row kernel's bits. Only it knows that order.

The screened search, :func:`_nearest`, ranks pairs with a GEMM and returns
indices alone; it runs the exact kernel only on the rows its screen leaves
more than one candidate. :func:`_rows` prepares each side of a search once,
as one C-contiguous operand in the layout the GEMM reads: a row of ones, the
rows shifted by a common center and transposed, and their squared norms.
:func:`_screen` builds the other side's left operand, the slack and the
index vector once per search; each block then runs one GEMM on contiguous
operands into one reused buffer, which yields the ranking values, norms
included, and then the exclusions, the minimum, the candidate mask and its
count. It searches the centres of many K-means restarts at once,
each group of centres on its own. :func:`_screened_nearest` adds one exact
pass over the picks for callers that need the distances too (Hopkins);
Lloyd's step needs them only to repair an empty cluster, and computes them
then.

Memory. This module alone sizes the package's temporaries. Every blocked
walk (the screened nearest search here, the build of the dense matrix,
PAM's BUILD and SWAP over its rows, and K-means' groups of restarts, whose
(g, n) arrays, the labels, their bins and the seeding distances, take half
a block each, and whose screen and centre sums walk blocks of their own)
holds about ``_SCREEN_ELEMENTS`` float64 values (256 KB) per block, with
row or restart counts from :func:`_block_rows` (one, when one alone is
larger), and a few such blocks at once, so memory stays flat as n, k and
the number of restarts grow. :func:`_to_columns`' registers take half a
block each. The row kernel's calls over many rows (the distances to the
picks: K-means' objective and repair, Hopkins' distances) walk blocks of
``_block_rows(d)`` rows. A search holds one prepared operand per side,
(d + 2)*m values for m rows, beside the rows themselves, which it reads in
place, and one left operand, (d + 1) values per row of the side it is built
from. The rows-first screen (Hopkins' queries, and any search with
exclusions or of one group of more than 256 rows, against m rows of B) is
the one walk whose blocks are wider:
:func:`_query_rows` gives each block 2*_SCREEN_ELEMENTS // m queries (a
block of S of 512 KB), or d + 1 when that is more, so that a block of S
holds no more values than B's prepared operand, which the search holds
anyway. Each block's GEMM reads the whole right operand, so wider blocks
cost less per query until S leaves the cache. Measured on 2 vCPUs with
2 MB of L2 each, one BLAS thread a process: at n = 6000, d = 9, blocks of
10 to 16 queries were the fastest, and 16 raised a Hopkins call's traced
peak from 1.0 to 1.6 MB, where 10 raised it to 1.3 MB. For n from 683 to
20,000 and d from 2 to 80 the rule stayed near the best fixed block,
except at n = 20,000, d = 9, where 4 or 5 queries a block were about 20 %
faster than its 10. The dense (n, n) matrix is the one O(n^2) allocation:
:func:`pairwise_distances` refuses n points of d features, with
:class:`AnalysisError` and before it allocates anything, when the matrix's
8n² bytes plus 8*max(_SCREEN_ELEMENTS, n*d) bytes for its build exceed
:func:`memory_budget`, the least of the limits this process runs under.
"""

from __future__ import annotations

import enum
import functools
import os
from typing import NamedTuple

import numpy as np

from ._checks import as_feature_matrix, check_domain
from .exceptions import AnalysisError, DimensionMismatchError


_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal

#: elements per block temporary (256 KB of float64)
_SCREEN_ELEMENTS = 32768


def _block_rows(width: int) -> int:
    """Rows per block when a row holds ``width`` elements: about
    _SCREEN_ELEMENTS elements, and at least one row."""
    return max(1, _SCREEN_ELEMENTS // width)


def _query_rows(m: int, d: int) -> int:
    """Rows of A per block of :func:`_screen`'s rows-first layout, against
    m rows of B of d features: two block temporaries' worth of S
    (2*_SCREEN_ELEMENTS values), or d + 1 rows, when more, so that a block
    of S holds as many values as the right operand its GEMM reads."""
    return max(2 * _SCREEN_ELEMENTS // m, d + 1)


def physical_memory() -> int:
    """Bytes of physical memory of the host the program runs on."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _read(path: str) -> str | None:
    """The text of the file at ``path``, or None where it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError):
        return None


def _rlimit_room(name: str, field: str):
    """``(bytes, words naming the limit)``: the room left under the soft
    limit ``resource.<name>`` by what ``field`` of ``/proc/self/status``
    counts; None when there is no such limit or either cannot be read."""
    try:
        import resource  # POSIX only
        soft = resource.getrlimit(getattr(resource, name))[0]
    except (ImportError, AttributeError):
        return None
    if soft == resource.RLIM_INFINITY:
        return None
    used = [int(line.split()[1]) * 1024  # in kB
            for line in (_read("/proc/self/status") or "").splitlines()
            if line.startswith(f"{field}:")]
    return (max(0, soft - used[0]), f"left under {name}") if used else None


#: per cgroup version: the root of its hierarchy, the files of the memory
#: limit and of the usage, and the key of ``memory.stat`` that counts the
#: inactive page cache, which the kernel reclaims before its OOM killer runs
_CGROUP_MEMORY = {
    2: ("/sys/fs/cgroup", "memory.max", "memory.current", "inactive_file"),
    1: ("/sys/fs/cgroup/memory", "memory.limit_in_bytes", "memory.usage_in_bytes",
        "total_inactive_file"),
}


def _bytes(text: str | None) -> int | None:
    """The count of bytes ``text`` holds, or None (for ``max`` or no file)."""
    text = (text or "").strip()
    return int(text) if text.isdigit() else None


def _stat_bytes(directory: str, key: str) -> int:
    """The bytes that ``key`` counts in ``memory.stat`` of ``directory``, or 0."""
    for line in (_read(f"{directory}/memory.stat") or "").splitlines():
        name, _, value = line.partition(" ")
        if name == key:
            return _bytes(value) or 0
    return 0


def _cgroup_limits():
    """The room left under the memory limit of this process's cgroup and of
    each of its ancestors, on the paths ``/proc/self/cgroup`` gives, as
    ``(bytes, words naming the limit's file)``: cgroup v2's ``memory.max``
    less ``memory.current``, v1's ``memory.limit_in_bytes`` less
    ``memory.usage_in_bytes``, each read in the same directory. The usage
    does not count the inactive page cache that ``memory.stat`` of that
    directory gives; a usage that cannot be read counts as 0. A v2 ``max``
    and a limit that cannot be read set no limit."""
    found = []
    for line in (_read("/proc/self/cgroup") or "").splitlines():
        _, controllers, path = line.split(":", 2)
        if not controllers:
            version = 2
        elif "memory" in controllers.split(","):
            version = 1
        else:
            continue
        root, limit_name, usage_name, cache_key = _CGROUP_MEMORY[version]
        parts = [p for p in path.split("/") if p]
        for depth in range(len(parts), -1, -1):
            directory = "/".join([root, *parts[:depth]])
            limit = _bytes(_read(f"{directory}/{limit_name}"))
            if limit is None:
                continue
            used = ((_bytes(_read(f"{directory}/{usage_name}")) or 0)
                    - _stat_bytes(directory, cache_key))
            found.append((max(0, limit - max(0, used)),
                          f"left under the cgroup limit {directory}/{limit_name}"))
    return found


def memory_budget() -> tuple[int, str]:
    """The bytes this process may still allocate, and the words that name
    the limit: the least of physical memory (:func:`physical_memory`), the
    room left under the soft ``RLIMIT_AS`` (less ``VmSize``) and
    ``RLIMIT_DATA`` (less ``VmData``), and the room left under the memory
    limit of the process's cgroup and of each ancestor (less its usage,
    :func:`_cgroup_limits`). It only reads; a limit that cannot be read
    counts as none."""
    limits = [(physical_memory(), "of physical memory"),
              _rlimit_room("RLIMIT_AS", "VmSize"), _rlimit_room("RLIMIT_DATA", "VmData"),
              *_cgroup_limits()]
    return min((limit for limit in limits if limit), key=lambda limit: limit[0])


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
    """Rows prepared for :func:`_nearest`: ``raw``, which the exact kernel
    reads, and what the screen reads: ``operand``, the C-contiguous
    (d + 2, m) array of a row of ones, the shifted rows raw - center
    transposed, and their squared norms, and ``top``, the largest of those
    norms. Both sides of one search share the center. The searched side may
    hold g groups of m rows: ``raw`` (g, m, d), ``operand`` (g, d + 2, m)
    and ``top`` (g,), one per group."""

    raw: np.ndarray
    operand: np.ndarray
    top: float | np.ndarray


def _rows(raw, center) -> _Rows:
    """``raw``, (m, d) or (g, m, d), prepared for the screen around
    ``center``: (d + 2) values per row, written once for the whole search."""
    *groups, m, d = raw.shape
    operand = np.empty((*groups, d + 2, m))
    operand[..., 0, :] = 1.0
    shifted, sq = operand[..., 1:d + 1, :], operand[..., d + 1, :]
    np.subtract(raw, center, out=shifted.swapaxes(-1, -2))
    np.einsum("...km,...km->...m", shifted, shifted, out=sq)
    return _Rows(raw, operand, sq.max(axis=-1))


def _d2_to_picks(X, Y, idx):
    """Exact squared distance of each row i of ``X`` to row ``idx[i]`` of
    ``Y``, in blocks of ``_block_rows(d)`` rows."""
    d2 = np.empty(X.shape[0])
    step = _block_rows(X.shape[1])
    for s in range(0, d2.size, step):
        d2[s:s + step] = _rows_to_point(X[s:s + step], np.take(Y, idx[s:s + step], axis=0),
                                        Metric.SQEUCLIDEAN)
    return d2


def _screened_nearest(A: _Rows, B: _Rows, exclude=None):
    """:func:`_nearest` and the exact squared distance of each row of ``A``
    to its pick: ``(index, d2)``, two arrays of length len(A)."""
    idx = _nearest(A, B, exclude)
    return idx, _d2_to_picks(A.raw, B.raw, idx)


def _nearest(A: _Rows, B: _Rows, exclude=None):
    """Index of the nearest row of ``B`` to every row of ``A`` under squared
    Euclidean distance, ties to the lowest index. When ``B`` holds g groups
    of rows, each group is searched on its own and the result is the
    (g, len(A)) array of indices within the groups.

    ``exclude[i]``, when given, removes row ``exclude[i]`` of ``B`` (one
    group) from the search for row i; ``B`` must then have at least two
    rows. The rows of ``A`` are searched in blocks (see :func:`_screen`);
    a row's result does not depend on the other rows of its block, nor on
    their number.

    Screen: S[i, j] = |b'_j|^2 + (-2 a'_i).b'_j ranks the pairs with one GEMM,
    on the rows shifted by a common center, a' = a - c and b' = b - c
    (|a'_i|^2 is the same for a whole row, so it is left out). The norm
    |b'_j|^2 is one more term of the GEMM's sums, against a 1 on A's side
    (see :func:`_screen`). Decide: a
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
      - Screen error: the computed norm N errs from |b'|^2 by at most
        g(d)*|b'|^2. The GEMM sums d + 1 terms, -2a'_k b'_k and 1*N, whose
        magnitudes add up to at most |a'|^2 + |b'|^2 + N
        <= M + (1 + g(d))*|b'|^2, and errs by at most g(d+1) times that, in
        any summation order and with or without FMA (doubling and the
        product by 1 are exact). With the norm's own error,
        |S - s| <= g(d+1)*M + ((1 + g(d))*g(d+1) + g(d))*|b'|^2
        <= (3 + g(d))*g(d+1)*M <= 3.01*g(d+1)*M.
      - Kernel error: each term takes three roundings (difference, square)
        and the sum d - 1 more, so |E - T| <= g(d+2)*T <= g(d+2)*2.01M.
    If j* minimises E and j0 minimises S, then T[j*] - T[j0] <= 4.03*g(d+2)*M,
    hence S[j*] - S[j0] <= 10.05*g(d+2)*M + 8.2*u*M
    <= (5.08*(d+2) + 4.1)*eps*M while (d+2)*u < 0.01. The slack,
    8*(d+2)*eps*M, exceeds that by (2.92*(d+2) - 4.1)*eps*M >= 4.6*eps*M
    for every d >= 1, which also covers the rounding of the norms in M, of
    the slack and of S[j0] + slack (about 1.1*eps*M together). Sums and
    differences, the shift's among them, are exact in gradual underflow,
    but each of the at most 6d products above can lose half a subnormal
    more (the product by 1 is exact), hence the absolute term. The GEMM's
    partial sums stay below 2*M*(1 + g(d+1)), and the slack is computed
    from 4*M; on rows that ``_checks.check_domain`` accepts, no value here
    overflows.
    """
    plain, B = B.raw.ndim == 2, _grouped(B)
    idx = np.empty((B.raw.shape[0], A.raw.shape[0]), dtype=np.intp)
    for part, pick, cand in _screen(A, B, exclude):
        if np.count_nonzero(cand) != pick.size:  # else each pick is its row's only candidate
            _decide(pick, cand, A.raw[part], B.raw)
        idx[:, part] = pick
    return idx[0] if plain else idx


def _grouped(B: _Rows) -> _Rows:
    """``B`` as g groups of rows: one group, when it holds plain rows."""
    if B.raw.ndim == 3:
        return B
    return _Rows(B.raw[None], B.operand[None], np.reshape(B.top, 1))


def _decide(idx, cand, a, b):
    """The exact kernel's decision on the rows of ``a``, (rows, d), that the
    screen left more than one candidate in a group of ``b``, (g, m, d):
    each such entry of ``idx``, (g, rows), becomes the candidate of ``cand``,
    (g, m, rows), nearest by the exact kernel, ties to the lowest index."""
    multi = np.flatnonzero(np.count_nonzero(cand, axis=1) > 1)  # places in idx
    group, rows = np.divmod(multi, idx.shape[1])
    at, cols = np.nonzero(cand[group, :, rows])  # their candidates, by place, then index
    d2 = _rows_to_point(a[rows[at]], b[group[at], cols], Metric.SQEUCLIDEAN)
    order = np.lexsort((cols, d2, at))  # by place, then exact d2, then index
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = at[order[1:]] != at[order[:-1]]
    idx.flat[multi[at[order[lead]]]] = cols[order[lead]]  # each row's best candidate


def _screen(A: _Rows, B: _Rows, exclude=None):
    """The screen of :func:`_nearest` on B's g groups of m rows, prepared
    once for the search and run block by block over the rows of ``A``. It
    yields, per block, the ``slice`` of its rows, each row's pick in each
    group, ``idx`` (g, rows), and the (g, m, rows) mask of the pairs it
    keeps, every pick among them. The arrays are buffers that the next
    block overwrites.

    S comes from one GEMM per block, into one reused buffer. Its right
    operand is one side's prepared operand, read in place; the other
    side's left operand, (rows, d + 1), and the slack are built once per
    search. The layout of S follows the shapes. One group of B's rows, when
    they outnumber A's or 256, or a search with exclusions (Hopkins'
    queries against the data): [-2a', 1] against B's ``operand[1:]``, so a
    row of S holds one row of A against all of B, its ``argmin`` is the
    pick, and blocks hold ``_query_rows(m, d)`` rows of A. (7,200 queries
    against m rows, one thread: as fast as the other layout at m = 200, 2 to
    13 times faster at m = 1,000 to 6,000 for d = 2 to 40, where the other
    layout's blocks shrink to 32768 / m rows of A and each block's minimum
    runs down m strided rows.) Rows of B few, in one or many
    groups, against rows of A many (K-means' centres against the data):
    [|b'|^2, -2b'] against A's ``operand[:d + 1]``, so a row of S holds one
    row of B against all of A, the minimum over the rows of a group runs
    across contiguous rows of S, a row's pick is read off its one candidate,
    the only case that keeps it, and blocks hold ``_block_rows(g*m)`` rows
    of A.
    """
    B = _grouped(B)
    (g, m, d), q = B.raw.shape, A.raw.shape[0]
    slack = 2 * (d + 2) * _EPS * (4 * (A.top + B.top)) + 8 * (d + 2) * _SUBNORMAL  # see _nearest
    if g == 1 and (q < m or m > 256 or exclude is not None):
        left = np.empty((q, d + 1))
        np.multiply(A.operand[1:d + 1].T, -2.0, out=left[:, :d])  # doubling is exact
        left[:, d] = 1.0
        step = min(_query_rows(m, d), q)
        S, cand = np.empty((step, m)), np.empty((step, m), dtype=bool)
        idx, every = np.empty((1, step), dtype=np.intp), np.arange(step)
        for s in range(0, q, step):
            part, r = slice(s, s + step), min(step, q - s)
            block = np.matmul(left[part], B.operand[0, 1:], out=S[:r])
            if exclude is not None:
                block[every[:r], exclude[part]] = np.inf
            pick = np.argmin(block, axis=1, out=idx[0, :r])
            np.less_equal(block, (block[every[:r], pick] + slack)[:, None], out=cand[:r])
            yield part, idx[:, :r], cand[:r].T[None]
        return
    left = np.empty((g, m, d + 1))
    left[:, :, 0] = B.operand[:, d + 1]
    np.multiply(B.operand[:, 1:d + 1].swapaxes(1, 2), -2.0, out=left[:, :, 1:])  # exact
    left, slack = left.reshape(g * m, d + 1), np.reshape(slack, (-1, 1))
    # a row's one candidate j is the sum of j over its candidates; rows
    # with more are decided by the exact kernel
    order = np.arange(m, dtype=np.min_scalar_type(m))
    step = min(_block_rows(g * m), q)
    S, cand = np.empty(g * m * step), np.empty(g * m * step, dtype=bool)
    for s in range(0, q, step):
        part, size = slice(s, s + step), g * m * min(step, q - s)
        block = np.matmul(left, A.operand[:d + 1, part], out=S[:size].reshape(g * m, -1))
        block = block.reshape(g, m, -1)
        mask = np.less_equal(block, (block.min(axis=1) + slack)[:, None, :],
                             out=cand[:size].reshape(block.shape))
        yield part, np.einsum("gmq,m->gq", mask, order).astype(np.intp), mask


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
        if D.size and not D.min() >= 0:  # NaN fails too
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


def _summation_order(lo, hi):
    """The order in which numpy's ``sum`` over a contiguous last axis adds
    terms ``lo`` to ``hi - 1`` of a row (its pairwise sum): a leaf is a
    term's index, a pair ``(a, b)`` is a + b. Fewer than 8 terms add left to
    right. Up to 128 terms add into eight interleaved partial sums r0..r7,
    combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the
    terms past the last multiple of 8 follow one by one. More terms split
    in two at a multiple of 8, each half summed so."""
    n = hi - lo
    if n > 128:
        half = lo + n // 2 - n // 2 % 8
        return _summation_order(lo, half), _summation_order(half, hi)
    if n < 8:
        node, tail = lo, range(lo + 1, hi)
    else:
        r = []
        for j in range(lo, lo + 8):
            r.append(j)
            for t in range(j + 8, hi - n % 8, 8):
                r[-1] = r[-1], t
        node = ((r[0], r[1]), (r[2], r[3])), ((r[4], r[5]), (r[6], r[7]))
        tail = range(hi - n % 8, hi)
    for t in tail:
        node = node, t
    return node


@functools.cache
def _register_steps(d):
    """:func:`_summation_order` of d terms as steps on registers, and the
    number of registers besides the first that they use: ``(r, j)`` writes
    term j to register r, ``(r, None)`` adds register r + 1 to register r.
    A pair's left side goes to its own register and its right side to the
    next one, so the steps hold as few partial sums as the order allows at
    once."""
    steps = []

    def walk(node, reg):
        if isinstance(node, int):
            steps.append((reg, node))
        else:
            walk(node[0], reg)
            walk(node[1], reg + 1)
            steps.append((reg, None))

    walk(_summation_order(0, d), 0)
    return tuple(steps), max(r for r, _ in steps)


def _to_columns(points, columns, out, magnitude=np.square):
    """Write to ``out``, (p, m), the sum over the d coordinates c of
    ``magnitude(points[i, c] - columns[c, j])`` for every row i of
    ``points``, (p, d), and column j of ``columns``, (d, m), a view in any
    layout. It adds an entry's d terms in the order numpy's row sum in
    :func:`_rows_to_point` adds a row of d values, so with ``np.square``
    (``np.abs``) an entry has the bits of the row kernel's squared
    (Manhattan) distance from row i to column j.

    It walks blocks of columns, one coordinate at a time, never forming a
    (p, m, d) array: the block's columns of ``out`` are the first register,
    and each other one, half a block (``_SCREEN_ELEMENTS / 2`` values, or p
    when p alone is more), holds a partial sum still open: at most one below
    d = 8, 3 below d = 16, 4 up to d = 128, and one more each time d
    doubles."""
    (p, d), m = points.shape, columns.shape[1]
    steps, spare = _register_steps(d)
    width = min(m, _block_rows(2 * p))
    scratch = np.empty((spare, p * width))
    for s in range(0, m, width):
        block = out[:, s:s + width]
        regs = [block, *(r[:block.size].reshape(block.shape) for r in scratch)]
        for r, c in steps:
            if c is None:
                np.add(regs[r], regs[r + 1], out=regs[r])
            else:
                np.subtract(points[:, c, None], columns[c, s:s + width], out=regs[r])
                magnitude(regs[r], out=regs[r])


def pairwise_distances(X, metric=Metric.EUCLIDEAN) -> DistanceMatrix:
    """All pairwise distances.

    Accepts an (n, d) array or a Dataset. Entry (i, j) equals
    ``distance(X[i], X[j], metric)`` exactly. Rows are computed in blocks
    of b rows from s on: ``X[s:s+b]`` against ``X[s:]`` is written to the
    block's rows, and its part right of the block, mirrored, below it.
    Negation is exact, so the result is exactly symmetric.

    A block is built by :func:`_to_columns`, one coordinate at a time,
    never as a (b, n - s, d) array, with the bits of the row kernel;
    ``tests/test_distances.py`` pins this for every d up to 300. b makes
    the block's (b, n - s) entries, and so each of the kernel's registers,
    about half a block (``_SCREEN_ELEMENTS / 2`` values). Raises
    :class:`AnalysisError`, before allocating, when the matrix would not
    fit in memory (see the module docstring), and when the features lie
    outside ``_checks.check_domain`` for the metric.
    """
    metric = Metric.coerce(metric)
    X = as_feature_matrix(X)
    check_domain(X, manhattan=metric is Metric.MANHATTAN)
    n, d = X.shape
    need, (have, limit) = 8 * n * n + 8 * max(_SCREEN_ELEMENTS, n * d), memory_budget()
    if need > have:
        raise AnalysisError(f"{n} points need {need / 1e6:.1f} MB for their pairwise distance "
                            f"matrix, more than the {have / 1e6:.1f} MB {limit}")
    D = np.empty((n, n))
    magnitude = np.abs if metric is Metric.MANHATTAN else np.square
    columns = np.ascontiguousarray(X.T)
    s = 0
    while s < n:
        e = s + _block_rows(2 * (n - s))  # half a block per register
        _to_columns(X[s:e], columns[:, s:], D[s:e, s:], magnitude)
        if metric is Metric.EUCLIDEAN:
            np.sqrt(D[s:e, s:], out=D[s:e, s:])
        D[e:, s:e] = D[s:e, e:].T
        s = e
    return DistanceMatrix(D, metric)
