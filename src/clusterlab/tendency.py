"""Hopkins statistic: does the data have any cluster structure at all?

Convention: H near 1 means clustered, H near 0.5 means spatially uniform
(the synthetic-point nearest-neighbor sum is the numerator). Some tools
report the opposite orientation; this one matches reading values like 0.8
as "highly clustered".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import as_feature_matrix, resolve_seed
from .distances import _SCREEN_ELEMENTS, _Rows, _rows, _screened_nearest
from .exceptions import EmptyDatasetError, SampleTooLargeError


@dataclass(frozen=True)
class HopkinsResult:
    h: float
    m: int
    trials: int
    per_trial: tuple[float, ...]
    seed: int
    degenerate: bool = False

    def __post_init__(self):
        if self.per_trial and not math.isclose(
            self.h, sum(self.per_trial) / len(self.per_trial), rel_tol=1e-12
        ):
            raise ValueError("h must be the mean of the per-trial values")


def default_sample_size(n: int) -> int:
    """Default m: 10 percent of n, floored, at least 1 and at most n - 1."""
    return max(1, min(n - 1, int(0.10 * n)))


def hopkins_statistic(
    X,
    m: int | None = None,
    trials: int = 30,
    seed: int | None = None,
    power: int = 1,
) -> HopkinsResult:
    """Hopkins statistic over several independent trials.

    Per trial: m synthetic points are drawn uniformly in the axis-aligned
    bounding box of the data and m real points are sampled without
    replacement; with u the synthetic nearest-data distances and w the real
    points' leave-one-out nearest-neighbor distances, the trial value is
    sum(u) / (sum(u) + sum(w)). ``power`` raises each distance to that
    exponent (1 by default; pass the data dimension for the d-power variant).
    The result is reproducible bit-for-bit for a given (data, m, trials,
    seed) because trial t uses substream seed + t.

    Nearest neighbours are found by a GEMM screen around the data mean, in
    blocks of queries, followed by the exact distance kernel on the rows
    within a rounding slack of each query's best (see
    ``distances._screened_nearest``); the distances equal those of a
    one-query-at-a-time search bit for bit. A
    sampled point's own row is excluded; its duplicates are not, so they
    count at distance 0.
    """
    X = as_feature_matrix(X)
    n, d = X.shape
    if n < 2:
        raise EmptyDatasetError("hopkins statistic needs at least 2 points")
    if m is None:
        m = default_sample_size(n)
    if m > n - 1:
        raise SampleTooLargeError(m, n)
    if m < 1:
        raise ValueError("sample size m must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if power < 1:
        raise ValueError(f"power must be at least 1, got {power}")
    seed = resolve_seed(seed)

    lo = X.min(axis=0)
    hi = X.max(axis=0)
    if np.all(lo == hi):
        # all points identical: every real nearest-neighbor distance is 0
        return HopkinsResult(
            h=1.0, m=m, trials=trials, per_trial=(1.0,) * trials,
            seed=seed, degenerate=True,
        )

    center = X.mean(axis=0)
    rows = _rows(X, center)
    block = max(1, _SCREEN_ELEMENTS // n)
    per_trial = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        synthetic = lo + rng.random((m, d)) * (hi - lo)
        sample = rng.choice(n, size=m, replace=False)
        u = _nearest_distances(_rows(synthetic, center), rows, None, block)
        w = _nearest_distances(_rows(X[sample], center), rows, sample, block)
        su = float(np.sum(u**power))
        sw = float(np.sum(w**power))
        per_trial.append(1.0 if su + sw == 0.0 else su / (su + sw))

    return HopkinsResult(
        h=float(np.mean(per_trial)),
        m=int(m),
        trials=int(trials),
        per_trial=tuple(per_trial),
        seed=seed,
    )


def _nearest_distances(queries, rows, exclude, block):
    """Euclidean distance from each query to its nearest row of the data,
    screened ``block`` queries at a time; ``exclude[i]`` is left out for
    query i. Both sides come prepared by ``distances._rows``."""
    d2 = np.empty(queries.raw.shape[0])
    for start in range(0, d2.size, block):
        part = slice(start, start + block)
        skip = None if exclude is None else exclude[part]
        block_rows = _Rows(queries.raw[part], queries.shifted[part], queries.sq[part],
                           queries.top)
        d2[part] = _screened_nearest(block_rows, rows, skip)[1]
    return np.sqrt(d2)
