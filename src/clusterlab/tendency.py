"""Hopkins statistic: does the data have any cluster structure at all?

Convention: H near 1 means clustered, H near 0.5 means spatially uniform
(the synthetic-point nearest-neighbor sum is the numerator). Some tools
report the opposite orientation; this one matches reading values like 0.8
as "highly clustered".

All trials run as one batch of nearest-neighbour searches: each trial's
synthetic points once, and each distinct sampled row once, however many
trials sample it. :func:`hopkins_searches` plans the batch, and
:func:`hopkins_statistic` runs it as the items of one ``_parallel.fork_map``;
``pipeline.analyze`` runs the same items in its own map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _parallel
from ._checks import as_feature_matrix, as_integer, check_domain, resolve_seed
from .distances import _rows, _screened_nearest
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

    Nearest neighbours are found by a GEMM screen around the data mean,
    followed by the exact distance kernel on the rows within a rounding
    slack of each query's best (see ``distances._screened_nearest``); the
    distances equal those of a one-query-at-a-time search bit for bit. A
    sampled point's own row is excluded; its duplicates are not, so they
    count at distance 0. Rows outside ``_checks.check_domain`` at this
    ``power`` raise :class:`AnalysisError`.

    The searches of :func:`hopkins_searches` run as the items of one
    ``_parallel.fork_map``, which forked processes may share, one per usable
    CPU.
    """
    search, items, finish = hopkins_searches(X, m, trials, seed, power)
    return finish(_parallel.fork_map(search, items))


def hopkins_searches(X, m, trials, seed, power):
    """The plan of :func:`hopkins_statistic`, whose arguments it checks:
    ``(search, items, finish)``, where ``finish([search(item) for item in
    items])`` is its result, in whichever processes the items run.
    ``pipeline.analyze`` runs the items among its own.

    Every trial's sample is drawn here. The items are groups of consecutive
    whole trials, each drawing and searching its trials' synthetic points,
    and chunks of the distinct sampled rows, each row searched once however
    many trials sample it. An item holds about a quarter of one CPU's share
    of the queries, and at least one trial's m. A row's nearest neighbour
    does not depend on the other rows of its search, and the data's
    prepared rows are made once and shared, so every value is the same bit
    for bit whatever the process count and the items. When all points are
    identical there are no items, and ``finish([])`` is the degenerate
    result.
    """
    if m is not None:
        m = as_integer(m, "m")
    trials, power = as_integer(trials, "trials"), as_integer(power, "power")
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
    lo, hi = check_domain(X, power=power)
    if np.all(lo == hi):
        # all points identical: every real nearest-neighbor distance is 0
        return None, [], lambda found: HopkinsResult(
            h=1.0, m=m, trials=trials, per_trial=(1.0,) * trials, seed=seed, degenerate=True)

    center = X.mean(axis=0)
    rows = _rows(X, center)

    def stream(t):
        """Trial t's synthetic points, and its generator, which draws its sample next."""
        rng = np.random.default_rng(seed + t)
        return lo + rng.random((m, d)) * (hi - lo), rng

    samples = np.array([stream(t)[1].choice(n, size=m, replace=False) for t in range(trials)])
    # the distinct sampled rows, in order (np.unique would import numpy.ma:
    # 1.7 MB more resident size)
    mask = np.zeros(n, dtype=bool)
    mask[samples] = True
    union = np.flatnonzero(mask)

    def search(item):
        if isinstance(item, range):
            # whole trials, whose synthetic points are drawn here, so that a
            # process holds one item's synthetic points at a time
            synthetic = np.concatenate([stream(t)[0] for t in item])
            return _screened_nearest(_rows(synthetic, center), rows)[1]
        return _screened_nearest(_rows(X[item], center), rows, item)[1]  # sampled rows

    share = max(m, math.ceil((trials * m + union.size) / (4 * _parallel._cpus())))
    group = share // m  # whole trials per item, at least one
    groups = [range(t, min(t + group, trials)) for t in range(0, trials, group)]
    chunks = np.array_split(union, math.ceil(union.size / share))  # none empty

    def finish(found):
        u = np.sqrt(np.concatenate(found[:len(groups)])).reshape(trials, m)
        w = np.sqrt(np.concatenate(found[len(groups):])[np.searchsorted(union, samples)])
        per_trial = []
        for u_t, w_t in zip(u, w):
            su = float(np.sum(u_t**power))
            sw = float(np.sum(w_t**power))
            per_trial.append(1.0 if su + sw == 0.0 else su / (su + sw))
        return HopkinsResult(
            h=float(np.mean(per_trial)),
            m=int(m),
            trials=int(trials),
            per_trial=tuple(per_trial),
            seed=seed,
        )

    return search, groups + chunks, finish
