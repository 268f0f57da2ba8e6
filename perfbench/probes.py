"""Fixed reference kernels that measure how fast the machine runs right now.

The measuring machine is shared: its speed drifts by 10 to 30 % over tens of
seconds, which moved whole runs of the Python-heavy workloads by up to a third
(see README.md). Each workload has a probe that does the same kind of work as
its dominant layer, on fixed inputs that no seed and no change to the program
can alter. The benchmark runs the probe between jobs and scales each job's
time by ``REF_S / probe time``, so a job reads in seconds at the probe's
reference speed.

``REF_S`` is each probe's median time on the machine described in README.md;
it only sets the scale, so every run and every commit use the same value.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np


REPEATS = 5


def _median_time(kernel, *inputs) -> float:
    """Median time of ``REPEATS`` calls: a spike on the machine during one
    call does not move it."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel(*inputs)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _lloyd_steps(X):
    n = X.shape[0]
    for k in range(2, 11):
        centers = X[:k].copy()
        for _ in range(9):
            diff = X[:, None, :] - centers[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            labels = d2.argmin(axis=1)
            d2[np.arange(n), labels].max()
            np.bincount(labels, minlength=k)
            for j in range(k):
                members = labels == j
                if members.any():
                    centers[j] = X[members].mean(axis=0)
            checked = np.ascontiguousarray(X, dtype=np.float64)
            np.isfinite(checked).all()
            diff = checked - centers[labels]
            float((diff * diff).sum(axis=1).sum())


def lloyd() -> float:
    """Lloyd steps on an integer-grid 683 x 9 table for k = 2..10, with the
    assignment, center update and objective of a K-means fit, like the fits
    that dominate wbc-analyze."""
    X = np.floor(np.random.default_rng(0).random((683, 9)) * 10) / 9
    return _median_time(_lloyd_steps, X)


def _column_reductions(D, nearest, cands):
    for _ in range(3):
        np.minimum(nearest[:, None], D[:, cands]).sum(axis=0).argmin()


def medoid_swap() -> float:
    """Gathered column reductions over a dense 1500 x 1500 distance matrix,
    like the PAM BUILD and SWAP steps of blobs-pam-sweep. The matrix is built
    per call, outside the timed part, so that the probe holds no memory
    between jobs."""
    D = np.random.default_rng(0).random((1500, 1500))
    return _median_time(_column_reductions, D, D[:, 0].copy(), np.arange(1, 1401))


def _queries(X, queries):
    for query in queries:
        diff = X - query
        np.sqrt((diff * diff).sum(axis=1)).argmin()


def nearest_neighbour() -> float:
    """One-at-a-time nearest-neighbour queries into a 6000 x 9 table, like
    Hopkins' queries in blobs-tendency."""
    rng = np.random.default_rng(0)
    return _median_time(_queries, rng.random((6000, 9)), rng.random((140, 9)))


def _text_roundtrip(rows):
    text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rows)
    parsed = [[float(token) for token in record] for record in csv.reader(io.StringIO(text))]
    "\n".join(",".join(repr(v) for v in row) for row in parsed)


def text_roundtrip() -> float:
    """Format, parse and re-format a 2 000 x 11 numeric table as CSV text,
    like the parser and writer in table-roundtrip."""
    return _median_time(_text_roundtrip, np.random.default_rng(0).random((2000, 11)))


PROBES = {
    "wbc-analyze": lloyd,
    "blobs-pam-sweep": medoid_swap,
    "blobs-tendency": nearest_neighbour,
    "table-roundtrip": text_roundtrip,
}

REF_S = {
    "wbc-analyze": 0.053,
    "blobs-pam-sweep": 0.040,
    "blobs-tendency": 0.053,
    "table-roundtrip": 0.060,
}
