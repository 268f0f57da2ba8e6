"""Metamorphic relations: properties that need no oracle, so they run at
sizes no brute-force oracle reaches. K-means and Hopkins run at n = 20,000,
where their nearest-neighbour screens walk several row blocks; PAM, whose
distance matrix is O(n^2), runs at n <= 2,000.

- Scaling the features by 2^j scales every distance by 2^j exactly while no
  value leaves the normal range, and the screens' centres and slacks with
  them: labels, medoids, H and ``n_iter_`` stay the same, centres scale by
  2^j and the K-means inertia by 4^j. ``tol`` is absolute, so it is scaled
  too.
- Flipping the sign of features changes no distance: K-means, PAM and
  ``sweep_k`` give the same results, with those centre coordinates negated.
  Hopkins draws its synthetic points from the low corner of the bounding
  box, which a flip moves, so it is left out.
- The silhouette of fixed labels is a ratio of mean distances: scaling the
  features by 2^j, or flipping one feature's sign, leaves every width, the
  overall mean and the cluster means the same bits, under every metric.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import (KMeans, KMedoids, Metric, hopkins_statistic, pairwise_distances,
                        silhouette_report, sweep_k)
from test_kmeans import grid

#: the exponents j of the scales 2^j
EXPONENTS = (-3, 5)


@st.composite
def tables(draw, n, min_d=1):
    """A grid table of n rows, as the estimators' own properties draw them,
    at the scales whose squares stay in the normal range."""
    d = draw(st.integers(min_d, 9))
    levels = draw(st.sampled_from([2, 3, 10]))
    scale = draw(st.sampled_from([1.0, 1.0 / 9.0, 0.1]))
    shift = draw(st.sampled_from([0.0, 1e6, -3.5]))
    return grid(n, d, draw(st.integers(0, 2**16)), levels, scale, shift)


def flips(X, data):
    """A sign per column of ``X``, at least one of them -1."""
    d = X.shape[1]
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d)))
    signs[data.draw(st.integers(0, d - 1))] = -1.0
    return signs


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def kmeans(X, k, seed, tol=1e-9):
    return KMeans(n_clusters=k, n_init=2, max_iter=20, tol=tol, random_state=seed).fit(X)


def pam(X, k, metric):
    return KMedoids(n_clusters=k, metric=metric).fit(X)


@settings(max_examples=3, deadline=None)
@given(tables(20_000), st.integers(2, 4), st.integers(0, 2**16))
def test_kmeans_scales_by_powers_of_two(X, k, seed):
    base = kmeans(X, k, seed)
    for j in EXPONENTS:
        est = kmeans(X * 2.0**j, k, seed, tol=1e-9 * 2.0**j)
        assert np.array_equal(est.labels_, base.labels_)
        assert (est.n_iter_, est.best_restart_) == (base.n_iter_, base.best_restart_)
        assert bits(est.cluster_centers_) == bits(base.cluster_centers_ * 2.0**j)
        assert bits(est.inertia_) == bits(base.inertia_ * 4.0**j)


# at least 4 features: on fewer, 20,000 rows of a grid are mostly exact ties,
# whose candidates the exact kernel must all compare
@settings(max_examples=4, deadline=None)
@given(tables(20_000, min_d=4), st.integers(1, 3), st.integers(0, 2**16))
def test_hopkins_is_scale_free(X, power, seed):
    base = hopkins_statistic(X, m=100, trials=3, seed=seed, power=power)
    for j in EXPONENTS:
        got = hopkins_statistic(X * 2.0**j, m=100, trials=3, seed=seed, power=power)
        assert bits(got.per_trial) == bits(base.per_trial)
        assert got == base


@settings(max_examples=5, deadline=None)
@given(st.data(), st.integers(2, 2_000), st.integers(1, 6), st.sampled_from(list(Metric)))
def test_pam_scales_by_powers_of_two(data, n, k, metric):
    X = data.draw(tables(n))
    k = min(k, n)
    base = pam(X, k, metric)
    power = 2.0 if metric is Metric.SQEUCLIDEAN else 1.0
    for j in EXPONENTS:
        est = pam(X * 2.0**j, k, metric)
        assert est.medoid_indices_.tolist() == base.medoid_indices_.tolist()
        assert np.array_equal(est.labels_, base.labels_)
        assert est.n_swaps_ == base.n_swaps_
        assert bits(est.inertia_) == bits(base.inertia_ * 2.0**(j * power))


@settings(max_examples=3, deadline=None)
@given(st.data(), tables(20_000), st.integers(2, 4), st.integers(0, 2**16))
def test_kmeans_ignores_a_sign_flip(data, X, k, seed):
    signs = flips(X, data)
    base, est = kmeans(X, k, seed), kmeans(X * signs, k, seed)
    assert np.array_equal(est.labels_, base.labels_)
    assert (est.n_iter_, est.best_restart_) == (base.n_iter_, base.best_restart_)
    # a centre of zeros is +0.0 either way, so the values are compared, not the bits
    assert np.array_equal(est.cluster_centers_, base.cluster_centers_ * signs)
    assert bits(est.inertia_) == bits(base.inertia_)


@settings(max_examples=5, deadline=None)
@given(st.data(), st.integers(2, 2_000), st.integers(1, 6), st.sampled_from(list(Metric)))
def test_pam_ignores_a_sign_flip(data, n, k, metric):
    X = data.draw(tables(n))
    k = min(k, n)
    base, est = pam(X, k, metric), pam(X * flips(X, data), k, metric)
    assert est.medoid_indices_.tolist() == base.medoid_indices_.tolist()
    assert np.array_equal(est.labels_, base.labels_)
    assert bits(est.inertia_) == bits(base.inertia_)


@settings(max_examples=4, deadline=None)
@given(st.data(), st.integers(7, 600), st.sampled_from(["kmeans", "pam"]),
       st.sampled_from(list(Metric)), st.integers(0, 2**16))
def test_sweep_ignores_a_sign_flip(data, n, algorithm, metric, seed):
    X = data.draw(tables(n))
    runs = [sweep_k(Y, (2, 6), algorithm=algorithm, metric=metric, seed=seed, n_init=2)
            for Y in (X, X * flips(X, data))]
    assert runs[1].ks == runs[0].ks and runs[1].best_k == runs[0].best_k
    assert bits(runs[1].avg_silhouette) == bits(runs[0].avg_silhouette)
    assert bits(runs[1].wss) == bits(runs[0].wss)


def silhouettes(X, labels, metric):
    return silhouette_report(pairwise_distances(X, metric), labels)


def assert_same_silhouettes(got, base):
    assert bits(got.widths) == bits(base.widths)
    assert bits(got.overall) == bits(base.overall)
    assert bits(got.cluster_means) == bits(base.cluster_means)


@pytest.mark.parametrize("metric", list(Metric))
@settings(max_examples=5, deadline=None)
@given(st.data(), st.integers(7, 600), st.integers(2, 6), st.integers(0, 2**16))
def test_silhouettes_scale_by_powers_of_two(metric, data, n, k, seed):
    X = data.draw(tables(n))
    labels = kmeans(X, k, seed).labels_
    base = silhouettes(X, labels, metric)
    for j in EXPONENTS:
        assert_same_silhouettes(silhouettes(X * 2.0**j, labels, metric), base)


@pytest.mark.parametrize("metric", list(Metric))
@settings(max_examples=5, deadline=None)
@given(st.data(), st.integers(7, 600), st.integers(2, 6), st.integers(0, 2**16))
def test_silhouettes_ignore_a_sign_flip(metric, data, n, k, seed):
    X = data.draw(tables(n))
    labels = kmeans(X, k, seed).labels_
    flipped = X.copy()
    flipped[:, data.draw(st.integers(0, X.shape[1] - 1))] *= -1.0
    assert_same_silhouettes(silhouettes(flipped, labels, metric), silhouettes(X, labels, metric))
