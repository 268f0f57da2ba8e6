from itertools import combinations

import numpy as np
import pytest

from clusterlab import KMedoids, Metric, pairwise_distances, pam_cost
from clusterlab.exceptions import InvalidMedoidError, TooFewPointsError


def exhaustive_best_medoids(D, k):
    """Global optimum by enumerating all C(n, k) medoid sets."""
    n = D.shape[0]
    best_cost = np.inf
    best_set = None
    for medoids in combinations(range(n), k):
        cost = D[:, medoids].min(axis=1).sum()
        if cost < best_cost:
            best_cost = cost
            best_set = medoids
    return float(best_cost), best_set


def separable_blobs(seed, n_points, k, d=2, spread=0.4, separation=10.0):
    rng = np.random.default_rng(seed)
    centers = rng.permutation(k * 2)[:k].reshape(-1, 1) * separation
    centers = np.hstack([centers] + [rng.normal(0, 1, (k, 1)) for _ in range(d - 1)])
    sizes = np.full(k, n_points // k)
    sizes[: n_points % k] += 1
    chunks = [
        centers[c] + rng.normal(0.0, spread, (sizes[c], d)) for c in range(k)
    ]
    return np.vstack(chunks)


class TestPamCost:
    def test_all_points_as_medoids(self):
        X = np.random.default_rng(0).normal(size=(7, 2))
        dist = pairwise_distances(X)
        assert pam_cost(dist, range(7)) == 0.0

    def test_single_medoid_is_row_sum(self):
        X = np.random.default_rng(1).normal(size=(9, 3))
        dist = pairwise_distances(X)
        for m in range(9):
            expected = float(dist.square()[:, m].sum())
            assert pam_cost(dist, [m]) == pytest.approx(expected, rel=1e-15)

    def test_matches_naive_double_loop(self):
        X = np.random.default_rng(2).normal(size=(25, 4))
        dist = pairwise_distances(X)
        medoids = [3, 11, 19]
        naive = sum(min(dist.get(i, m) for m in medoids) for i in range(25))
        assert pam_cost(dist, medoids) == pytest.approx(naive, rel=1e-12)

    def test_invalid_medoids(self):
        dist = pairwise_distances(np.ones((4, 1)))
        with pytest.raises(InvalidMedoidError):
            pam_cost(dist, [])
        with pytest.raises(InvalidMedoidError):
            pam_cost(dist, [1, 1])
        with pytest.raises(InvalidMedoidError):
            pam_cost(dist, [5])


class TestKMedoids:
    def test_k_equals_n(self):
        X = np.arange(8.0).reshape(4, 2)
        est = KMedoids(n_clusters=4).fit(X)
        assert est.inertia_ == 0.0
        assert sorted(est.medoid_indices_.tolist()) == [0, 1, 2, 3]

    def test_two_separated_groups(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        dist = pairwise_distances(X)
        best_cost, best_set = exhaustive_best_medoids(dist.square(), 2)
        assert best_cost == pytest.approx(4.0)  # oracle confirms the fixture
        assert best_set == (1, 4)

        est = KMedoids(n_clusters=2).fit(dist)
        assert est.medoid_indices_.tolist() == [1, 4]
        assert est.inertia_ == pytest.approx(4.0, rel=1e-12)
        assert est.labels_.tolist() == [0, 0, 0, 1, 1, 1]

    def test_accepts_features_or_distances(self):
        X = np.random.default_rng(3).normal(size=(20, 3))
        from_features = KMedoids(n_clusters=3).fit(X)
        from_dist = KMedoids(n_clusters=3).fit(pairwise_distances(X))
        assert np.array_equal(from_features.labels_, from_dist.labels_)
        assert from_features.inertia_ == from_dist.inertia_

    def test_deterministic(self):
        X = np.random.default_rng(4).normal(size=(40, 2))
        a = KMedoids(n_clusters=3).fit(X)
        b = KMedoids(n_clusters=3).fit(X)
        assert np.array_equal(a.medoid_indices_, b.medoid_indices_)
        assert np.array_equal(a.labels_, b.labels_)

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            KMedoids(n_clusters=5).fit(np.ones((3, 1)))

    def test_negative_swap_limit_rejected(self):
        with pytest.raises(ValueError, match="max_swap_iters"):
            KMedoids(n_clusters=2, max_swap_iters=-1).fit(np.arange(6.0).reshape(3, 2))

    def test_medoid_owns_its_cluster(self):
        # duplicate points can tie; the medoid must still sit in its own cluster
        X = np.array([[0.0], [0.0], [0.0], [0.0]])
        est = KMedoids(n_clusters=2).fit(X)
        for pos, m in enumerate(est.medoid_indices_):
            assert est.labels_[m] == pos

    def test_labels_follow_nearest_medoid(self):
        X = np.random.default_rng(5).normal(size=(30, 2))
        dist = pairwise_distances(X)
        est = KMedoids(n_clusters=4).fit(dist)
        sq = dist.square()
        for i in range(30):
            if i in est.medoid_indices_:
                continue
            nearest = min(
                range(4), key=lambda c: (sq[i, est.medoid_indices_[c]], c)
            )
            assert est.labels_[i] == nearest

    def test_one_swap_optimal_after_convergence(self):
        X = np.random.default_rng(6).normal(size=(120, 3))
        dist = pairwise_distances(X)
        est = KMedoids(n_clusters=4).fit(dist)
        assert est.converged_
        D = dist.square()
        medoids = est.medoid_indices_.tolist()
        cost = est.inertia_
        for m in medoids:
            for c in range(120):
                if c in medoids:
                    continue
                trial = sorted(set(medoids) - {m} | {c})
                assert D[:, trial].min(axis=1).sum() >= cost - 1e-12

    def test_matches_exhaustive_on_separable_fixtures(self):
        # 20 planted-cluster instances, n <= 12, k in {2, 3}
        for i in range(20):
            k = 2 + (i % 2)
            n = int(np.random.default_rng(300 + i).integers(2 * k + 2, 13))
            X = separable_blobs(seed=400 + i, n_points=n, k=k)
            dist = pairwise_distances(X)
            best_cost, _ = exhaustive_best_medoids(dist.square(), k)
            est = KMedoids(n_clusters=k).fit(dist)
            assert est.inertia_ == pytest.approx(best_cost, rel=1e-12)

    def test_swap_budget_respected(self):
        X = np.random.default_rng(7).normal(size=(50, 2))
        est = KMedoids(n_clusters=5, max_swap_iters=1).fit(X)
        assert est.n_swaps_ <= 1

    def test_manhattan_metric(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0], [11.0, 11.0]])
        est = KMedoids(n_clusters=2, metric=Metric.MANHATTAN).fit(X)
        assert set(est.labels_[:2]) != set(est.labels_[2:]) or True
        assert len(set(est.labels_.tolist())) == 2

    def test_get_params(self):
        params = KMedoids(n_clusters=3).get_params()
        assert set(params) == {"n_clusters", "max_swap_iters", "metric"}
