import numpy as np
import pytest

from clusterlab import (
    KMeans,
    KMedoids,
    Metric,
    pairwise_distances,
    silhouette_report,
    sweep_k,
)
from clusterlab.exceptions import SingleClusterError
from clusterlab.validation import KSweepResult


def naive_silhouette(D, labels):
    """Pure-Python reference; accumulates over ascending j exactly like a
    textbook double loop."""
    n = len(labels)
    uniq = sorted(set(labels))
    remap = {u: c for c, u in enumerate(uniq)}
    inv = [remap[l] for l in labels]
    k = len(uniq)
    counts = [0] * k
    for l in inv:
        counts[l] += 1
    widths = []
    for i in range(n):
        own = inv[i]
        if counts[own] == 1:
            widths.append(0.0)
            continue
        sums = [0.0] * k
        for j in range(n):
            sums[inv[j]] += D[i][j]
        a = sums[own] / (counts[own] - 1)
        b = min(sums[c] / counts[c] for c in range(k) if c != own)
        denom = max(a, b)
        widths.append(0.0 if denom == 0.0 else (b - a) / denom)
    return widths


def loop_silhouette(D, labels):
    """The per-point loop the vectorized silhouette replaced: one bincount of
    row i per point, which adds in ascending j like the naive loop."""
    uniq, inv = np.unique(labels, return_inverse=True)
    k = uniq.size
    counts = np.bincount(inv, minlength=k)
    widths = np.zeros(len(labels))
    for i in range(len(labels)):
        own = inv[i]
        if counts[own] == 1:
            continue
        sums = np.bincount(inv, weights=D[i], minlength=k)
        a = sums[own] / (counts[own] - 1)
        b = min(sums[c] / counts[c] for c in range(k) if c != own)
        denom = max(a, b)
        widths[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return widths


def blobs(n, k, seed, spread=0.5, separation=10.0):
    rng = np.random.default_rng(seed)
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    parts = [
        np.array([c * separation, 0.0]) + rng.normal(0, spread, (sizes[c], 2))
        for c in range(k)
    ]
    return np.vstack(parts)


class TestSilhouette:
    def test_two_singletons(self):
        dist = pairwise_distances(np.array([[0.0], [5.0]]))
        rep = silhouette_report(dist, [0, 1])
        assert rep.widths.tolist() == [0.0, 0.0]
        assert rep.overall == 0.0

    def test_hand_computed_example(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        dist = pairwise_distances(X)
        rep = silhouette_report(dist, [0, 0, 0, 1, 1, 1])
        # point 0: a = (1 + 2) / 2 = 1.5, b = (10 + 11 + 12) / 3 = 11
        assert rep.widths[0] == pytest.approx((11.0 - 1.5) / 11.0, abs=1e-15)
        assert rep.widths[0] == pytest.approx(0.863636363636, abs=1e-9)

    @pytest.mark.parametrize("n,k,seed", [(20, 2, 0), (87, 3, 1), (300, 5, 2)])
    def test_matches_naive_oracle_exactly(self, n, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster occupied
        dist = pairwise_distances(X)
        rep = silhouette_report(dist, labels)
        oracle = naive_silhouette(dist.square().tolist(), labels.tolist())
        assert rep.widths.tolist() == oracle  # bit-for-bit

    @pytest.mark.parametrize("metric", list(Metric))
    def test_matches_loop_oracle_on_fitted_labels(self, metric):
        rng = np.random.default_rng(9)
        X = np.vstack([blobs(300, 4, seed=9), np.floor(rng.random((100, 2)) * 3)])
        dist = pairwise_distances(X, metric)
        D = dist.square()
        for k in (2, 3, 5, 8):
            for est in (KMeans(n_clusters=k, n_init=2, random_state=k).fit(X),
                        KMedoids(n_clusters=k, metric=metric).fit(dist)):
                widths = silhouette_report(dist, est.labels_).widths
                assert widths.tobytes() == loop_silhouette(D, est.labels_).tobytes()
        labels = np.arange(400) % 7
        labels[:3] = 7  # and a singleton cluster 8
        labels[5] = 8
        widths = silhouette_report(dist, labels).widths
        assert widths.tobytes() == loop_silhouette(D, labels).tobytes()

    def test_widths_in_range(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 4))
        labels = rng.integers(0, 6, size=150)
        labels[:6] = np.arange(6)
        rep = silhouette_report(pairwise_distances(X), labels)
        assert rep.widths.min() >= -1.0
        assert rep.widths.max() <= 1.0

    def test_overall_and_cluster_means(self):
        X = blobs(30, 3, seed=4)
        labels = np.repeat(np.arange(3), 10)
        rep = silhouette_report(pairwise_distances(X), labels)
        assert rep.overall == pytest.approx(float(rep.widths.mean()), rel=1e-15)
        for c in range(3):
            members = rep.widths[labels == c]
            assert rep.cluster_means[c] == pytest.approx(float(members.mean()), rel=1e-15)
        assert rep.cluster_sizes == (10, 10, 10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        labels = rng.integers(0, 3, size=60)
        labels[:3] = np.arange(3)
        dist = pairwise_distances(X)
        base = silhouette_report(dist, labels)
        for factor in (0.001, 3.7, 1e6):
            scaled = silhouette_report(dist.square() * factor, labels)
            assert np.allclose(scaled.widths, base.widths, rtol=1e-12, atol=1e-15)

    def test_single_cluster_rejected(self):
        dist = pairwise_distances(np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.raises(SingleClusterError):
            silhouette_report(dist, [0, 0, 0, 0, 0])

    def test_singleton_member_width_zero(self):
        X = np.array([[0.0], [1.0], [2.0], [50.0]])
        rep = silhouette_report(pairwise_distances(X), [0, 0, 0, 1])
        assert rep.widths[3] == 0.0

    def test_plot_order_groups_clusters_descending(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        rep = silhouette_report(pairwise_distances(X), labels)
        ordered_clusters = [labels[i] for i in rep.plot_order]
        assert ordered_clusters == sorted(ordered_clusters)
        for c in (0, 1):
            ws = [rep.widths[i] for i in rep.plot_order if labels[i] == c]
            assert ws == sorted(ws, reverse=True)

    def test_accepts_square_array(self):
        X = np.random.default_rng(7).normal(size=(12, 2))
        dist = pairwise_distances(X)
        a = silhouette_report(dist, [0, 1] * 6)
        b = silhouette_report(dist.square(), [0, 1] * 6)
        assert np.array_equal(a.widths, b.widths)

    def test_raw_asymmetric_array_matches_naive_oracle_exactly(self):
        # point i's sums run along row i of a raw array; its column differs
        rng = np.random.default_rng(8)
        D = rng.random((30, 30)) * rng.choice([1.0, 1e-8, 1e8], size=(30, 30))
        np.fill_diagonal(D, 0.0)
        labels = rng.integers(0, 4, size=30)
        labels[:4] = np.arange(4)
        rep = silhouette_report(D, labels)
        assert rep.widths.tolist() == naive_silhouette(D.tolist(), labels.tolist())


class TestSweep:
    def test_planted_two_blobs(self):
        X = blobs(80, 2, seed=10)
        result = sweep_k(X, (2, 6), seed=0, n_init=5)
        assert result.best_k == 2
        assert result.ks == (2, 3, 4, 5, 6)
        assert len(result.avg_silhouette) == 5
        assert len(result.wss) == 5

    def test_deterministic(self):
        X = blobs(60, 3, seed=11)
        a = sweep_k(X, (2, 5), seed=42, n_init=5)
        b = sweep_k(X, (2, 5), seed=42, n_init=5)
        assert a == b

    @pytest.mark.parametrize("algorithm", ["kmeans", "pam"])
    def test_given_distance_matrix_changes_nothing(self, algorithm):
        X = blobs(60, 3, seed=12)
        own = sweep_k(X, (2, 6), algorithm=algorithm, seed=7, n_init=5)
        shared = sweep_k(X, (2, 6), algorithm=algorithm, seed=7, n_init=5,
                         dist=pairwise_distances(X))
        assert own == shared

    def test_distance_matrix_must_match(self):
        X = blobs(30, 2, seed=14)
        with pytest.raises(ValueError, match="distance matrix"):
            sweep_k(X, (2, 4), dist=pairwise_distances(X, "manhattan"))
        with pytest.raises(ValueError, match="distance matrix"):
            sweep_k(X, (2, 4), dist=pairwise_distances(X[:-1]))

    def test_pam_algorithm(self):
        X = blobs(50, 2, seed=13)
        result = sweep_k(X, (2, 4), algorithm="pam", seed=1)
        assert result.best_k == 2
        assert all(w >= 0 for w in result.wss)
        with pytest.raises(ValueError, match="max_swap_iters"):
            sweep_k(X, (2, 4), algorithm="pam", max_swap_iters=-1)

    def test_best_k_ties_take_smaller(self):
        res = KSweepResult(ks=(2, 3), avg_silhouette=(0.5, 0.5), wss=(1.0, 0.5), best_k=2)
        assert res.best_k == 2

    def test_invalid_range(self):
        X = blobs(20, 2, seed=14)
        with pytest.raises(ValueError):
            sweep_k(X, (1, 4))
        with pytest.raises(ValueError):
            sweep_k(X, (2, 20))
        with pytest.raises(ValueError):
            sweep_k(X, (5, 4))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            sweep_k(blobs(20, 2, seed=15), (2, 3), algorithm="dbscan")

    def test_kmeans_wss_matches_direct_run(self):
        X = blobs(40, 2, seed=16)
        seed = 21
        result = sweep_k(X, (2, 3), seed=seed, n_init=5)
        from clusterlab.validation import _SWEEP_SEED_STRIDE

        direct = KMeans(n_clusters=2, n_init=5,
                        random_state=seed + 2 * _SWEEP_SEED_STRIDE).fit(X)
        assert result.wss[0] == direct.inertia_
