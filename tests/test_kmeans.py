import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import KMeans, wss
from clusterlab.distances import _candidates, _rows, _screened_nearest
from clusterlab.exceptions import (
    EmptyDatasetError,
    MissingCenterError,
    NotFittedError,
    TooFewPointsError,
)
from clusterlab.kmeans import INIT_RANDOM, _center_means, _init_centers


def exhaustive_best_wss_k2(X):
    """Brute-force optimum over all 2^(n-1) - 1 bipartitions."""
    n = X.shape[0]
    best = np.inf
    best_labels = None
    for bits in range(1, 2 ** (n - 1)):
        labels = np.array([(bits >> i) & 1 for i in range(n)])
        if labels.min() == labels.max():
            continue
        centers = np.vstack([X[labels == c].mean(axis=0) for c in (0, 1)])
        total = sum(
            ((X[i] - centers[labels[i]]) ** 2).sum() for i in range(n)
        )
        if total < best:
            best = total
            best_labels = labels
    return best, best_labels


class TestWss:
    def test_points_at_centers(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert wss(X, [0, 1], X) == 0.0

    def test_single_offset_point(self):
        assert wss(np.array([[2.0]]), [0], np.array([[0.0]])) == 4.0

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        labels = rng.integers(0, 4, size=40)
        centers = rng.normal(size=(4, 3))
        naive = sum(
            float(((X[i] - centers[labels[i]]) ** 2).sum()) for i in range(40)
        )
        assert wss(X, labels, centers) == pytest.approx(naive, rel=1e-12)

    def test_missing_center(self):
        with pytest.raises(MissingCenterError):
            wss(np.ones((2, 2)), [0, 5], np.zeros((2, 2)))


class TestKMeansBasics:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        est = KMeans(n_clusters=1, random_state=0).fit(X)
        assert np.allclose(est.cluster_centers_[0], X.mean(axis=0), atol=1e-12)
        expected = float(((X - X.mean(axis=0)) ** 2).sum())
        assert est.inertia_ == pytest.approx(expected, rel=1e-12)

    def test_k_equals_n(self):
        X = np.arange(10.0).reshape(5, 2)
        est = KMeans(n_clusters=5, random_state=0).fit(X)
        assert est.inertia_ == 0.0
        assert sorted(est.labels_.tolist()) == [0, 1, 2, 3, 4]

    def test_two_well_separated_groups(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        best, best_labels = exhaustive_best_wss_k2(X)
        assert best == pytest.approx(4.0)  # confirms the enumeration oracle

        est = KMeans(n_clusters=2, n_init=10, random_state=0).fit(X)
        assert est.inertia_ == pytest.approx(4.0, rel=1e-12)
        assert sorted(est.cluster_centers_[:, 0].tolist()) == [1.0, 11.0]
        assert len(set(est.labels_[:3])) == 1
        assert len(set(est.labels_[3:])) == 1

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            KMeans(n_clusters=3).fit(np.ones((2, 2)))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            KMeans(n_clusters=1).fit(np.empty((0, 2)))

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            KMeans().predict(np.ones((1, 2)))

    def test_every_cluster_occupied(self):
        # heavy duplication forces empty-cluster repair to kick in
        X = np.array([[0.0]] * 8 + [[5.0]] * 2 + [[9.0]])
        for seed in range(10):
            est = KMeans(n_clusters=3, n_init=1, random_state=seed).fit(X)
            assert set(est.labels_.tolist()) == {0, 1, 2}

    def test_identical_points(self):
        X = np.zeros((6, 2))
        est = KMeans(n_clusters=2, random_state=0).fit(X)
        assert set(est.labels_.tolist()) == {0, 1}
        assert est.inertia_ == 0.0


class TestKMeansInvariants:
    def test_objective_path_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        est = KMeans(n_clusters=4, n_init=3, random_state=7).fit(X)
        path = est.objective_path_
        assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))

    def test_inertia_self_consistent(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 2))
        est = KMeans(n_clusters=3, random_state=1).fit(X)
        assert est.inertia_ == wss(X, est.labels_, est.cluster_centers_)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        a = KMeans(n_clusters=3, random_state=9).fit(X)
        b = KMeans(n_clusters=3, random_state=9).fit(X)
        assert np.array_equal(a.labels_, b.labels_)
        assert np.array_equal(a.cluster_centers_, b.cluster_centers_)
        assert a.inertia_ == b.inertia_

    def test_restarts_reach_exhaustive_optimum(self):
        # 20 random instances, n <= 10, k = 2, 50 restarts
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(4, 11))
            X = rng.normal(size=(n, 2))
            best, _ = exhaustive_best_wss_k2(X)
            est = KMeans(n_clusters=2, n_init=50, random_state=seed).fit(X)
            assert est.inertia_ == pytest.approx(best, rel=1e-9, abs=1e-12)

    def test_random_init_also_works(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        est = KMeans(n_clusters=2, init=INIT_RANDOM, n_init=20, random_state=3).fit(X)
        assert est.inertia_ == pytest.approx(4.0, rel=1e-12)

    def test_predict_matches_nearest_center(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        est = KMeans(n_clusters=3, random_state=2).fit(X)
        q = rng.normal(size=(15, 2))
        d2 = ((q[:, None, :] - est.cluster_centers_[None]) ** 2).sum(axis=2)
        assert np.array_equal(est.predict(q), d2.argmin(axis=1))


def test_kmeanspp_seeding_distribution():
    """The (first, second) center pair follows the D^2 law: first uniform,
    second proportional to squared distance from the first."""
    X = np.array([[0.0], [1.0], [10.0]])
    n = 3
    sq = (X[:, 0][:, None] - X[:, 0][None, :]) ** 2

    expected = {}
    for i in range(n):
        denom = sq[i].sum()
        for j in range(n):
            if j != i:
                expected[(i, j)] = (1.0 / n) * (sq[i, j] / denom)

    counts = {pair: 0 for pair in expected}
    n_draws = 6000
    for seed in range(n_draws):
        rng = np.random.default_rng(seed)
        centers = _init_centers(X, 2, "k-means++", rng)
        first = int(np.flatnonzero(X[:, 0] == centers[0, 0])[0])
        second = int(np.flatnonzero(X[:, 0] == centers[1, 0])[0])
        counts[(first, second)] += 1

    chi2 = sum(
        (counts[pair] - n_draws * p) ** 2 / (n_draws * p)
        for pair, p in expected.items()
    )
    # critical value chi2(dof=5) at alpha = 1e-6
    assert chi2 < 35.888


class TestEstimatorApi:
    def test_get_params(self):
        est = KMeans(n_clusters=4, tol=1e-6)
        params = est.get_params()
        assert params["n_clusters"] == 4
        assert params["tol"] == 1e-6
        assert set(params) == {
            "n_clusters", "init", "n_init", "max_iter", "tol", "random_state"
        }

    def test_set_params_roundtrip(self):
        est = KMeans().set_params(n_clusters=7, random_state=3)
        assert est.n_clusters == 7
        assert est.random_state == 3
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_fit_predict_equals_labels(self):
        X = np.random.default_rng(1).normal(size=(30, 2))
        est = KMeans(n_clusters=2, random_state=5)
        assert np.array_equal(est.fit_predict(X), est.labels_)

    def test_repr_shows_params(self):
        assert "n_clusters=3" in repr(KMeans(n_clusters=3))


# -- the screened assignment against the full distance table ------------------

def reference_sq_dists(X, centers):
    """The dense (n, k, d) difference tensor the screen replaces."""
    diff = X[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2)


def reference_assign(X, centers):
    d2 = reference_sq_dists(X, centers)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(X.shape[0]), labels]


def reference_init(X, k, init, rng):
    """Seeding with the dense table, as the estimator draws it."""
    n = X.shape[0]
    if init == INIT_RANDOM:
        return X[np.sort(rng.choice(n, size=k, replace=False))].copy()
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = reference_sq_dists(X, centers[:1]).min(axis=1)
    for j in range(1, k):
        total = d2.sum()
        idx = rng.choice(n, p=d2 / total) if total > 0 else rng.integers(n)
        centers[j] = X[idx]
        d2 = np.minimum(d2, reference_sq_dists(X, centers[j : j + 1]).min(axis=1))
    return centers


def reference_fit(X, k, seed, n_init, init="k-means++", max_iter=100, tol=1e-9):
    """Lloyd with the full distance table, per-cluster means and wss()."""
    best = None
    for r in range(n_init):
        rng = np.random.default_rng(seed + r)
        centers = reference_init(X, k, init, rng)
        path = []
        for n_iter in range(1, max_iter + 1):
            labels, point_d2 = reference_assign(X, centers)
            while True:  # empty-cluster repair, as in the estimator
                empty = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
                if empty.size == 0:
                    break
                j = int(np.argmax(point_d2))
                labels[j] = empty[0]
                point_d2[j] = -1.0
            new_centers = np.empty_like(centers)
            for j in range(k):
                new_centers[j] = X[labels == j].mean(axis=0)
            path.append(wss(X, labels, new_centers))
            shift_sq = ((new_centers - centers) ** 2).sum(axis=1)
            centers = new_centers
            if np.sqrt(shift_sq.max()) <= tol:
                break
        if best is None or path[-1] < best[2]:
            best = (labels, centers, path[-1], n_iter, tuple(path), r)
    return best


def assert_fit_matches_reference(X, k, seed, n_init, init="k-means++"):
    est = KMeans(n_clusters=k, n_init=n_init, init=init, random_state=seed).fit(X)
    labels, centers, objective, n_iter, path, restart = reference_fit(
        X, k, seed, n_init, init)
    assert np.array_equal(est.labels_, labels)
    assert est.cluster_centers_.tobytes() == centers.tobytes()  # signs of zero too
    assert est.inertia_ == wss(X, labels, centers)
    assert est.objective_path_ == path
    assert (est.n_iter_, est.best_restart_) == (n_iter, restart)


def grid(n, d, seed, levels=10, scale=1.0 / 9.0, shift=0.0):
    """Integer-grid points like the WBC table, optionally scaled and shifted."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=(n, d)) * scale + shift


@st.composite
def assignment_cases(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 8))
    d = draw(st.integers(1, 12))
    levels = draw(st.sampled_from([2, 3, 10]))
    scale = draw(st.sampled_from([1.0, 1.0 / 9.0, 0.1, 1e-300]))
    shift = draw(st.sampled_from([0.0, 1e6, -3.5]))
    seed = draw(st.integers(0, 2**16))
    X = grid(n, d, seed, levels, scale, shift)
    C = grid(k, d, seed + 1, levels, scale, shift)
    if draw(st.booleans()):  # centers that are means of grid points, as in Lloyd
        C = (C + grid(k, d, seed + 2, levels, scale, shift)) / 2
    return X, C


def screen(X, C):
    """The screened assignment as a fit runs it, around the data mean."""
    center = X.mean(axis=0)
    return _screened_nearest(_rows(X, center), _rows(C, center))


@settings(max_examples=300, deadline=None)
@given(assignment_cases())
def test_screened_assignment_matches_full_table(case):
    X, C = case
    labels, d2 = screen(X, C)
    ref_labels, ref_d2 = reference_assign(X, C)
    assert np.array_equal(labels, ref_labels)
    assert d2.tobytes() == ref_d2.tobytes()


class TestScreenedAssignment:
    def check(self, X, C):
        labels, d2 = screen(X, C)
        ref_labels, ref_d2 = reference_assign(X, C)
        assert np.array_equal(labels, ref_labels)
        assert d2.tobytes() == ref_d2.tobytes()

    def test_equidistant_points_go_to_the_lowest_center(self):
        C = np.array([[1.0, 0.0, 3.0], [-1.0, 0.0, 3.0], [0.0, 5.0, 3.0]])
        X = np.array([[0.0, 0.0, 3.0], [0.0, 0.3, 3.0], [0.0, -2.0, 3.0]])
        self.check(X, C)
        assert screen(X, C)[0].tolist() == [0, 0, 0]
        self.check(X, C[::-1].copy())

    def test_duplicate_centers(self):
        X = grid(40, 9, 3)
        self.check(X, X[[5, 7, 5, 7, 5]])

    def test_k_equals_n_with_duplicate_points(self):
        X = grid(60, 4, 4, levels=2)  # many exact duplicates
        self.check(X, X)

    def test_shifted_data_where_the_expansion_cancels(self):
        # at 1e8 the expansion loses every digit of a 1/9 step; a plain GEMM
        # argmin gets it wrong, the recheck may not
        X = grid(200, 9, 5, shift=1e8)
        C = (X[:7] + X[7:14]) / 2
        self.check(X, C)
        gemm = ((C * C).sum(axis=1) - 2 * X @ C.T).argmin(axis=1)
        assert not np.array_equal(gemm, reference_assign(X, C)[0])

    def test_shifted_data_is_screened_around_its_mean(self):
        # around the origin the slack grows with |x|^2 = 9e12 and lets other
        # pairs through; around the data mean only each point's pick is left
        X = grid(200, 9, 11, shift=1e6)
        C = (X[:7] + X[7:14]) / 2
        self.check(X, C)
        center = X.mean(axis=0)
        near = _candidates(_rows(X, center), _rows(C, center))[1]
        far = _candidates(_rows(X, 0.0), _rows(C, 0.0))[1]
        assert near.sum() == len(X) < far.sum()

    def test_values_that_overflow_the_expansion(self):
        X = grid(30, 3, 6, scale=1e154)
        with pytest.warns(RuntimeWarning, match="overflow"):  # the exact squares
            self.check(X, X[:4] * 0.5)
        self.check(X * 1e-154, X[:4] * 1e-154)

    def test_subnormal_scale(self):
        X = grid(30, 3, 7, scale=1e-310)
        self.check(X, X[:5])

    def test_predict_uses_the_same_rule(self):
        X = grid(80, 9, 8)
        est = KMeans(n_clusters=4, random_state=0, n_init=3).fit(X)
        q = grid(50, 9, 9)
        assert np.array_equal(est.predict(q), reference_assign(q, est.cluster_centers_)[0])


class TestLloydMatchesReference:
    """Whole fits equal the dense-table Lloyd bit for bit."""

    @pytest.mark.parametrize("k", range(2, 11))
    def test_synthetic_wbc_sweep_seeds(self, synth_data, k):
        data, _ = synth_data
        assert_fit_matches_reference(data.features, k, 42 + 7919 * k, n_init=5)

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_raw_integer_grid(self, k):
        assert_fit_matches_reference(grid(300, 9, 10, scale=1.0), k, 7, n_init=4)

    @pytest.mark.parametrize("k", [2, 4])
    def test_shifted_by_a_million(self, k):
        assert_fit_matches_reference(grid(120, 9, 11, shift=1e6), k, 3, n_init=2)

    def test_duplicates_and_random_init(self):
        X = np.repeat(grid(15, 3, 12, levels=3), 4, axis=0)
        assert_fit_matches_reference(X, 6, 5, n_init=6, init=INIT_RANDOM)

    def test_k_equals_n(self):
        assert_fit_matches_reference(grid(12, 2, 13), 12, 1, n_init=3)

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_single_feature(self, n):
        # one column is summed pairwise by mean(); d = 1 keeps that path
        assert_fit_matches_reference(grid(n, 1, 14, levels=50), 3, 2, n_init=3)

    def test_negative_zero_members(self):
        # a --no-normalize table whose column reads -0.0 in a whole cluster:
        # numpy's mean adds onto +0.0, and so does bincount
        X = grid(40, 3, 15)
        X[:20, 1] = -0.0
        X[20:, 1] += 5.0
        est = KMeans(n_clusters=2, random_state=0, n_init=2).fit(X)
        zero_center = est.cluster_centers_[est.labels_[0], 1]
        assert zero_center == 0.0 and not np.signbit(zero_center)
        assert_fit_matches_reference(X, 2, 0, n_init=2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 25), st.integers(1, 6), st.integers(1, 5),
    st.sampled_from([0.0, -0.0, 1e6]), st.integers(0, 2**16),
)
def test_fit_matches_reference_property(n, d, k, shift, seed):
    X = grid(n + k, d, seed, levels=3, shift=shift)
    if shift == 0.0 and np.signbit(shift):
        X[X == 0.0] = -0.0
    assert_fit_matches_reference(X, k, seed, n_init=2)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.integers(2, 6), st.integers(1, 5), st.integers(0, 2**16))
def test_center_means_equal_per_cluster_means(n, d, k, seed):
    rng = np.random.default_rng(seed)
    X = grid(n, d, seed, levels=3) - 1.0 / 9.0
    X[(X == 0.0) & (rng.random(X.shape) < 0.7)] = -0.0
    labels = np.unique(rng.integers(0, k, size=n), return_inverse=True)[1]
    k = int(labels.max()) + 1
    got = _center_means(X, labels, k)
    want = np.array([X[labels == j].mean(axis=0) for j in range(k)])
    assert got.tobytes() == want.tobytes()
