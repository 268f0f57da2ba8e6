import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import KMeans, distances, hopkins_statistic, kmeans, wss
from clusterlab.distances import (Metric, _d2_to_picks, _rows, _screen, _screened_nearest,
                                  _to_columns)
from clusterlab.exceptions import (
    AnalysisError,
    EmptyDatasetError,
    MissingCenterError,
    NotFittedError,
    TooFewPointsError,
)
from clusterlab.kmeans import INIT_RANDOM, _draw, _means, _starts
from oracles import row_distances


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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_centers_are_refused_by_name(self, value):
        # not as values too large for float64, which the domain check says
        with pytest.raises(ValueError, match="centers contains NaN or infinite values"):
            wss(np.ones((3, 2)), [0, 0, 0], [[value, 1.0]])


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
        # the winner's objective after t iterations is the inertia of its
        # one restart cut off at max_iter=t
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 3))
        est = KMeans(n_clusters=4, n_init=3, random_state=7).fit(X)
        path = [KMeans(n_clusters=4, n_init=1, max_iter=t, random_state=7 + est.best_restart_)
                .fit(X).inertia_ for t in range(1, est.n_iter_ + 1)]
        assert all(b <= a + 1e-9 for a, b in zip(path, path[1:]))
        assert path[-1] == est.inertia_

    @pytest.mark.parametrize("shift", [0.0, 1e6])
    def test_inertia_self_consistent(self, shift):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 2)) + shift
        est = KMeans(n_clusters=3, random_state=1).fit(X)
        recomputed = wss(X, est.labels_, est.cluster_centers_)
        assert np.float64(est.inertia_).tobytes() == np.float64(recomputed).tobytes()

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
    rngs = [np.random.default_rng(seed) for seed in range(n_draws)]
    for centers in _starts(X, 2, "k-means++", rngs)[0]:  # one group, one stream each
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

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        with pytest.raises(ValueError, match="^tol must be non-negative$"):
            KMeans(tol=tol).fit(np.ones((4, 2)))

    @pytest.mark.parametrize("name,value", [("n_clusters", 2.5), ("n_init", 2.5),
                                            ("max_iter", 1.5), ("n_init", np.nan)])
    def test_counts_must_be_integers(self, name, value):
        # truncating them would fit 2 clusters, 2 restarts or 1 iteration
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            KMeans(**{name: value}).fit(grid(10, 2, 0))
        assert KMeans(**{name: 2.0}).fit(grid(10, 2, 0)).labels_.size == 10

    @pytest.mark.parametrize("fit", [lambda X: KMeans(random_state=-1, n_init=2).fit(X),
                                     lambda X: hopkins_statistic(X, seed=-3)])
    def test_negative_seed_is_refused_by_name(self, fit):
        # numpy's generators would refuse it without naming the seed
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -\d$"):
            fit(grid(10, 2, 0))

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
            shift_sq = ((new_centers - centers) ** 2).sum(axis=1)
            centers = new_centers
            if np.sqrt(shift_sq.max()) <= tol:
                break
        objective = wss(X, labels, centers)
        if best is None or objective < best[2]:
            best = (labels, centers, objective, n_iter, r)
    return best


def assert_fit_matches_reference(X, k, seed, n_init, init="k-means++", max_iter=100):
    est = KMeans(n_clusters=k, n_init=n_init, init=init, max_iter=max_iter,
                 random_state=seed).fit(X)
    labels, centers, objective, n_iter, restart = reference_fit(
        X, k, seed, n_init, init, max_iter)
    assert np.array_equal(est.labels_, labels)
    assert est.cluster_centers_.tobytes() == centers.tobytes()  # signs of zero too
    assert est.inertia_ == wss(X, labels, centers)
    assert (est.n_iter_, est.best_restart_) == (n_iter, restart)
    return est


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
    # at 1e-160 the screen's products and squares are subnormal
    scale = draw(st.sampled_from([1.0, 1.0 / 9.0, 0.1, 1e-160, 1e-300]))
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
        near = sum(cand.sum() for *_, cand in _screen(_rows(X, center), _rows(C, center)))
        far = sum(cand.sum() for *_, cand in _screen(_rows(X, 0.0), _rows(C, 0.0)))
        assert near == len(X) < far

    def test_values_that_overflow_the_expansion(self):
        # the exact squares would overflow: fit and predict refuse the rows
        X = grid(30, 3, 6, scale=1e154)
        with pytest.raises(AnalysisError, match="too large for float64"):
            KMeans(n_clusters=4, n_init=1, random_state=0).fit(X)
        est = KMeans(n_clusters=4, n_init=1, random_state=0).fit(X * 1e-154)
        with pytest.raises(AnalysisError, match="too large for float64"):
            est.predict(X)
        self.check(X * 1e-154, X[:4] * 1e-154)

    def test_values_whose_screen_sums_could_overflow(self):
        # no distance overflows, but 4*M would: the rows are refused
        X = grid(30, 3, 7, levels=4, scale=2e153)
        with pytest.raises(AnalysisError, match="too large for float64"):
            KMeans(n_clusters=4, n_init=1, random_state=0).fit(X)
        # predict checks the new rows and the centers together: either alone
        # lies in the domain, both do not
        X = grid(30, 3, 7, levels=4, scale=1.5e152)
        KMeans(n_clusters=4, n_init=1, random_state=0).fit(X)
        est = KMeans(n_clusters=4, n_init=1, random_state=0).fit(-X)
        with pytest.raises(AnalysisError, match="too large for float64"):
            est.predict(X)

    def test_subnormal_scale(self):
        X = grid(30, 3, 7, scale=1e-310)
        self.check(X, X[:5])

    def test_subnormal_products(self):
        # the screen's products round to multiples of the smallest subnormal,
        # which the slack's absolute term covers
        X = grid(30, 3, 14, scale=1e-160)
        self.check(X, (grid(5, 3, 15, scale=1e-160) + grid(5, 3, 16, scale=1e-160)) / 2)

    # queries per block: all 50 at once, or 7 against the 4 centers
    @pytest.mark.parametrize("block", [None, 7])
    def test_predict_uses_the_same_rule(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", block * 4)
        X = grid(80, 9, 8)
        est = KMeans(n_clusters=4, random_state=0, n_init=3).fit(X)
        q = grid(50, 9, 9)
        assert np.array_equal(est.predict(q), reference_assign(q, est.cluster_centers_)[0])
        assert_fit_matches_reference(X, 4, 0, n_init=3)


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


class TestLloydShortcuts:
    """The first assignment taken from k-means++ seeding, the repair's
    distances computed on demand, and no recompute once labels repeat."""

    def test_seeding_sends_ties_to_the_lower_seed(self):
        # four corners and the center of a square: two corner seeds leave the
        # center point exactly equidistant from both
        X = np.repeat([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [1.0, 1.0]], 3, axis=0)
        ties = 0
        group = _starts(X, 2, "k-means++", [np.random.default_rng(seed) for seed in range(20)])
        for seed, (centers, labels) in enumerate(zip(*group)):
            ref_labels, ref_d2 = reference_assign(X, centers)
            assert np.array_equal(labels, ref_labels)
            # the distances a repair computes on demand
            assert _d2_to_picks(X, centers, labels).tobytes() == ref_d2.tobytes()
            full = reference_sq_dists(X, centers)
            ties += np.count_nonzero(full[:, 0] == full[:, 1])
            assert_fit_matches_reference(X, 2, seed, n_init=1)
        assert ties > 0

    def test_duplicate_seeds_force_a_repair(self):
        # three distinct points, four clusters: the fourth seed repeats one,
        # so the first assignment leaves its cluster empty
        X = np.repeat([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]], 4, axis=0)
        labels = _starts(X, 4, "k-means++", [np.random.default_rng(0)])[1][0]
        assert np.bincount(labels, minlength=4).min() == 0
        assert_fit_matches_reference(X, 4, 0, n_init=3)

    @pytest.mark.parametrize("d", [3, 9])
    def test_data_scaled_by_1e154(self, d):
        # exact distances would overflow to inf: refused by either init,
        # before any restart runs
        X = grid(30, d, 6, scale=1e154)
        for init in ("k-means++", INIT_RANDOM):
            with pytest.raises(AnalysisError, match="too large for float64"):
                KMeans(n_clusters=3, init=init, n_init=3, random_state=1).fit(X)
        assert_fit_matches_reference(X * 1e-154, 3, 1, n_init=3, init=INIT_RANDOM)

    def test_centers_holding_inf_never_converge(self, monkeypatch):
        # a cluster of several 1e308 points would sum to an inf center; the
        # rows are refused, so no restart runs on them
        monkeypatch.setattr(kmeans, "_restarts", lambda *args: pytest.fail("fitted"))
        for X in (grid(6, 1, 1, levels=2, scale=1e308), np.full((6, 1), 1e308)):
            with pytest.raises(AnalysisError, match="too large for float64"):
                KMeans(n_clusters=2, init=INIT_RANDOM, n_init=1, random_state=0).fit(X)

    @pytest.mark.parametrize("n_init", [1, 3])
    @pytest.mark.parametrize("init,screens", [("k-means++", -1), (INIT_RANDOM, 0)])
    def test_one_screen_per_later_iteration(self, monkeypatch, init, screens, n_init):
        # one group: its restarts share each iteration's screen
        calls = []
        nearest = kmeans._nearest
        monkeypatch.setattr(kmeans, "_nearest", lambda *args: calls.append(0) or nearest(*args))
        est = assert_fit_matches_reference(grid(200, 4, 18), 5, 3, n_init, init)
        assert est.converged_ and est.n_iter_ > 3
        assert len(calls) == max(est.n_iter_per_restart_) + screens


class TestRestarts:
    """Each restart runs once and scores itself once, on its final labels
    and centers."""

    @pytest.mark.parametrize("init", ["k-means++", INIT_RANDOM])
    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    @pytest.mark.parametrize("n_init", [1, 2, 25])
    def test_replay_matches_reference(self, n_init, max_iter, init):
        est = assert_fit_matches_reference(grid(150, 5, 20), 4, 9, n_init, init, max_iter)
        assert est.converged_ == (max_iter == 100)  # a winner cut off at the cap

    @pytest.mark.parametrize("n_init", [1, 2, 25])
    def test_replay_of_a_forced_repair(self, n_init):
        X = np.repeat([[0.0, 0.0], [1.0, 1.0], [3.0, 0.0]], 4, axis=0)
        assert_fit_matches_reference(X, 4, 0, n_init)

    @pytest.mark.parametrize("n_init", [1, 2, 25])
    def test_replay_of_centers_holding_inf(self, monkeypatch, n_init):
        # rows whose centers would hold inf are refused whatever the restarts
        monkeypatch.setattr(kmeans, "_restarts", lambda *args: pytest.fail("fitted"))
        X = grid(6, 1, 1, levels=2, scale=1e308)
        with pytest.raises(AnalysisError, match="too large for float64"):
            KMeans(n_clusters=2, init=INIT_RANDOM, n_init=n_init, random_state=0).fit(X)

    @pytest.mark.parametrize("n_init,group,runs", [(1, None, [1]), (4, None, [4]),
                                                   (5, 2, [2, 2, 1])])
    def test_one_run_and_one_objective_per_restart(self, monkeypatch, n_init, group, runs):
        if group is not None:
            monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", group * 2 * 200)
        log = []  # one entry per group run: the _objective calls it made
        restarts, objective = kmeans._restarts, kmeans._objective

        def recording_restarts(*args):
            log.append(0)
            return restarts(*args)

        def counting_objective(*args):
            log[-1] += 1
            return objective(*args)

        monkeypatch.setattr(kmeans, "_restarts", recording_restarts)
        monkeypatch.setattr(kmeans, "_objective", counting_objective)
        est = KMeans(n_clusters=5, n_init=n_init, random_state=3).fit(grid(200, 4, 18))
        assert log == runs
        assert est.n_iter_ > 1 and not hasattr(est, "objective_path_")

    def test_iterations_per_restart(self):
        X = grid(120, 4, 19)
        est = KMeans(n_clusters=4, n_init=6, random_state=2).fit(X)
        assert len(est.n_iter_per_restart_) == 6
        assert est.n_iter_per_restart_[est.best_restart_] == est.n_iter_
        # restart r of a fit at seed s is the one restart of a fit at seed s + r
        assert est.n_iter_per_restart_ == tuple(reference_fit(X, 4, 2 + r, 1)[3]
                                                for r in range(6))
        assert len(set(est.n_iter_per_restart_)) > 1

    def test_kmeans_pp_refuses_squared_distances_that_overflow(self, monkeypatch):
        # refused before any seed is drawn
        monkeypatch.setattr(kmeans, "_starts", lambda *args: pytest.fail("seeded"))
        X = grid(30, 3, 6, scale=1e154)
        with pytest.raises(AnalysisError, match="squared distances or the sums of those "
                                                "could overflow; normalise the data"):
            KMeans(n_clusters=3, n_init=3, random_state=1).fit(X)


class TestLockstep:
    """A fit runs its restarts in groups of ``_block_rows(2 * n)``, each
    group in lockstep; every restart equals the dense-table Lloyd run on its
    own, bit for bit. The block budget is patched to force small groups."""

    @staticmethod
    def fit(monkeypatch, X, k, seed, n_init, group, init="k-means++", max_iter=100):
        """A fit in groups of ``group`` restarts, checked restart by restart:
        the fitted estimator and the results of each group run."""
        monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", group * 2 * len(X))
        runs, restarts = [], kmeans._restarts

        def recording_restarts(*args):
            runs.append(restarts(*args))
            return runs[-1]

        monkeypatch.setattr(kmeans, "_restarts", recording_restarts)
        est = assert_fit_matches_reference(X, k, seed, n_init, init, max_iter)
        assert [len(run) for run in runs] == ([group] * (n_init // group)
                                              + [n_init % group] * (n_init % group > 0))
        for r, (objective, labels, centers, n_iter, converged) in enumerate(
                result for run in runs for result in run):
            ref = reference_fit(X, k, seed + r, 1, init, max_iter)
            assert np.array_equal(labels, ref[0])
            assert centers.tobytes() == ref[1].tobytes()
            assert (objective, n_iter) == (ref[2], ref[3]) == (ref[2], est.n_iter_per_restart_[r])
            # converged at the cap when one more iteration would not have run
            assert converged == (n_iter < max_iter or reference_fit(
                X, k, seed + r, 1, init, max_iter + 1)[3] == max_iter)
        return est, runs

    # 7 restarts: groups of 2 and 3 leave a ragged last group
    @pytest.mark.parametrize("max_iter", [1, 2, 100])
    @pytest.mark.parametrize("init", ["k-means++", INIT_RANDOM])
    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_groups_match_reference(self, monkeypatch, group, init, max_iter):
        est, runs = self.fit(monkeypatch, grid(150, 5, 20), 4, 9, 7, group, init, max_iter)
        if max_iter == 100 and group > 1:  # restarts of one group finish apart
            assert any(len({result[3] for result in run}) > 1 for run in runs)

    def test_a_repair_in_one_restart_of_a_group(self, monkeypatch):
        # random init may draw two of the eight equal points: one of their
        # clusters stays empty and is repaired; restart 4 draws three distinct
        X = np.array([[0.0, 0.0]] * 8 + [[5.0, 5.0]] * 2 + [[9.0, 0.0]])
        calls, repair = [], kmeans._repair_empty
        monkeypatch.setattr(kmeans, "_repair_empty", lambda *a: calls.append(0) or repair(*a))
        repaired = []
        for seed in range(6):
            calls.clear()
            KMeans(n_clusters=3, init=INIT_RANDOM, n_init=1, random_state=seed).fit(X)
            repaired.append(bool(calls))
        assert repaired == [True, True, True, True, False, True]
        self.fit(monkeypatch, X, 3, 0, 6, 3, INIT_RANDOM)  # groups (0, 1, 2), (3, 4, 5)

    @pytest.mark.parametrize("group", [1, 2, 3])
    def test_a_restart_holding_inf_runs_on_while_the_others_converge(self, monkeypatch, group):
        # restarts 1 to 3 would put two points of 1e308 in one cluster, whose
        # center would be inf: the rows are refused before any group runs
        monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", group * 2 * 4)
        monkeypatch.setattr(kmeans, "_restarts", lambda *args: pytest.fail("fitted"))
        X = np.array([[6e307, 1e308], [1e308, 6e307], [1e308, 1e308], [0.0, 0.0]])
        with pytest.raises(AnalysisError, match="too large for float64"):
            KMeans(n_clusters=3, init=INIT_RANDOM, n_init=6, random_state=0).fit(X)

    @pytest.mark.parametrize("group", [2, 3])
    def test_single_feature(self, monkeypatch, group):
        # d = 1 keeps numpy's pairwise mean per cluster
        self.fit(monkeypatch, grid(40, 1, 14, levels=50), 3, 2, 5, group)

    @pytest.mark.parametrize("k", [2, 10])
    def test_group_size_depends_on_n_alone(self, monkeypatch, k):
        # 25 restarts on 683 rows run in groups of _block_rows(2 * 683) = 23 at every k
        sizes, restarts = [], kmeans._restarts

        def recording_restarts(rows, mean, k, init, seeds, *args):
            sizes.append(len(seeds))
            return restarts(rows, mean, k, init, seeds, *args)

        monkeypatch.setattr(kmeans, "_restarts", recording_restarts)
        KMeans(n_clusters=k, n_init=25, random_state=0).fit(grid(683, 9, 21))
        assert sizes == [23, 2]


@pytest.mark.parametrize("n", [683, 20_000])
@pytest.mark.parametrize("k", [2, 10])
def test_restarts_keep_memory_flat(n, k):
    """Restarts share each group's temporaries, which a blocked walk bounds:
    100 restarts peak no more than four 256 KB blocks above one restart,
    whatever k."""
    X = grid(n, 9, 21)

    def peak(n_init):
        return traced_peak(
            lambda: KMeans(n_clusters=k, n_init=n_init, max_iter=3, random_state=0).fit(X))

    assert peak(100) - peak(1) <= 4 * 8 * distances._SCREEN_ELEMENTS


def traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_restart_holds_no_exact_kernel_temporary_of_n_rows():
    """The exact kernel (k-means++ distances, the objective) walks blocks
    of columns or rows, and one restart's centre sums read the points in
    place, through the view ``X.T``. What a fit may hold beyond a few
    blocks: the prepared operand, (d + 2) n values, and at most five arrays
    of n values at once: the labels, their bins, the seeding's distances
    (until the first iteration ends), and the objective's copy of the labels
    and its distances."""
    n, d = 20_000, 9
    X = grid(n, d, 21)
    peak = traced_peak(lambda: KMeans(n_clusters=2, n_init=1, max_iter=3, random_state=0).fit(X))
    assert peak <= 8 * ((d + 2) * n + 5 * n) + 4 * 8 * distances._SCREEN_ELEMENTS


def test_screened_picks_take_their_distances_in_blocks():
    X, C = grid(20_000, 9, 22), grid(4, 9, 23)
    center = X.mean(axis=0)
    A, B = _rows(X, center), _rows(C, center)
    peak = traced_peak(lambda: _screened_nearest(A, B))
    assert peak <= 2 * 8 * len(X) + 4 * 8 * distances._SCREEN_ELEMENTS  # idx, d2 and blocks


# -- k-means++ seeding, a group at a time -------------------------------------

@st.composite
def weight_groups(draw):
    """A group's k-means++ weights, (g, n): rows with leading, trailing and
    interior zeros and repeated values at one of four scales, some rows all
    zero, and a seed per restart."""
    n, g = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-300, 1e-160, 1.0, 1e300]))
    value = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0]) | st.floats(0.0, 1.0)
    rows = []
    for _ in range(g):
        lead = draw(st.integers(0, n - 1))
        trail = draw(st.integers(0, n - 1 - lead))
        body = draw(st.lists(value, min_size=n - lead - trail, max_size=n - lead - trail))
        zero = draw(st.integers(0, 3)) == 0  # a restart whose points all sit on seeds
        rows.append([0.0] * n if zero else [0.0] * lead + body + [0.0] * trail)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=g, max_size=g))
    return np.array(rows) * scale, seeds


@settings(max_examples=300, deadline=None)
@given(weight_groups())
def test_group_draw_matches_rng_choice(case):
    d2, seeds = case
    rngs = [np.random.default_rng(s) for s in seeds]
    idx, n = _draw(d2, rngs, np.empty_like(d2)), d2.shape[1]
    for r, seed in enumerate(seeds):
        oracle, total = np.random.default_rng(seed), d2[r].sum()
        assert idx[r] == (oracle.choice(n, p=d2[r] / total) if total > 0 else oracle.integers(n))
        assert rngs[r].bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("magnitude,metric", [(np.square, Metric.SQEUCLIDEAN),
                                              (np.abs, Metric.MANHATTAN)], ids=["square", "abs"])
@pytest.mark.parametrize("g", [1, 2, 23])
def test_seed_distances_have_the_row_kernels_bits(monkeypatch, g, magnitude, metric):
    """The exact kernel on g seeds against the view ``X.T``, as seeding
    calls it, equals numpy's row sum on every (point, seed) pair, for every
    d up to 300, on mixed-scale data: the budget is patched so that the
    walk takes blocks of 7 of the 30 columns, the last cut short."""
    n, rng = 30, np.random.default_rng(g)
    monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", 2 * g * 7)
    for d in range(1, 301):
        X, seeds = (rng.normal(size=(m, d)) * rng.choice([1e-3, 1.0, 1e3], size=(m, d))
                    for m in (n, g))
        widths, out = [], np.empty((g, n))

        def recorded(reg, out):
            widths.append(reg.shape[1])
            return magnitude(reg, out=out)

        _to_columns(seeds, X.T, out, recorded)
        assert sorted(set(widths)) == [n % 7, 7], d  # several blocks, the last cut short
        want = np.array([row_distances(X, seed, metric) for seed in seeds])
        assert out.tobytes() == want.tobytes(), d


class NoChoice:
    """A generator whose ``choice`` fails the test."""

    def __init__(self, rng):
        self.random, self.integers = rng.random, rng.integers

    def choice(self, *args, **kwargs):
        pytest.fail("rng.choice drew a k-means++ seed")


def test_kmeans_pp_draws_without_rng_choice(monkeypatch):
    starts = kmeans._starts
    monkeypatch.setattr(kmeans, "_starts", lambda X, k, init, rngs: starts(
        X, k, init, [NoChoice(rng) for rng in rngs]))
    assert_fit_matches_reference(grid(150, 5, 20), 4, 9, n_init=25)


def test_a_group_runs_one_exact_pass_per_seed(monkeypatch):
    # 23 restarts of 683 points: every seed's distances in one kernel call,
    # and none by the row kernel
    calls, to_columns = [], kmeans._to_columns
    monkeypatch.setattr(kmeans, "_to_columns", lambda *args: calls.append(0) or to_columns(*args))
    monkeypatch.setattr(kmeans, "_rows_to_point", lambda *args: pytest.fail("row kernel"))
    X, k = grid(683, 9, 24), 10
    _starts(X, k, "k-means++", [np.random.default_rng(s) for s in range(23)])
    assert len(calls) == k


@pytest.mark.parametrize("n,g", [(683, 23), (20_000, 1)])
def test_seeding_holds_a_few_blocks_beyond_its_outputs(n, g):
    """Beyond d2, labels and the seed distances, (g, n) each, and the
    centers, seeding holds its registers and one block's transposed copy:
    no n*d copy, no (g, n, d) difference."""
    X, k = grid(n, 9, 25), 10
    rngs = [np.random.default_rng(s) for s in range(g)]
    peak = traced_peak(lambda: _starts(X, k, "k-means++", rngs))
    assert peak <= 8 * (3 * g * n + g * k * 9) + 3 * 8 * distances._SCREEN_ELEMENTS


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
@given(st.integers(1, 30), st.integers(1, 6), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 4), st.integers(0, 2**16))
def test_center_means_equal_per_cluster_means(n, d, k, g, step, seed):
    # g restarts summed ``step`` at a time; every cluster of every restart occupied
    rng = np.random.default_rng(seed)
    X = grid(n + k, d, seed, levels=3) - 1.0 / 9.0
    X[(X == 0.0) & (rng.random(X.shape) < 0.7)] = -0.0
    labels = rng.integers(0, k, size=(g, n + k))
    labels[:, rng.permutation(n + k)[:k]] = np.arange(k)
    keys = labels + k * np.arange(g)[:, None]
    counts = np.bincount(keys.ravel(), minlength=g * k).reshape(g, k)
    want = np.array([[X[part == j].mean(axis=0) for j in range(k)] for part in labels])
    for columns in [np.tile(X.T, min(step, g))] + [X.T] * (g == 1):  # as _restarts passes them
        assert _means(X, keys, counts, columns).tobytes() == want.tobytes()
