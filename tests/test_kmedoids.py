import hashlib
import math
import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import (DistanceMatrix, KMedoids, Metric, distance, distances, kmedoids,
                        pairwise_distances, pam_cost, silhouette_report, sweep_k)
from clusterlab.exceptions import AnalysisError, InvalidMedoidError, TooFewPointsError
from conftest import REPO_ROOT, load_tool

bench_pairs = load_tool("bench_pairs")


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

    @pytest.mark.parametrize("params", [{"n_clusters": 0}, {"max_swap_iters": -1},
                                        {"n_clusters": 2.7}, {"max_swap_iters": 1.5}])
    def test_invalid_settings_build_no_distances(self, monkeypatch, params):
        built = []

        def counting(*args):
            built.append(args)
            return pairwise_distances(*args)

        monkeypatch.setattr(kmedoids, "pairwise_distances", counting)
        with pytest.raises(ValueError):
            KMedoids(**params).fit(np.arange(8.0).reshape(4, 2))
        assert built == []
        KMedoids().fit(np.arange(8.0).reshape(4, 2))
        assert len(built) == 1

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
        labels = est.labels_.tolist()
        assert labels[0] == labels[1] != labels[2] == labels[3]

    def test_get_params(self):
        params = KMedoids(n_clusters=3).get_params()
        assert set(params) == {"n_clusters", "max_swap_iters", "metric"}


# -- the screened BUILD and SWAP against the gathered-column reference ---------

def reference_build(D, k):
    """BUILD as it was written before the screen: one gathered (n, n - k)
    column block per step."""
    medoids = [int(np.argmin(D.sum(axis=1)))]
    nearest = D[:, medoids[0]].copy()
    for _ in range(1, k):
        in_set = np.zeros(D.shape[0], dtype=bool)
        in_set[medoids] = True
        cands = np.flatnonzero(~in_set)
        costs = np.minimum(nearest[:, None], D[:, cands]).sum(axis=0)
        chosen = int(cands[np.argmin(costs)])
        medoids.append(chosen)
        nearest = np.minimum(nearest, D[:, chosen])
    return sorted(medoids)


def reference_swap(D, medoids, max_swap_iters):
    """SWAP as it was written before the screen: every (medoid, candidate)
    cost from one gathered (n, n - k) column block per medoid."""
    n = D.shape[0]
    cost = float(D[:, medoids].min(axis=1).sum())
    swaps = 0
    converged = False
    for _ in range(max_swap_iters):
        in_set = np.zeros(n, dtype=bool)
        in_set[medoids] = True
        cands = np.flatnonzero(~in_set)
        if cands.size == 0:
            converged = True
            break
        best = None  # (cost, medoid, candidate)
        for pos, m in enumerate(medoids):
            others = medoids[:pos] + medoids[pos + 1 :]
            rest = D[:, others].min(axis=1) if others else np.full(n, np.inf)
            costs = np.minimum(rest[:, None], D[:, cands]).sum(axis=0)
            j = int(np.argmin(costs))
            if best is None or costs[j] < best[0]:
                best = (float(costs[j]), m, int(cands[j]))
        proposal = sorted(set(medoids) - {best[1]} | {best[2]})
        new_cost = float(D[:, proposal].min(axis=1).sum())
        if new_cost < cost:
            medoids = proposal
            cost = new_cost
            swaps += 1
        else:
            converged = True
            break
    return medoids, cost, swaps, converged


def grid(n, d, seed, levels=10, scale=1.0 / 9.0, shift=0.0):
    """Integer-grid points like the WBC table (values 1..10, min-max
    normalised), optionally with fewer levels, scaled and shifted."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=(n, d)) * scale + shift


def raw_matrix(X, metric):
    """The distance matrix of rows that ``pairwise_distances`` refuses, each
    entry the scalar kernel's, as a caller would pass it in."""
    with pytest.raises(AnalysisError, match="too large for float64"):
        pairwise_distances(X, metric)
    with np.errstate(over="ignore"):
        return DistanceMatrix([[distance(a, b, metric) for b in X] for a in X], metric)


def assert_fit_matches_reference(X, metric, k, max_swap_iters=200):
    assert_matches_reference(pairwise_distances(X, metric), k, max_swap_iters)


def assert_matches_reference(dist, k, max_swap_iters=200):
    """Medoids, inertia, swaps, convergence and labels of a fit equal the
    reference BUILD and SWAP bit for bit. Each SWAP iteration hands the
    exact kernel at least one pair, and at most all k * (n - k) of them,
    which it does without the float32 copy."""
    D = dist.square()
    medoids, cost, swaps, converged = reference_swap(
        D, reference_build(D, k), max_swap_iters)
    labels = D[:, medoids].argmin(axis=1)
    labels[medoids] = np.arange(k)
    est = KMedoids(n_clusters=k, max_swap_iters=max_swap_iters).fit(dist)
    assert est.medoid_indices_.tolist() == medoids
    assert np.float64(est.inertia_).tobytes() == np.float64(cost).tobytes()
    assert est.n_swaps_ == swaps
    assert est.converged_ == converged
    assert np.array_equal(est.labels_, labels)
    iterations, pairs = swaps + (converged and k < dist.n), k * (dist.n - k)
    assert iterations <= est.n_screened_pairs_ <= iterations * pairs
    if dist.square32 is None:
        assert est.n_screened_pairs_ == iterations * pairs


FAMILIES = {
    "wbc-like": lambda: grid(60, 9, 1),
    # near-tied swaps that only the pairwise row-sum order tells apart
    "duplicates": lambda: grid(102, 3, 2, levels=2),
    "integer-line": lambda: grid(30, 1, 3, levels=12, scale=1.0),
    "shifted-1e6": lambda: grid(50, 9, 4, shift=1e6),
}


class TestScreenedPamMatchesReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("metric", list(Metric))
    def test_families(self, family, metric):
        X = FAMILIES[family]()
        n = X.shape[0]
        for k in (1, 2, 3, 5, n - 1, n):
            for max_swap_iters in (0, 1, 200):
                assert_fit_matches_reference(X, metric, k, max_swap_iters)

    @pytest.mark.parametrize("family", sorted(FAMILIES) + ["infinite"])
    @pytest.mark.parametrize("metric", list(Metric))
    def test_sweep_matches_fits_at_every_k(self, family, metric):
        # one BUILD for the largest k serves every k of the sweep
        if family == "infinite":  # 1e200 apart: squared distances overflow to inf
            X = np.array([[0.0], [1.0], [2.0], [1e200], [-1e200], [3.0], [2.0]])
        else:
            X = FAMILIES[family]()
        if family == "infinite" and metric is not Metric.MANHATTAN:
            dist = raw_matrix(X, metric)  # pairwise_distances refuses these rows
        else:
            dist = pairwise_distances(X, metric)
        D = dist.square()
        k_hi = min(X.shape[0] - 1, 8)
        order = kmedoids._build(dist, k_hi)
        with np.errstate(invalid="ignore"):  # widths of inf - inf
            result = sweep_k(X, (2, k_hi), algorithm="pam", metric=metric, dist=dist)
            for k, sil, wss in zip(result.ks, result.avg_silhouette, result.wss):
                assert sorted(order[:k]) == reference_build(D, k)
                est = KMedoids(n_clusters=k, metric=metric).fit(dist)
                swept = KMedoids(n_clusters=k, metric=metric)._swap_from(dist, order)
                for name in ("medoid_indices_", "labels_", "n_swaps_", "converged_"):
                    assert np.array_equal(getattr(swept, name), getattr(est, name))
                assert np.float64(wss).tobytes() == np.float64(est.inertia_).tobytes()
                overall = silhouette_report(dist, est.labels_).overall
                assert np.float64(sil).tobytes() == np.float64(overall).tobytes()
                assert_matches_reference(dist, k)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_across_row_blocks(self, monkeypatch, metric):
        # blocks of 7 rows, so blocks end inside clusters and candidates
        monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", 7 * 90)
        X = np.vstack([grid(60, 9, 21), grid(30, 9, 22, levels=3)])
        for k in (1, 2, 4, 89, 90):
            assert_fit_matches_reference(X, metric, k)

    def test_overlapping_blobs_take_several_swaps(self):
        X = separable_blobs(seed=3, n_points=120, k=4, d=3, spread=2.0, separation=4.0)
        assert KMedoids(n_clusters=4).fit(X).n_swaps_ == 7
        for k in (2, 4, 6):
            assert_fit_matches_reference(X, Metric.EUCLIDEAN, k)

    def test_infinite_distances_go_to_the_exact_kernel(self):
        # 1e200 apart, so the Euclidean distances overflow to inf: a matrix
        # passed in is the one way such distances reach PAM
        X = np.array([[0.0], [1.0], [2.0], [1e200], [-1e200], [3.0]])
        dist = raw_matrix(X, Metric.EUCLIDEAN)
        assert np.isinf(dist.square()).any()
        for k in (1, 2, 3, 5):
            assert_matches_reference(dist, k)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_square_is_exactly_symmetric(self, metric):
        # the exact kernel reads row D[c] for column D[:, c]
        for X in (grid(70, 9, 31), grid(50, 3, 32, levels=3, shift=1e6)):
            D = pairwise_distances(X, metric).square()
            assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()


# -- the float32 screens against an adversarial referee -------------------------

def screen_bound(x, n):
    """The derived error bound of a screen value whose exact value is x, a
    sum of n or fewer terms in units of 2**-e: g(n)*x + 3*n*tau (see
    ``kmedoids._build``)."""
    u = 2.0**-24
    return n * u / (1 - n * u) * x + 3 * n * kmedoids._TINY32


class AdversarialScreens:
    """Stands in for both screens: each of BUILD's row costs and of SWAP's
    SV and SU entries is the exact sum (``math.fsum``) of its scaled float64
    terms, moved by the full derived bound, up for the exact kernel's
    winner and down for every other row, so that the screen's slack alone
    keeps the winner among the pairs the exact kernel decides."""

    def __init__(self, monkeypatch):
        best_swap = kmedoids._best_swap

        def recording(dist, medoids, valid):
            self.valid = valid  # the candidates, which the sums are not told
            return best_swap(dist, medoids, valid)

        monkeypatch.setattr(kmedoids, "_best_swap", recording)
        monkeypatch.setattr(kmedoids, "_approx_costs", self.approx_costs)
        monkeypatch.setattr(kmedoids, "_cluster_sums", self.cluster_sums)

    @staticmethod
    def approx_costs(dist, bound, rows):
        D, (_, e) = dist.square(), dist.square32
        exact = np.array([math.fsum(np.ldexp(np.minimum(D[c], bound), -e)) for c in rows])
        kernel = kmedoids._row_costs(D, kmedoids._tile(bound, rows.size), rows)
        sign = np.full(rows.size, -1.0)
        sign[np.argmin(kernel)] = 1.0
        return exact + sign * screen_bound(exact, dist.n)

    def cluster_sums(self, dist, owner, dn, ds, k):
        D, (_, e), n = dist.square(), dist.square32, dist.n
        sums = np.empty((2, n, k))
        for half, bound in enumerate((dn, ds)):
            terms = np.ldexp(np.minimum(D, bound), -e)  # row c, column o
            for j in range(k):
                sums[half, :, j] = [math.fsum(row) for row in terms[:, owner == j]]
        best = None  # (exact cost, candidate), as _best_swap picks it
        rows = np.flatnonzero(self.valid)
        for pos in range(k):
            tile = kmedoids._tile(np.where(owner == pos, ds, dn), rows.size)
            costs = kmedoids._row_costs(D, tile, rows)
            j = int(np.argmin(costs))
            if best is None or costs[j] < best[0]:
                best = (costs[j], rows[j])
        sign = np.full((n, 1), -1.0)
        sign[best[1]] = 1.0
        return sums + sign * screen_bound(sums, n)


REFEREED = {
    **{family: lambda metric, f=f: pairwise_distances(f(), metric)
       for family, f in FAMILIES.items()},
    "duplicates-1d": lambda metric: pairwise_distances(grid(40, 1, 8, levels=2), metric),
    "duplicates-2d": lambda metric: pairwise_distances(grid(45, 2, 9, levels=2), metric),
    # the copy's power of two far from 1 both ways: distances of about 1e-160
    # (squared ones subnormal, scaled by more than float64's largest value)
    # and of about 1e154
    "scaled-1e-160": lambda metric: pairwise_distances(grid(40, 3, 10, levels=3,
                                                            scale=1e-160), metric),
    "scaled-1e154": lambda metric: DistanceMatrix(
        pairwise_distances(grid(40, 3, 10, levels=3), metric).square() * 1e154, metric),
}


@pytest.mark.parametrize("case", sorted(REFEREED))
@pytest.mark.parametrize("metric", list(Metric))
def test_screens_hold_against_an_adversarial_referee(monkeypatch, case, metric):
    dist = REFEREED[case](metric)
    assert dist.square32 is not None  # both screens run
    AdversarialScreens(monkeypatch)
    for k in (1, 2, 3, 5):
        for max_swap_iters in (1, 200):
            assert_matches_reference(dist, k, max_swap_iters)


def traced_peak(run):
    """Peak bytes traced by tracemalloc while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pam_path_holds_a_few_blocks():
    """The distance build, its float32 copy, BUILD and the SWAP screen walk
    blocks of rows: at n = 1500 (an 18 MB matrix, 69 blocks of 256 KB) each
    holds at most six blocks, its O(n k) per-point arrays included, beside
    the matrices it reads or returns; none holds an n x n or n x (n - k)
    temporary."""
    n, k = 1500, 10
    X = grid(n, 9, 41)
    few = 6 * 8 * distances._SCREEN_ELEMENTS
    assert traced_peak(lambda: pairwise_distances(X)) - 8 * n * n <= few
    dist = pairwise_distances(X)
    assert traced_peak(lambda: dist.square32) - 4 * n * n <= few
    assert traced_peak(lambda: kmedoids._build(dist, k)) <= few
    medoids = sorted(kmedoids._build(dist, k))
    valid = np.ones(n, dtype=bool)
    valid[medoids] = False
    assert traced_peak(lambda: kmedoids._best_swap(dist, medoids, valid)) <= few


@st.composite
def pam_cases(draw):
    n = draw(st.integers(1, 25))
    d = draw(st.integers(1, 9))
    levels = draw(st.sampled_from([2, 3, 10]))
    shift = draw(st.sampled_from([0.0, 1e6]))
    X = grid(n, d, draw(st.integers(0, 2**16)), levels, shift=shift)
    return X, draw(st.sampled_from(list(Metric))), draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(pam_cases(), st.sampled_from([0, 1, 200]))
def test_screened_pam_matches_reference(case, max_swap_iters):
    X, metric, k = case
    assert_fit_matches_reference(X, metric, k, max_swap_iters)


# -- PAM does not depend on the BLAS kernel --------------------------------------

@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_pam_sweep_does_not_depend_on_the_blas_kernel(synth_csv_path, monkeypatch, coretype):
    # the float32 GEMM of SWAP's screen rounds differently on each kernel;
    # the exact kernel's decisions, and so every byte, must not
    def run():
        """The OpenBLAS core name a fresh interpreter reads (through ctypes),
        and the sha256 of the sweep's stdout."""
        proc = subprocess.run([sys.executable, "-m", "clusterlab.cli", "sweep",
                               str(synth_csv_path), "--algorithm", "pam", "--k-max", "6",
                               "--seed", "1"], capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return bench_pairs.blas_core(REPO_ROOT), hashlib.sha256(proc.stdout).hexdigest()

    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    native_core, native = run()
    monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    core, digest = run()
    if core == native_core:
        pytest.skip(f"OPENBLAS_CORETYPE={coretype} changed no core: both runs used "
                    f"{native_core}")
    assert digest == native
