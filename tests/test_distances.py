import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import (
    PCA2D,
    DistanceMatrix,
    KMeans,
    KMedoids,
    Metric,
    distance,
    hopkins_statistic,
    pairwise_distances,
    sweep_k,
    wss,
)
from clusterlab import distances
from clusterlab._checks import check_domain
from clusterlab.distances import _nearest, _rows
from clusterlab.exceptions import AnalysisError, DimensionMismatchError
from oracles import nearest_neighbor

ALL_METRICS = list(Metric)


class TestDistance:
    def test_identity(self):
        x = [1.5, -2.0, 3.25]
        for metric in ALL_METRICS:
            assert distance(x, x, metric) == 0.0

    def test_three_four_five(self):
        assert distance((0, 0), (3, 4), Metric.EUCLIDEAN) == 5.0

    def test_manhattan(self):
        assert distance((0, 0), (3, 4), Metric.MANHATTAN) == 7.0

    def test_squared_euclidean(self):
        assert distance((0, 0), (3, 4), Metric.SQEUCLIDEAN) == 25.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance([1, 2], [1, 2, 3])

    def test_metric_coercion_from_string(self):
        assert distance((0, 0), (3, 4), "euclidean") == 5.0
        with pytest.raises(ValueError):
            Metric.coerce("chebyshev")


vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_symmetry_property(data):
    a = data.draw(vectors)
    b = data.draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
        min_size=len(a), max_size=len(a),
    ))
    for metric in ALL_METRICS:
        assert distance(a, b, metric) == distance(b, a, metric)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = rng.normal(size=(3, 5))
        for metric in (Metric.EUCLIDEAN, Metric.MANHATTAN):
            dab = distance(a, b, metric)
            dbc = distance(b, c, metric)
            dac = distance(a, c, metric)
            assert dac <= dab + dbc + 1e-9


def test_squared_euclidean_violates_triangle_inequality():
    # 1-D points 0, 1, 2: 4 > 1 + 1, the documented counterexample
    assert distance([0.0], [2.0], Metric.SQEUCLIDEAN) > (
        distance([0.0], [1.0], Metric.SQEUCLIDEAN)
        + distance([1.0], [2.0], Metric.SQEUCLIDEAN)
    )


class TestPairwise:
    def test_single_point(self):
        dm = pairwise_distances(np.array([[1.0, 2.0]]))
        assert dm.n == 1
        assert dm.square().tolist() == [[0.0]]

    def test_three_collinear_points(self):
        dm = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
        assert dm.square().tolist() == [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]]

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_naive_double_loop_exactly(self, metric):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(100, 6))
        dm = pairwise_distances(X, metric)
        # naive oracle: one call of the scalar kernel per pair
        for i in range(X.shape[0]):
            for j in range(i + 1, X.shape[0]):
                assert dm.get(i, j) == distance(X[i], X[j], metric)

    def test_get_is_symmetric_with_zero_diagonal(self):
        X = np.random.default_rng(3).normal(size=(8, 3))
        dm = pairwise_distances(X)
        for i in range(8):
            assert dm.get(i, i) == 0.0
            for j in range(8):
                assert dm.get(i, j) == dm.get(j, i)

    def test_square_matches_get(self):
        X = np.random.default_rng(4).normal(size=(9, 2))
        dm = pairwise_distances(X)
        sq = dm.square()
        assert sq.shape == (9, 9)
        assert np.array_equal(sq, sq.T)
        for i in range(9):
            for j in range(9):
                assert sq[i, j] == dm.get(i, j)

    @pytest.mark.parametrize("entry", [-0.5, np.nan])
    def test_negative_values_rejected(self, entry):
        with pytest.raises(ValueError, match="non-negative"):
            DistanceMatrix(np.array([[0.0, entry], [entry, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            DistanceMatrix(np.zeros((2, 3)))

    def test_get_rejects_pairs_out_of_range(self):
        dm = pairwise_distances(np.arange(3.0))
        for i, j in ((3, 0), (0, 3), (-1, 0)):
            with pytest.raises(IndexError):
                dm.get(i, j)

    def test_square_is_one_shared_read_only_array(self):
        dm = pairwise_distances(np.random.default_rng(5).normal(size=(6, 2)))
        sq = dm.square()
        assert dm.square() is sq
        with pytest.raises(ValueError):
            sq[0, 1] = 1.0

    # the first block's rows: one per block, 7, and the default size
    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("d", [1, 9, 17])
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_blocks_match_naive_pairs_exactly(self, monkeypatch, rows, d, metric):
        rng = np.random.default_rng(d)
        X = np.vstack([rng.normal(size=(40, d)), np.floor(rng.random((20, d)) * 3)]) + 1e6
        if rows is not None:
            monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", 2 * rows * X.shape[0])
        D = pairwise_distances(X, metric).square()
        naive = [[distance(a, b, metric) for b in X] for a in X]
        assert D.tolist() == naive
        assert D.tobytes() == np.ascontiguousarray(D.T).tobytes()

    def test_matrix_beyond_memory_is_refused(self, monkeypatch):
        # 8 * 683**2 + 8 * 32768 bytes: the matrix and one block of its build
        X = np.random.default_rng(0).random((683, 9))
        monkeypatch.setattr(distances, "physical_memory", lambda: 1_000_000)
        for call in (lambda: pairwise_distances(X), lambda: KMedoids().fit(X),
                     lambda: sweep_k(X, algorithm="pam")):
            with pytest.raises(AnalysisError, match="683 points need 4.0 MB"):
                call()



class TestMemoryBudget:
    """The budget is the least of the limits the process runs under, read
    through ``distances._read`` and ``resource.getrlimit``, which these tests
    replace: no limit is set on the test process."""

    @staticmethod
    def files(monkeypatch, tree):
        """Serve ``tree``, {path: text}, as the only readable files."""
        monkeypatch.setattr(distances, "_read", tree.get)

    @pytest.fixture
    def no_rlimits(self, monkeypatch):
        import resource
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY))

    def test_nothing_readable_leaves_physical_memory(self, monkeypatch):
        self.files(monkeypatch, {})
        assert distances.memory_budget() == (distances.physical_memory(), "of physical memory")

    def test_cgroup_v2_limit_of_an_ancestor(self, monkeypatch, no_rlimits):
        self.files(monkeypatch, {"/proc/self/cgroup": "0::/a/b\n",
                                 "/sys/fs/cgroup/a/b/memory.max": "max\n",
                                 "/sys/fs/cgroup/a/memory.max": "1000000\n",
                                 "/sys/fs/cgroup/memory.max": "2000000\n"})
        assert distances.memory_budget() == (1_000_000, "left under the cgroup limit "
                                             "/sys/fs/cgroup/a/memory.max")
        with pytest.raises(AnalysisError, match="^683 points need 4.0 MB for their pairwise "
                           "distance matrix, more than the 1.0 MB left under the cgroup "
                           "limit /sys/fs/cgroup/a/memory.max$"):
            pairwise_distances(np.zeros((683, 2)))

    def test_cgroup_v2_usage_less_inactive_page_cache(self, monkeypatch, no_rlimits):
        # 2 GB limit, 0.3 GB in use of which 0.1 GB is inactive page cache:
        # a 1.9 GB matrix does not fit in the 1.8 GB left
        cg = "/sys/fs/cgroup/job"
        self.files(monkeypatch, {"/proc/self/cgroup": "0::/job\n",
                                 f"{cg}/memory.max": "2000000000\n",
                                 f"{cg}/memory.current": "300000000\n",
                                 f"{cg}/memory.stat": "anon 200000000\nfile 100000000\n"
                                                      "inactive_file 100000000\n"})
        assert distances.memory_budget() == (1_800_000_000, "left under the cgroup limit "
                                             f"{cg}/memory.max")
        with pytest.raises(AnalysisError, match="more than the 1800.0 MB left under the cgroup"):
            pairwise_distances(np.zeros((15_400, 2)))

    def test_cgroup_usage_unreadable_leaves_the_whole_limit(self, monkeypatch, no_rlimits):
        self.files(monkeypatch, {"/proc/self/cgroup": "0::/job\n",
                                 "/sys/fs/cgroup/job/memory.max": "2000000\n"})
        assert distances.memory_budget()[0] == 2_000_000

    def test_cgroup_v1_memory_controller(self, monkeypatch, no_rlimits):
        v1 = "/sys/fs/cgroup/memory"
        self.files(monkeypatch, {"/proc/self/cgroup": "5:cpu,cpuacct:/other\n4:memory:/job\n",
                                 f"{v1}/job/memory.limit_in_bytes": "3000000\n",
                                 f"{v1}/job/memory.usage_in_bytes": "1000000\n",
                                 f"{v1}/job/memory.stat": "cache 600000\ninactive_file 9\n"
                                                          "total_inactive_file 400000\n",
                                 f"{v1}/memory.limit_in_bytes": "9223372036854771712\n",
                                 "/sys/fs/cgroup/other/memory.max": "1\n"})
        assert distances.memory_budget() == (2_400_000, "left under the cgroup limit "
                                             f"{v1}/job/memory.limit_in_bytes")

    def test_cgroup_limit_above_physical_memory(self, monkeypatch, no_rlimits):
        self.files(monkeypatch, {"/proc/self/cgroup": "0::/\n",
                                 "/sys/fs/cgroup/memory.max": "9223372036854771712\n"})
        assert distances.memory_budget()[1] == "of physical memory"

    @pytest.mark.parametrize("name, field", [("RLIMIT_AS", "VmSize"), ("RLIMIT_DATA", "VmData")])
    def test_room_left_under_a_soft_rlimit(self, monkeypatch, name, field):
        import resource
        limits = {getattr(resource, name): (2_000_000_000, resource.RLIM_INFINITY)}
        monkeypatch.setattr(resource, "getrlimit", lambda which: limits.get(
            which, (resource.RLIM_INFINITY, resource.RLIM_INFINITY)))
        self.files(monkeypatch, {"/proc/self/status": "Name:\tpython\n"
                                 "VmSize:\t  1000000 kB\nVmData:\t  1000000 kB\n"})
        assert distances.memory_budget() == (976_000_000, f"left under {name}")
        self.files(monkeypatch, {})  # the usage cannot be read: no limit
        assert distances.memory_budget()[1] == "of physical memory"


#: per-cell scales of the data: mixed magnitudes, squares in the subnormal
#: range, and squares that would overflow (the squared metrics refuse them)
SCALES = {
    "mixed": lambda rng, shape: rng.choice([1e-3, 1.0, 1e3], size=shape),
    "subnormal": lambda rng, shape: 1e-160,
    "overflow": lambda rng, shape: 1e154,
}


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("metric", ALL_METRICS)
def test_build_adds_coordinates_in_the_row_kernels_order(monkeypatch, scale, metric):
    """The build adds a block's d terms one coordinate at a time, in the
    order numpy's row sum adds them; every entry equals the row kernel on
    its pair bit for bit, for every d up to 300. 100 elements per block
    against 23 points: blocks of 2 to 6 rows, the last cut short. Points
    whose squares would overflow are refused, before any square."""
    monkeypatch.setattr(distances, "_SCREEN_ELEMENTS", 100)
    n, rng = 23, np.random.default_rng(5)
    refused = scale == "overflow" and metric is not Metric.MANHATTAN
    for d in range(1, 301):
        X = rng.normal(size=(n, d)) * SCALES[scale](rng, (n, d))
        if refused:
            with pytest.raises(AnalysisError, match="too large for float64"):
                pairwise_distances(X, metric)
            continue
        D = pairwise_distances(X, metric).square()
        want = np.column_stack([distances._rows_to_point(X, y, metric) for y in X])
        assert D.tobytes() == want.tobytes(), d


# -- the float64 domain ------------------------------------------------------------

#: 30 rows of 3 integer-grid features: scaled by 1e154 their squares overflow
TABLE = np.random.default_rng(6).integers(0, 10, (30, 3)).astype(np.float64)
UNIT_FIT = KMeans(n_clusters=3, n_init=2, random_state=0).fit(TABLE)

#: every entry point where squared distances begin, as a call on the rows
ENTRY_POINTS = {
    "kmeans-k-means++": lambda X: KMeans(n_clusters=3, n_init=3, random_state=1).fit(X),
    "kmeans-random": lambda X: KMeans(n_clusters=3, init="random", n_init=3,
                                      random_state=1).fit(X),
    "predict": UNIT_FIT.predict,  # the new rows and the unit-scale centers together
    "hopkins": lambda X: hopkins_statistic(X, m=5, trials=3, seed=2),
    "hopkins-power-3": lambda X: hopkins_statistic(X, m=5, trials=3, seed=2, power=3),
    "euclidean": lambda X: pairwise_distances(X, Metric.EUCLIDEAN),
    "sqeuclidean": lambda X: KMedoids(n_clusters=3, metric=Metric.SQEUCLIDEAN).fit(X),
    "sweep-kmeans": lambda X: sweep_k(X, (2, 4), seed=3, n_init=3),
    "sweep-pam": lambda X: sweep_k(X, (2, 4), algorithm="pam", metric=Metric.SQEUCLIDEAN),
    "pca": lambda X: PCA2D().fit(X),
    "wss": lambda X: wss(X, np.zeros(len(X), dtype=int), X[:1]),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_refuse_rows_outside_the_float64_domain(entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any overflow
        with pytest.raises(AnalysisError, match="too large for float64"):
            ENTRY_POINTS[entry](TABLE * 1e154)


#: tables whose sums of squared distances come near their bound: TABLE, and
#: half of the rows at each of two opposite corners
EDGE_TABLES = {"grid": TABLE, "corners": np.repeat([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0]], 15, axis=0)}


@pytest.mark.parametrize("table", sorted(EDGE_TABLES))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_overflow_nothing_at_the_edge_of_the_domain(entry, table):
    # the largest scale 0.9**j * 1e154 of the table that the entry point
    # accepts: no value any of its paths forms overflows there
    scale = 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while True:
            try:
                ENTRY_POINTS[entry](EDGE_TABLES[table] * scale)
                break
            except AnalysisError:
                scale *= 0.9
    assert scale < 1e154


def test_manhattan_keeps_its_full_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        D = pairwise_distances(TABLE * 1e154, Metric.MANHATTAN).square()
    assert np.isfinite(D).all() and D.max() > 1e155


class TestNearestNeighbor:
    def test_query_equal_to_row(self):
        X = np.arange(20.0).reshape(10, 2)
        idx, d = nearest_neighbor(X[5], X)
        assert (idx, d) == (5, 0.0)

    def test_exclusion(self):
        X = np.array([[0.0], [1.0], [5.0]])
        idx, d = nearest_neighbor(X[1], X, exclude=1)
        assert (idx, d) == (0, 1.0)

    def test_ties_break_to_lowest_index(self):
        X = np.array([[1.0], [-1.0], [1.0]])
        idx, _ = nearest_neighbor([0.0], X)
        assert idx == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(50, 4))
        for q in rng.normal(size=(20, 4)):
            idx, d = nearest_neighbor(q, X)
            dists = [distance(q, row) for row in X]
            best = min(range(50), key=lambda i: (dists[i], i))
            assert idx == best
            assert d == dists[best]


# -- the screened search's blocks ---------------------------------------------

def nearest_in_blocks(Q, X, exclude, rows):
    """``_nearest``'s indices from Q's rows to X's around X's mean, with the
    rows-first screen cut into blocks of ``rows`` queries (None: the rule)."""
    rule = distances._query_rows if rows is None else (lambda m, d: rows)
    center = X.mean(axis=0)
    with mock.patch.object(distances, "_query_rows", rule):
        return _nearest(_rows(Q, center), _rows(X, center), exclude)


def oracle_nearest(Q, X, exclude):
    return [nearest_neighbor(q, X, None if exclude is None else exclude[i], Metric.SQEUCLIDEAN)[0]
            for i, q in enumerate(Q)]


@st.composite
def search_cases(draw):
    """Integer-grid rows (few levels: duplicates and exact ties), scaled into
    the subnormal range or near the top of the float64 domain, and queries:
    sampled rows, each searched without itself, or midpoints of pairs of
    rows, which lie exactly as far from both when the scale is a power of 2."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    levels = draw(st.sampled_from([2, 3, 10]))
    scale = draw(st.sampled_from([1.0, 1.0 / 9.0, 2.0**-532, 1e-160, 1e-300, 2.0**505, 1e152,
                                  1e154]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n, d)) * scale
    if draw(st.booleans()):
        exclude = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
        return X[exclude], X, exclude, scale
    pairs = rng.integers(0, n, size=(draw(st.integers(1, 2 * n)), 2))
    return (X[pairs[:, 0]] + X[pairs[:, 1]]) / 2, X, None, scale


@settings(max_examples=200, deadline=None)
@given(search_cases())
def test_nearest_does_not_depend_on_the_block_rows(case):
    Q, X, exclude, scale = case
    try:
        check_domain(X)
    except AnalysisError:
        assert scale >= 1e152  # refused before any search: the screen never sees these rows
        return
    expected = oracle_nearest(Q, X, exclude)
    for rows in (1, 3, None, len(Q)):
        assert nearest_in_blocks(Q, X, exclude, rows).tolist() == expected


@pytest.mark.parametrize("n, rows_first", [(256, False), (257, True)])
def test_one_group_of_more_than_256_rows_searched_rows_first(monkeypatch, n, rows_first):
    # 400 midpoints against n grid rows: more queries than rows, so only
    # the searched side's size picks the layout; both give the oracle's picks
    rng = np.random.default_rng(9)
    X = rng.integers(0, 5, size=(n, 2)) * 1.0
    pairs = rng.integers(0, n, size=(400, 2))
    Q = (X[pairs[:, 0]] + X[pairs[:, 1]]) / 2
    calls, rule = [], distances._query_rows
    monkeypatch.setattr(distances, "_query_rows", lambda m, d: calls.append((m, d)) or rule(m, d))
    expected = oracle_nearest(Q, X, None)
    for rows in (1, 7, None):
        assert nearest_in_blocks(Q, X, None, rows).tolist() == expected
    assert calls == ([(n, 2)] if rows_first else [])


@pytest.mark.parametrize("scale", [1.0, 1e-160])
def test_nearest_in_blocks_of_the_rule(scale):
    # 7,000 rows of 3 features: the rule's blocks hold 9 queries, so 40
    # sampled rows run in five blocks, the last cut short
    rng = np.random.default_rng(8)
    X = np.repeat(rng.integers(0, 20, size=(3500, 3)), 2, axis=0) * scale  # every row twice
    exclude = rng.choice(len(X), size=40, replace=False)
    assert distances._query_rows(len(X), 3) == 9
    expected = oracle_nearest(X[exclude], X, exclude)
    for rows in (1, 3, None, 40):
        assert nearest_in_blocks(X[exclude], X, exclude, rows).tolist() == expected

