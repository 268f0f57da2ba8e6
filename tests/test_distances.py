import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterlab import (
    DistanceMatrix,
    Metric,
    condensed_index,
    distance,
    nearest_neighbor,
    pairwise_distances,
)
from clusterlab.exceptions import DimensionMismatchError, EmptyCandidateSetError

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


class TestCondensedIndex:
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_bijection_onto_pairs(self, n):
        seen = [condensed_index(i, j, n) for i in range(n) for j in range(i + 1, n)]
        assert sorted(seen) == list(range(n * (n - 1) // 2))

    def test_symmetric_lookup(self):
        assert condensed_index(3, 1, 5) == condensed_index(1, 3, 5)

    def test_diagonal_rejected(self):
        with pytest.raises(IndexError):
            condensed_index(2, 2, 5)


class TestPairwise:
    def test_single_point(self):
        dm = pairwise_distances(np.array([[1.0, 2.0]]))
        assert dm.n == 1
        assert dm.values.shape == (0,)

    def test_three_collinear_points(self):
        dm = pairwise_distances(np.array([[0.0], [1.0], [3.0]]))
        assert dm.values.tolist() == [1.0, 3.0, 2.0]

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

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            DistanceMatrix(3, Metric.EUCLIDEAN, np.array([1.0, -0.5, 2.0]))

    def test_square_is_expanded_once_and_read_only(self):
        dm = pairwise_distances(np.random.default_rng(5).normal(size=(6, 2)))
        sq = dm.square()
        assert dm.square() is sq
        with pytest.raises(ValueError):
            sq[0, 1] = 1.0


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

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidateSetError):
            nearest_neighbor([0.0], np.array([[1.0]]), exclude=0)
