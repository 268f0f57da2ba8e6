from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterlab import hopkins_statistic, tendency
from clusterlab.distances import (
    Metric, _rows, _rows_to_point, _screened_nearest, nearest_neighbor,
)
from clusterlab.exceptions import EmptyDatasetError, SampleTooLargeError
from clusterlab.tendency import default_sample_size


def uniform_box(n, d, seed):
    return np.random.default_rng(seed).random((n, d))


def blobs(n, d, seed, separation=8.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(0.0, 1.0, (half, d))
    b = rng.normal(separation, 1.0, (n - half, d))
    return np.vstack([a, b])


class TestHopkins:
    def test_identical_points_degenerate(self):
        X = np.ones((30, 3))
        result = hopkins_statistic(X, m=5, trials=4, seed=0)
        assert result.h == 1.0
        assert result.degenerate
        assert result.per_trial == (1.0,) * 4

    def test_uniform_reference_near_half(self):
        # H ~= 0.5 is the spatially-uniform reference case
        X = uniform_box(683, 9, seed=123)
        result = hopkins_statistic(X, m=68, trials=50, seed=9)
        assert 0.45 <= result.h <= 0.55

    def test_clustered_data_is_higher_than_uniform(self):
        uni = hopkins_statistic(uniform_box(400, 3, seed=5), m=40, trials=20, seed=77)
        clu = hopkins_statistic(blobs(400, 3, seed=6), m=40, trials=20, seed=77)
        assert clu.h > uni.h
        assert clu.h > 0.7

    def test_trials_in_unit_interval_and_mean(self):
        result = hopkins_statistic(blobs(100, 2, seed=1), m=10, trials=25, seed=3)
        assert all(0.0 <= v <= 1.0 for v in result.per_trial)
        assert result.h == pytest.approx(np.mean(result.per_trial), rel=1e-12)

    def test_deterministic_for_fixed_seed(self):
        X = uniform_box(60, 4, seed=2)
        a = hopkins_statistic(X, m=6, trials=10, seed=42)
        b = hopkins_statistic(X, m=6, trials=10, seed=42)
        assert a.per_trial == b.per_trial
        assert a.h == b.h

    def test_different_seed_differs(self):
        X = uniform_box(60, 4, seed=2)
        a = hopkins_statistic(X, m=6, trials=10, seed=1)
        b = hopkins_statistic(X, m=6, trials=10, seed=2)
        assert a.per_trial != b.per_trial

    def test_sample_too_large(self):
        with pytest.raises(SampleTooLargeError):
            hopkins_statistic(np.random.default_rng(0).random((10, 2)), m=10)

    def test_needs_two_points(self):
        with pytest.raises(EmptyDatasetError):
            hopkins_statistic(np.ones((1, 2)), m=1)

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            hopkins_statistic(np.ones((5, 2)), m=2, trials=0)

    @pytest.mark.parametrize("power", [0, -1])
    def test_power_below_one_rejected(self, power):
        # also on identical points, where H would read 1 without a check
        for X in (uniform_box(20, 2, seed=0), np.ones((5, 2))):
            with pytest.raises(ValueError, match="power"):
                hopkins_statistic(X, m=2, trials=2, seed=0, power=power)

    def test_power_variant(self):
        X = uniform_box(100, 3, seed=8)
        result = hopkins_statistic(X, m=10, trials=10, seed=4, power=3)
        assert all(0.0 <= v <= 1.0 for v in result.per_trial)

    def test_seed_recorded(self):
        X = uniform_box(20, 2, seed=0)
        result = hopkins_statistic(X, m=2, trials=2)
        # echoed seed reproduces the run exactly
        again = hopkins_statistic(X, m=2, trials=2, seed=result.seed)
        assert again.per_trial == result.per_trial


class TestDefaultSampleSize:
    def test_ten_percent_floored(self):
        assert default_sample_size(683) == 68
        assert default_sample_size(100) == 10
        assert default_sample_size(109) == 10

    def test_small_n_clamped(self):
        assert default_sample_size(5) == 1
        assert default_sample_size(2) == 1


# -- the screened search against the one-query-at-a-time loop ------------------

def reference_per_trial(X, m, trials, seed, power=1):
    """Hopkins trials with one full nearest-neighbour pass per query."""
    n, d = X.shape
    lo, hi = X.min(axis=0), X.max(axis=0)
    per_trial = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        synthetic = lo + rng.random((m, d)) * (hi - lo)
        u = np.array(
            [_rows_to_point(X, s, Metric.EUCLIDEAN).min() for s in synthetic]
        )
        sample = rng.choice(n, size=m, replace=False)
        w = np.array(
            [nearest_neighbor(X[i], X, exclude=int(i))[1] for i in sample]
        )
        su = float(np.sum(u**power))
        sw = float(np.sum(w**power))
        per_trial.append(1.0 if su + sw == 0.0 else su / (su + sw))
    return tuple(per_trial)


def assert_matches_reference(X, m, trials, seed, power=1):
    got = hopkins_statistic(X, m=m, trials=trials, seed=seed, power=power)
    assert got.per_trial == reference_per_trial(X, m, trials, seed, power)


def grid(n, d, seed, levels=10, scale=1.0 / 9.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=(n, d)) * scale + shift


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 40), st.integers(1, 10), st.sampled_from([2, 3, 10]),
    st.sampled_from([0.0, 1e6]), st.integers(0, 2**16), st.integers(1, 3),
)
def test_screened_hopkins_matches_reference(n, d, levels, shift, seed, power):
    X = grid(n, d, seed, levels, shift=shift)
    assume(not np.all(X.min(axis=0) == X.max(axis=0)))
    assert_matches_reference(X, max(1, n // 3), 3, seed, power)


class TestScreenedHopkins:
    def test_synthetic_wbc(self, synth_data):
        data, _ = synth_data
        assert_matches_reference(data.features, 68, 5, 42)

    def test_blobs_across_query_blocks(self, monkeypatch):
        # blocks of 7 queries, so blocks end mid-sample
        monkeypatch.setattr(tendency, "_SCREEN_ELEMENTS", 7 * 500)
        assert_matches_reference(blobs(500, 9, seed=4), 50, 3, 8)

    def test_only_neighbour_is_an_exact_duplicate(self):
        # every point has exactly one duplicate and nothing else nearby, so
        # each sampled point's nearest neighbour sits at distance 0
        base = np.arange(10.0)[:, None] * np.array([[3.0, 5.0]])
        X = np.vstack([base, base])
        assert_matches_reference(X, 5, 4, 1)
        result = hopkins_statistic(X, m=5, trials=4, seed=1)
        assert result.per_trial == (1.0,) * 4  # sum(w) is 0

    def test_shifted_by_a_million(self):
        assert_matches_reference(grid(300, 9, 2, shift=1e6), 30, 2, 5)

    def test_integer_grid_with_duplicates(self):
        assert_matches_reference(grid(400, 3, 3, levels=3), 40, 4, 6)


@pytest.mark.parametrize("scale", [1.0 / 9.0, 1e154, 1e-310])
def test_screen_excludes_the_query_row(scale):
    # 1e154 overflows some squares, so the screen hands every row to the
    # exact kernel; the excluded row must still stay out
    X = grid(30, 3, 7, levels=4, scale=scale)
    sample = np.array([0, 3, 4, 17, 29, 1])
    center = X.mean(axis=0)
    overflow = pytest.warns(RuntimeWarning, match="overflow") if scale > 1 else nullcontext()
    with overflow:  # at 1e154 the exact squares overflow too
        idx, d2 = _screened_nearest(_rows(X[sample], center), _rows(X, center), sample)
        refs = [_rows_to_point(X, X[row], Metric.SQEUCLIDEAN) for row in sample]
    for i, (row, ref) in enumerate(zip(sample, refs)):
        ref[row] = np.inf
        assert idx[i] == np.argmin(ref)
        assert d2[i] == ref[np.argmin(ref)]
