"""The percentile and sample-count rule."""

import pytest

from stats import (
    MAX_SLICES,
    MIN_BEYOND,
    beyond,
    median_rate,
    percentile,
    rank,
    slice_count,
    summarize,
    supported,
    time_slices,
    window_summary,
)


def test_rank_is_nearest_rank_with_exact_boundaries():
    assert rank(1000, 99) == 990
    assert rank(1001, 99) == 991
    assert rank(100, 50) == 50
    assert rank(101, 50) == 51
    assert rank(1, 99) == 1
    assert rank(7, 100) == 7


def test_p99_needs_ten_samples_beyond_it():
    assert beyond(1000, 99) == 10
    assert supported(1000, 99)
    assert not supported(999, 99)
    assert supported(20, 50)
    assert not supported(19, 50)
    assert not supported(0, 50)
    assert MIN_BEYOND == 10


def test_percentile_picks_the_ranked_sample():
    samples = list(range(1000, 0, -1))  # unsorted input
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990
    assert percentile([3.0], 99) == 3.0


def test_summarize_reports_counts_and_support():
    out = summarize([0.001 * i for i in range(1, 1001)], scale=1e3)
    assert out["n"] == 1000
    assert out["p50"] == pytest.approx(500.0)
    assert out["p99"] == pytest.approx(990.0)
    assert out["p50_supported"] and out["p99_supported"]
    small = summarize([1.0, 2.0, 3.0])
    assert small["n"] == 3 and small["p50"] == 2.0
    assert not small["p50_supported"] and not small["p99_supported"]


def test_summarize_of_nothing_is_zero_and_unsupported():
    out = summarize([])
    assert out == {
        "n": 0,
        "p50": 0.0,
        "p50_supported": False,
        "p99": 0.0,
        "p99_supported": False,
    }


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        rank(0, 50)
    with pytest.raises(ValueError):
        rank(10, 0)


def test_slice_count_keeps_enough_samples_beyond_each_slice_p99():
    assert slice_count(10**6) == MAX_SLICES
    assert slice_count(25000, most=5) == 5
    assert slice_count(10000) == 10  # 1000 a slice, 10 beyond each p99
    assert slice_count(9999) == 9
    assert slice_count(1999) == 1
    assert slice_count(2000) == 2
    assert slice_count(3, beyond_min=0) == 3
    assert slice_count(0) == 1


def test_time_slices_bucket_by_completion_time():
    done = [0.0, 0.5, 1.0, 1.99, 2.0, 3.5]
    values = [1, 2, 3, 4, 5, 6]
    assert time_slices(done, values, start=0.0, end=3.0, k=3) == [[1, 2], [3, 4], [5]]


def test_median_rate_ignores_one_slow_slice():
    done = [0.1, 0.2, 0.3, 1.5, 2.1, 2.2, 2.3]
    assert median_rate(done, 0.0, 3.0, k=3) == 3.0
    assert median_rate([0.5, 1.5, 2.5], 0.0, 3.0, weights=[10, 2, 30], k=3) == 10.0


def test_window_summary_takes_medians_over_slices():
    # fifteen slices of 1000 answers; a burst of slow answers hits one
    done = [(i + 0.5) / 5000 for i in range(15000)]
    latency = [0.001] * 5000 + [0.050] * 200 + [0.001] * 9800
    out = window_summary(done, latency, 0.0, 3.0, scale=1e3)
    assert out["slices"] == 15 and out["n"] == 15000 and out["slice_n_min"] == 1000
    assert out["p50"] == 1.0 and out["p99"] == 1.0
    assert out["p50_supported"] and out["p99_supported"]
    pooled = summarize(latency, scale=1e3)
    assert pooled["p99"] == 50.0  # what the burst does without slices


def test_window_summary_of_a_thin_series_is_pooled():
    out = window_summary([0.5, 1.5], [0.002, 0.004], 0.0, 2.0, scale=1e3)
    assert out["slices"] == 1 and out["n"] == 2
    assert out["p50"] == 2.0 and not out["p99_supported"]
