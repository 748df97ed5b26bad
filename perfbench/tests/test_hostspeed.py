"""Host-speed factors and the scaling of rates and percentiles by them."""

import pytest

from hostspeed import REF_S, factor_between, slice_factors, timed_chunk
from stats import median_rate, window_summary


def test_slice_factor_is_median_chunk_time_over_the_reference():
    samples = [(0.1, REF_S), (0.2, 3 * REF_S), (0.3, 2 * REF_S), (1.5, REF_S / 2)]
    assert slice_factors(samples, 0.0, 2.0, 2) == [2.0, 0.5]


def test_slice_without_samples_takes_the_window_median():
    samples = [(0.5, 2 * REF_S), (2.5, 4 * REF_S), (2.6, 4 * REF_S), (9.0, 100 * REF_S)]
    # [1, 2) has no sample; the one at 9.0 lies outside the window
    assert slice_factors(samples, 0.0, 3.0, 3) == [2.0, 4.0, 4.0]
    assert slice_factors([], 0.0, 3.0, 2) == [1.0, 1.0]
    assert factor_between(samples, 0.0, 1.0) == 2.0


def test_rates_scale_up_and_latencies_down_on_slow_slices():
    # three seconds: the host ran at reference speed in the first and at
    # half speed in the other two, which halved the rate and doubled the
    # latencies there
    done = [i / 7500 for i in range(7500)] + [1.0 + i / 3750 for i in range(7500)]
    latency = [0.001] * 7500 + [0.002] * 7500
    speed = [(i / 100, REF_S if i < 100 else 2 * REF_S) for i in range(300)]
    plain = window_summary(done, latency, 0.0, 3.0, scale=1e3)
    scaled = window_summary(done, latency, 0.0, 3.0, scale=1e3, speed=speed)
    assert plain["slices"] == scaled["slices"] == 15
    assert plain["slowness"] == 1.0 and scaled["slowness"] == 2.0
    assert plain["rate"] == pytest.approx(3750.0)
    assert scaled["rate"] == pytest.approx(7500.0)
    assert plain["p50"] == pytest.approx(2.0) and plain["p99"] == pytest.approx(2.0)
    assert scaled["p50"] == pytest.approx(1.0) and scaled["p99"] == pytest.approx(1.0)


def test_median_rate_multiplies_each_slice_by_its_factor():
    done = [0.25, 0.5, 0.75, 1.5]
    assert median_rate(done, 0.0, 2.0, k=2) == pytest.approx(2.0)
    assert median_rate(done, 0.0, 2.0, k=2, factors=[1.0, 5.0]) == pytest.approx(4.0)


def test_timed_chunk_reads_the_monotonic_clock_and_positive_cpu():
    start, cpu = timed_chunk()
    assert start > 0 and cpu > 0
