"""Percentiles with the sample-count rule, and run-to-run spread.

A percentile is reported only together with its sample count.  The
rule: a percentile ``q`` is *supported* by ``n`` samples when at least
ten samples lie beyond its nearest rank, so p99 needs 1000 samples and
p50 needs 20.  An unsupported percentile is still computed (it is the
best estimate there is) but the result records that it is unsupported.

Rates and percentiles of a run are medians over equal time slices of
its measurement window, so a burst of interference from the host that
hits one slice does not move the result.  Rates use
:data:`MAX_SLICES` slices; percentiles use as many, up to that, as
leave each slice enough samples to support its own p99.  Given the
host-speed probe's samples, each slice's rate is scaled up and its
percentiles down by the host's slowness in that slice
(:func:`hostspeed.slice_factors`).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from hostspeed import slice_factors

#: samples that must lie beyond a percentile's rank for it to be reported
MIN_BEYOND = 10
#: slices a measurement window is cut into for rates, and at most for
#: percentiles
MAX_SLICES = 25


def rank(n: int, pct: int) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n`` samples.

    Integer arithmetic (ceil(pct * n / 100)) so that p99 of 1000 samples
    is exactly rank 990 with no float rounding at the boundary.
    """
    if n <= 0:
        raise ValueError("no samples")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    return max(1, (pct * n + 99) // 100)


def beyond(n: int, pct: int) -> int:
    """Samples strictly beyond the ``pct``-th percentile's rank."""
    return n - rank(n, pct)


def supported(n: int, pct: int) -> bool:
    """Whether ``n`` samples support reporting the ``pct``-th percentile."""
    return n > 0 and beyond(n, pct) >= MIN_BEYOND


def percentile(samples: Sequence[float], pct: int, presorted: bool = False) -> float:
    """Nearest-rank percentile; ``presorted`` skips the sort."""
    ordered = samples if presorted else sorted(samples)
    return ordered[rank(len(ordered), pct) - 1]


def summarize(samples: Sequence[float], pcts=(50, 99), scale: float = 1.0) -> Dict:
    """``{"n": n, "p50": v, "p50_supported": bool, ...}`` scaled by ``scale``.

    Empty input gives ``n == 0`` and every percentile 0.0, unsupported.
    """
    ordered = sorted(samples)
    out: Dict = {"n": len(ordered)}
    for pct in pcts:
        key = "p%d" % pct
        out[key] = percentile(ordered, pct, presorted=True) * scale if ordered else 0.0
        out[key + "_supported"] = supported(len(ordered), pct)
    return out


def slice_count(
    n: int, pct: int = 99, beyond_min: int = MIN_BEYOND, most: int = MAX_SLICES
) -> int:
    """Most slices, at least 1, whose share of ``n`` samples keeps
    ``beyond_min`` samples beyond the ``pct``-th percentile."""
    k = most
    while k > 1 and (n < k or beyond(n // k, pct) < beyond_min):
        k -= 1
    return k


def time_slices(done, values, start: float, end: float, k: int) -> List[list]:
    """``values`` bucketed into ``k`` equal time slices of ``[start, end)``
    by the matching ``done`` times."""
    width = (end - start) / k
    buckets: List[list] = [[] for _ in range(k)]
    for at, value in zip(done, values):
        index = int((at - start) / width)
        if 0 <= index < k:
            buckets[index].append(value)
    return buckets


def median_rate(
    done, start: float, end: float, weights=None, k: int = MAX_SLICES, factors=None
) -> float:
    """Median over ``k`` equal time slices of events (or their
    ``weights``) per second, each slice's rate multiplied by its entry
    of ``factors`` when given."""
    width = (end - start) / k
    totals = [0.0] * k
    for i, at in enumerate(done):
        index = int((at - start) / width)
        if 0 <= index < k:
            totals[index] += 1 if weights is None else weights[i]
    factors = factors or [1.0] * k
    return statistics.median(total / width * f for total, f in zip(totals, factors))


def window_summary(
    done,
    values,
    start: float,
    end: float,
    pcts=(50, 99),
    scale: float = 1.0,
    speed: Optional[Sequence] = None,
) -> Dict:
    """Rate and percentiles of one series of events in ``[start, end)``.

    ``done`` holds each event's time and ``values`` its sample (a
    latency).  The rate is :func:`median_rate`; each percentile is the
    median over :func:`slice_count` slices of the slice's percentile.
    ``speed`` holds the host-speed probe's ``(time, chunk cpu)`` samples
    on the same clock; with it, each slice's rate is multiplied and its
    percentiles divided by the host's slowness in that slice, and
    ``slowness`` records the median slowness over the rate's slices.
    """
    slowness = slice_factors(speed, start, end, MAX_SLICES) if speed is not None else [1.0] * MAX_SLICES
    rate = median_rate(done, start, end, factors=slowness)
    k = slice_count(len(values))
    per_slice = [summarize(bucket, pcts, scale) for bucket in time_slices(done, values, start, end, k)]
    factors = slice_factors(speed, start, end, k) if speed is not None else [1.0] * k
    out: Dict = {
        "rate": rate,
        "n": len(values),
        "slices": k,
        "slice_n_min": min(p["n"] for p in per_slice),
        "slowness": statistics.median(slowness),
    }
    for pct in pcts:
        key = "p%d" % pct
        out[key] = statistics.median(p[key] / f for p, f in zip(per_slice, factors))
        out[key + "_supported"] = all(p[key + "_supported"] for p in per_slice)
    return out


def ratio(num, den) -> float:
    """``num / den``, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0
