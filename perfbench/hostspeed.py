"""Host-speed probe: a fixed piece of pure-Python work timed on a core.

The cores this benchmark runs on are shared with other machines' work,
and the speed of one core drifts by up to half over tens of seconds,
independently of the other core.  That moved the raw figures of one
commit between runs by more than any change worth measuring.  The
benchmark therefore times :func:`chunk` on the core of the process
under test all through a run and reports rates and latencies at a
reference speed: a time slice's figures are scaled by how long the chunk
took in that slice against :data:`REF_S`.  The chunk uses nothing from
the program.  ``perfbench/README.md`` ("Host-speed scaling") records the
check that the factor does not follow the program's own load.

Run as ``python3 perfbench/hostspeed.py``: the probe times one
:func:`chunk` every :data:`PROBE_PERIOD_S` until a line (or EOF) arrives
on stdin, then prints ``[[start, cpu_seconds], ...]`` as one JSON line.
It runs under the ``SCHED_IDLE`` policy: it gets the core only when the
process under test leaves it idle (or a sliver of it when it never does)
and yields at once when that process wakes, so it adds nothing to the
latencies it helps to scale.  The caller pins it to a core.  Times are
``time.perf_counter`` values, which every process on the host reads from
the same monotonic clock.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import sys
import time
from typing import List, Sequence, Tuple

#: reference CPU seconds of one chunk: a scaled figure is what the run
#: would have measured on a core that runs the chunk in this time
REF_S = 0.5e-3
#: loop iterations of one chunk
ITERATIONS = 3000
#: seconds between two timings of the chunk by the probe process
PROBE_PERIOD_S = 0.1


def chunk() -> int:
    """The fixed work: integer arithmetic and small-dict stores."""
    total = 0
    table = {}
    for i in range(ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return total


def timed_chunk() -> Tuple[float, float]:
    """``(start, cpu seconds)`` of one run of :func:`chunk`."""
    start = time.perf_counter()
    cpu = time.thread_time()
    chunk()
    return start, time.thread_time() - cpu


def slice_factors(
    samples: Sequence[Sequence[float]], start: float, end: float, k: int
) -> List[float]:
    """Slowness of the host in each of ``k`` equal slices of ``[start, end)``.

    A slice's factor is the median chunk time of the ``(start, cpu)``
    samples taken in it, over :data:`REF_S`: 1.0 at reference speed, 1.5
    when the core ran half as fast.  A slice without a sample takes the
    median of the whole window; a window without one reads 1.0.
    """
    width = (end - start) / k
    buckets: List[List[float]] = [[] for _ in range(k)]
    inside = []
    for at, cpu in samples:
        index = int((at - start) / width)
        if 0 <= index < k:
            buckets[index].append(cpu)
            inside.append(cpu)
    overall = statistics.median(inside) / REF_S if inside else 1.0
    return [statistics.median(b) / REF_S if b else overall for b in buckets]


def factor_between(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Slowness of the host over ``[start, end)``, as one slice."""
    return slice_factors(samples, start, end, 1)[0]


def probe() -> list:
    """Time the chunk every PROBE_PERIOD_S until stdin is readable."""
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    samples = []
    while not select.select([sys.stdin], [], [], PROBE_PERIOD_S)[0]:
        samples.append(timed_chunk())
    return samples


if __name__ == "__main__":
    print(json.dumps(probe()), flush=True)
