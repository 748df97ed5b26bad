"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` wraps a callable so that each call records one span:
its name, start, end, parent and frame id.  The parent is the innermost
span still open in the same asyncio task (or thread), tracked with a
:mod:`contextvars` variable, which every asyncio task copies when it is
created.  A wrapper marked ``new_frame`` starts a new frame id; spans
opened beneath it inherit that id, so every span of one wire frame shares
it.  Spans live in flat arrays until the run ends and are written out
then, never during measurement.

Also here: the self-time arithmetic and per-layer aggregates over a span
tree, and the counters kept at the same boundaries: plan steps, the
pairing of a lock request's WAITING return with the wake that later
grants it, and deadlock-detector passes.
"""

from __future__ import annotations

import contextvars
import functools
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from stats import summarize

#: (index of the innermost open span, its frame id); -1 when none
_OPEN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_open_span", default=(-1, -1)
)


class Tracer:
    """Records spans into parallel arrays; times are ``perf_counter_ns``."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.name_code = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.frame = array("q")
        self._frames = 0

    def __len__(self) -> int:
        return len(self.start)

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, name: str, new_frame: bool = False):
        """Open a span; returns the handle :meth:`close` takes."""
        parent, frame = _OPEN.get()
        if new_frame:
            self._frames += 1
            frame = self._frames
        index = len(self.start)
        self.name_code.append(self._code(name))
        self.parent.append(parent)
        self.frame.append(frame)
        self.end.append(-1)
        self.start.append(self.clock())
        return index, _OPEN.set((index, frame))

    def close(self, handle):
        index, token = handle
        self.end[index] = self.clock()
        _OPEN.reset(token)

    def wrap(self, name: str, fn, new_frame: bool = False, after=None):
        """``fn`` recording one span per call; ``after(index, args,
        result)`` runs once span ``index`` is closed, for counters that
        need the call's arguments or result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            handle = self.open(name, new_frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(handle)
            if after is not None:
                after(handle[0], args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn, new_frame: bool = False):
        """Coroutine-function twin of :meth:`wrap`."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            handle = self.open(name, new_frame)
            try:
                return await fn(*args, **kwargs)
            finally:
                self.close(handle)

        return traced

    def rows(self) -> Iterator[Tuple[str, int, int, int, int]]:
        """Every span as ``(name, start_ns, end_ns, parent, frame)``."""
        names = self.names
        for code, start, end, parent, frame in zip(
            self.name_code, self.start, self.end, self.parent, self.frame
        ):
            yield names[code], start, end, parent, frame

    def write(self, path: str):
        """Write the spans as tab-separated lines, index order."""
        with open(path, "w") as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\tframe\n")
            for index, row in enumerate(self.rows()):
                handle.write("%d\t%s\t%d\t%d\t%d\t%d\n" % ((index,) + row))


def layer_report(tracer: Tracer, frame: Optional[str] = None) -> dict:
    """Per-span-name aggregates of a finished trace.

    ``outer_count``/``outer_us`` count only spans not nested in a span
    of the same name (a codec function calling another one under the
    same name counts once).  ``top_us`` is the time in spans directly
    under a ``frame`` span or under nothing, frames excluded: the part
    of the process's CPU that the traced layers account for.
    """
    names, codes = tracer.names, tracer.name_code
    starts, ends, parents = tracer.start, tracer.end, tracer.parent
    selfs = self_times(starts, ends, parents)
    durations = {}
    self_sum = {}
    outer = {}
    top_ns = 0
    frame_code = names.index(frame) if frame in names else -1
    for index, code in enumerate(codes):
        if ends[index] < 0:
            continue
        duration = ends[index] - starts[index]
        name = names[code]
        durations.setdefault(name, []).append(duration)
        self_sum[name] = self_sum.get(name, 0) + selfs[index]
        parent = parents[index]
        parent_code = codes[parent] if parent >= 0 else -1
        if parent_code != code:
            count, total = outer.get(name, (0, 0))
            outer[name] = (count + 1, total + duration)
            if code != frame_code and parent_code in (-1, frame_code):
                top_ns += duration
    out = {"top_us": top_ns / 1000.0, "spans": len(tracer), "layers": {}}
    for name, values in durations.items():
        entry = summarize(values, scale=1e-3)
        count, total = outer[name]
        entry.update(
            count=len(values),
            mean_us=sum(values) / len(values) / 1000.0,
            self_us=self_sum[name] / 1000.0,
            outer_count=count,
            outer_us=total / 1000.0,
        )
        out["layers"][name] = entry
    return out


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children count once, so the result never goes negative.  A span
    still open (end < 0) has self time 0 and covers nothing.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0 and ends[index] >= 0:
            children.setdefault(parent, []).append(index)
    out = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        if end < 0:
            out.append(0)
            continue
        covered = 0
        reach = start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class WaitPairs:
    """Pairs a request's WAITING return with the wake that grants it.

    ``waiting`` is called when a lock call returns a request still
    WAITING; ``woken`` with every batch of requests a release or cancel
    granted.  A wake for a request never seen waiting is ignored; a wait
    that never sees its wake (a deadlock victim, a timeout) stays open
    and is counted by :meth:`unpaired`.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._open: Dict[object, int] = {}
        self.durations_ns: List[int] = []
        self.waits = 0

    def waiting(self, request):
        self.waits += 1
        self._open[request] = self.clock()

    def woken(self, requests):
        now = self.clock()
        for request in requests:
            since = self._open.pop(request, None)
            if since is not None:
                self.durations_ns.append(now - since)

    def unpaired(self) -> int:
        return len(self._open)


class PlanSteps:
    """Counts the steps of the lock plans a planner returns, and those
    that are downward propagation onto common data (rules 3/4/4')."""

    DOWNWARD = ("downward", "downward-path")

    def __init__(self):
        self.steps = 0
        self.downward = 0

    def after(self, index, args, plan):
        """A :meth:`Tracer.wrap` ``after`` hook for ``plan_request``."""
        for step in plan:
            self.steps += 1
            self.downward += step.reason in self.DOWNWARD


class DetectorPasses:
    """Counts detector passes from the results of ``detect_deadlock``.

    The server loops ``detect_deadlock`` until it returns None, aborting
    one victim per cycle found, so each None closes one pass; a pass is
    useful when at least one call before its None found a cycle.
    """

    def __init__(self):
        self.passes = 0
        self.useful = 0
        self._found = False

    def result(self, cycle: Optional[list]):
        if cycle is None:
            self.passes += 1
            self.useful += self._found
            self._found = False
        else:
            self._found = True
