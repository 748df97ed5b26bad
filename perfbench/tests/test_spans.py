"""Span recording, self-time arithmetic and WAITING-to-wake pairing."""

import asyncio

from spans import DetectorPasses, PlanSteps, Tracer, WaitPairs, layer_report, self_times


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_of_a_hand_built_nested_tree():
    # index: 0 root [0, 100)
    #        1 child [10, 40) of 0, with grandchild 2 [15, 25) and 3 [30, 35)
    #        4 child [50, 90) of 0
    #        5 child [95, 120) of 0 overhangs the root's end
    starts = [0, 10, 15, 30, 50, 95]
    ends = [100, 40, 25, 35, 90, 120]
    parents = [-1, 0, 1, 1, 0, 0]
    assert self_times(starts, ends, parents) == [
        100 - 30 - 40 - 5,  # 5: only [95, 100) of the overhang counts
        30 - 10 - 5,
        10,
        5,
        40,
        25,
    ]


def test_overlapping_children_are_counted_once():
    # two children of one async parent overlap in [20, 30)
    starts = [0, 10, 20]
    ends = [50, 30, 40]
    assert self_times(starts, ends, [-1, 0, 0]) == [50 - 30, 20, 20]


def test_open_spans_cover_nothing():
    assert self_times([0, 10], [100, -1], [-1, 0]) == [100, 0]


def test_tracer_records_parents_and_frames_through_wrappers():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 5
        return "leaf"

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("middle", middle, new_frame=True)
    assert traced_middle() == "leafleaf"
    traced_leaf()  # outside any frame
    rows = list(tracer.rows())
    assert [r[0] for r in rows] == ["middle", "leaf", "leaf", "leaf"]
    assert [r[3] for r in rows] == [-1, 0, 0, -1]
    assert [r[4] for r in rows] == [1, 1, 1, -1]
    assert rows[0][1:3] == (0, 11)
    assert self_times(tracer.start, tracer.end, tracer.parent)[0] == 1


def test_after_hook_sees_the_span_index_arguments_and_result():
    tracer = Tracer()
    seen = []
    double = tracer.wrap("double", lambda x: 2 * x, after=lambda i, a, r: seen.append((i, a, r)))
    assert double(4) == 8
    assert seen == [(0, (4,), 8)]


def test_spans_in_concurrent_tasks_nest_only_within_their_own_task():
    tracer = Tracer()

    async def inner():
        await asyncio.sleep(0)

    traced_inner = tracer.wrap_async("inner", inner)

    async def frame():
        await traced_inner()
        await traced_inner()

    traced_frame = tracer.wrap_async("frame", frame, new_frame=True)

    async def main():
        await asyncio.gather(traced_frame(), traced_frame())

    asyncio.run(main())
    rows = list(tracer.rows())
    frames = {i: r[4] for i, r in enumerate(rows) if r[0] == "frame"}
    assert sorted(frames.values()) == [1, 2]
    for name, _, _, parent, frame_id in rows:
        if name == "inner":
            assert rows[parent][0] == "frame"
            assert frames[parent] == frame_id
    assert all(end >= start for _, start, end, _, _ in rows)


def test_a_task_spawned_under_a_frame_span_keeps_its_frame_id():
    # the server decodes a binary frame synchronously and spawns its
    # dispatch as a task: decode and dispatch spans share the frame id
    tracer = Tracer()
    traced_decode = tracer.wrap("decode", lambda: None)

    async def dispatch():
        await asyncio.sleep(0)

    traced_dispatch = tracer.wrap_async("frame", dispatch)
    tasks = []

    def next_frame():
        traced_decode()
        tasks.append(asyncio.get_running_loop().create_task(traced_dispatch()))

    traced_next = tracer.wrap("frame", next_frame, new_frame=True)

    async def main():
        traced_next()
        traced_next()
        await asyncio.gather(*tasks)

    asyncio.run(main())
    rows = list(tracer.rows())
    by_frame = {}
    for name, _, _, parent, frame_id in rows:
        by_frame.setdefault(frame_id, []).append(name)
    assert sorted(by_frame) == [1, 2]
    for names in by_frame.values():
        assert sorted(names) == ["decode", "frame", "frame"]
    for name, _, _, parent, _ in rows:
        if name == "decode":
            assert rows[parent][0] == "frame"


def test_waiting_return_pairs_with_the_wake_that_grants_it():
    clock = FakeClock()
    pairs = WaitPairs(clock=clock)
    first, second, stranger = object(), object(), object()
    clock.now = 100
    pairs.waiting(first)
    clock.now = 150
    pairs.waiting(second)
    clock.now = 400
    pairs.woken([first, stranger])  # a wake never seen waiting is ignored
    assert pairs.durations_ns == [300]
    assert pairs.unpaired() == 1
    clock.now = 1150
    pairs.woken([second])
    pairs.woken([second])  # a second wake for the same request counts once
    assert pairs.durations_ns == [300, 1000]
    assert pairs.waits == 2 and pairs.unpaired() == 0


def test_a_wait_without_a_wake_stays_unpaired():
    pairs = WaitPairs()
    victim = object()
    pairs.waiting(victim)
    pairs.woken([])
    assert pairs.durations_ns == [] and pairs.unpaired() == 1


def test_detector_passes_end_at_each_empty_answer():
    passes = DetectorPasses()
    for cycle in [None, ["a", "b"], ["c", "d"], None, None, ["e", "f"], None]:
        passes.result(cycle)
    assert passes.passes == 4
    assert passes.useful == 2


def test_layer_report_counts_nested_same_name_spans_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def tick(ns, result=None):
        clock.now += ns
        return result

    inner = tracer.wrap("encode", lambda: tick(2000, b"xx"))
    outer = tracer.wrap("encode", lambda: tick(1000) or inner())
    plan = tracer.wrap("plan", lambda: tick(3000))
    decode = tracer.wrap("decode", lambda: tick(500))

    def frame():
        tick(4000)
        plan()
        outer()

    tracer.wrap("frame", frame, new_frame=True)()
    decode()
    report = layer_report(tracer, frame="frame")
    layers = report["layers"]
    assert layers["encode"]["count"] == 2
    assert layers["encode"]["outer_count"] == 1
    assert layers["encode"]["outer_us"] == 3.0
    assert layers["frame"]["self_us"] == 4.0
    assert layers["plan"]["mean_us"] == 3.0 and layers["plan"]["n"] == 1
    # decode (outside any frame) + plan + the outer encode; not the frame
    assert report["top_us"] == 0.5 + 3.0 + 3.0


class Step:
    def __init__(self, reason):
        self.reason = reason


def test_plan_steps_counts_downward_propagation():
    plans = PlanSteps()
    plans.after(0, (), [Step("ancestor"), Step("downward-path"), Step("downward"), Step("target")])
    plans.after(1, (), [Step("upward"), Step("target")])
    assert (plans.steps, plans.downward) == (6, 2)
