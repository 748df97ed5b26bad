"""Simulator workload driver: HDBL query transactions, in process.

Run as ``python3 perfbench/simdriver.py --seed N --seconds S [--trace]``
from the repository root; prints one JSON report line.  A traced run
also writes its spans to ``perfbench/out/spans-sim-cells-query.tsv``.

Batches of query transactions (``submit_query_workload`` with
``update_fraction=0.3``) run through ``Simulator(executor=...)`` over the
cells database with a plain ``LockManager``, one fresh stack per batch,
until the window closes.  The simulator is the lock manager's client
here, so the end-to-end view wraps its calls into the manager: a
request's latency is one ``acquire`` call, and a transaction's is the
wall time from its first ``acquire`` to the ``release_all`` of its
commit.  Only ``Simulator.run`` is timed; set-up is the database build
plus program generation.  The host-speed chunk (``hostspeed.py``) is
timed before every batch and every set-up, in this process, and scales
that batch's or set-up's figures to the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hostspeed import REF_S, slice_factors, timed_chunk  # noqa: E402
from spans import DetectorPasses, PlanSteps, Tracer, WaitPairs, layer_report  # noqa: E402
from run import proc_peak_rss_mb  # noqa: E402
from stats import MAX_SLICES, median_rate, ratio, summarize, window_summary  # noqa: E402
from workloads import SIM, build_database, spans_path  # noqa: E402

#: transactions per simulated batch
BATCH = 100
UPDATE_FRACTION = 0.3
#: seconds of batches before the measurement window opens
WARMUP = 0.5

clock = time.perf_counter


def batch_spec(seed: int, index: int):
    from repro.sim.workload import WorkloadSpec

    return WorkloadSpec(
        n_transactions=BATCH,
        update_fraction=UPDATE_FRACTION,
        seed=seed * 100_003 + index,
    )


class ClientView:
    """Request and transaction outcomes as the simulator sees them."""

    def __init__(self):
        self.req_latency = array("d")
        self.txn_latency = array("d")
        self.issued = 0
        self.granted = 0
        self._first = {}

    def attach(self, manager):
        from repro.txn.transaction import TxnState

        acquire, release_all, cancel = manager.acquire, manager.release_all, manager.cancel

        def timed_acquire(txn, *args, **kwargs):
            sent = clock()
            request = acquire(txn, *args, **kwargs)
            self.req_latency.append(clock() - sent)
            self._first.setdefault(txn, sent)
            self.issued += 1
            self.granted += request.granted
            return request

        def timed_release_all(txn, *args, **kwargs):
            # the simulator releases a committing transaction while it is
            # still ACTIVE and an aborting one after marking it ABORTED
            committing = txn.state == TxnState.ACTIVE
            woken = release_all(txn, *args, **kwargs)
            first = self._first.pop(txn, None)
            if committing and first is not None:
                self.txn_latency.append(clock() - first)
            self.granted += len(woken)
            return woken

        def counted_cancel(request):
            woken = cancel(request)
            self.granted += len(woken)
            return woken

        manager.acquire = timed_acquire
        manager.release_all = timed_release_all
        manager.cancel = counted_cancel


class SimProbes:
    def __init__(self):
        self.tracer = Tracer()
        self.waits = WaitPairs()
        self.passes = DetectorPasses()
        self.plans = PlanSteps()

    def attach(self, stack, simulator):
        tracer = self.tracer

        def note_waiting(index, args, request):
            if not request.granted:
                self.waits.waiting(request)

        def note_woken(index, args, woken):
            self.waits.woken(woken)

        protocol, manager = stack.protocol, stack.manager
        stack.executor.lock_requirements = tracer.wrap(
            "query.requirements", stack.executor.lock_requirements
        )
        protocol.plan_request = tracer.wrap(
            "protocol.plan", protocol.plan_request, after=self.plans.after
        )
        manager.acquire = tracer.wrap("lock_table.acquire", manager.acquire, after=note_waiting)
        manager.release_all = tracer.wrap(
            "lock_table.release_all", manager.release_all, after=note_woken
        )
        manager.cancel = tracer.wrap("lock_table.cancel", manager.cancel, after=note_woken)
        manager.detect_deadlock = tracer.wrap(
            "deadlock.detect",
            manager.detect_deadlock,
            after=lambda index, args, cycle: self.passes.result(cycle),
        )
        simulator.run = tracer.wrap("sim.run", simulator.run, new_frame=True)


def run_batch(database, catalog, seed, index, view, probes=None):
    """Simulate one batch; ``(outcome, wall seconds, counters)``."""
    import repro
    from repro.sim.simulator import Simulator
    from repro.sim.workload import submit_query_workload

    stack = repro.make_stack(database, catalog)
    simulator = Simulator(stack.protocol, executor=stack.executor)
    submit_query_workload(
        simulator, catalog, batch_spec(seed, index), authorization=stack.authorization
    )
    view.attach(stack.manager)
    if probes is not None:
        probes.attach(stack, simulator)
    started = clock()
    metrics = simulator.run()
    wall = clock() - started
    outcome = (
        metrics.committed,
        metrics.aborted,
        metrics.abandoned,
        stack.protocol.locks_requested,
        metrics.makespan,
    )
    counters = dict(stack.manager.metrics())
    counters.update(stack.protocol.plan_cache.stats())
    counters["lock_count"] = stack.manager.lock_count()
    counters["deadlocks"] = metrics.deadlocks
    return outcome, wall, counters


def setup_once(seed: int):
    from repro.sim.workload import generate_query_programs

    database, catalog = build_database("cells")
    generate_query_programs(catalog, batch_spec(seed, 0))
    return database, catalog


class Window:
    """Outcomes of the batches simulated in one measurement window."""

    def __init__(self):
        #: (Simulator.run seconds, ClientView, host-speed chunk cpu
        #: seconds just before it) of each in-window batch
        self.batches = []
        self.totals = {}
        self.committed = self.aborted = self.abandoned = self.submitted = 0
        self.failures = []
        self.rss_mb = None
        self.first_outcome = None
        self.ran = 0

    def add(self, outcome, wall, counters, view, chunk_cpu):
        committed, aborted, abandoned = outcome[:3]
        self.batches.append((wall, view, chunk_cpu))
        self.submitted += BATCH
        self.committed += committed
        self.aborted += aborted
        self.abandoned += abandoned
        for key, value in counters.items():
            self.totals[key] = self.totals.get(key, 0) + value


def simulate(database, catalog, args, probes) -> Window:
    """Run batches until the window closes, checking each one."""
    window = Window()
    w0 = clock() + WARMUP
    w1 = w0 + args.seconds
    while clock() < w1:
        counted = clock() >= w0
        if counted and window.rss_mb is None:
            # the simulator's peak is reached in the warm-up batches; read
            # it before the window's latency samples, harness memory whose
            # size follows the throughput, pile up in this process
            window.rss_mb = proc_peak_rss_mb("self")
        view = ClientView()
        index = window.ran
        _, chunk_cpu = timed_chunk()
        outcome, wall, counters = run_batch(
            database, catalog, args.seed, index, view, probes if counted else None
        )
        window.ran += 1
        if index == 0:
            window.first_outcome = outcome
        if outcome[0] + outcome[2] != BATCH:
            window.failures.append(
                "batch %d: %d committed + %d abandoned != %d submitted"
                % (index, outcome[0], outcome[2], BATCH)
            )
        if counters["lock_count"]:
            window.failures.append(
                "batch %d left %d locks held" % (index, counters["lock_count"])
            )
        if counted:
            window.add(outcome, wall, counters, view, chunk_cpu)
    if window.rss_mb is None:  # the window closed before a batch began in it
        window.rss_mb = proc_peak_rss_mb("self")
    again, _, _ = run_batch(database, catalog, args.seed, 0, ClientView())
    if again != window.first_outcome:
        window.failures.append(
            "batch 0 not reproducible: %r then %r" % (window.first_outcome, again)
        )
    if window.abandoned:
        window.failures.append("%d transactions abandoned" % window.abandoned)
    if not window.committed:
        window.failures.append("no transaction committed in the measurement window")
    return window


def end_to_end(window: Window, setups):
    """The end-to-end metrics and the sample counts behind them, with the
    request rate and percentiles as measured, unscaled, among the latter.

    The window is the timed ``Simulator.run`` wall only; each batch's
    samples, and the host-speed chunk timed before it, sit at the middle
    of its stretch of that clock.  ``setups`` holds ``(seconds, chunk
    cpu seconds)`` of each set-up.
    """
    wall = 0.0
    midpoints, granted, speed = [], [], []
    series = {"req": (array("d"), array("d")), "txn": (array("d"), array("d"))}
    for batch_wall, view, chunk_cpu in window.batches or [(1.0, ClientView(), REF_S)]:
        middle = wall + batch_wall / 2
        wall += batch_wall
        midpoints.append(middle)
        granted.append(view.granted)
        speed.append((middle, chunk_cpu))
        for key, samples in (("req", view.req_latency), ("txn", view.txn_latency)):
            series[key][0].extend([middle] * len(samples))
            series[key][1].extend(samples)
    req = window_summary(*series["req"], 0.0, wall, scale=1e3, speed=speed)
    txn = window_summary(*series["txn"], 0.0, wall, scale=1e3, speed=speed)
    factors = slice_factors(speed, 0.0, wall, MAX_SLICES)
    issued = sum(view.issued for _, view, _ in window.batches)
    committed, aborted = window.committed, window.aborted
    values = {
        "txn_per_s": txn["rate"],
        "req_per_s": median_rate(midpoints, 0.0, wall, weights=granted, factors=factors),
        "req_p50_ms": req["p50"],
        "req_p99_ms": req["p99"],
        "txn_p50_ms": txn["p50"],
        "txn_p99_ms": txn["p99"],
        "ok_ratio": ratio(sum(granted), issued),
        "commit_ratio": ratio(committed, committed + aborted),
        "setup_s": statistics.median(seconds * REF_S / cpu for seconds, cpu in setups),
        "rss_mb": window.rss_mb,
    }
    raw = window_summary(*series["req"], 0.0, wall, scale=1e3)
    req["raw"] = {
        "rate": median_rate(midpoints, 0.0, wall, weights=granted),
        "p50": raw["p50"],
        "p99": raw["p99"],
    }
    samples = {"req": req, "txn": txn, "setup": len(setups), "batches": window.ran}
    return values, samples, wall


def per_layer(window: Window, wall: float, probes) -> dict:
    """Counts from the lock manager; timings when ``probes`` traced."""
    totals = window.totals
    requests = totals.get("requests", 0)
    lookups = totals.get("plan_cache_hits", 0) + totals.get("plan_cache_misses", 0)
    values = {
        "lock_table.immediate_grant_ratio": ratio(totals.get("immediate_grants", 0), requests),
        "lock_table.conflict_tests_per_request": ratio(totals.get("conflict_tests", 0), requests),
        "lock_table.waits_per_txn": ratio(totals.get("waits", 0), window.submitted),
        "deadlock.victims_per_s": ratio(totals.get("deadlocks", 0), wall),
        "protocol.plan_cache_hit_ratio": ratio(totals.get("plan_cache_hits", 0), lookups),
        "fail_ratio": 1.0 - ratio(
            sum(v.granted for _, v, _ in window.batches),
            sum(v.issued for _, v, _ in window.batches),
        ),
        "abort_ratio": ratio(window.aborted, window.committed + window.aborted),
    }
    if probes is None:
        return values
    layers = layer_report(probes.tracer)["layers"]
    empty = {"count": 0, "mean_us": 0.0, "self_us": 0.0, "p50": 0.0, "p99": 0.0}

    def layer(name):
        return layers.get(name, empty)

    plan = layer("protocol.plan")
    waits = summarize(probes.waits.durations_ns, scale=1e-6)
    values.update({
        "query.parse_us": layer("query.parse")["mean_us"],
        "query.requirements_us": layer("query.requirements")["mean_us"],
        "protocol.plan_us_p50": plan["p50"],
        "protocol.plan_us_p99": plan["p99"],
        "protocol.steps_per_demand": ratio(probes.plans.steps, plan["count"]),
        "protocol.downward_steps_per_demand": ratio(probes.plans.downward, plan["count"]),
        "lock_table.requests_per_demand": ratio(requests, plan["count"]),
        "lock_table.release_all_us_per_txn": layer("lock_table.release_all")["mean_us"],
        "lock_table.wait_ms_p50": waits["p50"],
        "lock_table.wait_ms_p99": waits["p99"],
        "deadlock.detect_us_p50": layer("deadlock.detect")["p50"],
        "deadlock.detect_us_p99": layer("deadlock.detect")["p99"],
        "deadlock.passes_per_s": ratio(probes.passes.passes, wall),
        "deadlock.useful_pass_ratio": ratio(probes.passes.useful, probes.passes.passes),
        "sim.self_us_per_txn": ratio(layer("sim.run")["self_us"], window.committed),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    setups = []
    for _ in range(args.setups):
        _, chunk_cpu = timed_chunk()
        started = clock()
        database, catalog = setup_once(args.seed)
        setups.append((clock() - started, chunk_cpu))
    probes = None
    if args.trace:
        import repro.query.parser as query_parser

        probes = SimProbes()
        # the simulator imports parse_query from its module at call time
        query_parser.parse_query = probes.tracer.wrap("query.parse", query_parser.parse_query)
    window = simulate(database, catalog, args, probes)
    values, samples, wall = end_to_end(window, setups)
    if probes is not None:
        probes.tracer.write(spans_path(SIM))
    print(json.dumps({
        "end_to_end": values,
        "per_layer": per_layer(window, wall, probes),
        "samples": samples,
        "attempted": window.submitted,
        "failed": window.abandoned,
        "failures": window.failures,
    }, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
