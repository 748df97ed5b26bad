"""Benchmark server launcher: one ``LockServer`` process under test.

Run as ``python3 perfbench/server.py --workload NAME [--trace]`` from
the repository root.  It builds the workload's database with the
repository's builders, serves it from a 4-shard stack with no
modelled shard latency and the server's default lock timeout, prints
``READY <port>`` and serves until a line (or EOF) arrives on stdin.  It
then stops the server and prints one JSON report line: the protocol's
counters and, when traced, the audit verdict and the per-layer span
aggregates; a traced server also writes its spans to
``perfbench/out/spans-<workload>.tsv``.

Tracing wraps the calls into each layer from outside the program: the
wire codec functions, the protocol's planner, the sharded manager, each
shard's lock table, the transaction manager and the deadlock detector.
Nothing under ``src/`` knows it is being traced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import DetectorPasses, PlanSteps, Tracer, WaitPairs, layer_report  # noqa: E402
from stats import summarize  # noqa: E402
from workloads import SERVED, build_database, spans_path  # noqa: E402

#: the span that opens a frame: around the text dispatch, and around
#: both the decoding of a binary frame and the dispatch task it spawns
#: (which copies the decoder's context); every other server-side span of
#: the frame nests under it and shares its frame id
FRAME = "server.frame"


class Probes:
    """Tracer plus the counters that need a call's arguments or result."""

    def __init__(self):
        self.tracer = Tracer()
        self.waits = WaitPairs()
        self.passes = DetectorPasses()
        self.plans = PlanSteps()
        self.bytes_in = 0
        #: span index -> bytes of the response frame it encoded
        self.encoded = {}


def _wrap_attr(owner, name, wrap):
    """Replace ``owner.name`` with ``wrap(original)`` if it exists."""
    original = getattr(owner, name, None)
    if original is not None:
        setattr(owner, name, wrap(original))


def install_probes(server, stack) -> Probes:
    from repro.service import wire

    probes = Probes()
    tracer = probes.tracer

    def count_in(index, args, result):
        # decode_request_fields(opcode, buf, body_start, body_end)
        probes.bytes_in += args[3] - args[2] + wire.HEADER_SIZE

    def count_out(index, args, result):
        probes.encoded[index] = len(result)

    def note_waiting(index, args, requests):
        if requests and not requests[-1].granted:
            probes.waits.waiting(requests[-1])

    def note_pass(index, args, cycle):
        probes.passes.result(cycle)

    _wrap_attr(
        wire,
        "decode_request_fields",
        lambda fn: tracer.wrap("wire.decode", fn, after=count_in),
    )
    for name in ("frame_for_response", "encode_response"):
        _wrap_attr(
            wire, name, lambda fn: tracer.wrap("wire.encode", fn, after=count_out)
        )
    _wrap_attr(server, "_dispatch", lambda fn: tracer.wrap_async(FRAME, fn, new_frame=True))
    _wrap_attr(server, "_next_binary", lambda fn: tracer.wrap(FRAME, fn, new_frame=True))
    _wrap_attr(server, "_dispatch_binary", lambda fn: tracer.wrap_async(FRAME, fn))
    protocol, manager, txns = stack.protocol, stack.manager, stack.txns
    protocol.plan_request = tracer.wrap(
        "protocol.plan", protocol.plan_request, after=probes.plans.after
    )
    manager.acquire_many = tracer.wrap(
        "sharded.acquire_many", manager.acquire_many, after=note_waiting
    )
    for shard in manager.shards:
        shard.request_many = tracer.wrap("lock_table.request_many", shard.request_many)
    manager.release_all = tracer.wrap("lock_table.release_all", manager.release_all)
    manager.detect_deadlock = tracer.wrap(
        "deadlock.detect", manager.detect_deadlock, after=note_pass
    )
    for verb in ("begin", "commit", "abort"):
        setattr(txns, verb, tracer.wrap("txn." + verb, getattr(txns, verb)))
    deliver = manager.on_wake

    def on_wake(woken):
        probes.waits.woken(woken)
        deliver(woken)

    manager.on_wake = on_wake
    return probes


def probe_report(probes: Probes) -> dict:
    tracer = probes.tracer
    report = layer_report(tracer, frame=FRAME)
    codes, parents = tracer.name_code, tracer.parent
    encode = tracer.names.index("wire.encode") if "wire.encode" in tracer.names else -1
    report["bytes_out"] = sum(
        size
        for index, size in probes.encoded.items()
        if parents[index] < 0 or codes[parents[index]] != encode
    )
    report["bytes_in"] = probes.bytes_in
    report["plan_steps"] = probes.plans.steps
    report["downward_steps"] = probes.plans.downward
    report["wait_ms"] = summarize(probes.waits.durations_ns, scale=1e-6)
    report["waits"] = probes.waits.waits
    report["waits_unpaired"] = probes.waits.unpaired()
    report["detector_passes"] = probes.passes.passes
    report["detector_useful"] = probes.passes.useful
    return report


async def serve(args) -> dict:
    import repro
    from repro.service.server import LockServer

    database, catalog = build_database(SERVED[args.workload]["database"])
    stack = repro.make_stack(database, catalog, shards=4)
    server = LockServer(stack, port=0, shard_service_time=0.0)
    probes = install_probes(server, stack) if args.trace else None
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_reader(sys.stdin.fileno(), stop.set)
    _, port = await server.start()
    print("READY %d" % port, flush=True)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.stop()
    report = {"protocol": stack.protocol.metrics()}
    if probes is not None:
        from repro.verify import audit

        report["audit"] = [repr(v) for v in audit(stack.protocol)]
        report["trace"] = probe_report(probes)
        probes.tracer.write(spans_path(args.workload))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SERVED))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = asyncio.run(serve(args))
    print(json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
