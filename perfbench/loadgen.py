"""Closed-loop asyncio load generator over ``ServiceClient``'s public verbs.

One process, at most two connections.  Every client is a closed loop: it
waits for each answer before the demand that depends on it, so a slower
server receives less load.  Shapes:

* ``slots > 1``: each connection interleaves the frames of ``slots``
  concurrent transactions, each of which still waits for every grant
  before its next demand; a deadlock victim's transaction is not
  retried, its slot moves on to the next generated transaction;
* ``depth > 1`` with one slot: whole transactions are pipelined, up to
  ``depth`` frames in flight per connection.

Only requests answered inside the measurement window ``[w0, w1)``
enter the rates and latency samples; the counts behind the failure and
abort ratios cover the whole pass.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from collections import deque
from typing import Dict, List, Optional

from workloads import DemandStream

clock = time.perf_counter


class Tally:
    """Outcome counts and latency samples of one load pass."""

    def __init__(self, w0: float, w1: float):
        self.w0, self.w1 = w0, w1
        self.sent = 0
        self.ok = 0
        self.err = 0
        self.unanswered = 0
        self.deadlock = 0
        self.timeout = 0
        self.disconnects = 0
        self.demands = 0
        self.unexpected: List[str] = []
        self.txn_started = 0
        self.txn_committed = 0
        #: completion time and latency of each in-window OK request and
        #: committed transaction
        self.req = (array("d"), array("d"))
        self.txn = (array("d"), array("d"))

    def answered(self, sent_at: float, response: str) -> bool:
        """Record one answer; True when it is OK."""
        done = clock()
        ok = response.startswith("OK")
        if ok:
            self.ok += 1
            if self.w0 <= done < self.w1:
                self.req[0].append(done)
                self.req[1].append(done - sent_at)
            return True
        self.err += 1
        if response.startswith("ERR DEADLOCK"):
            self.deadlock += 1
        else:
            if response.startswith("ERR TIMEOUT"):
                self.timeout += 1
            if len(self.unexpected) < 5:
                self.unexpected.append(response)
        return False

    def committed(self, started_at: float):
        done = clock()
        self.txn_committed += 1
        if self.w0 <= done < self.w1:
            self.txn[0].append(done)
            self.txn[1].append(done - started_at)


async def _ask(tally: Tally, call, *args) -> Optional[str]:
    """One awaited request; None when the connection died under it."""
    tally.sent += 1
    sent_at = clock()
    try:
        response = await call(*args)
    except (ConnectionResetError, BrokenPipeError):
        tally.unanswered += 1
        tally.disconnects += 1
        return None
    tally.answered(sent_at, response)
    return response


async def _serial_txn(client, tally: Tally, name: str, demands) -> str:
    """START, each demand, END, one at a time; the outcome word."""
    started_at = clock()
    tally.txn_started += 1
    response = await _ask(tally, client.start, name)
    if response is None or not response.startswith("OK"):
        return "failed"
    for verb, path in demands:
        tally.demands += 1
        response = await _ask(tally, client.lock, verb, name, path)
        if response is None:
            return "failed"
        if response.startswith("ERR DEADLOCK"):
            return "aborted"  # the server already aborted the transaction
        if not response.startswith("OK"):
            break
    response = await _ask(tally, client.end, name)
    if response is not None and response.startswith("OK"):
        tally.committed(started_at)
        return "committed"
    return "failed"


async def _serial_stream(client, tally: Tally, stream: DemandStream, prefix: str):
    serial = 0
    while clock() < tally.w1:
        serial += 1
        name = "%s-%d" % (prefix, serial)
        if await _serial_txn(client, tally, name, stream.next_txn()) == "failed":
            return


async def _pipelined_stream(
    client, tally: Tally, stream: DemandStream, prefix: str, depth: int
):
    outstanding: "deque[asyncio.Future]" = deque()

    def track(sent_at: float, started_at: Optional[float], task):
        if task.cancelled() or task.exception() is not None:
            tally.unanswered += 1
            return
        if tally.answered(sent_at, task.result()) and started_at is not None:
            tally.committed(started_at)

    async def submit(submit, *args, started_at=None):
        tally.sent += 1
        sent_at = clock()
        task = await submit(*args)
        task.add_done_callback(lambda done: track(sent_at, started_at, done))
        outstanding.append(task)

    serial = 0
    try:
        while clock() < tally.w1:
            serial += 1
            name = "%s-%d" % (prefix, serial)
            started_at = clock()
            tally.txn_started += 1
            await submit(client.submit_start, name)
            for verb, path in stream.next_txn():
                tally.demands += 1
                await submit(client.submit_lock, verb, name, path)
            await submit(client.submit_end, name, started_at=started_at)
            await client.flush()
            while len(outstanding) > depth:
                await outstanding.popleft()
        while outstanding:
            await outstanding.popleft()
    except (ConnectionResetError, BrokenPipeError):
        tally.disconnects += 1
    finally:
        for task in outstanding:
            task.cancel()
        if outstanding:
            await asyncio.gather(*outstanding, return_exceptions=True)


async def drive(spec: Dict, port: int, paths, seed: int, w0: float, w1: float) -> Tally:
    """Run one load pass of served workload ``spec`` until ``w1``."""
    from repro.service.client import ServiceClient

    tally = Tally(w0, w1)
    clients = []
    try:
        for _ in range(spec["connections"]):
            clients.append(
                await ServiceClient(
                    "127.0.0.1",
                    port,
                    binary=True,
                    pipeline_depth=spec["depth"],
                ).connect()
            )
        loops = []
        for conn, client in enumerate(clients):
            for slot in range(spec["slots"]):
                stream = DemandStream(
                    paths,
                    seed,
                    conn * spec["slots"] + slot,
                    spec["demands"],
                    spec["write_ratio"],
                )
                prefix = "c%ds%d" % (conn, slot)
                if spec["slots"] == 1 and spec["depth"] > 1:
                    loops.append(
                        _pipelined_stream(client, tally, stream, prefix, spec["depth"])
                    )
                else:
                    loops.append(_serial_stream(client, tally, stream, prefix))
        await asyncio.gather(*loops)
    finally:
        for client in clients:
            await client.close()
    return tally
