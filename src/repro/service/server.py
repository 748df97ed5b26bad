"""The asyncio lock server: text and binary wire protocols over a sharded
lock stack.

One :class:`LockServer` owns a :class:`~repro.LockStack` whose manager is
a :class:`~repro.service.sharded.ShardedLockManager` (or, behind
``--workers K``, a :class:`~repro.service.workers.WorkerProxyManager`
fronting true multiprocess shard workers).  Clients start in the line
protocol (one request line, one response line, UTF-8):

    START <txn>
    SLOCK <txn> <path> [NOWAIT]        S on the node, full protocol plan
    XLOCK <txn> <path> [NOWAIT]        X on the node, full protocol plan
    ISLOCK <txn> <path> [NOWAIT]       IS on the node + IS ancestors
    IXLOCK <txn> <path> [NOWAIT]       IX on the node + IX ancestors
    SILOCK/APLOCK/INCLOCK <txn> <path> [NOWAIT]
                                       semantic commuting-update plan
    ISILOCK/IAPLOCK/IINCLOCK <txn> <path> [NOWAIT]
                                       semantic intention chain
    ACQUIRE_MANY <txn> <path>:<MODE>[,<path>:<MODE>...] [NOWAIT]
    UNLOCK <txn> <path>
    END <txn>
    STATS
    MODES
    HELLO TEXT|BINARY

The semantic verbs (``SILOCK``/``APLOCK``/``INCLOCK`` and their
intention forms) exist only when the served stack was built with
``use_semantic_modes=True``; against a classic stack they answer ``ERR
UNKNOWN-VERB`` and the matching binary mode codes answer ``ERR
BAD-MODE`` — exactly the frames a PR 8 server produced, which is what
keeps the flag-off wire differential bit-identical.  ``MODES`` (binary:
``OP_MODES``) reports the mode vocabulary the server accepts, so a
client can discover the flag without tripping over it.

``HELLO BINARY`` upgrades the connection to the length-prefixed binary
framing of :mod:`repro.service.wire` (dense interned resource ids on the
wire, correlation ids, pipelining); the text protocol stays as the
debug/fallback path.  ``<path>`` is a slash-joined resource tuple
(``db1/seg1/cells/c1``).  Responses are ``OK ...`` or ``ERR <CODE> ...``
— see docs/SERVICE.md for the frame grammar and
tests/service/test_protocol_conformance.py plus
tests/service/test_binary_conformance.py for golden transcripts.

Both protocols run through one connection loop over a self-managed
growable buffer (no ``readline()``): complete frames are decoded in
place, dispatched in FIFO order, and their responses coalesce into a
single ``write()`` + ``drain()`` per ready-batch — the transport half of
the wire-protocol speedup.  Binary responses are produced by rendering
the *text* response first and re-framing it
(:func:`~repro.service.wire.frame_for_response`), so the two protocols
cannot drift.  An oversized frame (text line or binary header) earns a
clean ``ERR FRAME_TOO_LONG`` reply and the connection stays up, where
the old ``readline()`` path tore the session down with
``LimitOverrunError``.

Concurrency model: the event loop is single-threaded and every lock-table
mutation is synchronous, so state consistency never depends on the shard
mutexes — they model per-partition *admission*.  Binary frames start
eagerly: decoded frames join a per-session ready batch, and one
``call_soon`` callback per batch steps each frame synchronously, in
arrival order, until it returns or first suspends.  A frame that never
waits is answered with no task and no lock handoff; only a frame that
suspends — it parks on a grant, an ``END`` quiesces, it sleeps out the
modelled shard latency, or it runs in workers mode — continues as a
task, still in the context copied when the frame was decoded.  A
per-session frame-order gate keeps frames beginning in arrival
order: the owning frame keeps it until it completes or first waits,
then hands it straight to the next queued frame.  A lock request is
cut into per-shard runs (root-to-leaf order), and each run holds only
its own shard's ``asyncio.Lock`` while the shard table works, plus an
optional ``shard_service_time`` sleep per submitted request modelling
per-shard storage latency; requests routed to different shards
overlap, requests to the same shard serialize.  EOT release is synchronous and charged to
no shard, keeping commit off the admission path.  A task never holds one
shard mutex while waiting for another (runs are sequential), and the one
multi-shard operation — the deadlock detector's stop-the-world snapshot
— takes mutexes in ascending shard order, the single global order, so
mutex deadlock is impossible by construction.  In workers mode the same
model holds, except manager operations are blocking pipe RPCs and run in
the default executor (the ``_call`` seam), never on the loop.

WAITING requests park on an :class:`asyncio.Future` with a timer for the
lock timeout (no ``wait_for``, which would need a task); the manager's
``on_wake`` callback resolves the future when a release or cancellation
grants the queued request (marshalled via ``call_soon_threadsafe`` in
workers mode, where wakes surface on executor threads).  Responses
already queued behind a parked request are flushed *before* parking, so
a pipelined batch never sits on completed answers while one frame waits.
A cross-shard deadlock detector task snapshots the union waits-for graph
(all shard mutexes held) on an interval, nudged early whenever a request
starts waiting; victims are aborted through the transaction manager with
the bounded-retry pattern of the fault harness.

Fault injection: the server fires ``service.frame`` before parsing every
request frame (an injected error drops the connection — the mid-frame
client disconnect) and ``service.detector`` at the top of every detector
pass (an injected error skips the pass — a detector delay); both are
registered in :data:`repro.faults.plan.INJECTION_POINTS`.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextvars
import functools
import json
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AuthorizationError,
    DeadlockError,
    FaultInjected,
    LockConflictError,
    LockError,
    LockTimeoutError,
    ProtocolError,
    TransactionError,
)
from repro.graphs.units import ancestors
from repro.locking.lock_table import LockRequest, RequestStatus
from repro.nf2.surrogate import ResourceInterner
from repro.locking.modes import (
    AP,
    CLASSIC_MODES,
    IAP,
    IINC,
    INC,
    IS,
    ISI,
    IX,
    MODES_BY_CODE,
    N_MODES,
    S,
    SI,
    X,
    LockMode,
)
from repro.service import wire
from repro.service.sharded import ShardedLockManager, cut_runs
from repro.txn.transaction import TxnState

#: Verbs that take <txn> <path> and run a lock plan.  The semantic verbs
#: only exist when the served stack runs with ``use_semantic_modes``;
#: otherwise they answer exactly as any unknown verb does, so a server
#: over a classic stack stays frame-for-frame identical to PR 8.
_PLAN_VERBS = {
    "SLOCK": S,
    "XLOCK": X,
    "ISLOCK": IS,
    "IXLOCK": IX,
    "SILOCK": SI,
    "APLOCK": AP,
    "INCLOCK": INC,
    "ISILOCK": ISI,
    "IAPLOCK": IAP,
    "IINCLOCK": IINC,
}

_READ_CHUNK = 64 * 1024


def register_database_resources(interner, database) -> List[tuple]:
    """Intern every schema-level resource of ``database`` in one
    deterministic order (database, segments, relations, objects).

    The server runs this at start and workers mode runs it again for the
    fork snapshot, so the dense ids a binary client learns over
    ``OP_RESOURCES`` are the very ids the shard router and the worker
    tables route on.
    """
    resources: List[tuple] = [(database.name,)]
    relations = database.relations()
    seen_segments = set()
    for relation in relations:
        if relation.segment not in seen_segments:
            seen_segments.add(relation.segment)
            resources.append((database.name, relation.segment))
    for relation in relations:
        resources.append((database.name, relation.segment, relation.name))
    for relation in relations:
        for obj in relation:
            resources.append(
                (database.name, relation.segment, relation.name, str(obj.key))
            )
    for resource in resources:
        interner.intern(resource)
    return resources


def make_service_stack(
    workload: str = "cells", shards: int = 4, workers: int = 0, **flags
):
    """A fresh served stack over one of the standard databases.

    ``workload`` picks the database: ``cells`` (the paper's figure-7
    robotics schema) or ``partlib`` (the part library of the check
    workloads).  ``shards`` goes to the ShardedLockManager; remaining
    flags are protocol ablation flags.  ``workers=K`` swaps the
    in-process shard tables for K multiprocess shard workers behind a
    :class:`~repro.service.workers.WorkerProxyManager`; the interner
    snapshot of the schema tree ships to every worker at fork.
    """
    import repro

    if workload == "partlib":
        from repro.check.workloads import build_check_partlib

        database, catalog = build_check_partlib()
    elif workload == "cells":
        from repro.workloads import build_cells_database

        database, catalog = build_cells_database(figure7=True)
    else:
        raise ValueError("unknown service workload %r" % (workload,))
    stack = repro.make_stack(database, catalog, shards=shards, **flags)
    if workers:
        if flags.get("use_dense_path"):
            raise ValueError("workers mode has no dense-path variant")
        from repro.nf2.surrogate import ResourceInterner
        from repro.service.workers import WorkerPool, WorkerProxyManager

        router = ResourceInterner()
        resources = register_database_resources(router, database)
        snapshot = [
            (router.intern(resource), "/".join(str(p) for p in resource))
            for resource in resources
        ]
        pool = WorkerPool(shards, workers, snapshot)
        proxy = WorkerProxyManager(pool, router)
        stack.manager = proxy
        stack.protocol.manager = proxy
    return stack


class _Session:
    """Per-connection state: named transactions plus wire-mode flags.

    Binary frames are pipelined, so the session also carries their
    bookkeeping: the decoded frames waiting for the next batch start
    (``ready``), the frame-order gate (frames *begin* in arrival order;
    the owning frame keeps the gate until it completes or first waits),
    the frames queued behind the gate, the frame being stepped right now,
    the tasks of frames that suspended, and a per-transaction in-flight
    count that lets ``END`` wait for its own transaction's frames without
    stalling anyone else's.
    """

    __slots__ = (
        "txns",
        "binary",
        "discarding",
        "skip",
        "ready",
        "order_owner",
        "order_waiters",
        "running",
        "tasks",
        "inflight",
        "idle",
    )

    def __init__(self):
        self.txns: Dict[str, object] = {}
        self.binary = False  # upgraded via HELLO BINARY
        self.discarding = False  # swallowing the tail of an oversized line
        self.skip = 0  # oversized binary body bytes still to discard
        #: (context, opcode, corr, fields) decoded but not yet started
        self.ready: list = []
        self.order_owner = None  # the frame coroutine holding the gate
        #: (frame, gate future) queued behind the owner, arrival order
        self.order_waiters: deque = deque()
        self.running = None  # the frame coroutine being stepped
        self.tasks: set = set()  # frames that suspended
        self.inflight: Dict[str, int] = {}  # txn name -> frames in flight
        self.idle: Dict[str, asyncio.Event] = {}  # set when count hits 0

    def order_free(self) -> bool:
        """True when a new frame may begin now: no frame owns the gate
        and none is queued for it."""
        return self.order_owner is None and not self.order_waiters

    def release_order(self):
        """Pass the frame-order gate on if the frame being stepped owns
        it.

        Idempotent per frame: the first wait inside a dispatch releases,
        later calls no-op.  Text dispatches step no frame, so this is a
        no-op for them too.  The gate goes straight to the first queued
        frame that is still live, never through a free state: a frame
        decoded in between cannot begin ahead of the queued ones.
        """
        frame = self.running
        if frame is None or self.order_owner is not frame:
            return
        self.order_owner = None
        while self.order_waiters:
            frame, gate = self.order_waiters.popleft()
            if not gate.done():  # a cancelled queued frame is skipped
                self.order_owner = frame
                gate.set_result(None)
                return

    def begin_frame(self, name: str):
        self.inflight[name] = self.inflight.get(name, 0) + 1

    def end_frame(self, name: str):
        count = self.inflight.get(name, 0) - 1
        if count > 0:
            self.inflight[name] = count
        else:
            self.inflight.pop(name, None)
            event = self.idle.pop(name, None)
            if event is not None:
                event.set()

    async def quiesce(self, name: str):
        """Park until no lock/unlock frame for ``name`` is in flight."""
        while self.inflight.get(name, 0):
            event = self.idle.setdefault(name, asyncio.Event())
            await event.wait()


def _expire(future):
    """A parked request's lock timeout ran out."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


#: what :func:`_step` returns once the frame coroutine has returned
_DONE = object()


def _step(session: _Session, frame, step, *args):
    """Advance ``frame`` by ``step(*args)`` (its ``send`` or ``throw``)
    as the session's running frame; what it yielded, or :data:`_DONE`."""
    session.running = frame
    try:
        return step(*args)
    except StopIteration:
        return _DONE
    finally:
        session.running = None


class _Resumed(collections.abc.Coroutine):
    """A frame that has already run up to its first suspension, as the
    coroutine of the task that steps it from there on.

    The task's first step gets back what the frame yielded (the future
    it waits on, or None for a bare yield), exactly as if the task had
    stepped the frame from its start; every later step — and every
    exception the task throws in, cancellation included, even before
    its first step — goes to the frame itself.  Each step runs in
    ``context``, the one the frame's eager steps ran in, not in the copy
    the task makes: a context variable set before the frame suspended
    can then be reset after it resumes.
    """

    __slots__ = ("session", "frame", "pending", "context")

    def __init__(self, session: _Session, frame, pending, context):
        self.session = session
        self.frame = frame
        self.pending = pending
        self.context = context

    def _advance(self, step, *args):
        pending = self.context.run(_step, self.session, self.frame, step, *args)
        if pending is _DONE:
            raise StopIteration
        return pending

    def send(self, value):
        pending = self.pending
        if pending is not _DONE:
            self.pending = _DONE
            return pending
        return self._advance(self.frame.send, value)

    def throw(self, exc, *args):
        self.pending = _DONE
        return self._advance(self.frame.throw, exc, *args)

    def __await__(self):
        raise TypeError("a resumed frame is only stepped by its task")


class _Conn:
    """One connection's write side: responses coalesce in ``out`` and hit
    the socket as a single ``write()`` + ``drain()`` per flush."""

    __slots__ = ("writer", "out", "pending", "flush_task")

    def __init__(self, writer):
        self.writer = writer
        self.out = bytearray()
        self.pending = 0  # responses queued since the last flush
        self.flush_task: Optional[asyncio.Task] = None

    async def flush(self):
        if self.out:
            data = bytes(self.out)
            del self.out[:]
            self.writer.write(data)
            await self.writer.drain()


class LockServer:
    """Serve a sharded lock stack over the text and binary protocols."""

    def __init__(
        self,
        stack,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_service_time: float = 0.0,
        detector_interval: float = 0.05,
        lock_timeout: float = 5.0,
        max_frame: int = wire.DEFAULT_MAX_FRAME,
        coalesce_writes: bool = True,
    ):
        from repro.service.workers import WorkerProxyManager

        manager = stack.manager
        if not isinstance(manager, (ShardedLockManager, WorkerProxyManager)):
            raise TypeError(
                "LockServer requires a ShardedLockManager or "
                "WorkerProxyManager stack"
            )
        self.stack = stack
        self.manager = manager
        #: workers-mode manager calls block on pipe RPCs — run them in
        #: the default executor so the event loop never stalls
        self._use_executor = isinstance(manager, WorkerProxyManager)
        self.host = host
        self.port = port
        #: per-submitted-request service latency charged inside the
        #: owning shard's mutex — the knob the shard-scaling benchmark
        #: turns (0.0 for functional tests: admission only, no latency)
        self.shard_service_time = shard_service_time
        self.detector_interval = detector_interval
        self.lock_timeout = lock_timeout
        #: frame-size ceiling for both protocols (text line length /
        #: binary header length field); an oversized frame is answered
        #: with ERR FRAME_TOO_LONG and the connection survives
        self.max_frame = max_frame
        #: False -> one drain per response (the BENCH_6 ablation knob)
        self.coalesce_writes = coalesce_writes
        #: optional :class:`repro.faults.FaultInjector` for the
        #: ``service.frame`` / ``service.detector`` points
        self.fault_injector = None
        self.stats: Dict[str, int] = {
            "frames": 0,
            "errors": 0,
            "sessions": 0,
            "binary_sessions": 0,
            "batches": 0,
            "max_batch": 0,
            "frames_too_long": 0,
            "deadlock_victims": 0,
            "timeouts": 0,
            "injected_disconnects": 0,
            "detector_delays": 0,
        }
        self._shard_locks: List[asyncio.Lock] = []
        self._futures: Dict[LockRequest, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._detector_task: Optional[asyncio.Task] = None
        self._nudge: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: rid -> resource tuple: everything reachable over the binary
        #: wire (the schema tree at start, plus OP_INTERN additions)
        self._rid_resources: Dict[int, tuple] = {}
        #: rid -> its slash-joined path, as responses spell it
        self._rid_paths: Dict[int, str] = {}
        self._wire_ids = ResourceInterner()
        manager.on_wake = self._on_wake

    @property
    def _semantic_enabled(self) -> bool:
        """Whether the served stack accepts the semantic lock modes."""
        return bool(getattr(self.stack.protocol, "use_semantic_modes", False))

    def _accepts_mode(self, mode: LockMode) -> bool:
        return self._semantic_enabled or not mode.is_semantic

    def _modes_frame(self) -> str:
        accepted = (
            MODES_BY_CODE if self._semantic_enabled else CLASSIC_MODES
        )
        return "OK MODES %s" % ",".join(mode.value for mode in accepted)

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, start serving and start the detector task."""
        self._loop = asyncio.get_running_loop()
        self._shard_locks = [
            asyncio.Lock() for _ in range(self.manager.n_shards)
        ]
        self._nudge = asyncio.Event()
        if self._use_executor:
            # wakes arrive on executor threads in workers mode
            self.manager.on_wake = self._on_wake_threadsafe
        self._register_resources()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._detector_task = asyncio.create_task(self._detector_loop())
        return self.host, self.port

    async def stop(self):
        if self._detector_task is not None:
            self._detector_task.cancel()
            try:
                await self._detector_task
            except asyncio.CancelledError:
                pass
            self._detector_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._use_executor:
            self.manager.stop()

    async def serve_forever(self):
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def _register_resources(self):
        """Build the wire-id table: the schema tree interned in one
        deterministic order, ready for export to binary clients over
        ``OP_RESOURCES``.

        The table lives in a *server-private* interner — the shard
        router keeps assigning its ids lazily on first touch, exactly
        as PR 7 did, so shard routing (and every behavior downstream of
        it) is identical whether or not a binary client ever connects.
        In workers mode the router was pre-seeded with the same
        registration order at fork, so there the two id spaces happen
        to coincide.
        """
        for resource in register_database_resources(
            self._wire_ids, self.stack.database
        ):
            self._note_rid(self._wire_ids.intern(resource), resource)

    def _note_rid(self, rid: int, resource: tuple):
        self._rid_resources[rid] = resource
        self._rid_paths[rid] = "/".join(str(p) for p in resource)

    # -- executor seam --------------------------------------------------------

    async def _call(self, fn, *args, **kwargs):
        """Run a manager/transaction mutation.

        In-process managers mutate synchronously on the loop (exactly
        the PR 7 behavior); the workers-mode proxy blocks on pipe RPCs,
        so it runs in the default executor instead.
        """
        if self._use_executor:
            return await self._loop.run_in_executor(
                None, functools.partial(fn, *args, **kwargs)
            )
        return fn(*args, **kwargs)

    # -- wake plumbing --------------------------------------------------------

    def _on_wake(self, woken: List[LockRequest]):
        for request in woken:
            future = self._futures.get(request)
            if future is not None and not future.done():
                future.set_result(True)

    def _on_wake_threadsafe(self, woken):
        self._loop.call_soon_threadsafe(self._on_wake, woken)

    # -- connection handling --------------------------------------------------

    async def _handle_client(self, reader, writer):
        session = _Session()
        conn = _Conn(writer)
        self.stats["sessions"] += 1
        buffer = bytearray()
        abandoned = False
        try:
            eof = False
            while not eof:
                chunk = await reader.read(_READ_CHUNK)
                if chunk:
                    buffer.extend(chunk)
                else:
                    eof = True
                if not await self._drain_frames(conn, session, buffer, eof):
                    # an injected disconnect or unrecoverable framing:
                    # drop without a reply; the cleanup below aborts the
                    # session's live transactions
                    abandoned = True
                    return
                await self._flush(conn)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if abandoned:
                # the connection is being dropped mid-stream: start none
                # of the decoded frames and unwind the suspended ones
                # instead of letting them finish against a peer that
                # will never read the answers
                session.ready.clear()
                for task in list(session.tasks):
                    task.cancel()
            elif session.ready:
                # the final read's frames: start them before settling
                self._start_ready(conn, session)
            if session.tasks:
                # settle (or unwind) the in-flight dispatches before
                # aborting: aborting a transaction under its own running
                # frame would race the lock manager
                await asyncio.gather(
                    *list(session.tasks), return_exceptions=True
                )
            try:
                for txn in list(session.txns.values()):
                    if txn.state == TxnState.ACTIVE:
                        await self._abort_txn(txn)
            except asyncio.CancelledError:
                # server shutdown raced the abort RPC (workers mode runs
                # it in the executor); the pool teardown releases the
                # transaction's locks anyway
                pass
            session.txns.clear()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _drain_frames(self, conn, session, buffer, eof) -> bool:
        """Dispatch every complete frame in ``buffer``; False drops the
        connection.  Text frames dispatch inline, one round-trip at a
        time.  Binary frames join the session's ready batch and start
        in arrival order from a loop callback (:meth:`_start_ready`), so
        a parked frame does not head-of-line-block the frames behind
        it."""
        while True:
            if session.binary:
                progress, alive = self._next_binary(conn, session, buffer)
            else:
                progress, alive = await self._next_text(
                    conn, session, buffer, eof
                )
            if not alive:
                return False
            if not progress:
                return True
            if conn.pending and not self.coalesce_writes:
                await self._flush(conn)

    async def _flush(self, conn):
        """Flush queued responses as one write, recording batch stats."""
        made = conn.pending
        if made:
            conn.pending = 0
            self.stats["batches"] += 1
            if made > self.stats["max_batch"]:
                self.stats["max_batch"] = made
        try:
            await conn.flush()
        except (ConnectionResetError, BrokenPipeError):
            pass  # the read loop notices the dead peer on its own

    def _schedule_flush(self, conn):
        if conn.flush_task is None or conn.flush_task.done():
            conn.flush_task = self._loop.create_task(self._flush_soon(conn))

    async def _flush_soon(self, conn):
        # yield once so every dispatch completing in the same ready
        # batch lands in a single write
        await asyncio.sleep(0)
        await self._flush(conn)

    def _frame_fault(self) -> bool:
        """True when an injected ``service.frame`` fault fires — the
        mid-frame client disconnect."""
        if self.fault_injector is not None:
            try:
                self.fault_injector.fire("service.frame")
            except FaultInjected:
                self.stats["injected_disconnects"] += 1
                return True
        return False

    def _too_long_text(self, conn):
        self.stats["frames"] += 1
        self.stats["frames_too_long"] += 1
        self._queue_text(
            conn,
            "ERR FRAME_TOO_LONG line exceeds %d bytes" % self.max_frame,
        )

    async def _next_text(self, conn, session, buffer, eof):
        """Consume at most one text line; (progress, alive)."""
        newline = buffer.find(b"\n")
        if session.discarding:
            # inside an oversized line that was already answered: drop
            # bytes until the newline restores framing
            if newline < 0:
                del buffer[:]
                return False, True
            del buffer[: newline + 1]
            session.discarding = False
            return True, True
        if newline < 0:
            if len(buffer) > self.max_frame:
                self._too_long_text(conn)
                session.discarding = True
                del buffer[:]
                return True, True
            if eof and buffer:
                # readline() surfaced an unterminated tail at EOF as a
                # final frame; keep that behavior
                line = bytes(buffer)
                del buffer[:]
                return await self._text_frame(conn, session, line)
            return False, True
        line = bytes(buffer[:newline])
        del buffer[: newline + 1]
        if len(line) > self.max_frame:
            self._too_long_text(conn)
            return True, True
        return await self._text_frame(conn, session, line)

    async def _text_frame(self, conn, session, line: bytes):
        self.stats["frames"] += 1
        if self._frame_fault():
            return False, False
        response = await self._dispatch(
            conn, session, line.decode("utf-8", "replace").strip()
        )
        self._queue_text(conn, response)
        return True, True

    def _queue_text(self, conn, response: str):
        if response.startswith("ERR"):
            self.stats["errors"] += 1
        conn.out += (response + "\n").encode("utf-8")
        conn.pending += 1

    def _next_binary(self, conn, session, buffer):
        """Consume at most one binary frame; (progress, alive).

        Decode-time outcomes (oversized frame, corrupt header, bad
        body) are answered inline; a well-formed request joins the
        session's ready batch with a copy of the current context, and
        the first frame of a batch schedules the one callback that
        starts it.  Every step of the frame, before and after any
        suspension, runs in that one copy, as every step of a task
        spawned here would run in the task's."""
        if session.skip:
            drop = min(session.skip, len(buffer))
            del buffer[:drop]
            session.skip -= drop
            if session.skip:
                return False, True
        if len(buffer) < wire.HEADER_SIZE:
            return False, True
        length, opcode, corr = wire.HEADER.unpack_from(buffer, 0)
        if length < wire.HEADER_SIZE - 4:
            # a corrupt header: no way to resync, drop the connection
            return False, False
        if length > self.max_frame:
            self.stats["frames"] += 1
            self.stats["frames_too_long"] += 1
            self._queue_binary(
                conn,
                wire.encode_response(
                    wire.RESP_ERR,
                    corr,
                    (
                        wire.ERR_CODES["FRAME_TOO_LONG"],
                        "FRAME_TOO_LONG frame exceeds %d bytes"
                        % self.max_frame,
                    ),
                ),
            )
            del buffer[: wire.HEADER_SIZE]
            session.skip = length - (wire.HEADER_SIZE - 4)
            return True, True
        end = 4 + length
        if len(buffer) < end:
            return False, True
        self.stats["frames"] += 1
        if self._frame_fault():
            return False, False
        try:
            fields = wire.decode_request_fields(
                opcode, buffer, wire.HEADER_SIZE, end
            )
        except (wire.WireError, UnicodeDecodeError):
            del buffer[:end]
            self._queue_binary(
                conn,
                wire.frame_for_response(
                    corr, "ERR UNKNOWN-OPCODE 0x%02x" % opcode
                )
                if opcode not in wire.REQUEST_OPCODES
                else wire.frame_for_response(
                    corr, "ERR BAD-FRAME opcode 0x%02x body" % opcode
                ),
            )
            return True, True
        del buffer[:end]
        session.ready.append(
            (contextvars.copy_context(), opcode, corr, fields)
        )
        if len(session.ready) == 1:
            self._loop.call_soon(self._start_ready, conn, session)
        return True, True

    def _start_ready(self, conn, session):
        """Start the session's ready batch of binary frames, in arrival
        order.

        Runs as a loop callback, never inline in the read loop, so
        frames woken earlier (granted waiters, the gate's next owner)
        run before newly arrived ones.  A frame that may begin now owns
        the frame-order gate and is stepped synchronously until it
        returns or first suspends; one that returns costs no task at
        all.  A frame that suspends, or must queue behind the gate,
        continues as a task.
        """
        ready, session.ready = session.ready, []
        for context, opcode, corr, fields in ready:
            if session.order_free():
                frame = self._binary_frame(conn, session, opcode, corr, fields)
                session.order_owner = frame
            else:
                gate = self._loop.create_future()
                frame = self._binary_frame(
                    conn, session, opcode, corr, fields, gate
                )
                session.order_waiters.append((frame, gate))
            context.run(self._start_frame, session, frame, context)

    def _start_frame(self, session, frame, context):
        try:
            pending = _step(session, frame, frame.send, None)
        except Exception as exc:
            # _binary_frame already closed the connection; report the
            # error where a failed dispatch task's error would surface
            self._loop.call_exception_handler(
                {"message": "binary frame dispatch failed", "exception": exc}
            )
            return
        if pending is not _DONE:
            # suspended: a task steps it from here on
            task = self._loop.create_task(
                _Resumed(session, frame, pending, context)
            )
            session.tasks.add(task)
            task.add_done_callback(session.tasks.discard)

    async def _binary_frame(
        self, conn, session, opcode, corr, fields, gate=None
    ):
        """One pipelined binary dispatch, begun in arrival order.

        The frame owns the session's frame-order gate from its start
        until the dispatch completes or first waits (released in
        ``_end``, ``_await_grant`` and before the modelled shard-service
        sleep in ``_run_steps``).  Transaction state therefore mutates
        in arrival order, but a waiting frame does not block the frames
        queued behind it: responses are matched by correlation id, not
        position.  A frame that arrived while the gate was taken waits
        on ``gate`` first; the gate's previous owner resolves it.
        """
        try:
            if gate is not None:
                await gate
            frame = await self._dispatch_binary(
                conn, session, opcode, corr, fields
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            # the serial path tore the connection down on an unexpected
            # dispatch error; match that rather than leaving the client
            # waiting on this correlation id forever
            conn.writer.close()
            raise
        finally:
            session.release_order()
        self._queue_binary(conn, frame)
        if not self.coalesce_writes:
            await self._flush(conn)

    def _queue_binary(self, conn, frame: bytes):
        if frame[4] == wire.RESP_ERR:
            self.stats["errors"] += 1
        conn.out += frame
        conn.pending += 1
        if self.coalesce_writes:
            self._schedule_flush(conn)

    # -- dispatch -------------------------------------------------------------

    async def _dispatch(self, conn, session: _Session, frame: str) -> str:
        if not frame:
            return "ERR BAD-FRAME empty"
        tokens = frame.split()
        verb = tokens[0].upper()
        if verb == "STATS":
            return self._stats_frame()
        if verb == "MODES":
            return self._modes_frame()
        if verb == "HELLO":
            if len(tokens) != 2 or tokens[1].upper() not in (
                "TEXT",
                "BINARY",
            ):
                return "ERR BAD-FRAME HELLO takes TEXT or BINARY"
            if tokens[1].upper() == "BINARY":
                if not session.binary:
                    self.stats["binary_sessions"] += 1
                session.binary = True
                return "OK HELLO BINARY"
            session.binary = False
            return "OK HELLO TEXT"
        if verb == "START":
            if len(tokens) != 2:
                return "ERR BAD-FRAME START takes one argument"
            return self._start(session, tokens[1])
        if verb == "END":
            if len(tokens) != 2:
                return "ERR BAD-FRAME END takes one argument"
            return await self._end(session, tokens[1])
        if verb == "UNLOCK":
            if len(tokens) != 3:
                return "ERR BAD-FRAME UNLOCK takes two arguments"
            return await self._unlock(conn, session, tokens[1], tokens[2])
        if verb in _PLAN_VERBS and self._accepts_mode(_PLAN_VERBS[verb]):
            if len(tokens) not in (3, 4) or (
                len(tokens) == 4 and tokens[3].upper() != "NOWAIT"
            ):
                return "ERR BAD-FRAME %s takes <txn> <path> [NOWAIT]" % verb
            return await self._lock(
                conn,
                session,
                verb,
                tokens[1],
                tokens[2],
                nowait=len(tokens) == 4,
            )
        if verb == "ACQUIRE_MANY":
            if len(tokens) not in (3, 4) or (
                len(tokens) == 4 and tokens[3].upper() != "NOWAIT"
            ):
                return (
                    "ERR BAD-FRAME ACQUIRE_MANY takes <txn> "
                    "<path>:<mode>[,...] [NOWAIT]"
                )
            return await self._acquire_many(
                conn, session, tokens[1], tokens[2], nowait=len(tokens) == 4
            )
        return "ERR UNKNOWN-VERB %s" % tokens[0]

    async def _dispatch_binary(
        self, conn, session: _Session, opcode: int, corr: int, fields: tuple
    ) -> bytes:
        """One binary request, one binary response frame.

        Lock/unlock/end responses render through the same text handlers
        the line protocol uses and are re-framed, so the two protocols
        stay byte-equivalent by construction.
        """
        if opcode == wire.OP_START:
            return wire.frame_for_response(
                corr, self._start(session, fields[0])
            )
        if opcode == wire.OP_END:
            return wire.frame_for_response(
                corr, await self._end(session, fields[0])
            )
        if opcode == wire.OP_STATS:
            return wire.frame_for_response(corr, self._stats_frame())
        if opcode == wire.OP_RESOURCES:
            entries = tuple(sorted(self._rid_paths.items()))
            return wire.encode_response(wire.RESP_RESOURCES, corr, (entries,))
        if opcode == wire.OP_INTERN:
            resource, err = self._parse_resource(fields[0])
            if err is not None:
                return wire.frame_for_response(corr, err)
            rid = self._wire_ids.intern(resource)
            self._note_rid(rid, resource)
            return wire.encode_response(wire.RESP_INTERNED, corr, (rid,))
        if opcode == wire.OP_UNLOCK:
            rid, name = fields
            if self._live_txn(session, name) is None:
                return wire.frame_for_response(corr, "ERR NOTXN %s" % name)
            resource = self._rid_resources.get(rid)
            if resource is None:
                return wire.frame_for_response(
                    corr, "ERR UNKNOWN-RESOURCE rid=%d" % rid
                )
            return wire.frame_for_response(
                corr,
                await self._unlock_resource(
                    session, name, resource, self._rid_paths[rid]
                ),
            )
        if opcode == wire.OP_MODES:
            return wire.frame_for_response(corr, self._modes_frame())
        if opcode == wire.OP_LOCK:
            mode_code, flags, rid, name = fields
            if self._live_txn(session, name) is None:
                return wire.frame_for_response(corr, "ERR NOTXN %s" % name)
            if mode_code >= N_MODES or not self._accepts_mode(
                MODES_BY_CODE[mode_code]
            ):
                # a semantic code against a classic stack answers exactly
                # as any out-of-range code always has
                return wire.frame_for_response(
                    corr, "ERR BAD-MODE code=%d" % mode_code
                )
            resource = self._rid_resources.get(rid)
            if resource is None:
                return wire.frame_for_response(
                    corr, "ERR UNKNOWN-RESOURCE rid=%d" % rid
                )
            return wire.frame_for_response(
                corr,
                await self._lock_resource(
                    conn,
                    session,
                    name,
                    resource,
                    self._rid_paths[rid],
                    MODES_BY_CODE[mode_code],
                    nowait=bool(flags & wire.FLAG_NOWAIT),
                ),
            )
        if opcode == wire.OP_ACQUIRE_MANY:
            flags, step_codes, name = fields
            txn = self._live_txn(session, name)
            if txn is None:
                return wire.frame_for_response(corr, "ERR NOTXN %s" % name)
            steps: List[Tuple[tuple, LockMode]] = []
            spec_parts: List[str] = []
            for rid, mode_code in step_codes:
                if mode_code >= N_MODES or not self._accepts_mode(
                    MODES_BY_CODE[mode_code]
                ):
                    return wire.frame_for_response(
                        corr, "ERR BAD-MODE code=%d" % mode_code
                    )
                resource = self._rid_resources.get(rid)
                if resource is None:
                    return wire.frame_for_response(
                        corr, "ERR UNKNOWN-RESOURCE rid=%d" % rid
                    )
                mode = MODES_BY_CODE[mode_code]
                steps.append((resource, mode))
                spec_parts.append("%s:%s" % (self._rid_paths[rid], mode.value))
            return wire.frame_for_response(
                corr,
                await self._run_steps(
                    conn,
                    session,
                    txn,
                    name,
                    ",".join(spec_parts),
                    steps,
                    nowait=bool(flags & wire.FLAG_NOWAIT),
                ),
            )
        return wire.frame_for_response(
            corr, "ERR UNKNOWN-OPCODE 0x%02x" % opcode
        )

    def _start(self, session: _Session, name: str) -> str:
        txn = session.txns.get(name)
        if txn is not None and txn.state == TxnState.ACTIVE:
            return "ERR TXN-ACTIVE %s" % name
        session.txns[name] = self.stack.txns.begin(name=name)
        return "OK STARTED %s" % name

    def _live_txn(self, session: _Session, name: str):
        txn = session.txns.get(name)
        if txn is None or txn.state != TxnState.ACTIVE:
            session.txns.pop(name, None)
            return None
        return txn

    async def _end(self, session: _Session, name: str) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        # a pipelined END can arrive while this transaction's own lock
        # frames are still in flight (parked, or sleeping out modelled
        # shard latency); committing underneath them would yank the
        # transaction out of the lock manager mid-plan.  Wait for the
        # transaction to quiesce — and release the frame-order lock
        # first, else this END would head-of-line-block every later
        # frame (the next transaction's whole pipeline) while it waits
        # on its own stragglers.
        if session.inflight.get(name):
            session.release_order()
            await session.quiesce(name)
        # commit mutates synchronously (no awaits), so it needs no shard
        # mutex: nothing can observe a half-released transaction.  Not
        # taking the all-shards barrier here keeps EOT off the admission
        # path — it was the scaling bottleneck when every transaction's
        # END drained all N shard mutexes.
        try:
            await self._call(self.stack.txns.commit, txn)
        except TransactionError:
            # e.g. the detector picked this transaction as victim after
            # the liveness check above
            if session.txns.get(name) is txn:
                session.txns.pop(name, None)
            return "ERR NOTXN %s" % name
        # drop only our own entry: once the order lock is released a
        # pipelined START may already have rebound the name
        if session.txns.get(name) is txn:
            session.txns.pop(name, None)
        return "OK ENDED %s" % name

    async def _unlock(
        self, conn, session: _Session, name: str, path: str
    ) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        resource, err = self._parse_resource(path)
        if err is not None:
            return err
        return await self._unlock_resource(session, name, resource, path)

    async def _unlock_resource(
        self, session: _Session, name: str, resource: tuple, path: str
    ) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        session.begin_frame(name)
        try:
            shard = self.manager.shard_of(resource)
            async with self._shard_locks[shard]:
                try:
                    await self._call(self.manager.release, txn, resource)
                except LockError:
                    return "ERR NOT-HELD %s %s" % (name, path)
            return "OK RELEASED %s %s" % (name, path)
        finally:
            session.end_frame(name)

    async def _lock(
        self,
        conn,
        session: _Session,
        verb: str,
        name: str,
        path: str,
        nowait: bool,
    ) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        resource, err = self._parse_resource(path)
        if err is not None:
            return err
        return await self._lock_resource(
            conn, session, name, resource, path, _PLAN_VERBS[verb], nowait
        )

    async def _lock_resource(
        self,
        conn,
        session: _Session,
        name: str,
        resource: tuple,
        path: str,
        mode: LockMode,
        nowait: bool,
    ) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        if mode.is_intention:
            # the paper's intention chain: IS/IX on every ancestor,
            # root first, then the node itself
            steps = [(anc, mode) for anc in ancestors(resource)]
            steps.append((resource, mode))
        else:
            try:
                plan = self.stack.protocol.plan_request(txn, resource, mode)
            except (AuthorizationError, ProtocolError) as exc:
                return "ERR DENIED %s %s" % (name, exc)
            steps = [(step.resource, step.mode) for step in plan]
        return await self._run_steps(
            conn, session, txn, name, path, steps, nowait
        )

    async def _acquire_many(
        self, conn, session: _Session, name: str, spec: str, nowait: bool
    ) -> str:
        txn = self._live_txn(session, name)
        if txn is None:
            return "ERR NOTXN %s" % name
        steps: List[Tuple[tuple, LockMode]] = []
        for item in spec.split(","):
            path, sep, mode_name = item.rpartition(":")
            if not sep:
                return "ERR BAD-FRAME missing :mode in %s" % item
            try:
                mode = LockMode(mode_name.upper())
            except ValueError:
                return "ERR BAD-MODE %s" % mode_name
            if not self._accepts_mode(mode):
                # a semantic mode name against a classic stack answers
                # exactly as the unknown-name path always has
                return "ERR BAD-MODE %s" % mode_name
            resource, err = self._parse_resource(path)
            if err is not None:
                return err
            steps.append((resource, mode))
        return await self._run_steps(
            conn, session, txn, name, spec, steps, nowait
        )

    # -- plan execution under shard mutexes -----------------------------------

    async def _run_steps(
        self, conn, session: _Session, txn, name: str, what: str, steps, nowait
    ) -> str:
        """Acquire an ordered plan, one shard run at a time.

        Holds exactly one shard mutex at any moment; a WAITING tail
        releases every mutex and parks on a future resolved by
        ``on_wake`` (grant), the detector (deadlock victim) or the
        timeout path (cancel + ERR TIMEOUT, earlier prefix stays held —
        the client chooses between retry and END).
        """
        session.begin_frame(name)
        try:
            return await self._run_steps_inner(
                conn, session, txn, name, what, steps, nowait
            )
        finally:
            session.end_frame(name)

    async def _run_steps_inner(
        self, conn, session: _Session, txn, name: str, what: str, steps, nowait
    ) -> str:
        submitted = 0
        manager = self.manager
        for shard, run in cut_runs(manager.router, manager.n_shards, steps):
            fault = False
            granted: List[LockRequest] = []
            async with self._shard_locks[shard]:
                try:
                    granted = await self._call(
                        manager.acquire_many,
                        txn,
                        run,
                        long=txn.long,
                        wait=not nowait,
                    )
                except LockConflictError as exc:
                    return "ERR CONFLICT %s %s" % (
                        name,
                        "/".join(str(p) for p in exc.resource),
                    )
                except LockTimeoutError:
                    # an injected mid-batch timeout: the prefix stays
                    # granted, the client decides between retry / END
                    self.stats["timeouts"] += 1
                    return "ERR TIMEOUT %s %s" % (name, what)
                except FaultInjected:
                    fault = True  # abort outside this shard's mutex
                else:
                    submitted += len(granted)
                    if self.shard_service_time and granted:
                        # the modelled shard latency is a wait, not
                        # event-loop work: release the frame-order gate
                        # so later pipelined frames overlap it
                        session.release_order()
                        await asyncio.sleep(
                            self.shard_service_time * len(granted)
                        )
            if fault:
                # an injected fault (error or abort action) during the
                # batch: abort the transaction — the universal cleaner —
                # and report; the session entry goes too
                await self._abort_txn(txn)
                session.txns.pop(name, None)
                return "ERR FAULT %s %s" % (name, what)
            if granted and not granted[-1].granted:
                outcome = await self._await_grant(
                    conn, session, name, granted[-1]
                )
                if outcome is not None:
                    return outcome
        return "OK GRANTED %s %s steps=%d" % (name, what, submitted)

    async def _await_grant(
        self, conn, session: _Session, name: str, request
    ) -> Optional[str]:
        """Park on ``request``; None when granted, an ERR frame otherwise."""
        future = self._loop.create_future()
        self._futures[request] = future
        if self._nudge is not None:
            self._nudge.set()  # a new wait edge: run the detector early
        timer = None
        try:
            # this frame is parking: later pipelined frames may begin
            session.release_order()
            # a pipelined batch must not sit on completed answers while
            # this frame waits: flush what is already queued, then park
            await self._flush(conn)
            # a timer, not wait_for: a frame stepped outside any task
            # may park here
            timer = self._loop.call_later(
                self.lock_timeout, _expire, future
            )
            await future
            return None
        except DeadlockError:
            # the detector chose this transaction as victim and already
            # aborted it: every lock is gone, the session entry follows
            session.txns.pop(name, None)
            return "ERR DEADLOCK %s" % name
        except asyncio.TimeoutError:
            shard = self.manager.shard_of(request.resource)
            async with self._shard_locks[shard]:
                if request.status == RequestStatus.WAITING:
                    await self._call(self.manager.cancel, request)
            if request.granted:
                return None  # granted in the race window: keep it
            self.stats["timeouts"] += 1
            return "ERR TIMEOUT %s %s" % (
                name,
                "/".join(str(p) for p in request.resource),
            )
        finally:
            if timer is not None:
                timer.cancel()
            self._futures.pop(request, None)

    # -- cross-shard deadlock detection ---------------------------------------

    async def _detector_loop(self):
        assert self._nudge is not None
        while True:
            try:
                await asyncio.wait_for(
                    self._nudge.wait(), self.detector_interval
                )
            except asyncio.TimeoutError:
                pass
            self._nudge.clear()
            await self._detector_pass()

    async def _detector_pass(self):
        if self.fault_injector is not None:
            try:
                self.fault_injector.fire("service.detector")
            except FaultInjected:
                # an injected detector delay: skip this snapshot; the
                # next tick (or nudge) re-runs detection — deadlocks
                # are found late, never lost
                self.stats["detector_delays"] += 1
                return
        await self._all_shards_acquire()
        try:
            while True:
                cycle = await self._call(self.manager.detect_deadlock)
                if cycle is None:
                    return
                victim = self.manager.detector.pick_victim(cycle)
                self.stats["deadlock_victims"] += 1
                self._fail_victim_futures(victim, cycle)
                for request in self.manager.table.waiting_requests_of(victim):
                    await self._call(self.manager.cancel, request)
                # bounded retry: an injected fault can raise during the
                # abort; TransactionManager.abort is re-entrant
                for attempt in range(3):
                    try:
                        await self._call(self.stack.txns.abort, victim)
                        break
                    except Exception:
                        if attempt == 2:
                            raise
        finally:
            self._all_shards_release()

    def _fail_victim_futures(self, victim, cycle):
        names = tuple(getattr(txn, "name", repr(txn)) for txn in cycle)
        for request, future in list(self._futures.items()):
            if request.txn is victim and not future.done():
                future.set_exception(
                    DeadlockError(
                        "transaction %r chosen as deadlock victim"
                        % (getattr(victim, "name", victim),),
                        cycle=names,
                    )
                )

    async def _abort_txn(self, txn):
        # like commit: a synchronous mutation, no shard mutex needed
        for request in self.manager.table.waiting_requests_of(txn):
            await self._call(self.manager.cancel, request)
        for attempt in range(3):
            try:
                await self._call(self.stack.txns.abort, txn)
                break
            except Exception:
                if attempt == 2:
                    raise

    async def _all_shards_acquire(self):
        # ascending shard order: the one global mutex order, so two
        # multi-shard operations can never deadlock on the mutexes
        for mutex in self._shard_locks:
            await mutex.acquire()

    def _all_shards_release(self):
        for mutex in reversed(self._shard_locks):
            mutex.release()

    # -- resources and stats --------------------------------------------------

    def _parse_resource(self, path: str):
        """``path`` as a resource tuple, or an ``ERR UNKNOWN-RESOURCE``
        frame.

        The first four components (database, segment, relation, object
        key) must name a schema-level resource of the database; deeper
        component parts ride on a valid object prefix.  The object key is
        one probe of its relation's key index, never a scan.
        """
        parts = tuple(path.split("/"))
        if not all(parts):
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        database = self.stack.database
        if parts[0] != database.name:
            return None, "ERR UNKNOWN-RESOURCE %s" % path
        if len(parts) == 2:
            if parts[1] not in database.segments():
                return None, "ERR UNKNOWN-RESOURCE %s" % path
        elif len(parts) > 2:
            relation = database.find_relation(parts[2])
            if relation is None or relation.segment != parts[1]:
                return None, "ERR UNKNOWN-RESOURCE %s" % path
            if len(parts) > 3 and not relation.has_key_text(parts[3]):
                return None, "ERR UNKNOWN-RESOURCE %s" % path
        return parts, None

    def _stats_frame(self) -> str:
        payload = dict(self.manager.metrics())
        payload.update(self.stats)
        payload["lock_count"] = self.manager.lock_count()
        return "OK STATS %s" % json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
