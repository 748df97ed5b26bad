"""Eager start of binary frames: no task for a frame that never waits.

Decoded binary frames join a per-session ready batch that one loop
callback starts in arrival order.  Each frame is stepped synchronously
until it returns or first suspends; only a frame that suspends (or must
queue behind the frame-order gate) continues as a task.  These tests pin
the properties that makes load-bearing: a batch of immediately granted
frames creates no dispatch task at all, arrival order survives the
moment the gate passes from a finished frame to a queued one, a frame
keeps one context across a suspension, and an unexpected dispatch error
still drops the connection and is reported.
"""

import asyncio
import contextvars

from repro.locking.modes import S
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.server import (
    LockServer,
    _Conn,
    _Session,
    make_service_stack,
)

P1 = "db1/seg_parts/parts/p1"
M2 = "db1/seg_materials/materials/m2"

#: the coroutines a suspended or queued binary frame runs in
_DISPATCH_TASKS = ("LockServer._binary_frame", "_Resumed")


def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("detector_interval", 0.05)
    return LockServer(make_service_stack("partlib", shards=4), **kwargs)


def record_tasks(loop):
    """Record the qualified name of every coroutine wrapped in a task."""
    names = []

    def factory(loop, coro, **kwargs):
        names.append(
            getattr(coro, "__qualname__", None) or type(coro).__qualname__
        )
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(factory)
    return names


def dispatch_tasks(names):
    return [name for name in names if name in _DISPATCH_TASKS]


class _Writer:
    """The write side of a connection, collecting what the server sends."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True


def responses(data) -> dict:
    """corr -> text-equivalent response of every frame in ``data``."""
    out = {}
    offset = 0
    while offset < len(data):
        length, opcode, corr = wire.HEADER.unpack_from(data, offset)
        end = offset + 4 + length
        fields = wire.decode_response_fields(
            opcode, data, offset + wire.HEADER_SIZE, end
        )
        out[corr] = wire.response_to_text(opcode, fields)
        offset = end
    return out


class TestNoTaskForFramesThatNeverWait:
    def test_immediately_granted_batch_creates_no_dispatch_task(self):
        async def go():
            names = record_tasks(asyncio.get_running_loop())
            server = serve()
            host, port = await server.start()
            client = await ServiceClient(
                host, port, binary=True, pipeline_depth=32
            ).connect()
            try:
                del names[:]
                futures = [await client.submit_start("t%d" % i) for i in range(4)]
                for i in range(4):
                    futures.append(await client.submit_lock("SLOCK", "t%d" % i, P1))
                    futures.append(await client.submit_lock("SLOCK", "t%d" % i, M2))
                futures += [await client.submit_end("t%d" % i) for i in range(4)]
                await client.flush()
                answers = await asyncio.gather(*futures)
                assert answers[:4] == ["OK STARTED t%d" % i for i in range(4)]
                assert all(a.startswith("OK GRANTED") for a in answers[4:12])
                assert answers[12:] == ["OK ENDED t%d" % i for i in range(4)]
                assert server.stats["max_batch"] > 1
                assert dispatch_tasks(names) == []
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())

    def test_a_frame_that_parks_becomes_a_task(self):
        # the control for the test above: the recorder does see a
        # dispatch task once a frame really waits
        async def go():
            names = record_tasks(asyncio.get_running_loop())
            server = serve(lock_timeout=5.0)
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            piped = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            try:
                await holder.start("h")
                await holder.lock("XLOCK", "h", P1)
                await piped.start("t")
                del names[:]
                parked = await piped.submit_lock("SLOCK", "t", P1)
                await piped.flush()
                await asyncio.sleep(0.05)
                assert not parked.done()
                assert dispatch_tasks(names) == ["_Resumed"]
                await holder.end("h")
                assert (await asyncio.wait_for(parked, 2.0)).startswith(
                    "OK GRANTED t "
                )
                assert await piped.end("t") == "OK ENDED t"
            finally:
                await piped.close()
                await holder.close()
                await server.stop()

        asyncio.run(go())


class TestArrivalOrderAcrossTheGateHandoff:
    def test_frame_arriving_as_the_gate_passes_waits_for_the_queued_one(self):
        """A holds the frame-order gate while it waits for a shard mutex
        the test holds; B queues behind it.  C arrives in the same loop
        iteration that releases the mutex, so its batch starts after A
        has finished and handed the gate on, but before B has run.  C
        must still begin after B: it locks for the transaction B starts.
        """

        async def go():
            server = serve()
            await server.start()
            session, conn = _Session(), _Conn(_Writer())
            session.binary = True
            buffer = bytearray()

            def arrive(*frames):
                for opcode, corr, fields in frames:
                    buffer.extend(wire.encode_request(opcode, corr, fields))
                while server._next_binary(conn, session, buffer)[0]:
                    pass

            def lock(corr, txn, path):
                rid = server._wire_ids.id_of(tuple(path.split("/")))
                return wire.OP_LOCK, corr, (S.code, 0, rid, txn)

            try:
                arrive((wire.OP_START, 1, ("t1",)))
                await asyncio.sleep(0)
                await server._all_shards_acquire()
                arrive(lock(2, "t1", P1), (wire.OP_START, 3, ("t2",)))
                # let A's and B's tasks take their first steps, so the
                # mutex release below wakes A at once
                for _ in range(3):
                    await asyncio.sleep(0)
                assert session.order_owner is not None  # A, parked
                assert len(session.order_waiters) == 1  # B, queued
                server._all_shards_release()
                arrive(lock(4, "t2", M2))  # C
                for _ in range(50):
                    await asyncio.sleep(0)
                    if session.order_free() and not session.tasks:
                        break
                await server._flush(conn)
                got = responses(conn.writer.data)
                assert got[1] == "OK STARTED t1"
                assert got[2].startswith("OK GRANTED t1 "), got[2]
                assert got[3] == "OK STARTED t2"
                assert got[4].startswith("OK GRANTED t2 "), got[4]
            finally:
                for txn in session.txns.values():
                    await server._abort_txn(txn)
                await server.stop()

        asyncio.run(go())


class TestContextAcrossSuspension:
    def test_context_variable_set_before_a_park_resets_after_the_grant(self):
        """A wrapper around ``_dispatch_binary`` sets a context variable
        before the frame parks on a grant and resets it once the grant
        arrives.  The reset needs the frame's later steps to run in the
        very context its first steps ran in, not in a task's copy."""
        var = contextvars.ContextVar("frame_var", default=None)

        async def go():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            server = serve(lock_timeout=5.0)
            dispatch = server._dispatch_binary
            started, seen = [], []

            async def wrapped(conn, session, opcode, corr, fields):
                started.append(corr)
                token = var.set(corr)
                try:
                    return await dispatch(conn, session, opcode, corr, fields)
                finally:
                    seen.append((corr, var.get()))
                    var.reset(token)

            server._dispatch_binary = wrapped
            host, port = await server.start()
            holder = await ServiceClient(host, port).connect()
            piped = await ServiceClient(
                host, port, binary=True, pipeline_depth=8
            ).connect()
            try:
                await holder.start("h")
                await holder.lock("XLOCK", "h", P1)
                await piped.start("t")
                parked = await piped.submit_lock("SLOCK", "t", P1)
                other = await piped.submit_lock("SLOCK", "t", M2)
                await piped.flush()
                assert (await asyncio.wait_for(other, 2.0)).startswith(
                    "OK GRANTED t "
                )
                await asyncio.sleep(0.05)
                assert not parked.done()
                # the parked frame has set the variable but not reset it
                (parked_corr,) = set(started) - {corr for corr, _ in seen}
                await holder.end("h")
                assert (await asyncio.wait_for(parked, 2.0)).startswith(
                    "OK GRANTED t "
                )
                assert await piped.end("t") == "OK ENDED t"
                assert reported == []
                assert all(corr == value for corr, value in seen), seen
                assert sorted(corr for corr, _ in seen) == sorted(started)
                assert parked_corr in dict(seen)
            finally:
                await piped.close()
                await holder.close()
                await server.stop()

        asyncio.run(go())


class TestDispatchErrors:
    def test_error_in_an_eager_frame_drops_the_connection_and_is_reported(self):
        async def go():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda loop, context: reported.append(context))
            server = serve()

            async def broken(conn, session, opcode, corr, fields):
                raise RuntimeError("dispatch blew up")

            server._dispatch_binary = broken
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(b"HELLO BINARY\n")
                assert await reader.readline() == b"OK HELLO BINARY\n"
                writer.write(wire.encode_request(wire.OP_STATS, 7, ()))
                await writer.drain()
                # the server closes the connection without an answer
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
                errors = [context.get("exception") for context in reported]
                assert any(
                    isinstance(exc, RuntimeError)
                    and str(exc) == "dispatch blew up"
                    for exc in errors
                ), reported
            finally:
                writer.close()
                await server.stop()

        asyncio.run(go())
