"""Protocol conformance: golden request/response transcripts.

Every wire verb — happy path and every error frame — pinned as literal
request/response pairs against a freshly served stack, plus the full
mode-compatibility matrix exercised over the wire and checked against
the dense tables in :mod:`repro.locking.modes`.  These transcripts are
the protocol contract: a server change that alters any byte of a reply
must change this file.
"""

import asyncio

from repro.locking.modes import COMPAT_FLAT, N_MODES, IS, IX, S, SIX, X
from repro.service.client import ServiceClient
from repro.service.server import LockServer, make_service_stack


def run_transcript(script, workload="partlib", shards=4, **server_kwargs):
    """Feed request frames over one connection; pin each response."""

    async def go():
        server = LockServer(
            make_service_stack(workload, shards=shards), port=0, **server_kwargs
        )
        host, port = await server.start()
        client = await ServiceClient(host, port).connect()
        try:
            for frame, expected in script:
                response = await client.request(frame)
                assert response == expected, (
                    "request %r answered %r, transcript pins %r"
                    % (frame, response, expected)
                )
        finally:
            await client.close()
            await server.stop()

    asyncio.run(go())


class TestHappyPaths:
    def test_start_lock_unlock_end(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            # IS on the relation and its two ancestors
            ("ISLOCK t1 db1/seg_materials/materials",
             "OK GRANTED t1 db1/seg_materials/materials steps=3"),
            # ancestors already covered: only the object lock is new
            ("SLOCK t1 db1/seg_materials/materials/m1",
             "OK GRANTED t1 db1/seg_materials/materials/m1 steps=1"),
            ("UNLOCK t1 db1/seg_materials/materials/m1",
             "OK RELEASED t1 db1/seg_materials/materials/m1"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_ix_and_acquire_many(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("IXLOCK t1 db1/seg_parts/parts",
             "OK GRANTED t1 db1/seg_parts/parts steps=3"),
            # X on p1 propagates through the reference to material m1
            ("XLOCK t1 db1/seg_parts/parts/p1",
             "OK GRANTED t1 db1/seg_parts/parts/p1 steps=4"),
            # every step already covered: nothing submitted
            ("ACQUIRE_MANY t1 db1:IX,db1/seg_parts:IX",
             "OK GRANTED t1 db1:IX,db1/seg_parts:IX steps=0"),
            ("ACQUIRE_MANY t1 db1/seg_asm:IX,db1/seg_asm/assemblies:SIX",
             "OK GRANTED t1 db1/seg_asm:IX,db1/seg_asm/assemblies:SIX steps=2"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_stats_is_served(self):
        async def go():
            server = LockServer(make_service_stack("partlib", shards=2), port=0)
            host, port = await server.start()
            client = await ServiceClient(host, port).connect()
            try:
                await client.start("t")
                await client.slock("t", "db1/seg_materials/materials/m2")
                stats = await client.stats()
                assert stats["shards"] == 2
                assert stats["frames"] >= 2
                assert stats["lock_count"] > 0
                await client.end("t")
                stats = await client.stats()
                assert stats["lock_count"] == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(go())


class TestErrorFrames:
    def test_unknown_verb(self):
        run_transcript([
            ("FROB t1", "ERR UNKNOWN-VERB FROB"),
            ("", "ERR BAD-FRAME empty"),
        ])

    def test_bad_frames(self):
        run_transcript([
            ("START", "ERR BAD-FRAME START takes one argument"),
            ("END", "ERR BAD-FRAME END takes one argument"),
            ("UNLOCK t1", "ERR BAD-FRAME UNLOCK takes two arguments"),
            ("SLOCK t1", "ERR BAD-FRAME SLOCK takes <txn> <path> [NOWAIT]"),
            ("XLOCK t1 db1 EXTRA",
             "ERR BAD-FRAME XLOCK takes <txn> <path> [NOWAIT]"),
            ("ACQUIRE_MANY t1",
             "ERR BAD-FRAME ACQUIRE_MANY takes <txn> <path>:<mode>[,...] [NOWAIT]"),
        ])

    def test_lock_on_unknown_resource(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("SLOCK t1 db2/seg1", "ERR UNKNOWN-RESOURCE db2/seg1"),
            ("SLOCK t1 db1/nope", "ERR UNKNOWN-RESOURCE db1/nope"),
            ("SLOCK t1 db1/seg_parts/nothere",
             "ERR UNKNOWN-RESOURCE db1/seg_parts/nothere"),
            ("SLOCK t1 db1/seg_parts/parts/p9",
             "ERR UNKNOWN-RESOURCE db1/seg_parts/parts/p9"),
            ("UNLOCK t1 db1/nope", "ERR UNKNOWN-RESOURCE db1/nope"),
        ])

    def test_bad_mode_in_acquire_many(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("ACQUIRE_MANY t1 db1:FOO", "ERR BAD-MODE FOO"),
            ("ACQUIRE_MANY t1 db1", "ERR BAD-FRAME missing :mode in db1"),
        ])

    def test_unlock_not_held(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("UNLOCK t1 db1/seg_materials/materials/m2",
             "ERR NOT-HELD t1 db1/seg_materials/materials/m2"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_double_start_and_double_end(self):
        run_transcript([
            ("START t1", "OK STARTED t1"),
            ("START t1", "ERR TXN-ACTIVE t1"),
            ("END t1", "OK ENDED t1"),
            ("END t1", "ERR NOTXN t1"),
            # a finished name is free for reuse
            ("START t1", "OK STARTED t1"),
            ("END t1", "OK ENDED t1"),
        ])

    def test_lock_without_transaction(self):
        run_transcript([
            ("SLOCK ghost db1", "ERR NOTXN ghost"),
            ("UNLOCK ghost db1", "ERR NOTXN ghost"),
            ("ACQUIRE_MANY ghost db1:IS", "ERR NOTXN ghost"),
        ])

    def test_conflict_with_nowait(self):
        run_transcript([
            ("START a", "OK STARTED a"),
            ("START b", "OK STARTED b"),
            ("ACQUIRE_MANY a db1:X", "OK GRANTED a db1:X steps=1"),
            ("SLOCK b db1/seg_materials/materials/m1 NOWAIT",
             "ERR CONFLICT b db1"),
            ("END a", "OK ENDED a"),
            # with the root free the same demand goes through
            ("SLOCK b db1/seg_materials/materials/m1 NOWAIT",
             "OK GRANTED b db1/seg_materials/materials/m1 steps=4"),
            ("END b", "OK ENDED b"),
        ])


class TestCompatibilityMatrixOverTheWire:
    def test_matrix_matches_dense_tables(self):
        """Serve every (held, requested) mode pair on the root resource;
        the wire outcome must equal the COMPAT_FLAT dense table."""
        modes = [IS, IX, S, SIX, X]

        async def go():
            server = LockServer(make_service_stack("partlib", shards=4), port=0)
            host, port = await server.start()
            a = await ServiceClient(host, port).connect()
            b = await ServiceClient(host, port).connect()
            try:
                for held in modes:
                    for wanted in modes:
                        pair = "%s-%s" % (held, wanted)
                        assert (await a.start("a" + pair)).startswith("OK")
                        assert (await b.start("b" + pair)).startswith("OK")
                        response = await a.acquire_many(
                            "a" + pair, [("db1", str(held))]
                        )
                        assert response.startswith("OK GRANTED"), response
                        response = await b.acquire_many(
                            "b" + pair, [("db1", str(wanted))], nowait=True
                        )
                        compatible = bool(
                            COMPAT_FLAT[held.code * N_MODES + wanted.code]
                        )
                        if compatible:
                            assert response.startswith("OK GRANTED"), (
                                "%s then %s should be compatible: %r"
                                % (held, wanted, response)
                            )
                        else:
                            assert response == "ERR CONFLICT b%s db1" % pair, (
                                "%s then %s should conflict: %r"
                                % (held, wanted, response)
                            )
                        assert (await a.end("a" + pair)).startswith("OK")
                        assert (await b.end("b" + pair)).startswith("OK")
            finally:
                await a.close()
                await b.close()
                await server.stop()

        asyncio.run(go())


class TestResourceResolution:
    """An object-level path resolves by one probe of its relation's key
    index, so it never scans the relation, and an inserted or deleted
    object is seen on the next lookup."""

    def _serve(self, go):
        async def main():
            server = LockServer(make_service_stack("partlib", shards=4), port=0)
            host, port = await server.start()
            client = await ServiceClient(host, port).connect()
            try:
                await go(server, client)
            finally:
                await client.close()
                await server.stop()

        asyncio.run(main())

    def test_object_lookup_does_not_scan_the_relation(self, monkeypatch):
        from repro.nf2.database import Relation

        def no_scan(relation):
            raise AssertionError("relation %s scanned" % relation.name)

        async def go(server, client):
            monkeypatch.setattr(Relation, "__iter__", no_scan)
            for frame, expected in [
                ("START t1", "OK STARTED t1"),
                ("ISLOCK t1 db1/seg_parts/parts/p1",
                 "OK GRANTED t1 db1/seg_parts/parts/p1 steps=4"),
                # a deeper path rides on its valid object prefix
                ("ISLOCK t1 db1/seg_parts/parts/p1/name",
                 "OK GRANTED t1 db1/seg_parts/parts/p1/name steps=1"),
                ("ISLOCK t1 db1/seg_parts/parts/p9",
                 "ERR UNKNOWN-RESOURCE db1/seg_parts/parts/p9"),
                ("ISLOCK t1 db1/seg_parts/parts/p9/name",
                 "ERR UNKNOWN-RESOURCE db1/seg_parts/parts/p9/name"),
                ("ISLOCK t1 db1/seg_parts//p1",
                 "ERR UNKNOWN-RESOURCE db1/seg_parts//p1"),
                ("END t1", "OK ENDED t1"),
            ]:
                assert await client.request(frame) == expected, frame

        self._serve(go)

    def test_inserted_and_deleted_objects_are_seen(self):
        from repro.nf2 import make_tuple

        async def go(server, client):
            database = server.stack.database
            path = "db1/seg_materials/materials/m3"
            assert await client.request("START t1") == "OK STARTED t1"
            assert (
                await client.request("ISLOCK t1 %s" % path)
                == "ERR UNKNOWN-RESOURCE %s" % path
            )
            database.insert(
                "materials", make_tuple(mat_id="m3", name="brass", density=8.5)
            )
            assert (
                await client.request("ISLOCK t1 %s" % path)
                == "OK GRANTED t1 %s steps=4" % path
            )
            assert await client.request("END t1") == "OK ENDED t1"
            database.relation("materials").delete("m3")
            assert await client.request("START t2") == "OK STARTED t2"
            assert (
                await client.request("ISLOCK t2 %s" % path)
                == "ERR UNKNOWN-RESOURCE %s" % path
            )
            assert await client.request("END t2") == "OK ENDED t2"

        self._serve(go)
