"""The compiled lock-plan cache: correctness of the memoization layer.

A cached protocol must be observationally identical to an uncached one —
same plans for the same demands, invalidated the moment any plan-shaping
world state moves (structural mutations, check-in, undo, authorization
changes), keyed apart for inputs the stamp does not cover (principal
under rule 4').
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.units import component_resource, object_resource
from repro.locking.modes import IS, S, X
from repro.nf2 import make_tuple, parse_path
from repro.txn.checkout import Workstation
from repro.workloads import build_cells_database


def cached_and_plain_stacks(**kwargs):
    plain = repro.make_stack(
        *build_cells_database(figure7=True), use_plan_cache=False, **kwargs
    )
    cached = repro.make_stack(
        *build_cells_database(figure7=True), use_plan_cache=True, **kwargs
    )
    return plain, cached


def plan_shape(plan):
    return [(step.resource, step.mode) for step in plan]


def grant_figure7_rights(stack, *principals):
    for principal in principals:
        stack.authorization.grant_modify(principal, "cells")
        stack.authorization.grant_read(principal, "effectors")


class TestCachedPlansMatchUncached:
    DEMANDS = [
        ("cells", "c1", "", S),
        ("cells", "c1", "", X),
        ("cells", "c1", "robots[r1]", X),
        ("cells", "c1", "robots[r2].trajectory", S),
        ("effectors", "e2", "", S),
    ]

    def test_same_plans_repeatedly(self):
        plain, cached = cached_and_plain_stacks()
        grant_figure7_rights(plain, "u")
        grant_figure7_rights(cached, "u")
        for _ in range(3):
            txn_p = plain.txns.begin(principal="u")
            txn_c = cached.txns.begin(principal="u")
            for relation, key, path, mode in self.DEMANDS:
                target = object_resource(plain.catalog, relation, key)
                if path:
                    target = component_resource(target, parse_path(path))
                plan_p = plain.protocol.plan_request(txn_p, target, mode)
                plan_c = cached.protocol.plan_request(txn_c, target, mode)
                assert plan_shape(plan_p) == plan_shape(plan_c)
        assert cached.protocol.plan_cache.hits > 0

    def test_filter_still_per_transaction_on_hits(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "u")
        cell = object_resource(cached.catalog, "cells", "c1")
        t1 = cached.txns.begin(principal="u")
        cached.protocol.request(t1, cell, S)
        # t1 repeats the demand: plan fully filtered (all steps held)
        assert len(cached.protocol.plan_request(t1, cell, S)) == 0
        # a fresh transaction hits the cache but gets the full plan
        t2 = cached.txns.begin(principal="u")
        assert len(cached.protocol.plan_request(t2, cell, S)) > 0
        assert cached.protocol.plan_cache.hits > 0

    def test_cached_steps_not_mutated_by_filter(self):
        _, cached = cached_and_plain_stacks()
        cell = object_resource(cached.catalog, "cells", "c1")
        t1 = cached.txns.begin()
        first = plan_shape(cached.protocol.plan_request(t1, cell, IS))
        cached.protocol.request(t1, cell, IS)
        cached.protocol.plan_request(t1, cell, IS)  # filtered to nothing
        t2 = cached.txns.begin()
        assert plan_shape(cached.protocol.plan_request(t2, cell, IS)) == first


class TestRule4PrimeKeying:
    def test_principals_get_distinct_cached_plans(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "writer")
        cached.authorization.grant_modify("writer", "effectors")
        grant_figure7_rights(cached, "reader")
        cell = object_resource(cached.catalog, "cells", "c1")
        robot = component_resource(cell, parse_path("robots[r1]"))
        tw = cached.txns.begin(principal="writer")
        tr = cached.txns.begin(principal="reader")
        plan_w = {r: m for r, m in plan_shape(cached.protocol.plan_request(tw, robot, X))}
        plan_r = {r: m for r, m in plan_shape(cached.protocol.plan_request(tr, robot, X))}
        e2 = object_resource(cached.catalog, "effectors", "e2")
        # rule 4': X propagates as X for the writer, S for the reader —
        # the cache must key the two apart
        assert plan_w[e2] is X
        assert plan_r[e2] is S


class TestInvalidation:
    def test_insert_invalidates(self):
        plain, cached = cached_and_plain_stacks()
        cell = object_resource(cached.catalog, "cells", "c1")
        for stack in (plain, cached):
            stack.protocol.plan_request(stack.txns.begin(), cell, S)
            stack.database.insert(
                "effectors", make_tuple(eff_id="e99", tool="probe")
            )
        t_p = plain.txns.begin()
        t_c = cached.txns.begin()
        assert plan_shape(
            plain.protocol.plan_request(t_p, cell, S)
        ) == plan_shape(cached.protocol.plan_request(t_c, cell, S))
        assert cached.protocol.plan_cache.invalidations >= 1

    def test_component_write_invalidates(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "u")
        cell = object_resource(cached.catalog, "cells", "c1")
        cached.protocol.plan_request(cached.txns.begin(principal="u"), cell, S)
        stamp_before = cached.protocol.plan_stamp()
        txn = cached.txns.begin(principal="u")
        cached.txns.update_component(
            txn, "cells", "c1", "robots[r1].trajectory", "path-b"
        )
        cached.txns.commit(txn)
        assert cached.protocol.plan_stamp() != stamp_before

    def test_undo_invalidates(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "u")
        cell = object_resource(cached.catalog, "cells", "c1")
        cached.protocol.plan_request(cached.txns.begin(principal="u"), cell, S)
        txn = cached.txns.begin(principal="u")
        cached.txns.update_component(
            txn, "cells", "c1", "robots[r1].trajectory", "broken"
        )
        stamp_mid = cached.protocol.plan_stamp()
        cached.txns.abort(txn)  # undo runs through the same mutation hooks
        assert cached.protocol.plan_stamp() != stamp_mid

    def test_authorization_change_invalidates(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "u")
        robot = component_resource(
            object_resource(cached.catalog, "cells", "c1"), parse_path("robots[r1]")
        )
        txn = cached.txns.begin(principal="u")
        first = {r: m for r, m in plan_shape(cached.protocol.plan_request(txn, robot, X))}
        e2 = object_resource(cached.catalog, "effectors", "e2")
        assert first[e2] is S  # rule 4': no modify right on effectors
        cached.authorization.grant_modify("u", "effectors")
        fresh = cached.txns.begin(principal="u")
        second = {r: m for r, m in plan_shape(cached.protocol.plan_request(fresh, robot, X))}
        assert second[e2] is X  # stale S-propagation plan must not survive

    def test_checkout_crash_restart_keeps_cache_valid(self):
        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "ws1")
        cached.authorization.grant_modify("ws1", "effectors")
        cell = object_resource(cached.catalog, "cells", "c1")
        cached.protocol.plan_request(cached.txns.begin(principal="ws1"), cell, S)
        ws = Workstation("ws1")
        cached.checkout.check_out(ws, "effectors", "e3", mode=X)
        cached.checkout.simulate_crash_and_restart()
        # the Database instance survives a server restart: the stamp stays
        # monotonic and cached plans are still structurally correct
        reference = repro.make_stack(
            *build_cells_database(figure7=True), use_plan_cache=False
        )
        t_ref = reference.txns.begin()
        t_c = cached.txns.begin(principal="ws1")
        assert plan_shape(
            cached.protocol.plan_request(t_c, cell, S)
        ) == plan_shape(reference.protocol.plan_request(t_ref, cell, S))
        stamp_before = cached.protocol.plan_stamp()
        cached.checkout.check_in(ws, "effectors", "e3")  # replace() bumps
        assert cached.protocol.plan_stamp() != stamp_before


MUTATIONS = ("insert", "delete", "write", "undo", "checkout", "none")


class TestHypothesisInvalidationTraces:
    """Arbitrary interleavings of demands and world mutations: the cached
    protocol must track the uncached one plan-for-plan (satellite 3)."""

    @given(
        trace=st.lists(
            st.tuples(
                st.sampled_from(MUTATIONS),
                st.sampled_from(["c1", "e1", "e2", "e3"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_plans_track_uncached(self, trace):
        plain, cached = cached_and_plain_stacks()
        for stack in (plain, cached):
            grant_figure7_rights(stack, "u")
            stack.authorization.grant_modify("u", "effectors")
        inserted = {"plain": 0, "cached": 0}
        for index, (mutation, key, write_demand) in enumerate(trace):
            for label, stack in (("plain", plain), ("cached", cached)):
                if mutation == "insert":
                    inserted[label] += 1
                    stack.database.insert(
                        "effectors",
                        make_tuple(eff_id="x%d" % index, tool="drill"),
                    )
                elif mutation == "delete" and stack.database.relation(
                    "effectors"
                ).contains_key("x0"):
                    txn = stack.txns.begin(principal="u")
                    stack.txns.delete_object(txn, "effectors", "x0")
                    stack.txns.commit(txn)
                elif mutation == "write":
                    txn = stack.txns.begin(principal="u")
                    stack.txns.update_component(
                        txn, "effectors", key if key != "c1" else "e1",
                        "tool", "t%d" % index,
                    )
                    stack.txns.commit(txn)
                elif mutation == "undo":
                    txn = stack.txns.begin(principal="u")
                    stack.txns.update_component(
                        txn, "effectors", key if key != "c1" else "e2",
                        "tool", "zzz",
                    )
                    stack.txns.abort(txn)
                elif mutation == "checkout":
                    ws = Workstation("w%d" % index, principal="u")
                    stack.checkout.check_out(ws, "effectors", "e1", mode=S)
                    stack.checkout.cancel_checkout(ws, "effectors", "e1")
            # after each mutation both stacks must plan identically
            relation = "cells" if key == "c1" else "effectors"
            target = object_resource(plain.catalog, relation, key)
            mode = X if write_demand else S
            t_p = plain.txns.begin(principal="u")
            t_c = cached.txns.begin(principal="u")
            assert plan_shape(
                plain.protocol.plan_request(t_p, target, mode)
            ) == plan_shape(cached.protocol.plan_request(t_c, target, mode))
            plain.txns.abort(t_p)
            cached.txns.abort(t_c)


class TestCacheabilityAndMetrics:
    def test_naive_dag_never_caches(self):
        from repro.protocol.naive_dag import NaiveDAGProtocol

        database, catalog = build_cells_database(figure7=True)
        stack = repro.make_stack(
            database, catalog, protocol_cls=NaiveDAGProtocol, use_plan_cache=True
        )
        cell = object_resource(catalog, "cells", "c1")
        for _ in range(3):
            txn = stack.txns.begin()
            stack.protocol.plan_request(txn, cell, S)
        stats = stack.protocol.plan_cache.stats()
        assert stats["plan_cache_hits"] == 0
        assert stats["plan_cache_size"] == 0

    def test_disabled_cache_has_no_traffic(self):
        plain, _ = cached_and_plain_stacks()
        cell = object_resource(plain.catalog, "cells", "c1")
        for _ in range(3):
            plain.protocol.plan_request(plain.txns.begin(), cell, S)
        stats = plain.protocol.plan_cache.stats()
        assert stats["plan_cache_hits"] == stats["plan_cache_misses"] == 0

    def test_protocol_metrics_expose_cache_and_flags(self):
        _, cached = cached_and_plain_stacks()
        cell = object_resource(cached.catalog, "cells", "c1")
        cached.protocol.request(cached.txns.begin(), cell, IS)
        metrics = cached.protocol.metrics()
        assert metrics["use_plan_cache"] is True
        assert metrics["use_batched_acquire"] is False
        assert metrics["demands"] == 1
        assert metrics["locks_per_demand"] == metrics["locks_requested"]
        for key in (
            "plan_cache_size",
            "plan_cache_hits",
            "plan_cache_misses",
            "plan_cache_invalidations",
        ):
            assert key in metrics

    def test_reset_metrics_resets_cache_stats(self):
        _, cached = cached_and_plain_stacks()
        cell = object_resource(cached.catalog, "cells", "c1")
        cached.protocol.request(cached.txns.begin(), cell, IS)
        cached.protocol.reset_metrics()
        stats = cached.protocol.plan_cache.stats()
        assert stats["plan_cache_hits"] == stats["plan_cache_misses"] == 0
        assert cached.protocol.demands == 0


class TestBatchedExecutionEquivalence:
    """use_batched_acquire: same grants and held locks as sequential."""

    def test_request_grants_match(self):
        database, catalog = build_cells_database(figure7=True)
        seq = repro.make_stack(
            *build_cells_database(figure7=True), use_plan_cache=False
        )
        bat = repro.make_stack(
            database, catalog, use_batched_acquire=True, use_plan_cache=True
        )
        for stack in (seq, bat):
            grant_figure7_rights(stack, "u")
        for relation, key, path, mode in TestCachedPlansMatchUncached.DEMANDS:
            t_s = seq.txns.begin(principal="u")
            t_b = bat.txns.begin(principal="u")
            target_s = object_resource(seq.catalog, relation, key)
            target_b = object_resource(bat.catalog, relation, key)
            if path:
                target_s = component_resource(target_s, parse_path(path))
                target_b = component_resource(target_b, parse_path(path))
            granted_s = seq.protocol.request(t_s, target_s, mode)
            granted_b = bat.protocol.request(t_b, target_b, mode)
            assert [
                (req.resource, req.target_mode, req.status) for req in granted_s
            ] == [
                (req.resource, req.target_mode, req.status) for req in granted_b
            ]
            seq.txns.commit(t_s)
            bat.txns.commit(t_b)
        assert seq.manager.table.lock_count() == bat.manager.table.lock_count() == 0


class TestHypothesisAbortStampConsistency:
    """Undo closures fire through the same mutation hooks as forward
    writes; after any interleaving of commits and aborts every cached
    plan whose stamp is still current must replan identically on a fresh
    protocol (check_plan_consistency is the fault harness's final audit)."""

    @given(
        trace=st.lists(
            st.tuples(
                st.sampled_from(["update", "insert", "warm-only"]),
                st.booleans(),  # commit (True) or abort (False)
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_stamps_stay_consistent_after_undo(self, trace):
        from repro.faults import check_plan_consistency

        _, cached = cached_and_plain_stacks()
        grant_figure7_rights(cached, "u")
        cached.authorization.grant_modify("u", "effectors")
        cell = object_resource(cached.catalog, "cells", "c1")
        e1 = object_resource(cached.catalog, "effectors", "e1")
        for index, (op, commit) in enumerate(trace):
            warm = cached.txns.begin(principal="u")
            cached.protocol.plan_request(warm, cell, S)
            cached.protocol.plan_request(warm, e1, X)
            cached.txns.abort(warm)
            txn = cached.txns.begin(principal="u")
            if op == "update":
                cached.txns.update_component(
                    txn, "effectors", "e1", "tool", "t%d" % index
                )
            elif op == "insert":
                cached.txns.insert_object(
                    txn, "effectors", make_tuple(eff_id="n%d" % index, tool="x")
                )
            if commit:
                cached.txns.commit(txn)
            else:
                cached.txns.abort(txn)  # undo closures fire here
            assert check_plan_consistency(cached.protocol) == []
