"""A lock manager partitioned into N independent shard tables.

:class:`ShardedLockManager` is a drop-in replacement for
:class:`~repro.locking.manager.LockManager`: same call surface, same
observable behavior — the differential suite replays whole workloads
against both and requires bit-identical lock traces.  Internally every
resource is routed to one of N :class:`~repro.locking.lock_table.
LockTable` shards by its interned id (:func:`shard_of`), so there is no
global lock table and no shard ever inspects another shard's state on
the request path.  Three things genuinely cross shards:

* **release order at EOT** — the single table wakes waiters in the
  victim's global first-grant order (it walks its insertion-ordered
  per-transaction resource index).  The manager therefore keeps its own
  global grant-order index and drives each shard's per-resource release
  body (:meth:`LockTable._release_resource`) in that order;
* **deadlock detection** — waits-for cycles can span shards; the
  :class:`_AggregateTable` facade concatenates the per-shard memoized
  edge lists (each shard's edges stay cached on its entries) and sums
  the per-shard wait-graph versions into one quiescence stamp, so the
  unchanged :class:`~repro.locking.deadlock.DeadlockDetector` runs over
  the union graph with the same O(1) re-check on a quiet system;
* **auditing** — the verifier and the fault harness introspect
  ``manager.table``; the facade merges the per-shard views on demand.

Routing is a pure function of the interned id: the router interner is
append-only (ids are never reused), so ``shard_of`` is stable across
interner growth and a compiled plan's resources never migrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LockError
from repro.locking.deadlock import DeadlockDetector
from repro.locking.lock_table import LockRequest, LockTable
from repro.locking.modes import LockMode
from repro.nf2.surrogate import ResourceInterner


def shard_of(router: ResourceInterner, resource, n_shards: int) -> int:
    """The shard owning ``resource``: ``intern(resource) % n_shards``.

    Pure in the interned id — the router never reassigns ids, so the
    answer for a given resource is fixed at first touch and survives
    arbitrary interner growth.
    """
    return router.intern(resource) % n_shards


def cut_runs(
    router: ResourceInterner, n_shards: int, steps
) -> List[Tuple[int, List[Tuple[object, LockMode]]]]:
    """Cut an ordered plan into maximal runs of consecutive same-shard
    steps: ``[(shard, [(resource, mode), ...]), ...]`` in plan order.

    The server cuts a plan this way to take one shard mutex per run;
    :meth:`ShardedLockManager.acquire_many` cuts what it is given the
    same way.
    """
    intern = router.intern
    runs: List[Tuple[int, List[Tuple[object, LockMode]]]] = []
    run: List[Tuple[object, LockMode]] = []
    run_shard = -1
    for resource, mode in steps:
        shard = intern(resource) % n_shards
        if shard != run_shard:
            run = []
            runs.append((shard, run))
            run_shard = shard
        run.append((resource, mode))
    return runs


class _AggregateTable:
    """Read-mostly union view over a manager's shard tables.

    Everything the rest of the library expects of ``manager.table`` —
    the verifier's entry scans, the deadlock detector's edge reads, the
    fault harness's leak checks, the trace wrapper's ``holds_at_least``
    pruning — is answered by merging the shard tables.  Writes route:
    ``cancel`` goes to the owning shard (through the manager, which
    keeps its grant-order index current) and setting ``fault_injector``
    fans the injector out to every shard.
    """

    def __init__(self, manager: "ShardedLockManager"):
        self._manager = manager

    @property
    def _shards(self) -> List[LockTable]:
        return self._manager.shards

    # -- fault injection: one injector, fanned out to every shard ----------

    @property
    def fault_injector(self):
        return self._manager._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector):
        self._manager._fault_injector = injector
        for shard in self._shards:
            shard.fault_injector = injector

    # -- merged inspection ---------------------------------------------------

    @property
    def _entries(self) -> Dict[object, object]:
        merged: Dict[object, object] = {}
        for shard in self._shards:
            merged.update(shard._entries)
        return merged

    @property
    def _txn_modes(self) -> Dict[object, Dict[object, LockMode]]:
        merged: Dict[object, Dict[object, LockMode]] = {}
        for shard in self._shards:
            for txn, modes in shard._txn_modes.items():
                merged.setdefault(txn, {}).update(modes)
        return merged

    @property
    def _txn_waiting(self) -> Dict[object, Set[LockRequest]]:
        merged: Dict[object, Set[LockRequest]] = {}
        for shard in self._shards:
            for txn, waiting in shard._txn_waiting.items():
                merged.setdefault(txn, set()).update(waiting)
        return merged

    def holders(self, resource) -> Dict[object, LockMode]:
        return self._manager.shard_table(resource).holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self._manager.shard_table(resource).held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self._manager.shard_table(resource).holds_at_least(
            txn, resource, mode
        )

    def resources_of(self, txn) -> Set[object]:
        out: Set[object] = set()
        for shard in self._shards:
            out.update(shard.resources_of(txn))
        return out

    def locked_resources(self) -> List[object]:
        out: List[object] = []
        for shard in self._shards:
            out.extend(shard.locked_resources())
        return out

    def lock_count(self) -> int:
        return sum(shard.lock_count() for shard in self._shards)

    def waiting_requests(self) -> List[LockRequest]:
        out: List[LockRequest] = []
        for shard in self._shards:
            out.extend(shard.waiting_requests())
        return out

    def waiting_requests_of(self, txn) -> List[LockRequest]:
        out: List[LockRequest] = []
        for shard in self._shards:
            out.extend(shard.waiting_requests_of(txn))
        return out

    # -- waits-for union graph ----------------------------------------------

    @property
    def wait_graph_version(self) -> int:
        """Sum of the shard stamps: moves iff some shard's graph moved."""
        return sum(shard.wait_graph_version for shard in self._shards)

    def waits_for_edges(self) -> List[Tuple[object, object]]:
        """Edges of the union graph, concatenated in shard-index order.

        Each shard keeps its per-entry memo, so a detector pass over a
        quiescent system is a list concatenation, exactly as on one
        table.  Edge *order* differs from the single table's (shard
        order, not global entry-creation order) — victim selection is
        order-invariant (max over the cycle), so this is unobservable
        whenever at most one cycle exists at a time.
        """
        edges: List[Tuple[object, object]] = []
        for shard in self._shards:
            edges.extend(shard.waits_for_edges())
        return edges

    # -- summed counters ------------------------------------------------------

    @property
    def summary_version(self) -> int:
        return sum(shard.summary_version for shard in self._shards)

    @property
    def requests(self) -> int:
        return sum(shard.requests for shard in self._shards)

    @property
    def immediate_grants(self) -> int:
        return sum(shard.immediate_grants for shard in self._shards)

    @property
    def waits(self) -> int:
        return sum(shard.waits for shard in self._shards)

    @property
    def conflict_tests(self) -> int:
        return sum(shard.conflict_tests for shard in self._shards)

    @property
    def max_entries(self) -> int:
        return sum(shard.max_entries for shard in self._shards)

    @property
    def summary_rebuilds(self) -> int:
        return sum(shard.summary_rebuilds for shard in self._shards)

    # -- routed writes --------------------------------------------------------

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        return self._manager.cancel(request)

    def release(self, txn, resource) -> List[LockRequest]:
        return self._manager.release(txn, resource)

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        return self._manager.release_all(txn, keep_long=keep_long)

    # -- long-lock persistence ------------------------------------------------

    def dump_long_locks(self) -> List[Tuple[object, object, str]]:
        out: List[Tuple[object, object, str]] = []
        for shard in self._shards:
            out.extend(shard.dump_long_locks())
        return out

    def restore_long_locks(self, dump):
        manager = self._manager
        for txn, resource, mode_name in dump:
            request = manager.shard_table(resource).request(
                txn, resource, LockMode(mode_name), long=True, wait=False
            )
            if not request.granted:  # pragma: no cover - wait=False raises
                raise LockError(
                    "could not restore long lock on %r" % (resource,)
                )
            manager._note_granted(request)

    # -- dense-mode mirrors (present only when the shards are dense) ---------

    def dense_summary(self, txn) -> Optional[Dict[int, int]]:
        """Merged int-keyed held-mode summary (dense shards only)."""
        merged: Dict[int, int] = {}
        for shard in self._shards:
            codes = getattr(shard, "_txn_codes", {}).get(txn)
            if codes:
                merged.update(codes)
        return merged or None

    @property
    def _txn_codes(self) -> Dict[object, Dict[int, int]]:
        merged: Dict[object, Dict[int, int]] = {}
        for shard in self._shards:
            for txn, codes in getattr(shard, "_txn_codes", {}).items():
                merged.setdefault(txn, {}).update(codes)
        return merged


class ShardedLockManager:
    """N shard lock tables behind the :class:`LockManager` call surface.

    ``shards`` are plain :class:`LockTable` instances (or
    :class:`~repro.locking.dense.DenseLockTable` sharing the router
    interner when ``use_dense_path``); ``table`` is the
    :class:`_AggregateTable` facade the rest of the library introspects,
    and ``detector`` is the stock deadlock detector running over that
    facade's union waits-for graph.
    """

    def __init__(
        self,
        n_shards: int = 4,
        age_of=None,
        reader_bypass: bool = False,
        use_dense_path: bool = False,
        pool_records: bool = True,
        router: Optional[ResourceInterner] = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        #: the routing interner: resource -> dense id, append-only, so
        #: ``shard_of`` is a pure, growth-stable function of the resource
        self.router = router if router is not None else ResourceInterner()
        self.n_shards = n_shards
        if use_dense_path:
            from repro.locking.dense import DenseLockTable

            # dense shards share the router: plan ids and shard routing
            # speak the same id space
            self.shards: List[LockTable] = [
                DenseLockTable(
                    reader_bypass=reader_bypass,
                    interner=self.router,
                    pool_records=pool_records,
                )
                for _ in range(n_shards)
            ]
        else:
            self.shards = [
                LockTable(reader_bypass=reader_bypass)
                for _ in range(n_shards)
            ]
        self.use_dense_path = use_dense_path
        self._fault_injector = None
        self.table = _AggregateTable(self)
        if use_dense_path:
            # the dense-state audit gates on ``table.interner``
            self.table.interner = self.router
        self.detector = DeadlockDetector(self.table, age_of=age_of)
        #: txn -> {resource: None}: global first-grant order across all
        #: shards — the walk order of :meth:`release_all`, which is what
        #: keeps EOT wake order identical to the single table's
        self._txn_order: Dict[object, Dict[object, None]] = {}
        #: optional callback(list-of-woken-LockRequests), invoked after
        #: any release/cancel that granted queued waiters — the asyncio
        #: server resolves its wait futures from here
        self.on_wake = None

    # -- routing --------------------------------------------------------------

    def shard_of(self, resource) -> int:
        return shard_of(self.router, resource, self.n_shards)

    def shard_table(self, resource) -> LockTable:
        return self.shards[self.shard_of(resource)]

    def set_age_of(self, age_of) -> "ShardedLockManager":
        self.detector.set_age_of(age_of)
        return self

    # -- grant-order bookkeeping ----------------------------------------------

    def _note_granted(self, request: LockRequest):
        # dict insert keeps the first position on re-grant: order is
        # *first*-grant order, matching the single table's index
        self._txn_order.setdefault(request.txn, {})[request.resource] = None

    def _note_woken(self, woken: List[LockRequest]):
        for request in woken:
            self._note_granted(request)
        if woken and self.on_wake is not None:
            self.on_wake(woken)

    def _note_released(self, txn, resource):
        order = self._txn_order.get(txn)
        if order is not None:
            order.pop(resource, None)
            if not order:
                del self._txn_order[txn]

    # -- the LockManager surface ----------------------------------------------

    def acquire(
        self,
        txn,
        resource,
        mode: LockMode,
        long: bool = False,
        wait: bool = True,
    ) -> LockRequest:
        request = self.shard_table(resource).request(
            txn, resource, mode, long=long, wait=wait
        )
        if request.granted:
            self._note_granted(request)
            if self._fault_injector is not None:
                self._fault_injector.fire(
                    "lock.grant", txn=txn, resource=resource, mode=mode
                )
        return request

    def acquire_many(
        self, txn, steps, long: bool = False, wait: bool = True
    ) -> List[LockRequest]:
        """Batched plan acquisition, split into per-shard runs.

        The ordered plan is cut into maximal runs of consecutive
        same-shard steps (:func:`cut_runs`); each run goes through its
        shard's ``request_many`` (covered-pair pruning against that
        shard's held-mode summary, at most the run's last request
        WAITING).  Semantics per step are identical to the single
        table's batched pass — pruning is per (txn, resource) and
        therefore shard-local.
        """
        out: List[LockRequest] = []
        try:
            for run_shard, run in cut_runs(self.router, self.n_shards, steps):
                granted = self.shards[run_shard].request_many(
                    txn, run, long=long, wait=wait
                )
                out.extend(granted)
                if granted and not granted[-1].granted:
                    break
        finally:
            # wait=False conflicts raise mid-plan with the prefix granted
            # (the caller's abort path releases it) — the grant-order
            # index must cover that prefix too
            for request in out:
                if request.granted:
                    self._note_granted(request)
        if (
            out
            and out[-1].granted
            and self._fault_injector is not None
        ):
            last = out[-1]
            self._fault_injector.fire(
                "lock.grant", txn=txn, resource=last.resource, mode=last.mode
            )
        return out

    def release(self, txn, resource) -> List[LockRequest]:
        shard = self.shard_table(resource)
        woken = shard.release(txn, resource)
        if shard.held_mode(txn, resource) is None:
            self._note_released(txn, resource)
        self._note_woken(woken)
        return woken

    def release_all(self, txn, keep_long: bool = False) -> List[LockRequest]:
        """EOT release across shards, in global first-grant order.

        Walks the manager's own grant-order index (not any shard's) and
        runs each resource's release body on its owning shard — wake
        order is therefore the same global grant order the single table
        produces.  Waiting-only resources (the txn queued but never got
        granted) are appended afterwards, as on one table.
        """
        if self._fault_injector is not None:
            self._fault_injector.fire("lock.release", txn=txn, resource=None)
        resources = list(self._txn_order.get(txn, ()))
        touched = set(resources)
        for shard in self.shards:
            for request in shard.waiting_requests_of(txn):
                if request.resource not in touched:
                    touched.add(request.resource)
                    resources.append(request.resource)
        woken: List[LockRequest] = []
        for resource in resources:
            woken.extend(
                self.shard_table(resource)._release_resource(
                    txn, resource, keep_long
                )
            )
        if not keep_long:
            for shard in self.shards:
                shard._txn_resources.pop(txn, None)
                shard._summary_clear(txn)
            self._txn_order.pop(txn, None)
        else:
            order = self._txn_order.get(txn)
            if order is not None:
                for resource in resources:
                    if (
                        self.shard_table(resource).held_mode(txn, resource)
                        is None
                    ):
                        order.pop(resource, None)
                if not order:
                    del self._txn_order[txn]
        self._note_woken(woken)
        return woken

    def cancel(self, request: LockRequest) -> List[LockRequest]:
        woken = self.shard_table(request.resource).cancel(request)
        self._note_woken(woken)
        return woken

    def holders(self, resource) -> Dict[object, LockMode]:
        return self.table.holders(resource)

    def held_mode(self, txn, resource) -> Optional[LockMode]:
        return self.table.held_mode(txn, resource)

    def holds_at_least(self, txn, resource, mode: LockMode) -> bool:
        return self.table.holds_at_least(txn, resource, mode)

    def locks_of(self, txn) -> Dict[object, LockMode]:
        return {
            resource: self.table.held_mode(txn, resource)
            for resource in self.table.resources_of(txn)
        }

    def lock_count(self) -> int:
        return self.table.lock_count()

    # -- deadlock handling ----------------------------------------------------

    def detect_deadlock(self) -> Optional[List[object]]:
        return self.detector.check()

    def resolve_deadlocks(self, abort_callback) -> List[object]:
        victims = []
        while True:
            cycle = self.detector.check()
            if cycle is None:
                return victims
            victim = self.detector.pick_victim(cycle)
            victims.append(victim)
            abort_callback(victim)

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> Dict[str, int]:
        return {
            "requests": self.table.requests,
            "immediate_grants": self.table.immediate_grants,
            "waits": self.table.waits,
            "conflict_tests": self.table.conflict_tests,
            "max_entries": self.table.max_entries,
            "summary_rebuilds": self.table.summary_rebuilds,
            "deadlocks": self.detector.deadlocks_found,
            "shards": self.n_shards,
        }

    def reset_metrics(self):
        for shard in self.shards:
            shard.requests = 0
            shard.immediate_grants = 0
            shard.waits = 0
            shard.conflict_tests = 0
            shard.max_entries = 0
            shard.summary_rebuilds = 0
        self.detector.deadlocks_found = 0
