"""Common machinery of all lock protocols.

A protocol turns one *logical* lock demand ("X on robot r1 of cell c1")
into an ordered **lock plan**: the explicit lock requests to submit to the
lock manager, root-to-leaf (rule 5).  Planning is separated from execution
so that

* the synchronous API (`request`) can run plans directly (tests, examples,
  threaded use), and
* the discrete-event simulator can execute plans stepwise, suspending a
  transaction while any step waits.

The base class also implements *implicit lock* visibility (section 3.1):
a node is implicitly locked in S when an ancestor within the same unit
holds S/SIX/X, and implicitly in X when the ancestor holds X.  Implicit
locks never cross dashed (reference) edges — that blindness is exactly the
protocol-oriented problem of section 3.2.2 which the paper's protocol
fixes with downward propagation.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple

from repro.errors import ProtocolError
from repro.graphs.units import UnitMap, ancestors
from repro.locking.dense import DENSE_CORE, DenseLockTable, DenseSteps, core
from repro.locking.manager import LockManager
from repro.locking.modes import (
    COVERS_FLAT,
    N_MODES,
    IS,
    IX,
    S,
    SIX,
    X,
    LockMode,
    covers,
)
from repro.locking.plancache import PlanCache


class PlannedLock:
    """One step of a lock plan."""

    __slots__ = ("resource", "mode", "reason")

    def __init__(self, resource: Tuple, mode: LockMode, reason: str = ""):
        self.resource = resource
        self.mode = mode
        #: provenance: "target", "ancestor", "upward", "downward", ...
        self.reason = reason

    def __repr__(self):
        return "PlannedLock(%r, %s, %s)" % (self.resource, self.mode, self.reason)

    def __eq__(self, other):
        return (
            isinstance(other, PlannedLock)
            and self.resource == other.resource
            and self.mode == other.mode
        )


class LockPlan:
    """An ordered sequence of lock requests for one logical demand."""

    def __init__(self, steps: List[PlannedLock]):
        self.steps = steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def resources(self) -> List[Tuple]:
        return [step.resource for step in self.steps]

    def __repr__(self):
        return "LockPlan(%r)" % (self.steps,)


#: reasons marking steps that exist only because of implicit propagation
#: (rules 3/4/4' downward, superunit upward) — recorded as the third flat
#: array of a densified plan so dense consumers can distinguish them
PROPAGATION_REASONS = frozenset(("downward", "downward-path", "upward"))


class DenseLockPlan:
    """A filtered plan addressed by index into its compiled dense arrays.

    Built by the dense branch of :meth:`ProtocolBase.filter_plan`:
    ``keep`` indexes the surviving steps of the cached merged tuple.  The
    object-plan API (iteration over :class:`PlannedLock`, ``len``,
    ``resources``) materializes lazily from the shared merged steps — the
    simulator, scheduler and trace wrappers see exactly the objects the
    object path would hand them.  :meth:`dense_steps` exposes the same
    selection as int arrays for the batched dense table pass, copy-free.
    """

    __slots__ = ("_rids", "_codes", "_keep", "_interner", "_merged", "_steps")

    def __init__(self, rids, codes, keep, interner, merged):
        self._rids = rids
        self._codes = codes
        self._keep = keep
        self._interner = interner
        self._merged = merged
        self._steps = None

    @property
    def steps(self) -> List[PlannedLock]:
        if self._steps is None:
            merged = self._merged
            self._steps = [merged[i] for i in self._keep]
        return self._steps

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self._keep)

    def resources(self) -> List[Tuple]:
        merged = self._merged
        return [merged[i].resource for i in self._keep]

    def dense_steps(self) -> DenseSteps:
        return DenseSteps(self._rids, self._codes, self._interner, self._keep)

    def __repr__(self):
        return "DenseLockPlan(%r)" % (self.steps,)


class ProtocolBase:
    """Shared services: plan execution, implicit-lock checks, metrics."""

    #: subclass marker used in benchmark reports
    name = "base"

    #: whether this protocol's demand expansion is a pure function of the
    #: object graph / schema / principal (False where the *work* of
    #: planning is semantic, e.g. the naive DAG reverse scan whose cost is
    #: the benchmarked quantity)
    plan_cacheable = True

    def __init__(
        self,
        manager: LockManager,
        catalog,
        authorization=None,
        use_plan_cache: bool = True,
        use_batched_acquire: bool = False,
        use_dense_path: bool = False,
        use_semantic_modes: bool = False,
    ):
        self.manager = manager
        self.catalog = catalog
        self.units = UnitMap(catalog)
        self.authorization = authorization
        #: ablation flag: accept the commutativity-aware semantic modes
        #: (SI/AP/INC and their intentions).  Off by default: the classic
        #: protocol must be bit-identical to the pre-extension behaviour.
        self.use_semantic_modes = use_semantic_modes
        #: memoize compiled demand expansions (stamped by the database
        #: structure / authorization versions).  On by default; False is
        #: the uncached reference the differential certifies it against
        self.use_plan_cache = use_plan_cache
        #: ablation flag: submit whole plans to the lock table in one pass
        self.use_batched_acquire = use_batched_acquire
        #: ablation flag: filter and execute cached plans as flat int
        #: arrays against the dense lock table (implies batched
        #: submission of the dense plan; falls back to the object path
        #: for uncached demands or a non-dense table)
        self.use_dense_path = use_dense_path
        self.plan_cache = PlanCache()
        self._dense_table = (
            manager.table
            if use_dense_path and isinstance(manager.table, DenseLockTable)
            else None
        )
        #: the CompiledPlan the most recent compiled_steps() call resolved
        #: — filter_plan pairs it with its merged tuple by identity, so a
        #: stale value (demand aborted mid-planning) is never misused
        self._active_plan = None
        #: optional :class:`repro.faults.FaultInjector`; fires the
        #: ``plan.expand`` point on every demand's plan filtering and
        #: ``plan.execute`` before the plan's lock requests are submitted
        self.fault_injector = None
        #: explicit lock requests issued through this protocol instance
        self.locks_requested = 0
        #: logical demands served
        self.demands = 0

    # -- to be provided by subclasses ------------------------------------------

    def plan_request(self, txn, resource, mode, via=None) -> LockPlan:
        raise NotImplementedError

    # -- plan execution -----------------------------------------------------------

    def request(self, txn, resource, mode, via=None, wait=False, long=False):
        """Plan and execute a lock demand synchronously.

        Steps already covered by held locks are re-requested cheaply (the
        lock table grants a covered re-request immediately); a conflicting
        step with ``wait=False`` raises LockConflictError, leaving earlier
        steps granted (the transaction abort path releases them).
        Returns the list of granted requests.
        """
        plan = self.plan_request(txn, resource, mode, via=via)
        return self.execute_plan(txn, plan, wait=wait, long=long)

    def execute_plan(self, txn, plan: LockPlan, wait=False, long=False):
        self.demands += 1
        if self.fault_injector is not None:
            # before any step is submitted: a raise here aborts the demand
            # with no partially acquired prefix at all
            self.fault_injector.fire("plan.execute", txn=txn, steps=len(plan))
        if isinstance(plan, DenseLockPlan):
            # The dense pass subsumes batching: the selection is handed to
            # the table as int arrays (copy-free) and pruned/granted in one
            # traversal over the int summary and flat mode tables.
            granted = self.manager.acquire_many(
                txn, plan.dense_steps(), long=long, wait=wait
            )
            self.locks_requested += len(granted)
            return granted
        if self.use_batched_acquire:
            # One table pass for the whole plan: covered steps are pruned
            # against the per-transaction held-mode summary, the compatible
            # prefix is granted in a single traversal, and at most the last
            # returned request is WAITING (one deadlock check per demand).
            granted = self.manager.acquire_many(
                txn,
                [(step.resource, step.mode) for step in plan],
                long=long,
                wait=wait,
            )
            self.locks_requested += len(granted)
            return granted
        granted = []
        for step in plan:
            self.locks_requested += 1
            request = self.manager.acquire(
                txn, step.resource, step.mode, long=long, wait=wait
            )
            granted.append(request)
            if not request.granted:
                # Simulator mode: caller must wait for this request before
                # continuing the plan.
                break
        return granted

    def release_all(self, txn, keep_long: bool = False):
        return self.manager.release_all(txn, keep_long=keep_long)

    def release_early(self, txn, resource):
        """Release one lock before end of transaction (rule 5).

        Rule 5 permits early release only "in leaf-to-root order": a node
        may be released only when the transaction holds no lock on any of
        its descendants (otherwise those would lose their intention
        cover).  Violations raise :class:`~repro.errors.ProtocolError`.
        Early release trades 2PL guarantees for concurrency — callers own
        that decision; the transaction manager never does this.
        """
        held = self.manager.held_mode(txn, resource)
        if held is None:
            raise ProtocolError("%r holds no lock on %r" % (txn, resource))
        depth = len(resource)
        for other in self.manager.table.resources_of(txn):
            if len(other) > depth and other[:depth] == resource:
                raise ProtocolError(
                    "leaf-to-root release violated: %r still holds %r "
                    "below %r" % (txn, other, resource)
                )
        woken = []
        while self.manager.held_mode(txn, resource) is not None:
            woken.extend(self.manager.release(txn, resource))
        return woken

    def explain(self, txn, resource, mode, via=None):
        """Human-readable rendering of a lock plan (the style of the
        paper's worked example in section 4.4.2.2)."""
        plan = self.plan_request(txn, resource, mode, via=via)
        lines = []
        for step in plan:
            lines.append(
                "%-4s on %-55s (%s)"
                % (step.mode, "/".join(str(p) for p in step.resource), step.reason)
            )
        return lines

    # -- implicit-lock visibility -------------------------------------------------

    def effectively_holds(self, txn, resource, required: LockMode) -> bool:
        """Does ``txn`` hold ``resource`` in ``required``, counting implicit locks?

        Explicit locks count via the restrictiveness order; implicit locks
        derive from ancestors *within the same unit* (never across dashed
        edges): an ancestor S/SIX/X lock implicitly S-locks the subtree, an
        ancestor X lock implicitly X-locks it.
        """
        held = self.manager.held_mode(txn, resource)
        if held is not None and covers(held, required):
            return True
        unit_root = self.units.unit_root(resource)
        for ancestor in ancestors(resource):
            # Only ancestors inside the same unit propagate implicit locks;
            # above the unit root there are only intention locks anyway.
            if len(ancestor) < len(unit_root):
                continue
            ancestor_mode = self.manager.held_mode(txn, ancestor)
            if ancestor_mode is None:
                continue
            if ancestor_mode is X and covers(X, required):
                return True
            if ancestor_mode in (S, SIX, X) and covers(S, required):
                return True
            # a semantic actual mode (SI/AP/INC) implicitly claims its
            # commuting operation class over the whole subtree, exactly
            # as S implicitly S-locks it
            if (
                ancestor_mode.is_semantic
                and not ancestor_mode.is_intention
                and covers(ancestor_mode, required)
            ):
                return True
        return False

    def visible_mode_for_others(self, resource) -> List[Tuple[object, LockMode]]:
        """All (txn, mode) pairs that lock ``resource`` explicitly or implicitly.

        This is the conflict-visibility question of section 3.2.2: a
        correct protocol must make every lock on shared data *visible* to
        transactions arriving via other graphs.  Used by tests to prove
        the unsafe baseline loses visibility and the paper's protocol does
        not.
        """
        found = list(self.manager.holders(resource).items())
        unit_root = self.units.unit_root(resource)
        for ancestor in ancestors(resource):
            if len(ancestor) < len(unit_root):
                continue
            for txn, mode in self.manager.holders(ancestor).items():
                if mode in (S, SIX, X):
                    implicit = X if mode is X else S
                    found.append((txn, implicit))
                elif mode.is_semantic and not mode.is_intention:
                    # SI/AP/INC implicitly hold themselves over the subtree
                    found.append((txn, mode))
        return found

    # -- shared planning helpers ------------------------------------------------------

    def finish_plan(self, txn, steps: List[PlannedLock]) -> LockPlan:
        """Deduplicate a raw step list into an executable plan.

        A resource planned twice keeps its earliest position with the
        supremum of all requested modes (a stronger mode earlier is always
        safe); steps the transaction already covers explicitly are dropped
        so repeated demands stay cheap and plans match the figures.
        """
        return self.filter_plan(txn, self.merge_steps(steps))

    def merge_steps(self, steps: List[PlannedLock]) -> Tuple[PlannedLock, ...]:
        """Merge duplicates: earliest position, supremum of modes.

        This is the transaction-*independent* half of plan finishing — its
        output is what the plan cache stores and shares across callers.
        """
        from repro.locking.modes import supremum

        merged: List[PlannedLock] = []
        position = {}
        for step in steps:
            if step.resource in position:
                index = position[step.resource]
                merged[index] = PlannedLock(
                    step.resource,
                    supremum(merged[index].mode, step.mode),
                    merged[index].reason,
                )
                continue
            position[step.resource] = len(merged)
            merged.append(step)
        return tuple(merged)

    def filter_plan(self, txn, merged) -> LockPlan:
        """Drop merged steps the transaction already covers explicitly.

        The transaction-*dependent* half: runs on every demand (cache hit
        or not) against the caller's current held locks — one O(1)
        held-mode probe per step.  Never mutates ``merged`` (cached step
        tuples are shared).
        """
        if self.fault_injector is not None:
            # mid-propagation: the demand is expanded and merged but not
            # yet turned into lock requests — nothing to clean up on raise
            self.fault_injector.fire("plan.expand", txn=txn, steps=len(merged))
        table = self._dense_table
        compiled = self._active_plan
        if (
            table is not None
            and compiled is not None
            and compiled.steps is merged
        ):
            # Dense branch: one flat int pass over the plan's compiled
            # arrays against the int-keyed held summary — no tuple hashes,
            # no enum members, no per-step allocation.  Same survivors as
            # the holds_at_least loop below (the summaries are twins).
            dense = compiled.dense
            if dense is None:
                dense = compiled.dense = self._dense_arrays(merged)
            keep = core.filter_uncovered(
                dense[0],
                dense[1],
                table.dense_summary(txn),
                COVERS_FLAT,
                N_MODES,
            )
            return DenseLockPlan(dense[0], dense[1], keep, table.interner, merged)
        holds_at_least = self.manager.holds_at_least
        return LockPlan(
            [
                step
                for step in merged
                if not holds_at_least(txn, step.resource, step.mode)
            ]
        )

    def _dense_arrays(self, merged) -> tuple:
        """Recompile merged steps into parallel flat arrays.

        Returns ``(resource-ids, mode codes, propagate flags)`` — ids from
        the dense table's interner (registration on first compile), codes
        from the stamped enum members, flags marking propagation-origin
        steps (:data:`PROPAGATION_REASONS`).
        """
        interner = self._dense_table.interner
        rids = array("q", (interner.intern(step.resource) for step in merged))
        codes = array("b", (step.mode.code for step in merged))
        flags = array(
            "b",
            (
                1 if step.reason in PROPAGATION_REASONS else 0
                for step in merged
            ),
        )
        return (rids, codes, flags)

    def compiled_steps(self, key: tuple, build) -> Tuple[PlannedLock, ...]:
        """Merged steps for a demand, via the plan cache when enabled.

        ``build()`` computes the raw step list; ``key`` must capture every
        plan-shaping input apart from the world state the stamp covers —
        target resource, mode, propagation options and (under rule 4') the
        requesting principal.  Disabled or uncacheable protocols just
        merge.
        """
        if not (self.use_plan_cache and self.plan_cacheable):
            self._active_plan = None
            return self.merge_steps(build())
        stamp = self.plan_stamp()
        plan = self.plan_cache.lookup_plan(key, stamp)
        if plan is None:
            steps = self.merge_steps(build())
            plan = self.plan_cache.store(key, stamp, steps)
        self._active_plan = plan
        return plan.steps

    def plan_stamp(self) -> tuple:
        """Version stamp of every world state compiled plans depend on.

        The database structure version moves on insert/delete/replace/
        restore, component writes (``notify_object_changed`` — which undo
        actions and check-in also run through) and relation/index creation;
        the authorization version moves on grant/revoke.  Any bump
        invalidates all cached plans by stamp mismatch.
        """
        database = self.catalog.database
        auth = self.authorization
        return (
            database.structure_version,
            -1 if auth is None else auth.version,
        )

    def _ancestor_steps(self, txn, resource, intention: LockMode) -> List[PlannedLock]:
        """Intention locks on all ancestors, root first (rules 1-2)."""
        steps = []
        for ancestor in ancestors(resource):
            steps.append(PlannedLock(ancestor, intention, "ancestor"))
        return steps

    def _check_mode(self, mode: LockMode):
        if mode in (IS, IX, S, X, SIX):
            return
        if mode.is_semantic and self.use_semantic_modes:
            return
        raise ProtocolError("unsupported lock mode %r" % (mode,))

    def metrics(self) -> dict:
        out = {
            "protocol": self.name,
            "demands": self.demands,
            "locks_requested": self.locks_requested,
            "locks_per_demand": (
                round(self.locks_requested / self.demands, 4)
                if self.demands
                else 0.0
            ),
            "use_plan_cache": self.use_plan_cache,
            "use_batched_acquire": self.use_batched_acquire,
            "use_dense_path": self.use_dense_path,
            "use_semantic_modes": self.use_semantic_modes,
            "dense_core": DENSE_CORE if self._dense_table is not None else "",
            "summary_rebuilds": self.manager.table.summary_rebuilds,
        }
        out.update(self.plan_cache.stats())
        return out

    def reset_metrics(self):
        self.demands = 0
        self.locks_requested = 0
        self.plan_cache.reset_stats()
