"""Fault campaigns: run workloads under injected faults, audit everything.

The harness drives the standard check workloads through
:class:`~repro.check.scheduler.ScheduleRun` with a
:class:`~repro.faults.injector.FaultInjector` installed across the whole
stack.  Campaigns are deterministic end to end:

1. a **probe** run executes the workload fault-free with a counting-only
   injector, measuring each injection point's firing horizon;
2. a :class:`~repro.faults.plan.FaultPlan` is drawn (seeded) or
   enumerated (exhaustive k-fault) within those horizons;
3. the **faulted** run replays the same seeded walk under the plan.

After every step in which a fault actually fired, the harness runs the
full :func:`repro.verify.audit` (compatibility, intention chains,
entry-point visibility, waiting consistency, index and reference-index
consistency) plus per-transaction leak checks; at the end of the run it
additionally proves that no lock, waiting entry, held-mode summary or
plan-cache stamp leaked — every cached plan still valid under the current
stamp must replan identically on a fresh, uncached protocol instance.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.locking.manager import LockManager
from repro.txn.transaction import Transaction
from repro.verify import audit


def _busy_txns(run) -> set:
    """Transactions legitimately mid-operation (rules only bind at
    operation boundaries — a suspended root-to-leaf acquisition has not
    yet established the locks the rules oblige it to hold)."""
    return {slot.txn for slot in run.slots if slot.mid_operation}


def _concerns_busy(violation, busy: set) -> bool:
    txn = violation.txn
    if txn is None:
        return False
    if isinstance(txn, tuple):
        return any(t in busy for t in txn)
    return txn in busy


def check_plan_consistency(protocol) -> List[tuple]:
    """Prove every still-valid cached plan replans identically.

    For each plan-cache entry whose stamp matches the *current* world
    stamp (stale entries are invalidated on their next lookup — not a
    leak), rebuild the plan from scratch on a fresh, cache-less protocol
    instance over the same catalog/authorization with a probe transaction
    carrying the cached principal, and compare step for step.  A
    divergence means an undo closure or abort path changed the world
    without moving the structure version — exactly the stamp leak the
    fault campaigns exist to catch.
    """
    cache = getattr(protocol, "plan_cache", None)
    if cache is None or not len(cache):
        return []
    stamp = protocol.plan_stamp()
    fresh = None
    findings: List[tuple] = []
    from repro.catalog.authorization import DEFAULT_RIGHTS

    for key, compiled in list(cache._plans.items()):
        if compiled.stamp != stamp:
            continue  # invalidated on next lookup; nothing can serve it
        if len(key) != 4 or not isinstance(key[0], tuple):
            continue  # not the (resource, mode, propagate, principal) shape
        resource, mode, propagate, principal = key
        if fresh is None:
            kwargs = {
                "authorization": protocol.authorization,
                "use_plan_cache": False,
            }
            for attr in ("rule4prime", "transitive_propagation"):
                if hasattr(protocol, attr):
                    kwargs[attr] = getattr(protocol, attr)
            fresh = type(protocol)(LockManager(), protocol.catalog, **kwargs)
        probe = Transaction(
            principal=None if principal in (None, DEFAULT_RIGHTS) else principal
        )
        try:
            if propagate:
                replanned = fresh.plan_request(probe, resource, mode)
            else:
                replanned = fresh.plan_request(
                    probe, resource, mode, propagate=False
                )
        except Exception as exc:
            findings.append(
                (
                    "plan-cache-stamp",
                    key,
                    "replanning cached demand raised %s: %s"
                    % (type(exc).__name__, exc),
                )
            )
            continue
        cached = [(step.resource, step.mode) for step in compiled.steps]
        rebuilt = [(step.resource, step.mode) for step in replanned.steps]
        if cached != rebuilt:
            findings.append(
                (
                    "plan-cache-stamp",
                    key,
                    "cached steps %r != fresh steps %r" % (cached, rebuilt),
                )
            )
    return findings


class FaultRunResult:
    """Everything one faulted schedule run produced."""

    def __init__(self, workload: str, plan: FaultPlan, walk_seed: int):
        self.workload = workload
        self.plan = plan
        self.walk_seed = walk_seed
        #: (point, occurrence, action) triples that actually fired
        self.fired: List[Tuple[str, int, str]] = []
        #: per-point firing counts of the run
        self.counts: Dict[str, int] = {}
        self.outcomes: Dict[str, str] = {}
        self.steps = 0
        #: audit findings: (phase, rule, txn, resource, detail)
        self.violations: List[tuple] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> dict:
        return {
            "workload": self.workload,
            "walk_seed": self.walk_seed,
            "plan": [repr(spec) for spec in self.plan.specs],
            "fired": ["%s#%d:%s" % f for f in self.fired],
            "outcomes": dict(self.outcomes),
            "steps": self.steps,
            "violations": [repr(v) for v in self.violations],
        }

    def __repr__(self):
        return "FaultRunResult(%s, fired=%d, violations=%d)" % (
            self.workload,
            len(self.fired),
            len(self.violations),
        )


def run_fault_schedule(
    workload,
    plan: Optional[FaultPlan] = None,
    walk_seed: int = 0,
    variant: Optional[dict] = None,
    max_steps: int = 400,
) -> FaultRunResult:
    """One seeded random walk of ``workload`` under ``plan``.

    Seeded walks (not footprint-pruned DFS) drive fault campaigns on
    purpose: the explorer's independence pruning calls ``plan_request``
    speculatively, which would consume ``plan.expand`` occurrences
    outside real execution and wreck the determinism of occurrence
    counting.
    """
    from repro.check.scheduler import ScheduleRun

    if variant is None:
        variant = {"use_plan_cache": True}
    injector = FaultInjector(plan)
    result = FaultRunResult(workload.name, injector.plan, walk_seed)
    stack, programs = workload.build(**variant)
    injector.install(stack)
    run = ScheduleRun(stack, programs, max_steps=max_steps)
    rng = random.Random("fault:%d" % walk_seed)
    fired_before = 0
    try:
        while not run.finished:
            enabled = run.enabled()
            if not enabled:
                result.violations.append(
                    ("run", "stuck", None, None, repr(run.outcomes()))
                )
                break
            try:
                run.step(rng.choice(enabled))
            except CheckError:
                raise
            except Exception as exc:  # a fault escaped every cleanup path
                result.violations.append(
                    (
                        "run",
                        "crash",
                        None,
                        None,
                        "%s: %s" % (type(exc).__name__, exc),
                    )
                )
                break
            if injector.fired > fired_before:
                fired_before = injector.fired
                _audit_after_fault(run, stack, result)
        result.steps = run.step_count
        result.outcomes = run.outcomes()
        for _, rule, txn_name, resource, detail in run.violations:
            result.violations.append(("step", rule, txn_name, resource, detail))
        _final_audit(run, stack, result)
    finally:
        run.close()
        FaultInjector.uninstall(stack)
    result.fired = injector.fired_points()
    result.counts = injector.horizon()
    return result


def _audit_after_fault(run, stack, result: FaultRunResult):
    """Full invariant audit right after an injection, busy-filtered."""
    busy = _busy_txns(run)
    for violation in audit(stack.protocol):
        if _concerns_busy(violation, busy):
            continue
        result.violations.append(
            (
                "after-fault",
                violation.rule,
                getattr(violation.txn, "name", str(violation.txn)),
                violation.resource,
                violation.detail,
            )
        )
    # finished transactions may not retain any trace in the lock manager
    for slot in run.slots:
        if slot.outcome is None:
            continue
        _check_txn_released(stack, slot.txn, result, phase="after-fault")


def _check_txn_released(stack, txn, result: FaultRunResult, phase: str):
    held = stack.manager.locks_of(txn)
    if held:
        result.violations.append(
            (phase, "lock-leak", txn.name, None, "still holds %r" % (held,))
        )
    waiting = stack.manager.table.waiting_requests_of(txn)
    if waiting:
        result.violations.append(
            (phase, "waiting-leak", txn.name, None, "still queued %r" % (waiting,))
        )
    summary = stack.manager.table._txn_modes.get(txn)
    if summary:
        result.violations.append(
            (phase, "summary-leak", txn.name, None, "summary %r" % (summary,))
        )


def _final_audit(run, stack, result: FaultRunResult):
    """End-of-run: the table must be empty and the plan cache honest."""
    for violation in audit(stack.protocol):
        result.violations.append(
            (
                "final",
                violation.rule,
                getattr(violation.txn, "name", str(violation.txn)),
                violation.resource,
                violation.detail,
            )
        )
    table = stack.manager.table
    if stack.manager.lock_count():
        result.violations.append(
            (
                "final",
                "lock-leak",
                None,
                None,
                "%d grants left in table" % stack.manager.lock_count(),
            )
        )
    if table._txn_waiting:
        result.violations.append(
            ("final", "waiting-leak", None, None, repr(table._txn_waiting))
        )
    if table._txn_modes:
        result.violations.append(
            ("final", "summary-leak", None, None, repr(table._txn_modes))
        )
    for rule, key, detail in check_plan_consistency(stack.protocol):
        result.violations.append(("final", rule, None, key, detail))


def probe_counts(
    workload,
    walk_seed: int = 0,
    variant: Optional[dict] = None,
    max_steps: int = 400,
) -> Dict[str, int]:
    """Firing horizon of every injection point on a fault-free walk."""
    result = run_fault_schedule(
        workload, FaultPlan(), walk_seed=walk_seed, variant=variant,
        max_steps=max_steps,
    )
    if not result.ok:
        raise CheckError(
            "fault-free probe of %r already violates invariants: %r"
            % (workload.name, result.violations)
        )
    return result.counts


def seeded_campaign(
    workload,
    seed: int,
    n_faults: int = 3,
    walk_seed: Optional[int] = None,
    variant: Optional[dict] = None,
    max_steps: int = 400,
) -> FaultRunResult:
    """Probe, draw a seeded plan within the horizons, run it."""
    if walk_seed is None:
        walk_seed = seed
    horizons = probe_counts(
        workload, walk_seed=walk_seed, variant=variant, max_steps=max_steps
    )
    plan = FaultPlan.seeded(seed, horizons, n_faults=n_faults)
    return run_fault_schedule(
        workload, plan, walk_seed=walk_seed, variant=variant, max_steps=max_steps
    )


def exhaustive_campaign(
    workload,
    k: int = 1,
    max_occurrences: int = 5,
    walk_seed: int = 0,
    variant: Optional[dict] = None,
    max_steps: int = 400,
    points: Optional[Sequence[str]] = None,
) -> List[FaultRunResult]:
    """Run every k-fault plan within bounded horizons (small scope)."""
    horizons = probe_counts(
        workload, walk_seed=walk_seed, variant=variant, max_steps=max_steps
    )
    plans = FaultPlan.exhaustive(
        horizons, k=k, max_occurrences=max_occurrences, points=points
    )
    return [
        run_fault_schedule(
            workload, plan, walk_seed=walk_seed, variant=variant,
            max_steps=max_steps,
        )
        for plan in plans
    ]


def certify_faults(
    workload,
    seeds: Sequence[int],
    n_faults: int = 3,
    variant: Optional[dict] = None,
    max_steps: int = 400,
) -> dict:
    """Seeded fault certification of one workload: the CLI's --faults path.

    Returns a JSON-ready report; ``report["ok"]`` is the certification
    verdict (zero violations across every seed).
    """
    runs = [
        seeded_campaign(
            workload, seed, n_faults=n_faults, variant=variant,
            max_steps=max_steps,
        )
        for seed in seeds
    ]
    return {
        "workload": workload.name,
        "seeds": list(seeds),
        "n_faults": n_faults,
        "faults_fired": sum(len(run.fired) for run in runs),
        "violations": sum(len(run.violations) for run in runs),
        "ok": all(run.ok for run in runs),
        "runs": [run.summary() for run in runs],
    }
