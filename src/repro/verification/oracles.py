"""Invariant oracles: machine-checked statements of the paper's theorems.

Each oracle is a small stateful checker invoked after *every* engine step
(via :data:`repro.simulation.engine.StepObserver`).  An oracle that
observes a violated invariant raises :class:`OracleViolation` at the exact
step the invariant broke, which the fuzzer then captures, replays, and
shrinks.

Oracles and their provenance:

``graph-acyclic``
    The system resolves every deadlock the moment it forms (§3), so the
    waits-for graph must be acyclic after every completed step.
``forest``
    Theorem 1: with exclusive locks only, the deadlock-free concurrency
    graph is a forest (in-degree ≤ 1 in the holder→waiter orientation,
    acyclic).  Only meaningful for exclusive-only workloads.
``cycles-through-requester``
    §3.2: every cycle closed by a single wait response passes through the
    requesting transaction, so every cycle a ``DEADLOCK`` event reports
    must be a path of the deadlock's arcs from the requester, and an
    untruncated record must cover exactly the deadlock's members.
``no-commit-loss``
    Commit is irrevocable: a committed transaction stays committed, holds
    no locks, and is never chosen as a rollback victim afterwards.
``lock-table``
    Lock-table consistency: granted lock records agree with the lock
    manager, co-holders of an entity are mutually compatible, blocked
    transactions have exactly one pending request and are queued on it.
``preemption-order``
    Theorem 2: under a time-invariant partial order, a transaction may
    only be preempted by a conflict of an *earlier* entrant, so every
    preemption arc runs old → young and no two transactions can preempt
    each other forever.  Enabled only for order-respecting policies.
``livelock-free``
    Theorem 2's consequence: an order-respecting policy cannot livelock;
    a run flagged as livelocked under such a policy is a bug.
``no-starvation``
    The overload layer's liveness contract: every admitted transaction
    reaches an *explicit* terminal state — commit, or a shed recorded in
    metrics — within a bounded number of engine steps of admission.  A
    transaction still live past the bound, or a shed with no recorded
    reason, is starvation the admission machinery failed to prevent.
``no-stale-read``
    The available-copies safety contract
    (:mod:`repro.distributed.replication`): every read a replicated
    scheduler serves must come from a replica whose applied version
    equals the entity's committed version at serve time — a recovering
    or partitioned replica must finish catch-up before rejoining the
    read set.  Silently inert on schedulers without a read log.
``graph-consistency``
    Differential contract of the lock table's live waits-for graph
    (:attr:`~repro.locking.table.LockTable.waits_for`): after every
    step its arc and vertex sets equal a from-scratch
    :meth:`~repro.locking.table.LockTable.wait_edges` scan, and the
    strategy's running copies total equals a full recount.  Any
    divergence means a lock-table mutation path (grant, block, release
    wake-up, rollback cancellation, shed) failed to maintain the live
    graph.  The same recount discipline covers the scheduler's status
    index: the base ``runnable()``, ``blocked_count`` and ``all_done``
    equal a scan of every transaction's status (READY ids in id
    order), so a status written past ``Scheduler._set_status`` is caught
    at that step.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NoReturn

from ..core.scheduler import Scheduler, StepOutcome
from ..core.transaction import TxnStatus
from ..errors import SimulationError
from ..simulation.trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


class OracleViolation(SimulationError):
    """An invariant oracle observed a broken invariant.

    Attributes
    ----------
    oracle:
        Name of the oracle that fired.
    event:
        The trace event after which the violation was observed (``None``
        for post-run checks such as the differential oracle).
    """

    def __init__(
        self, oracle: str, message: str, event: TraceEvent | None = None
    ) -> None:
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.detail = message
        self.event = event


class Oracle(abc.ABC):
    """One invariant, checked after every engine step.

    Oracles may keep state between steps (e.g. the set of transactions
    seen committed); :meth:`reset` clears it before a fresh run.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        """Raise :class:`OracleViolation` if the invariant is broken."""

    def reset(self) -> None:
        """Clear per-run state."""

    def _fail(self, message: str, event: TraceEvent) -> NoReturn:
        raise OracleViolation(self.name, message, event)


class GraphAcyclicOracle(Oracle):
    """After every completed step the waits-for graph is cycle-free."""

    name = "graph-acyclic"

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        graph = scheduler.concurrency_graph()
        cycle = graph.find_any_cycle()
        if cycle is not None:
            self._fail(
                f"waits-for graph has unresolved cycle {cycle} after step "
                f"{event.step} ({event.txn_id} {event.outcome})",
                event,
            )


class ForestOracle(Oracle):
    """Theorem 1: exclusive-only conflict graphs are forests."""

    name = "forest"

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        graph = scheduler.concurrency_graph(include_queue_edges=False)
        if not graph.is_forest():
            self._fail(
                f"exclusive-lock conflict graph is not a forest after step "
                f"{event.step} (arcs: {sorted((a.holder, a.waiter, a.entity) for a in graph.arcs)})",
                event,
            )


class CyclesThroughRequesterOracle(Oracle):
    """§3.2: every recorded cycle is a path of the deadlock's arcs from the
    requester, and an untruncated record covers exactly its members."""

    name = "cycles-through-requester"

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        if event.outcome is not StepOutcome.DEADLOCK:
            return
        deadlock = event.deadlock
        if deadlock is None or not deadlock.cycles:
            self._fail(
                f"DEADLOCK event at step {event.step} reports no cycles",
                event,
            )
        for cycle in deadlock.cycles:
            hops = zip(cycle, cycle[1:] + cycle[:1])
            if cycle[0] != event.txn_id or any(
                waiter not in deadlock.arcs.get(holder, {}) for holder, waiter in hops
            ):
                self._fail(
                    f"cycle {cycle} at step {event.step} is not a path of the "
                    f"deadlock's arcs from requester {event.txn_id}",
                    event,
                )
        missed = deadlock.members - {txn for cycle in deadlock.cycles for txn in cycle}
        if missed and len(deadlock.cycles) < deadlock.cycle_limit:
            self._fail(
                f"cycles at step {event.step} miss members {sorted(missed)}",
                event,
            )


class NoCommitLossOracle(Oracle):
    """Committed transactions keep their outcome: status stays COMMITTED,
    no locks remain held, and no later rollback selects them as victim."""

    name = "no-commit-loss"

    def __init__(self) -> None:
        self._committed: set[str] = set()
        self._rollbacks_seen = 0

    def reset(self) -> None:
        self._committed.clear()
        self._rollbacks_seen = 0

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        events = scheduler.metrics.rollback_events
        for rb in events[self._rollbacks_seen:]:
            if rb.victim in self._committed:
                self._fail(
                    f"committed transaction {rb.victim} rolled back at step "
                    f"{event.step} (requester {rb.requester})",
                    event,
                )
        self._rollbacks_seen = len(events)
        for txn_id in self._committed:
            txn = scheduler.transactions[txn_id]
            if txn.status is not TxnStatus.COMMITTED:
                self._fail(
                    f"{txn_id} committed earlier but has status "
                    f"{txn.status} at step {event.step}",
                    event,
                )
            held = scheduler.lock_manager.locks_held(txn_id)
            if held:
                self._fail(
                    f"committed transaction {txn_id} still holds locks "
                    f"{sorted(held)} at step {event.step}",
                    event,
                )
        if event.outcome is StepOutcome.COMMITTED:
            self._committed.add(event.txn_id)


class LockTableConsistencyOracle(Oracle):
    """The lock manager and the transactions' lock records agree."""

    name = "lock-table"

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        manager = scheduler.lock_manager
        for txn_id, txn in scheduler.transactions.items():
            held = manager.locks_held(txn_id)
            if txn.done:
                if held:
                    self._fail(
                        f"{txn_id} is done but holds {sorted(held)}", event
                    )
                continue
            granted = {
                r.entity: r.mode for r in txn.lock_records if r.granted
            }
            if granted != held:
                self._fail(
                    f"{txn_id}: granted records {sorted(granted)} disagree "
                    f"with lock manager {sorted(held)}",
                    event,
                )
            pending = txn.pending_request()
            waiting_on = manager.waiting_on(txn_id)
            if txn.status is TxnStatus.BLOCKED:
                if pending is None:
                    self._fail(
                        f"{txn_id} is BLOCKED without a pending lock "
                        f"record",
                        event,
                    )
                if waiting_on != pending.entity:
                    self._fail(
                        f"{txn_id} is BLOCKED on record {pending.entity!r} "
                        f"but queued on {waiting_on!r}",
                        event,
                    )
            elif waiting_on is not None:
                self._fail(
                    f"{txn_id} has status {txn.status} but is queued on "
                    f"{waiting_on!r}",
                    event,
                )
        # Co-holders of any entity must be mutually compatible (at most
        # one exclusive holder, never mixed with shared holders).
        entities = {
            entity
            for txn_id in scheduler.transactions
            for entity in manager.locks_held(txn_id)
        }
        for entity in entities:
            holders = manager.table.holders(entity)
            modes = list(holders.values())
            for i, a in enumerate(modes):
                for b in modes[i + 1:]:
                    if not a.compatible_with(b):
                        self._fail(
                            f"incompatible co-holders of {entity!r}: "
                            f"{holders}",
                            event,
                        )


class PreemptionOrderOracle(Oracle):
    """Theorem 2: preemption arcs run old → young under an ordered policy.

    Every recorded rollback whose victim is not the requester itself must
    preempt a *later* entrant (``entry_order(victim) >
    entry_order(requester)``).  Because entry order is time-invariant this
    also rules out mutual preemption pairs, which the oracle checks
    directly as a second line of defence.
    """

    name = "preemption-order"

    def __init__(self) -> None:
        self._rollbacks_seen = 0

    def reset(self) -> None:
        self._rollbacks_seen = 0

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        events = scheduler.metrics.rollback_events
        for rb in events[self._rollbacks_seen:]:
            if rb.victim == rb.requester:
                continue
            victim_order = scheduler.transactions[rb.victim].entry_order
            requester_order = scheduler.transactions[
                rb.requester
            ].entry_order
            if victim_order <= requester_order:
                self._fail(
                    f"elder preempted at step {event.step}: {rb.requester} "
                    f"(entry {requester_order}) rolled back {rb.victim} "
                    f"(entry {victim_order}); Theorem 2 requires "
                    f"victim entry order > requester entry order",
                    event,
                )
        self._rollbacks_seen = len(events)
        pairs = scheduler.metrics.mutual_preemption_pairs()
        if pairs:
            self._fail(
                f"mutual preemption pairs {sorted(pairs)} under an "
                f"ordered policy",
                event,
            )


class NoStarvationOracle(Oracle):
    """Every admitted transaction commits or is explicitly shed in time.

    Parameters
    ----------
    limit:
        Engine steps a transaction may stay live after it is first seen.
        The default is deliberately generous so the oracle stays silent on
        ordinary fuzz workloads; overload harnesses construct it with a
        bound derived from the configured deadline ladder
        (``3 * deadline_steps`` covers all three rungs, plus slack).
    """

    name = "no-starvation"

    #: Default liveness bound (steps from first sighting to terminal state).
    DEFAULT_LIMIT = 20_000

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._first_seen: dict[str, int] = {}

    def reset(self) -> None:
        self._first_seen.clear()

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        for txn_id in sorted(scheduler.transactions):
            txn = scheduler.transactions[txn_id]
            if txn_id not in self._first_seen:
                self._first_seen[txn_id] = event.step
            if txn.status is TxnStatus.SHED and (
                txn_id not in scheduler.metrics.shed_outcomes
            ):
                self._fail(
                    f"{txn_id} was shed without a recorded reason at step "
                    f"{event.step} (sheds must be explicit)",
                    event,
                )
            if txn.done:
                continue
            elapsed = event.step - self._first_seen[txn_id]
            if elapsed > self.limit:
                self._fail(
                    f"{txn_id} still {txn.status} {elapsed} steps after "
                    f"admission (bound {self.limit}): starvation the "
                    f"admission/deadline machinery failed to prevent "
                    f"(rollback count {txn.rollback_count})",
                    event,
                )


class NoStaleReadOracle(Oracle):
    """Available-copies safety: no read served by a lagging replica.

    Replays the :class:`~repro.distributed.scheduler.DistributedScheduler`
    read log incrementally (each record carries the serving replica's
    applied version and the entity's committed version at serve time) and
    fails on the first record where they differ — a replica answered a
    read before finishing catch-up.  Every distributed run keeps the log,
    static placements (one copy per entity) included; the single-site
    scheduler has none and is skipped, so the oracle is safe to request
    everywhere.
    """

    name = "no-stale-read"

    def __init__(self) -> None:
        self._records_seen = 0

    def reset(self) -> None:
        self._records_seen = 0

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        read_log = getattr(scheduler, "read_log", None)
        if read_log is None:
            return
        for record in read_log[self._records_seen:]:
            if record.applied != record.committed:
                self._fail(
                    f"stale read at step {event.step}: {record.txn_id} read "
                    f"{record.entity!r} from site {record.site} at applied "
                    f"version {record.applied} while the committed version "
                    f"was {record.committed} — the replica rejoined the "
                    f"read set before catch-up",
                    event,
                )
        self._records_seen = len(read_log)


class GraphConsistencyOracle(Oracle):
    """Live waits-for graph == from-scratch scan, every step.

    The live graph is the detection hot path; this oracle is the harness
    that keeps it honest: arcs, induced vertices, and the incremental
    copies accounting are all compared against their from-scratch
    references after every completed step (including rollback and SHED
    paths, which exercise the batched ``release_many`` wake-up).  The
    reference is the raw ``wait_edges()`` triples, not a rebuilt graph: a
    rebuild would pass through the very container under test.  The
    scheduler's status index (ready list, blocked count, live count) is
    recounted from the population the same way.
    """

    name = "graph-consistency"

    def check(self, scheduler: Scheduler, event: TraceEvent) -> None:
        table = scheduler.lock_manager.table
        live = table.waits_for.arcs
        rebuilt = set(table.wait_edges())
        if live != rebuilt:
            self._fail(
                f"incremental waits-for diverged from rebuild at step "
                f"{event.step} ({event.txn_id} {event.outcome}): "
                f"missing={sorted(rebuilt - live)} "
                f"spurious={sorted(live - rebuilt)}",
                event,
            )
        live_nodes = table.waits_for.transactions
        rebuilt_nodes = {txn for arc in rebuilt for txn in arc[:2]}
        if live_nodes != rebuilt_nodes:
            self._fail(
                f"incremental vertex set diverged at step {event.step}: "
                f"missing={sorted(rebuilt_nodes - live_nodes)} "
                f"spurious={sorted(live_nodes - rebuilt_nodes)}",
                event,
            )
        running = scheduler.strategy.copies
        recounted = scheduler._copies_total()
        if running != recounted:
            self._fail(
                f"incremental copies total {running} != recount "
                f"{recounted} at step {event.step}",
                event,
            )
        # The base method, not a subclass's filtered view of it.
        population = scheduler.transactions
        indexed = (
            Scheduler.runnable(scheduler),
            scheduler.blocked_count,
            scheduler.all_done,
        )
        scanned = (
            sorted(
                txn_id
                for txn_id, txn in population.items()
                if txn.status is TxnStatus.READY
            ),
            sum(
                txn.status is TxnStatus.BLOCKED
                for txn in population.values()
            ),
            all(txn.done for txn in population.values()),
        )
        if indexed != scanned:
            self._fail(
                f"status index (runnable, blocked_count, all_done) "
                f"{indexed} != population scan {scanned} at step "
                f"{event.step}: a status was written past "
                f"Scheduler._set_status",
                event,
            )


#: Policies whose victim choice respects a time-invariant partial order
#: (the requester itself, or a strictly later entrant).  For these the
#: ``preemption-order`` and ``livelock-free`` oracles apply.
ORDERED_POLICIES = ("ordered-min-cost", "requester", "youngest")

#: Post-run checks the harnesses run *between* engine runs rather than at
#: every step.  ``make_oracles`` accepts these names and silently skips
#: them (no step oracle exists for them); callers that can honour them —
#: the fuzzer's sampled crash-recovery check, ``repro chaos`` — look for
#: them in the requested check list themselves.
POST_RUN_CHECKS = ("recovery-equivalence",)

_ORACLE_TYPES: dict[str, type[Oracle]] = {
    GraphAcyclicOracle.name: GraphAcyclicOracle,
    ForestOracle.name: ForestOracle,
    CyclesThroughRequesterOracle.name: CyclesThroughRequesterOracle,
    NoCommitLossOracle.name: NoCommitLossOracle,
    LockTableConsistencyOracle.name: LockTableConsistencyOracle,
    PreemptionOrderOracle.name: PreemptionOrderOracle,
    NoStarvationOracle.name: NoStarvationOracle,
    NoStaleReadOracle.name: NoStaleReadOracle,
    GraphConsistencyOracle.name: GraphConsistencyOracle,
}


def oracle_names() -> list[str]:
    """All step-oracle names, in registration order."""
    return list(_ORACLE_TYPES)


def make_oracles(
    checks: str | list[str] = "all",
    exclusive_only: bool = False,
    ordered_policy: bool = True,
) -> list[Oracle]:
    """Build the oracle set for one run.

    ``checks`` is ``"all"`` or a list/comma-string of oracle names.
    ``exclusive_only`` enables the Theorem 1 forest oracle (it only holds
    when every lock is exclusive); ``ordered_policy`` enables the
    Theorem 2 preemption-order oracle.
    """
    if isinstance(checks, str):
        requested = (
            list(_ORACLE_TYPES)
            if checks == "all"
            else [c.strip() for c in checks.split(",") if c.strip()]
        )
    else:
        requested = list(checks)
    requested = [
        name for name in requested if name not in POST_RUN_CHECKS
    ]
    unknown = [name for name in requested if name not in _ORACLE_TYPES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; choose from "
            f"{oracle_names() + list(POST_RUN_CHECKS)}"
        )
    if not exclusive_only and ForestOracle.name in requested:
        requested.remove(ForestOracle.name)
    if not ordered_policy and PreemptionOrderOracle.name in requested:
        requested.remove(PreemptionOrderOracle.name)
    return [_ORACLE_TYPES[name]() for name in requested]


class OracleSuite:
    """A bundle of oracles usable as an engine step observer.

    >>> suite = OracleSuite(make_oracles("all"))
    >>> engine = SimulationEngine(scheduler, on_step=suite)  # doctest: +SKIP
    """

    def __init__(self, oracles: list[Oracle]) -> None:
        self.oracles = oracles

    def reset(self) -> None:
        for oracle in self.oracles:
            oracle.reset()

    def __call__(
        self, engine: "SimulationEngine", event: TraceEvent
    ) -> None:
        for oracle in self.oracles:
            oracle.check(engine.scheduler, event)

    @property
    def names(self) -> list[str]:
        return [oracle.name for oracle in self.oracles]
