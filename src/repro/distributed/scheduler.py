"""Distributed concurrency control (§3.3) over available copies.

The paper observes that maintaining a *global* concurrency graph across
sites is impractical, so a distributed system combines three mechanisms —
all of which compose with partial rollback:

1. **Site-local detection.**  Deadlock cycles whose every arc concerns
   entities owned by a single site are detected there exactly as in the
   centralised system and resolved by the configured victim policy with
   partial rollback.
2. **Timestamp ordering for cross-site conflicts.**  When a conflict
   involves transactions homed at different sites, no site can see the
   whole picture, so a wait/rollback decision is made from timestamps
   alone (the paper's "using timestamps ... to determine whether wait or
   rollback is used as a response to a given conflict"):

   * ``wound-wait`` — an older requester *wounds* (partially rolls back)
     a younger holder just far enough to free the entity; a younger
     requester waits.
   * ``wait-die`` — an older requester waits; a younger requester *dies*,
     rolling itself back far enough to free anything other transactions
     wait for (never below releasing one lock), then retrying.

3. **Wait timeouts.**  Mixed cycles (site-local arcs plus cross-site
   arcs each individually permitted by the timestamp rule) are invisible
   to both mechanisms; a bounded wait timeout rolls a long-blocked
   transaction back to free its contested locks, guaranteeing progress.

Each entity lives on the ``rf`` sites of its
:meth:`~repro.distributed.views.View.replica_sites` set; a static
partition is ``rf = 1``.  Over any placement the scheduler follows the
*available copies* discipline:

* **read-one** — a shared lock is served by any *up, fresh* replica
  (the reader's home site first, then the primary); a replica on
  another site ships the value.
* **write-all-available** — an exclusive update is applied at every up,
  reachable replica; replicas that are down or cut off by a partition
  miss the write and are marked *stale*.
* **catch-up before rejoin** — a recovering (or healed) replica copies
  the missed versions from a fresh peer before it serves reads again.

An entity none of whose replicas is up is unavailable: a request for it
stalls without queueing.  Every served read lands in
:attr:`DistributedScheduler.read_log`, which the ``no-stale-read``
oracle replays.

Message accounting follows every remote interaction: lock request/grant
round-trips, value shipping for remote reads and exclusive updates,
wounds, probes, catch-ups and rollback notifications.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush
from operator import itemgetter

from ..core.detection import Deadlock
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.transaction import Transaction, TransactionProgram, TxnStatus
from ..core.operations import Lock
from ..graphs.concurrency import ConcurrencyGraph
from ..locking.modes import LockMode
from ..observability.events import EventKind
from ..storage.database import Database
from .network import MessageLog, MessageType, reachable
from .replicas import ReadRecord, ReplicaDirectory
from .views import View

TxnId = str

WOUND_WAIT = "wound-wait"
WAIT_DIE = "wait-die"
PROBE = "probe"

#: Distributed rollbacks (die, wound, timeout, local victim) a transaction
#: may take before the ladder escalates the next one to a total restart.
RETRY_BUDGET = 8
#: Each retry stalls the victim ``min(BACKOFF_CAP, BACKOFF_BASE *
#: 2**(attempt-1))`` clock steps plus a jitter in ``[0, BACKOFF_BASE)``.
BACKOFF_BASE = 2
BACKOFF_CAP = 64
#: Steps a transaction stalls after hitting an unavailable entity before
#: it retries the request (sites recover on the same clock, so a short
#: constant beats an exponential ladder here).
UNAVAILABLE_BACKOFF = 8

#: The place the clock's timeout pass stands at between two passes: after
#: every timer's.
_BETWEEN_PASSES = float("inf")


class DistributedScheduler(Scheduler):
    """A scheduler whose entities live on multiple sites.

    Parameters
    ----------
    database, strategy, policy:
        As for :class:`~repro.core.scheduler.Scheduler`; the policy applies
        to site-local deadlocks only.
    view:
        Entity and transaction placement, static
        (:func:`~repro.distributed.views.round_robin_partition`, one
        copy per entity) or consistent-hashed
        (:func:`~repro.distributed.views.hash_view`, whose ``rf`` fixes
        the replication factor).
    cross_site_mode:
        ``"wound-wait"`` (default), ``"wait-die"`` or ``"probe"``.
    wait_timeout:
        Engine steps a transaction may stay blocked before the timeout
        mechanism frees its contested locks.  Must be positive.
    backoff_seed:
        Seed of the private jitter generator — same seed, same jitter
        sequence, fully reproducible runs.

    Every distributed rollback charges the victim's retry ladder: it
    stalls for an exponential backoff (:data:`BACKOFF_BASE`,
    :data:`BACKOFF_CAP`) before it may be scheduled again, and once it
    has spent :data:`RETRY_BUDGET` retries a partial rollback escalates
    to a *total* restart, so no transaction's lost work grows without
    bound.  Escalation resets the count.  A stalled transaction
    yields only while a competitor can use the time; when nothing else
    is runnable the backoff ends early (idling would help nobody).

    Site liveness is driven through :meth:`site_failed` /
    :meth:`site_recovered`, partitions through :meth:`on_partition` /
    :meth:`on_heal` (the fault injector calls them).
    """

    def __init__(
        self,
        database: Database,
        view: View,
        strategy="mcs",
        policy="ordered-min-cost",
        cross_site_mode: str = WOUND_WAIT,
        wait_timeout: int = 200,
        backoff_seed: int = 0,
    ) -> None:
        super().__init__(database, strategy=strategy, policy=policy)
        if cross_site_mode not in (WOUND_WAIT, WAIT_DIE, PROBE):
            raise ValueError(
                f"cross_site_mode must be {WOUND_WAIT!r}, {WAIT_DIE!r} or "
                f"{PROBE!r}"
            )
        if wait_timeout < 1:
            raise ValueError("wait_timeout must be positive")
        self.view = view
        self.cross_site_mode = cross_site_mode
        self.wait_timeout = wait_timeout
        self.message_log = MessageLog()
        self.replication = ReplicaDirectory(view)
        #: Every served read, for the no-stale-read oracle.
        self.read_log: list[ReadRecord] = []
        #: The site groups of the active partition (None while the
        #: network is whole).  The timestamp rule and probes skip
        #: blockers unreachable from the requester's home — a wound or
        #: probe cannot cross a severed link, so those conflicts stand
        #: until the wait timeout clears them — and a write misses the
        #: replicas it cannot reach.
        self.partition_groups: list[set[int]] | None = None
        self._blocked_since: dict[TxnId, int] = {}
        #: ``(since, place, txn)`` per ``_blocked_since`` write, in write
        #: order: the wait timers, which the clock pops when due.
        self._timers: deque[tuple[int, int, TxnId]] = deque()
        #: Each timer's place in the firing order (see on_engine_step).
        self._timer_place: dict[TxnId, int] = {}
        self._next_place = 0
        #: ``(clock, place)`` at which a transaction first left BLOCKED
        #: since its timer was last written; ``place`` is that of the
        #: timer then being handled, or _BETWEEN_PASSES.
        self._unblocked_at: dict[TxnId, tuple[int, float]] = {}
        self._passing = _BETWEEN_PASSES
        self._retry_attempts: dict[TxnId, int] = {}
        #: Only stalls still in force (``until > clock``), and a heap of
        #: ``(until, txn)`` per write for the clock to expire them.
        self._stalled_until: dict[TxnId, int] = {}
        self._stall_ends: list[tuple[int, TxnId]] = []
        self._backoff_rng = random.Random(backoff_seed)
        self._clock = 0

    # -- registration with placement validation ------------------------------

    def register(self, program: TransactionProgram) -> Transaction:
        for entity in program.entities_accessed:
            self.view.site_of_entity(entity)  # raises if unassigned
        self.view.home_of(program.txn_id)
        return super().register(program)

    # -- retry backoff ------------------------------------------------------

    def runnable(self) -> list[TxnId]:
        """READY transactions, minus those still serving a retry backoff.

        A stalled transaction yields only while a competitor can use the
        time; when nothing else is runnable its backoff ends early, so
        every driver (engine or direct stepping) keeps making progress.
        """
        ready = super().runnable()
        stalled = self._stalled_until
        if not stalled:
            return ready
        active = [txn_id for txn_id in ready if txn_id not in stalled]
        return active if active else ready

    def _stall(self, txn_id: TxnId, until: int) -> None:
        """Keep *txn_id* out of :meth:`runnable` until the clock reaches
        *until* (a stall already over is no stall: it is dropped)."""
        if until > self._clock:
            self._stalled_until[txn_id] = until
            heappush(self._stall_ends, (until, txn_id))
        else:
            self._stalled_until.pop(txn_id, None)

    def _penalise_retry(self, txn_id: TxnId, target_ordinal: int) -> int:
        """Account one distributed retry; return the (possibly escalated)
        rollback target.

        Each retry backs the victim off exponentially (with deterministic
        jitter) before it may run again; once the retry budget is spent a
        partial target escalates to a total restart and the count resets —
        bounded work per transaction instead of unbounded preemption.
        """
        attempts = self._retry_attempts.get(txn_id, 0) + 1
        self._retry_attempts[txn_id] = attempts
        if attempts > RETRY_BUDGET and target_ordinal > 0:
            self.metrics.restart_escalations += 1
            self._retry_attempts[txn_id] = 0
            target_ordinal = 0
        delay = min(
            BACKOFF_CAP, BACKOFF_BASE * (2 ** min(attempts - 1, 30))
        ) + self._backoff_rng.randrange(BACKOFF_BASE)
        self._stall(txn_id, self._clock + delay)
        self.metrics.backoff_stalls += 1
        return target_ordinal

    # -- engine hook: clock and timeouts -----------------------------------

    def on_engine_step(self, step: int) -> None:
        """Advance the wait clock, end the stalls that are over and handle
        the wait timers that are due.

        Called once per engine iteration (including idle iterations when
        everything is blocked).  The clock behaves as if it visited every
        timer on every step in place order, discarding a timer whose
        transaction is not BLOCKED and firing (:meth:`_timeout`) one that
        has waited ``wait_timeout`` steps.  It pays only for what is due:

        * Every ``_blocked_since`` write stores the current clock, and the
          clock only grows, so ``_timers`` (one entry per write, in write
          order) is sorted by deadline and the due timers are a prefix.
        * A due timer is handled on the step it falls due: it fires or
          is reset.  So the timers due at a step were all written on one
          step, ``wait_timeout`` steps earlier, and they are handled in
          place order.  A timer written for a transaction that the clock
          has passed while it was not BLOCKED takes a new place, after
          every other; any other write keeps the timer's place.  One
          step's resets are written in place order and its one block
          comes after them, so place order is write order with one
          exception: a timeout on this pass unblocks a transaction the
          pass has already gone by, and the transaction blocks again on
          the same step (two Lock operations in a row).
          :meth:`_reindex` notes when a transaction leaves BLOCKED, so
          that :meth:`_arm_timer` can tell the cases apart.
        * A transaction becomes BLOCKED only in
          :meth:`Scheduler._execute_lock`, and :meth:`_execute_lock`
          writes ``_blocked_since`` after every call that did not grant.
          So an entry whose ``_blocked_since`` value still equals its
          ``since``, and whose transaction is BLOCKED, is a timer the
          clock has never discarded.
        """
        self._clock = clock = self._clock + 1
        stall_ends = self._stall_ends
        while stall_ends and stall_ends[0][0] <= clock:
            until, txn_id = heappop(stall_ends)
            if self._stalled_until.get(txn_id) == until:
                del self._stalled_until[txn_id]
        timers = self._timers
        due_at = clock - self.wait_timeout
        if not timers or timers[0][0] > due_at:
            return
        due = []
        while timers and timers[0][0] <= due_at:
            due.append(timers.popleft())
        if len(due) > 1:
            due.sort(key=itemgetter(1))
        for since, place, txn_id in due:
            if self._blocked_since.get(txn_id) != since:
                continue  # rewritten or cleared since
            txn = self.transactions.get(txn_id)
            if txn is None or txn.status is not TxnStatus.BLOCKED:
                continue
            self._passing = place
            self._timeout(txn)
        self._passing = _BETWEEN_PASSES

    def _arm_timer(self, txn: Transaction) -> None:
        """Write *txn*'s wait timer at the current clock: on a block, and
        on a no-waiter reset."""
        txn_id = txn.txn_id
        clock = self._clock
        place = self._timer_place.get(txn_id)
        left = self._unblocked_at.get(txn_id)
        if (
            txn_id not in self._blocked_since
            or left is not None and (left[0] < clock or left[1] < place)
        ):
            # No timer, or the clock has passed this one (on an earlier
            # step, or later on this step's pass) while its transaction
            # was not BLOCKED: a new timer, placed after every other.
            place = self._next_place
            self._next_place += 1
            self._timer_place[txn_id] = place
        self._blocked_since[txn_id] = clock
        self._timers.append((clock, place, txn_id))
        if txn.status is TxnStatus.BLOCKED:
            self._unblocked_at.pop(txn_id, None)
        else:  # a victim of its own block: unblocked from the write on
            self._unblocked_at[txn_id] = (clock, _BETWEEN_PASSES)

    def _reindex(self, txn: Transaction, was: TxnStatus) -> None:
        """Note where the clock stood when *txn* first left BLOCKED after
        its timer was written (see :meth:`_arm_timer`)."""
        if was is TxnStatus.BLOCKED:
            self._unblocked_at.setdefault(
                txn.txn_id, (self._clock, self._passing)
            )
        super()._reindex(txn, was)

    def _entities_waited_on(self, txn_id: TxnId) -> set[str]:
        """Entities *txn_id* holds that some transaction currently waits
        for."""
        graph = self.lock_manager.table.waits_for
        return {arc.entity for arc in graph.holds_waited_on(txn_id)}

    def _timeout(self, txn: Transaction) -> None:
        """Resolve a suspected invisible global deadlock.

        Rolls the timed-out transaction back to free the earliest of its
        locks that some other transaction currently waits for.  When
        nothing waits on it (it is merely slow, not deadlocking anyone),
        the timer is reset instead of rolling back.
        """
        waited_entities = self._entities_waited_on(txn.txn_id)
        if not waited_entities:
            self._arm_timer(txn)
            return
        ideal = min(
            txn.record_for_entity(entity).ordinal
            for entity in waited_entities
        )
        target = self.strategy.choose_target(txn, ideal)
        self.metrics.timeout_rollbacks += 1
        self.force_rollback(
            txn.txn_id, target, requester=txn.txn_id, ideal_ordinal=ideal
        )
        self._blocked_since.pop(txn.txn_id, None)

    # -- site reachability ---------------------------------------------------

    def _reachable(self, site_a: int, site_b: int) -> bool:
        """Whether a message can travel between two sites right now."""
        return reachable(self.partition_groups, site_a, site_b)

    # -- lock handling with placement, messages, and timestamp rules ----------

    def _execute_lock(self, txn: Transaction, op: Lock) -> StepResult:
        if not self.replication.up_replicas(op.entity_name):
            # No replica is up (reads and writes alike need one; a read
            # from an up-but-stale one pays a catch-up in _serve_read).
            # Stall without queueing: a queued request would plant a lock
            # record no site saw.  Back off, then re-issue.
            self.metrics.unavailable_stalls += 1
            self._stall(
                txn.txn_id,
                max(
                    self._stalled_until.get(txn.txn_id, 0),
                    self._clock + UNAVAILABLE_BACKOFF,
                ),
            )
            self._blocked_since.pop(txn.txn_id, None)
            return StepResult(txn.txn_id, StepOutcome.BLOCKED, actions=[])
        home = self.view.home_of(txn.txn_id)
        owner = self.view.site_of_entity(op.entity_name)
        self.message_log.send(
            home, owner, MessageType.LOCK_REQUEST, txn.txn_id, op.entity_name
        )
        result = super()._execute_lock(txn, op)
        if result.outcome is StepOutcome.GRANTED:
            self.message_log.send(
                owner, home, MessageType.LOCK_GRANT, txn.txn_id,
                op.entity_name,
            )
            return result
        self.message_log.send(
            owner, home, MessageType.LOCK_DENIED_WAIT, txn.txn_id,
            op.entity_name,
        )
        self._arm_timer(txn)
        if result.outcome is StepOutcome.DEADLOCK:
            return result
        # No site-local deadlock; apply the timestamp rule to cross-site
        # conflicts before letting the wait stand.
        resolved = self._apply_timestamp_rule(txn, op)
        if resolved:
            return StepResult(txn.txn_id, StepOutcome.DEADLOCK, actions=[])
        return result

    # -- read-one / write-all-available ------------------------------------

    def _complete_grant(self, grant) -> None:
        super()._complete_grant(grant)
        if grant.mode is LockMode.EXCLUSIVE:
            self._acquire_replica_locks(grant.txn, grant.entity)
        else:
            self._serve_read(grant.txn, grant.entity)

    def _acquire_replica_locks(self, txn_id: TxnId, entity: str) -> None:
        """Write-all-available: one lock round-trip per extra up replica
        (the primary's round-trip is charged by :meth:`_execute_lock`)."""
        home = self.view.home_of(txn_id)
        primary = self.view.site_of_entity(entity)
        for site in self.replication.up_replicas(entity):
            if site == primary:
                continue
            self.message_log.send(
                home, site, MessageType.LOCK_REQUEST, txn_id, entity
            )
            self.message_log.send(
                site, home, MessageType.LOCK_GRANT, txn_id, entity
            )

    def _serve_read(self, txn_id: TxnId, entity: str) -> None:
        """Read-one: pick the serving replica, log the versions, and ship
        the value home if the replica is remote."""
        home = self.view.home_of(txn_id)
        fresh = self.replication.fresh_replicas(entity)
        if fresh:
            site = home if home in fresh else fresh[0]
        else:
            # Every fresh copy is down: the surviving replica replays its
            # durable log (an on-demand catch-up) before serving — the
            # available-copies recovery rule, charged as one catch-up.
            up = self.replication.up_replicas(entity)
            site = up[0] if up else self.view.site_of_entity(entity)
            self._catch_up_entity(entity, site)
        self.read_log.append(
            ReadRecord(
                txn_id,
                entity,
                site,
                self.replication.applied_version(entity, site),
                self.replication.committed_version(entity),
                self._clock,
            )
        )
        if site != home:
            self.message_log.send(
                site, home, MessageType.VALUE_SHIP, txn_id, entity
            )

    def _install(self, txn_id: TxnId, entity: str, value) -> None:
        super()._install(txn_id, entity, value)
        home = self.view.home_of(txn_id)
        applied, missed = self.replication.record_write(
            entity, home, self._reachable
        )
        primary = self.view.site_of_entity(entity)
        for site in applied:
            if site != primary:
                # The primary's value ship is charged on unlock/commit;
                # extra replicas cost one ship each.
                self.message_log.send(
                    primary, site, MessageType.VALUE_SHIP, txn_id, entity
                )
        if missed:
            self.metrics.stale_write_skips += len(missed)

    def _detect(self, requester: TxnId) -> Deadlock | None:
        """Site-local detection: only cycles whose arcs all lie on one site
        are visible (the paper's 'deadlocks involving only a single site
        may be treated using the above means')."""
        entity = self.lock_manager.waiting_on(requester)
        if entity is None:
            return None
        live = self.lock_manager.table.waits_for
        if live.cycle_through(requester) is None:
            return None  # a site-local cycle is a cycle of the full graph
        site = self.view.site_of_entity(entity)
        local = ConcurrencyGraph()
        for arc in live:
            if self.view.site_of_entity(arc.entity) == site:
                local.add_wait(*arc)
        if local.cycle_through(requester) is None:
            return None
        # Members and arcs come from the site-local graph, never the
        # wider live one: a cross-site cycle stays invisible here.
        return Deadlock(requester, local, 500)

    def _apply_timestamp_rule(self, txn: Transaction, op: Lock) -> bool:
        """Wound-wait / wait-die for conflicts crossing site boundaries.

        Returns True when the rule rolled someone back (the conflict is
        resolved or being resolved); False when waiting is allowed.
        """
        home = self.view.home_of(txn.txn_id)
        # blockers_of returns a set; iterate in entry order so wound/die
        # decisions are deterministic across processes (string hashing is
        # randomised per interpreter run).
        blockers = sorted(
            (
                self.transactions[b]
                for b in self.lock_manager.blockers_of(txn.txn_id)
            ),
            key=lambda t: t.entry_order,
        )
        cross = [
            b for b in blockers
            if self.view.home_of(b.txn_id) != home
            # A wound/die decision needs a message to (or a timestamp
            # learned from) the blocker's home; a severed link leaves the
            # wait standing for the timeout rule instead.
            and self._reachable(home, self.view.home_of(b.txn_id))
        ]
        if self.cross_site_mode == PROBE:
            # Edge-chasing detects real global deadlocks even when every
            # individual conflict is same-home, so probes are initiated on
            # every blocked request with remote reach, not only on
            # cross-home conflicts.
            return self._probe(txn)
        if not cross:
            return False
        if self.cross_site_mode == WOUND_WAIT:
            return self._wound_wait(txn, op, cross)
        return self._wait_die(txn, cross)

    def _wound_wait(
        self, txn: Transaction, op: Lock, cross: list[Transaction]
    ) -> bool:
        """Older requester wounds younger cross-site holders."""
        wounded = False
        for blocker in cross:
            if txn.entry_order < blocker.entry_order:
                if self.lock_manager.past_last_lock(blocker.txn_id):
                    # Past its last lock it cannot deadlock (paper §5) and
                    # requests nothing more: the requester's wait is bounded.
                    continue
                record = blocker.record_for_entity(op.entity_name)
                if record is None or not record.granted:
                    continue  # queued ahead, holds nothing to free
                if blocker.current_operation() is None:
                    continue  # finished; it commits (and releases) next step
                ideal = record.ordinal
                target = self.strategy.choose_target(blocker, ideal)
                self.message_log.send(
                    self.view.home_of(txn.txn_id),
                    self.view.home_of(blocker.txn_id),
                    MessageType.WOUND,
                    blocker.txn_id,
                    op.entity_name,
                )
                self.force_rollback(
                    blocker.txn_id, target, requester=txn.txn_id,
                    ideal_ordinal=ideal,
                )
                wounded = True
        return wounded

    def _wait_die(self, txn: Transaction, cross: list[Transaction]) -> bool:
        """Younger requester dies (partially) instead of waiting."""
        if all(txn.entry_order < b.entry_order for b in cross):
            return False  # older than every cross-site blocker: may wait
        waited = self._entities_waited_on(txn.txn_id)
        if waited:
            ideal = min(
                txn.record_for_entity(entity).ordinal for entity in waited
            )
        else:
            # Nothing waits on us: peel our most recent lock so retrying
            # makes progress for the system rather than spinning.
            granted = [r for r in txn.lock_records if r.granted]
            ideal = granted[-1].ordinal if granted else 0
        target = self.strategy.choose_target(txn, ideal)
        self.force_rollback(
            txn.txn_id, target, requester=txn.txn_id, ideal_ordinal=ideal
        )
        return True

    def _probe(self, txn: Transaction) -> bool:
        """Edge-chasing global deadlock detection (Chandy–Misra–Haas).

        A blocked transaction initiates a probe that travels along
        waits-for edges; a probe arriving back at its initiator proves a
        global cycle.  The traversal is simulated eagerly on the global
        graph, but the message log charges one PROBE per edge whose
        endpoints are homed at different sites — the real cost the paper's
        §3.3 is concerned with.  Detected deadlocks are resolved by
        partially rolling back the initiator (the CMH convention), far
        enough to release everything the cycle waits on it for.
        """
        live = self.lock_manager.table.waits_for
        # BFS along waiter -> blocker edges starting from the initiator.
        adjacency: dict[TxnId, set[TxnId]] = {}
        for arc in live:
            adjacency.setdefault(arc.waiter, set()).add(arc.holder)
        initiator = txn.txn_id
        seen: set[TxnId] = set()
        frontier = [initiator]
        reached_self = False
        while frontier:
            current = frontier.pop()
            for blocker in adjacency.get(current, ()):  # probe hop
                current_home = self.view.home_of(current)
                blocker_home = self.view.home_of(blocker)
                if not self._reachable(current_home, blocker_home):
                    # The probe dies at the partition boundary; cycles
                    # crossing it stay invisible until the timeout rule.
                    continue
                self.message_log.send(
                    current_home,
                    blocker_home,
                    MessageType.PROBE,
                    initiator,
                )
                if blocker == initiator:
                    reached_self = True
                elif blocker not in seen:
                    seen.add(blocker)
                    frontier.append(blocker)
        if not reached_self:
            return False
        # The probe has collected the cycle membership on its way around
        # (an extended-CMH variant), so the initiator can apply the same
        # victim optimisation as the centralised system — the paper's
        # point that distribution does not invalidate rollback
        # optimisation.  One extra notify per victim is charged below via
        # _notify_rollback.
        deadlock = Deadlock(initiator, live, 500)
        self.metrics.deadlocks += 1
        if self.bus.wants(EventKind.DEADLOCK):
            self.bus.publish(
                EventKind.DEADLOCK,
                initiator,
                cycles=[list(c) for c in deadlock.cycles],
                probe=True,
            )
        self._resolve(deadlock)
        return True

    def force_rollback(
        self,
        txn_id: TxnId,
        target_ordinal: int,
        requester: TxnId,
        ideal_ordinal: int | None = None,
    ) -> None:
        """Every distributed rollback ships release notifications to the
        sites owning the released entities before the rollback applies,
        and charges the victim's retry ladder (backoff, then escalation to
        total restart once the budget is spent)."""
        target_ordinal = self._penalise_retry(txn_id, target_ordinal)
        self._notify_rollback(self.transaction(txn_id), target_ordinal)
        super().force_rollback(
            txn_id, target_ordinal, requester, ideal_ordinal
        )

    def shed(self, txn_id: TxnId, reason: str | None = None) -> None:
        """Shed with remote bookkeeping: notify owning sites of the lock
        releases and drop the victim's distributed retry state."""
        txn = self.transaction(txn_id)
        self._notify_rollback(txn, 0)
        if reason is None:
            super().shed(txn_id)
        else:
            super().shed(txn_id, reason)
        self._drop_retry_state(txn_id)

    def _notify_rollback(self, txn: Transaction, target: int) -> None:
        """Ship rollback notifications to remote sites whose entities the
        rollback releases (the §3.3 communication cost of partial
        rollback)."""
        home = self.view.home_of(txn.txn_id)
        for record in txn.records_from(target):
            if not record.granted:
                continue
            owner = self.view.site_of_entity(record.entity)
            self.message_log.send(
                home, owner, MessageType.ROLLBACK_NOTIFY, txn.txn_id,
                record.entity,
            )

    # -- unlock/commit messages -------------------------------------------------

    def _execute_unlock(self, txn: Transaction, op) -> None:
        home = self.view.home_of(txn.txn_id)
        owner = self.view.site_of_entity(op.entity_name)
        mode = self.lock_manager.holds(txn.txn_id, op.entity_name)
        super()._execute_unlock(txn, op)
        self.message_log.send(
            home, owner, MessageType.UNLOCK, txn.txn_id, op.entity_name
        )
        if mode is LockMode.EXCLUSIVE:
            self.message_log.send(
                home, owner, MessageType.VALUE_SHIP, txn.txn_id,
                op.entity_name,
            )

    def _commit(self, txn: Transaction) -> None:
        home = self.view.home_of(txn.txn_id)
        held = self.lock_manager.locks_held(txn.txn_id)
        super()._commit(txn)
        for entity, mode in held.items():
            owner = self.view.site_of_entity(entity)
            self.message_log.send(
                home, owner, MessageType.UNLOCK, txn.txn_id, entity
            )
            if mode is LockMode.EXCLUSIVE:
                self.message_log.send(
                    home, owner, MessageType.VALUE_SHIP, txn.txn_id, entity
                )
        self._drop_retry_state(txn.txn_id)

    def _drop_retry_state(self, txn_id: TxnId) -> None:
        """Forget a finished transaction's wait timer and retry ladder."""
        self._blocked_since.pop(txn_id, None)
        self._timer_place.pop(txn_id, None)
        self._unblocked_at.pop(txn_id, None)
        self._retry_attempts.pop(txn_id, None)
        self._stalled_until.pop(txn_id, None)

    # -- site liveness and partitions (driven by the fault injector) ------

    def site_failed(self, site: int) -> None:
        """Mark *site* down; its replicas leave the read and write sets."""
        if not self.replication.is_up(site):
            return
        self.replication.site_up[site] = False
        self.bus.publish(EventKind.SITE_FAILED, site=site)

    def site_recovered(self, site: int) -> None:
        """Mark *site* up again and catch its replicas up before they
        rejoin the read set."""
        if self.replication.is_up(site):
            return
        self.replication.site_up[site] = True
        self.bus.publish(EventKind.SITE_RECOVERED, site=site)
        self._catch_up_site(site)

    def on_partition(self, groups: list[set[int]]) -> None:
        """A network partition: sites in different groups cannot talk,
        nor can a site no group names (see
        :func:`~repro.distributed.network.reachable`)."""
        self.partition_groups = groups
        if self.bus.wants(EventKind.PARTITION_START):
            self.bus.publish(
                EventKind.PARTITION_START,
                groups=[sorted(group) for group in groups],
            )

    def on_heal(self) -> None:
        """The partition heals: restore links, catch cut-off replicas up."""
        self.partition_groups = None
        self.bus.publish(EventKind.PARTITION_HEAL)
        for site in sorted(self.replication.behind):
            if self.replication.is_up(site):
                self._catch_up_site(site)

    def _catch_up_site(self, site: int) -> None:
        caught_up = 0
        for entity in self.replication.debt(site):
            donor = self._donor_for(entity, site)
            if donor is None:
                continue  # no reachable fresh peer; retry at next heal
            self._catch_up_entity(entity, site, donor=donor)
            caught_up += 1
        if caught_up:
            self.bus.publish(
                EventKind.REPLICA_CATCHUP, site=site, entities=caught_up
            )

    def _donor_for(self, entity: str, site: int) -> int | None:
        for peer in self.replication.fresh_replicas(entity):
            if peer != site and self._reachable(peer, site):
                return peer
        return None

    def _catch_up_entity(
        self, entity: str, site: int, donor: int | None = None
    ) -> None:
        if donor is None:
            donor = self._donor_for(entity, site)
        self.replication.catch_up(entity, site)
        self.metrics.replica_catchups += 1
        if donor is not None:
            self.message_log.send(
                donor, site, MessageType.REPLICA_CATCHUP, "", entity
            )
