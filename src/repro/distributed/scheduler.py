"""Distributed concurrency control (§3.3).

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

Message accounting follows every remote interaction: lock request/grant
round-trips, value shipping for remote exclusive updates, wounds, and
rollback notifications.
"""

from __future__ import annotations

import random

from ..admission.breaker import BreakerState, CircuitBreaker
from ..core.detection import Deadlock
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.transaction import Transaction, TransactionProgram, TxnStatus
from ..core.operations import Lock
from ..graphs.concurrency import ConcurrencyGraph
from ..locking.modes import LockMode
from ..observability.events import EventKind
from ..storage.database import Database
from .network import MessageLog, MessageType
from .partition import Partition

TxnId = str

WOUND_WAIT = "wound-wait"
WAIT_DIE = "wait-die"
PROBE = "probe"


class DistributedScheduler(Scheduler):
    """A scheduler whose entities live on multiple sites.

    Parameters
    ----------
    database, strategy, policy:
        As for :class:`~repro.core.scheduler.Scheduler`; the policy applies
        to site-local deadlocks only.
    partition:
        Entity and transaction placement.
    cross_site_mode:
        ``"wound-wait"`` (default) or ``"wait-die"``.
    wait_timeout:
        Engine steps a transaction may stay blocked before the timeout
        mechanism frees its contested locks.  Must be positive.
    retry_budget:
        How many times a transaction may be rolled back by the
        distributed machinery (die, wound, timeout, local victim) before
        the ladder escalates it to a *total* restart — the livelock
        watchdog in the spirit of Theorem 2.  Escalation resets the
        count.
    backoff_base / backoff_cap:
        Every retry stalls the victim for
        ``min(cap, base * 2**(attempt-1)) + jitter`` clock steps before
        it may be scheduled again (jitter in ``[0, base)``), replacing
        the previous unbounded immediate retry.  A stalled transaction
        yields only while a competitor can use the time; when nothing
        else is runnable the backoff ends early (idling would help
        nobody).
    backoff_seed:
        Seed of the private jitter generator — same seed, same jitter
        sequence, fully reproducible runs.
    breaker_threshold:
        Denied/rolled-back requests within ``breaker_window`` clock steps
        that trip a site's circuit breaker (``0`` disables breakers, the
        default).  While a site's breaker is OPEN, lock requests against
        its entities are rerouted to degradation — the requester totally
        restarts (abandoning held progress) and stalls until the breaker
        half-opens — *without* consuming its retry budget: the site is
        the problem, not the transaction.
    breaker_window / breaker_cooldown:
        Sliding failure-count window and OPEN-state cool-down, in clock
        steps.
    """

    def __init__(
        self,
        database: Database,
        partition: Partition,
        strategy="mcs",
        policy="ordered-min-cost",
        cross_site_mode: str = WOUND_WAIT,
        wait_timeout: int = 200,
        check_consistency: bool = True,
        retry_budget: int = 8,
        backoff_base: int = 2,
        backoff_cap: int = 64,
        backoff_seed: int = 0,
        breaker_threshold: int = 0,
        breaker_window: int = 50,
        breaker_cooldown: int = 100,
    ) -> None:
        super().__init__(
            database,
            strategy=strategy,
            policy=policy,
            check_consistency=check_consistency,
        )
        if cross_site_mode not in (WOUND_WAIT, WAIT_DIE, PROBE):
            raise ValueError(
                f"cross_site_mode must be {WOUND_WAIT!r}, {WAIT_DIE!r} or "
                f"{PROBE!r}"
            )
        if wait_timeout < 1:
            raise ValueError("wait_timeout must be positive")
        if retry_budget < 1:
            raise ValueError("retry_budget must be positive")
        if backoff_base < 1 or backoff_cap < backoff_base:
            raise ValueError(
                "backoff must satisfy 1 <= backoff_base <= backoff_cap"
            )
        self.partition = partition
        self.cross_site_mode = cross_site_mode
        self.wait_timeout = wait_timeout
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")
        self.breaker_threshold = breaker_threshold
        self.breaker_window = breaker_window
        self.breaker_cooldown = breaker_cooldown
        #: Per-site circuit breakers, created on first request to a site
        #: (only when ``breaker_threshold > 0``).
        self.breakers: dict[str, CircuitBreaker] = {}
        self.message_log = MessageLog()
        #: Optional reachability predicate ``(site_a, site_b) -> bool``
        #: installed by the partition machinery (see
        #: :meth:`repro.distributed.replication.ReplicatedScheduler.on_partition`).
        #: When set, the timestamp rule and probes skip blockers that are
        #: unreachable from the requester's home — a wound or probe
        #: message cannot cross a severed link, so those conflicts stand
        #: until the wait timeout clears them.
        self.link_filter = None
        self._blocked_since: dict[TxnId, int] = {}
        self._retry_attempts: dict[TxnId, int] = {}
        self._stalled_until: dict[TxnId, int] = {}
        self._backoff_rng = random.Random(backoff_seed)
        self._clock = 0

    # -- registration with placement validation ------------------------------

    def register(self, program: TransactionProgram) -> Transaction:
        for entity in program.entities_accessed:
            self.partition.site_of_entity(entity)  # raises if unassigned
        self.partition.home_of(program.txn_id)
        return super().register(program)

    # -- retry backoff ------------------------------------------------------

    def runnable(self) -> list[TxnId]:
        """READY transactions, minus those still serving a retry backoff.

        A stalled transaction yields only while a competitor can use the
        time; when nothing else is runnable its backoff ends early, so
        every driver (engine or direct stepping) keeps making progress.
        """
        ready = super().runnable()
        if not self._stalled_until:
            return ready
        active = [
            txn_id
            for txn_id in ready
            if self._stalled_until.get(txn_id, 0) <= self._clock
        ]
        return active if active else ready

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
        if attempts > self.retry_budget and target_ordinal > 0:
            self.metrics.bump("restart_escalations")
            self._retry_attempts[txn_id] = 0
            target_ordinal = 0
        delay = min(
            self.backoff_cap,
            self.backoff_base * (2 ** min(attempts - 1, 30)),
        ) + self._backoff_rng.randrange(self.backoff_base)
        self._stalled_until[txn_id] = self._clock + delay
        self.metrics.bump("backoff_stalls")
        return target_ordinal

    # -- engine hook: clock and timeouts -----------------------------------

    def on_engine_step(self, step: int) -> None:
        """Advance the wait clock and fire overdue timeouts.

        Called once per engine iteration (including idle iterations when
        everything is blocked).
        """
        self._clock += 1
        for txn_id, until in list(self._stalled_until.items()):
            if until <= self._clock:
                del self._stalled_until[txn_id]
        for txn_id, since in list(self._blocked_since.items()):
            txn = self.transactions.get(txn_id)
            if txn is None or txn.status is not TxnStatus.BLOCKED:
                self._blocked_since.pop(txn_id, None)
                continue
            if self._clock - since >= self.wait_timeout:
                self._timeout(txn)

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
            self._blocked_since[txn.txn_id] = self._clock
            return
        ideal = min(
            txn.record_for_entity(entity).ordinal
            for entity in waited_entities
        )
        target = self.strategy.choose_target(txn, ideal)
        self.metrics.bump("timeout_rollbacks")
        self.force_rollback(
            txn.txn_id, target, requester=txn.txn_id, ideal_ordinal=ideal
        )
        self._blocked_since.pop(txn.txn_id, None)

    # -- site reachability ---------------------------------------------------

    def _reachable(self, site_a: int, site_b: int) -> bool:
        """Whether a message can travel between two sites right now."""
        if site_a == site_b:
            return True
        if self.link_filter is None:
            return True
        return self.link_filter(site_a, site_b)

    # -- lock handling with placement, messages, and timestamp rules ----------

    def _breaker_for(self, site: str) -> CircuitBreaker | None:
        """The (lazily created) breaker guarding *site*, if enabled."""
        if not self.breaker_threshold:
            return None
        if site not in self.breakers:
            self.breakers[site] = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                window=self.breaker_window,
                cooldown=self.breaker_cooldown,
            )
        return self.breakers[site]

    def _publish_breaker(
        self, site: str, breaker: CircuitBreaker, before: BreakerState
    ) -> None:
        """Publish a BREAKER_TRANSITION if the last interaction moved the
        breaker's state machine (transitions happen inside allow /
        record_success / record_failure, so callers snapshot the state
        before the call and report here)."""
        if breaker.state is not before and self.bus.wants(
            EventKind.BREAKER_TRANSITION
        ):
            self.bus.publish(
                EventKind.BREAKER_TRANSITION,
                site=site,
                before=str(before),
                after=str(breaker.state),
                opened_count=breaker.opened_count,
            )

    def _reject_open_site(
        self, txn: Transaction, breaker: CircuitBreaker, site: str
    ) -> StepResult:
        """Degradation path for a request against an OPEN site.

        The requester abandons its held progress with a total restart
        (bypassing :meth:`_penalise_retry` — the site is at fault, not the
        transaction, so no retry budget is charged) and stalls until the
        breaker half-opens, so it does not spin re-issuing the request
        against a site that cannot answer.
        """
        self.metrics.bump("breaker_rejections")
        if self.bus.wants(EventKind.BREAKER_REJECT):
            self.bus.publish(
                EventKind.BREAKER_REJECT,
                txn.txn_id,
                site=site,
                reopen_at=breaker.reopen_at(),
            )
        if txn.lock_records:
            self._notify_rollback(txn, 0)
            Scheduler.force_rollback(
                self, txn.txn_id, 0, requester=txn.txn_id, ideal_ordinal=0
            )
        self._stalled_until[txn.txn_id] = max(
            self._stalled_until.get(txn.txn_id, 0), breaker.reopen_at()
        )
        self._blocked_since.pop(txn.txn_id, None)
        return StepResult(txn.txn_id, StepOutcome.BLOCKED, actions=[])

    def _execute_lock(self, txn: Transaction, op: Lock) -> StepResult:
        home = self.partition.home_of(txn.txn_id)
        owner = self.partition.site_of_entity(op.entity_name)
        breaker = self._breaker_for(owner)
        if breaker is not None:
            before = breaker.state
            allowed = breaker.allow(self._clock)
            self._publish_breaker(owner, breaker, before)
            if not allowed:
                return self._reject_open_site(txn, breaker, owner)
        self.message_log.send(
            home, owner, MessageType.LOCK_REQUEST, txn.txn_id, op.entity_name
        )
        result = super()._execute_lock(txn, op)
        if result.outcome is StepOutcome.GRANTED:
            if breaker is not None:
                before = breaker.state
                breaker.record_success(self._clock)
                self._publish_breaker(owner, breaker, before)
            self.message_log.send(
                owner, home, MessageType.LOCK_GRANT, txn.txn_id,
                op.entity_name,
            )
            return result
        if breaker is not None:
            before = breaker.state
            tripped = breaker.record_failure(self._clock)
            self._publish_breaker(owner, breaker, before)
            if tripped:
                self.metrics.bump("breaker_opens")
        self.message_log.send(
            owner, home, MessageType.LOCK_DENIED_WAIT, txn.txn_id,
            op.entity_name,
        )
        self._blocked_since[txn.txn_id] = self._clock
        if result.outcome is StepOutcome.DEADLOCK:
            return result
        # No site-local deadlock; apply the timestamp rule to cross-site
        # conflicts before letting the wait stand.
        resolved = self._apply_timestamp_rule(txn, op)
        if resolved:
            return StepResult(txn.txn_id, StepOutcome.DEADLOCK, actions=[])
        return result

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
        site = self.partition.site_of_entity(entity)
        local = ConcurrencyGraph()
        for arc in live:
            if self.partition.site_of_entity(arc.entity) == site:
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
        home = self.partition.home_of(txn.txn_id)
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
            if self.partition.home_of(b.txn_id) != home
            # A wound/die decision needs a message to (or a timestamp
            # learned from) the blocker's home; a severed link leaves the
            # wait standing for the timeout rule instead.
            and self._reachable(home, self.partition.home_of(b.txn_id))
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
                if blocker.txn_id in self.preemption_immune:
                    # The starvation watchdog aged this holder; wounding it
                    # would violate its rollback bound.  The requester
                    # waits instead (the timeout ladder still guarantees
                    # progress).
                    continue
                record = blocker.record_for_entity(op.entity_name)
                if record is None or not record.granted:
                    continue  # queued ahead, holds nothing to free
                if blocker.current_operation() is None:
                    continue  # finished; it commits (and releases) next step
                ideal = record.ordinal
                target = self.strategy.choose_target(blocker, ideal)
                self.message_log.send(
                    self.partition.home_of(txn.txn_id),
                    self.partition.home_of(blocker.txn_id),
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
                current_home = self.partition.home_of(current)
                blocker_home = self.partition.home_of(blocker)
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
        self.metrics.bump("deadlocks")
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
        self._blocked_since.pop(txn_id, None)
        self._retry_attempts.pop(txn_id, None)
        self._stalled_until.pop(txn_id, None)

    def _notify_rollback(self, txn: Transaction, target: int) -> None:
        """Ship rollback notifications to remote sites whose entities the
        rollback releases (the §3.3 communication cost of partial
        rollback)."""
        home = self.partition.home_of(txn.txn_id)
        for record in txn.records_from(target):
            if not record.granted:
                continue
            owner = self.partition.site_of_entity(record.entity)
            self.message_log.send(
                home, owner, MessageType.ROLLBACK_NOTIFY, txn.txn_id,
                record.entity,
            )

    # -- unlock/commit messages -------------------------------------------------

    def _execute_unlock(self, txn: Transaction, op) -> None:
        home = self.partition.home_of(txn.txn_id)
        owner = self.partition.site_of_entity(op.entity_name)
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
        home = self.partition.home_of(txn.txn_id)
        held = self.lock_manager.locks_held(txn.txn_id)
        super()._commit(txn)
        for entity, mode in held.items():
            owner = self.partition.site_of_entity(entity)
            self.message_log.send(
                home, owner, MessageType.UNLOCK, txn.txn_id, entity
            )
            if mode is LockMode.EXCLUSIVE:
                self.message_log.send(
                    home, owner, MessageType.VALUE_SHIP, txn.txn_id, entity
                )
        self._blocked_since.pop(txn.txn_id, None)
        self._retry_attempts.pop(txn.txn_id, None)
        self._stalled_until.pop(txn.txn_id, None)
