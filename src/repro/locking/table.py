"""The lock table: holders, FIFO wait queues, grant and release logic.

The table is deliberately policy-free: it answers "who holds what", "who
waits for what", and applies the shared/exclusive compatibility matrix with
first-in-first-out granting.  Deadlock detection and resolution live above
it (:mod:`repro.core.detection`, :mod:`repro.core.scheduler`).

Wait edges follow the paper's orientation: if transaction ``w`` is waiting
to lock an entity locked by ``h``, the edge is ``h -> w`` (holder to
waiter), labeled with the entity.

The table also *continuously maintains* the waits-for graph (the paper's
premise that makes detection-at-every-conflict affordable): every mutation
of an entity's lock state refreshes that entity's edges in
:attr:`LockTable.waits_for`, a
:class:`~repro.graphs.concurrency.ConcurrencyGraph`.  Detection then
searches the live graph in place; :meth:`LockTable.wait_edges` remains
the from-scratch scan the ``graph-consistency`` invariant checks it
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ..errors import LockError
from ..graphs.concurrency import ConcurrencyGraph
from .modes import LockMode

TxnId = str
EntityName = str


@dataclass
class QueuedRequest:
    """A lock request waiting in an entity's FIFO queue."""

    txn: TxnId
    mode: LockMode
    seq: int


@dataclass
class Grant:
    """A lock grant produced by :meth:`LockTable.release` wake-ups."""

    txn: TxnId
    entity: EntityName
    mode: LockMode


@dataclass
class _EntityLockState:
    holders: dict[TxnId, LockMode] = field(default_factory=dict)
    queue: list[QueuedRequest] = field(default_factory=list)


class LockTable:
    """Shared/exclusive lock table with FIFO wait queues.

    Granting discipline: a request is granted immediately iff it is
    compatible with every current holder *and* no request is already queued
    (strict FIFO — later compatible requests do not overtake earlier
    incompatible ones, which prevents writer starvation).  On release, the
    queue is drained from the front while the head request is grantable; a
    run of consecutive shared requests is granted together.
    """

    def __init__(self) -> None:
        self._locks: dict[EntityName, _EntityLockState] = {}
        self._held_by_txn: dict[TxnId, dict[EntityName, LockMode]] = {}
        self._waiting: dict[TxnId, EntityName] = {}
        self._seq = 0
        #: Continuously maintained waits-for graph; every mutation of an
        #: entity's lock state refreshes that entity's edges, so detection
        #: never rescans the table.
        self.waits_for = ConcurrencyGraph()

    def _refresh_waits(self, entity: EntityName) -> None:
        """Re-derive *entity*'s waits-for edges from its current state."""
        state = self._locks.get(entity)
        if state is None:
            self.waits_for.refresh_entity(entity, {}, ())
        else:
            self.waits_for.refresh_entity(entity, state.holders, state.queue)

    # -- inspection -------------------------------------------------------

    def holders(self, entity: EntityName) -> dict[TxnId, LockMode]:
        """Current holders of *entity* (txn -> mode); empty dict if unlocked."""
        state = self._locks.get(entity)
        return dict(state.holders) if state else {}

    def queue(self, entity: EntityName) -> list[QueuedRequest]:
        """Waiting requests on *entity*, in FIFO order."""
        state = self._locks.get(entity)
        return list(state.queue) if state else []

    def locks_held(self, txn: TxnId) -> dict[EntityName, LockMode]:
        """All locks *txn* currently holds (entity -> mode)."""
        return dict(self._held_by_txn.get(txn, {}))

    def holds(self, txn: TxnId, entity: EntityName) -> LockMode | None:
        """Mode in which *txn* holds *entity*, or ``None``."""
        return self._held_by_txn.get(txn, {}).get(entity)

    def waiting_on(self, txn: TxnId) -> EntityName | None:
        """Entity *txn* is currently queued for, or ``None`` if not waiting."""
        return self._waiting.get(txn)

    def blockers_of(self, txn: TxnId) -> set[TxnId]:
        """Transactions whose locks block *txn*'s queued request.

        A waiter is blocked by every holder whose lock is incompatible with
        the waiter's requested mode, and — because granting is FIFO — by
        every *earlier queued* request with an incompatible mode (the later
        request cannot be granted before the earlier one).
        """
        entity = self._waiting.get(txn)
        if entity is None:
            return set()
        state = self._locks[entity]
        position = next(
            i for i, r in enumerate(state.queue) if r.txn == txn
        )
        request = state.queue[position]
        blockers = {
            holder
            for holder, mode in state.holders.items()
            if not mode.compatible_with(request.mode)
        }
        for earlier in state.queue[:position]:
            if not earlier.mode.compatible_with(request.mode):
                blockers.add(earlier.txn)
        return blockers

    def wait_edges(self) -> Iterator[tuple[TxnId, TxnId, EntityName]]:
        """Yield ``(holder, waiter, entity)`` triples (paper orientation).

        Includes holder->waiter edges for lock conflicts and
        earlier-waiter->later-waiter edges for incompatible queued requests
        (FIFO order blocking), so queue-induced deadlocks are visible.
        Queue edges only matter with shared locks: with exclusive locks
        only, every deadlock already shows up as a cycle of conflict
        edges (see :meth:`conflict_edges`).
        """
        yield from self.conflict_edges()
        for entity, state in self._locks.items():
            for position, request in enumerate(state.queue):
                for earlier in state.queue[:position]:
                    if not earlier.mode.compatible_with(request.mode):
                        yield earlier.txn, request.txn, entity

    def conflict_edges(self) -> Iterator[tuple[TxnId, TxnId, EntityName]]:
        """Holder->waiter edges for genuine lock conflicts only — the
        paper's relation (Theorem 1's forest criterion applies to this
        subgraph)."""
        for entity, state in self._locks.items():
            for request in state.queue:
                for holder, mode in state.holders.items():
                    if not mode.compatible_with(request.mode):
                        yield holder, request.txn, entity

    def all_waiting(self) -> Iterable[TxnId]:
        """Transactions currently queued on some entity."""
        return self._waiting.keys()

    # -- requests -----------------------------------------------------------

    def request(self, txn: TxnId, entity: EntityName, mode: LockMode) -> bool:
        """Request a lock; returns ``True`` if granted immediately.

        When not granted, the request is appended to the entity's FIFO queue
        and ``False`` is returned; the caller is responsible for running
        deadlock detection.  Re-locking an entity already held (including
        upgrade attempts) raises :class:`~repro.errors.LockError`: in the
        paper's model a transaction locks each entity exactly once, in the
        strongest mode it will need.
        """
        if self.holds(txn, entity) is not None:
            raise LockError(
                f"{txn} already holds a lock on {entity!r}; the model does "
                f"not permit re-locking or upgrades"
            )
        if txn in self._waiting:
            raise LockError(f"{txn} is already waiting on {self._waiting[txn]!r}")
        state = self._locks.setdefault(entity, _EntityLockState())
        grantable = not state.queue and all(
            held.compatible_with(mode) for held in state.holders.values()
        )
        if grantable:
            # No queue, so the entity carries no waits-for edges either
            # before or after the grant: nothing to refresh.
            self._grant(txn, entity, mode)
            return True
        self._seq += 1
        state.queue.append(QueuedRequest(txn, mode, self._seq))
        self._waiting[txn] = entity
        self._refresh_waits(entity)
        return False

    def _grant(self, txn: TxnId, entity: EntityName, mode: LockMode) -> None:
        state = self._locks.setdefault(entity, _EntityLockState())
        state.holders[txn] = mode
        self._held_by_txn.setdefault(txn, {})[entity] = mode

    # -- releases -----------------------------------------------------------

    def release(self, txn: TxnId, entity: EntityName) -> list[Grant]:
        """Release *txn*'s lock on *entity* and wake grantable waiters.

        Returns the list of :class:`Grant` objects for requests promoted
        from the queue (possibly several consecutive shared requests).
        """
        if self.holds(txn, entity) is None:
            raise LockError(f"{txn} holds no lock on {entity!r}")
        state = self._locks[entity]
        del state.holders[txn]
        del self._held_by_txn[txn][entity]
        if not self._held_by_txn[txn]:
            del self._held_by_txn[txn]
        grants = self._drain(entity)
        self._refresh_waits(entity)
        return grants

    def release_many(
        self, txn: TxnId, entities: Iterable[EntityName]
    ) -> list[Grant]:
        """Release several of *txn*'s locks in one batched pass.

        All holderships are dropped first, then each affected entity's
        queue is drained and its waits-for edges refreshed exactly once —
        the single-pass wake-up a rollback's released entities get per
        engine step.  Grant order (and thus the downstream wake-up order)
        matches sequential :meth:`release` calls over the same list.
        Duplicate entries release once (a release is not re-issuable).
        """
        entities = list(dict.fromkeys(entities))
        for entity in entities:
            if self.holds(txn, entity) is None:
                raise LockError(f"{txn} holds no lock on {entity!r}")
        held = self._held_by_txn.get(txn, {})
        for entity in entities:
            del self._locks[entity].holders[txn]
            del held[entity]
        if txn in self._held_by_txn and not self._held_by_txn[txn]:
            del self._held_by_txn[txn]
        grants: list[Grant] = []
        for entity in entities:
            grants.extend(self._drain(entity))
            self._refresh_waits(entity)
        return grants

    def _drain(self, entity: EntityName) -> list[Grant]:
        """Grant queued requests from the front while compatible."""
        state = self._locks.get(entity)
        if state is None:
            return []
        grants: list[Grant] = []
        while state.queue:
            head = state.queue[0]
            if not all(
                held.compatible_with(head.mode)
                for held in state.holders.values()
            ):
                break
            state.queue.pop(0)
            del self._waiting[head.txn]
            self._grant(head.txn, entity, head.mode)
            grants.append(Grant(head.txn, entity, head.mode))
        if not state.queue and not state.holders:
            del self._locks[entity]
        return grants

    def cancel_wait(self, txn: TxnId) -> list[Grant]:
        """Withdraw *txn*'s queued request (it is being rolled back).

        Removing a queued request can unblock requests behind it, so the
        queue is re-drained and any resulting grants are returned.
        """
        entity = self._waiting.pop(txn, None)
        if entity is None:
            return []
        state = self._locks[entity]
        state.queue = [r for r in state.queue if r.txn != txn]
        grants = self._drain(entity)
        self._refresh_waits(entity)
        return grants

    def release_all(self, txn: TxnId) -> list[Grant]:
        """Release every lock *txn* holds and cancel any queued request."""
        grants = self.cancel_wait(txn)
        grants.extend(
            self.release_many(txn, list(self._held_by_txn.get(txn, {})))
        )
        return grants
