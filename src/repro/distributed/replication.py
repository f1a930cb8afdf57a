"""Available-copies replication over a consistent-hash view.

Each entity lives on the ``rf`` distinct sites of its
:meth:`~repro.distributed.views.View.replica_sites` set (primary first).
The scheduler follows the classic *available copies* discipline:

* **read-one** — a shared lock is served by any *up, fresh* replica
  (preferring the reader's home site, then the primary); ``fresh`` means
  the replica has applied every committed write of the entity.
* **write-all-available** — an exclusive update is applied at every up,
  reachable replica; replicas that are down or cut off by a partition
  miss the write and are marked *stale*.
* **catch-up before rejoin** — a recovering (or healed) replica copies
  the missed versions from a fresh peer *before* it re-enters the read
  set; until then it serves no reads.

The bookkeeping is deliberately version-counter shaped: the
:class:`ReplicaDirectory` tracks one global committed version per entity
and one applied version per ``(entity, site)``.  The
``no-stale-read`` oracle (:mod:`repro.verification.oracles`) replays the
scheduler's :attr:`ReplicatedScheduler.read_log` and fails the run the
moment any read was served by a replica whose applied version lagged the
committed version — the safety half of the available-copies argument.

The view is fixed for the whole run (no site joins or leaves), so a
replica falls behind only while its site is down or cut off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.scheduler import StepOutcome, StepResult
from ..core.transaction import Transaction
from ..core.operations import Lock
from ..locking.modes import LockMode
from ..observability.events import EventKind
from ..storage.database import Database
from .network import MessageType
from .scheduler import DistributedScheduler
from .views import View

TxnId = str

#: Steps a transaction stalls after hitting an unavailable entity before
#: it retries the request (sites recover on the same clock, so a short
#: constant beats an exponential ladder here).
UNAVAILABLE_BACKOFF = 8


@dataclass(frozen=True)
class ReadRecord:
    """One served read: which replica answered, at which versions.

    ``applied`` is the serving replica's applied version and
    ``committed`` the entity's global committed version *at serve time*;
    the no-stale-read oracle asserts ``applied == committed`` for every
    record.
    """

    txn_id: str
    entity: str
    site: int
    applied: int
    committed: int
    clock: int


class ReplicaDirectory:
    """Pure replica bookkeeping: versions, liveness, and debt.

    The directory never sends messages or publishes events — the
    scheduler orchestrates side effects so the accounting stays in one
    place.  ``behind[site]`` is the set of entities whose writes the
    site missed while down or partitioned (its catch-up work list).
    """

    def __init__(self, view: View) -> None:
        self.view = view
        self.site_up: dict[int, bool] = {s: True for s in view.sites}
        #: entity -> committed global version (0 until first write).
        self.committed: dict[str, int] = {}
        #: (entity, site) -> applied version at that replica.
        self.applied: dict[tuple[str, int], int] = {}
        #: site -> entities with missed writes (catch-up work list).
        self.behind: dict[int, set[str]] = {}

    def is_up(self, site: int) -> bool:
        return self.site_up.get(site, True)

    def committed_version(self, entity: str) -> int:
        return self.committed.get(entity, 0)

    def applied_version(self, entity: str, site: int) -> int:
        return self.applied.get((entity, site), 0)

    def fresh(self, entity: str, site: int) -> bool:
        """The replica has applied every committed write of *entity*."""
        return self.applied_version(entity, site) == self.committed_version(
            entity
        )

    def up_replicas(self, entity: str) -> list[int]:
        """Up replica sites of *entity*, primary first (write targets)."""
        return [
            site
            for site in self.view.replica_sites(entity)
            if self.is_up(site)
        ]

    def fresh_replicas(self, entity: str) -> list[int]:
        """Up *and fresh* replica sites, primary first (read targets)."""
        return [
            site for site in self.up_replicas(entity) if self.fresh(entity, site)
        ]

    def record_write(
        self, entity: str, reachable_from: int, link_ok
    ) -> tuple[list[int], list[int]]:
        """Commit one write of *entity*: bump the committed version and
        apply it at every up replica reachable from *reachable_from*.

        Returns ``(applied_sites, missed_sites)``; missed replicas are
        added to their site's catch-up work list.
        """
        version = self.committed_version(entity) + 1
        self.committed[entity] = version
        applied_sites: list[int] = []
        missed_sites: list[int] = []
        for site in self.view.replica_sites(entity):
            if self.is_up(site) and link_ok(reachable_from, site):
                # A stale replica accepts new writes but stays stale:
                # only catch-up closes the gap wholesale.
                if self.fresh_version_gap(entity, site) == 1:
                    self.applied[(entity, site)] = version
                    applied_sites.append(site)
                    continue
            missed_sites.append(site)
            self.behind.setdefault(site, set()).add(entity)
        return applied_sites, missed_sites

    def fresh_version_gap(self, entity: str, site: int) -> int:
        """How many committed versions the replica is behind (including
        the one just committed); 1 means it was fresh before this write."""
        return self.committed_version(entity) - self.applied_version(
            entity, site
        )

    def catch_up(self, entity: str, site: int) -> None:
        """Apply every missed version of *entity* at *site*."""
        self.applied[(entity, site)] = self.committed_version(entity)
        debt = self.behind.get(site)
        if debt is not None:
            debt.discard(entity)
            if not debt:
                del self.behind[site]

    def debt(self, site: int) -> list[str]:
        """Entities *site* must catch up on, in deterministic order."""
        return sorted(self.behind.get(site, ()))


class ReplicatedScheduler(DistributedScheduler):
    """Available-copies replication on top of the distributed scheduler.

    Parameters are those of :class:`DistributedScheduler`; the view's
    ``rf`` fixes the replication factor.  Site liveness is driven by the
    fault injector through :meth:`site_failed` / :meth:`site_recovered`;
    partitions through :meth:`on_partition` / :meth:`on_heal`.
    """

    def __init__(
        self,
        database: Database,
        view: View,
        strategy="mcs",
        policy="ordered-min-cost",
        **kwargs,
    ) -> None:
        super().__init__(
            database, view, strategy=strategy, policy=policy, **kwargs
        )
        self.replication = ReplicaDirectory(view)
        #: Every served read, for the no-stale-read oracle.
        self.read_log: list[ReadRecord] = []

    # -- availability gate ---------------------------------------------------

    def _stall_unavailable(self, txn: Transaction, entity: str) -> StepResult:
        """No replica of *entity* is up: stall without queueing.

        Queueing would plant a lock record the lock manager never saw
        (the request is not sent anywhere), so the requester backs off
        and re-issues once a replica may be back.
        """
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

    def _execute_lock(self, txn: Transaction, op: Lock) -> StepResult:
        # Reads and writes alike need an up replica: a read served by an
        # up-but-stale one pays an on-demand catch-up in _serve_read.
        if not self.replication.up_replicas(op.entity_name):
            return self._stall_unavailable(txn, op.entity_name)
        return super()._execute_lock(txn, op)

    # -- read-one / write-all-available ------------------------------------

    def _complete_grant(self, grant) -> None:
        super()._complete_grant(grant)
        if grant.mode is LockMode.EXCLUSIVE:
            self._acquire_replica_locks(grant.txn, grant.entity)
        else:
            self._serve_read(grant.txn, grant.entity)

    def _acquire_replica_locks(self, txn_id: TxnId, entity: str) -> None:
        """Write-all-available: one lock round-trip per extra up replica
        (the primary's round-trip is already charged by the base class)."""
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
        """Read-one: pick the serving replica and log the versions."""
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
                # The primary's value ship is charged by the base class
                # (unlock/commit); extra replicas cost one ship each.
                self.message_log.send(
                    primary, site, MessageType.VALUE_SHIP, txn_id, entity
                )
        if missed:
            self.metrics.stale_write_skips += len(missed)

    # -- site liveness (driven by the fault injector) -----------------------

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

    # -- partitions ----------------------------------------------------------

    def on_partition(self, groups: list[set[int]]) -> None:
        """A network partition: sites in different groups cannot talk."""
        membership: dict[int, int] = {}
        for index, group in enumerate(groups):
            for site in sorted(group):
                membership[site] = index

        def link_ok(a: int, b: int) -> bool:
            return membership.get(a, -1) == membership.get(b, -1)

        self.link_filter = link_ok
        if self.bus.wants(EventKind.PARTITION_START):
            self.bus.publish(
                EventKind.PARTITION_START,
                groups=[sorted(group) for group in groups],
            )

    def on_heal(self) -> None:
        """The partition heals: restore links, catch cut-off replicas up."""
        self.link_filter = None
        self.bus.publish(EventKind.PARTITION_HEAL)
        for site in sorted(self.replication.behind):
            if self.replication.is_up(site):
                self._catch_up_site(site)
