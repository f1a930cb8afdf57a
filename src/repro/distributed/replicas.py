"""Replica bookkeeping for available copies: versions, liveness, debt.

Each entity lives on the ``rf`` distinct sites of its
:meth:`~repro.distributed.views.View.replica_sites` set (primary first);
a static placement is ``rf = 1``.  The :class:`ReplicaDirectory` tracks
one global committed version per entity and one applied version per
``(entity, site)``; :class:`ReadRecord` is one served read, as the
``no-stale-read`` oracle (:mod:`repro.verification.oracles`) replays it
from :attr:`~repro.distributed.scheduler.DistributedScheduler.read_log`.
The scheduler orchestrates the side effects (messages, events); the
directory only keeps the books.
"""

from __future__ import annotations

from dataclasses import dataclass

from .views import View


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
