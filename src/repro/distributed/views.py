"""Entity placement: one :class:`View` over a fixed or a hash ring.

A :class:`View` is the topology of a run: every entity's *primary* site
(and, when replicated, its ``rf``-site replica set) plus the transaction
home map.  Its ring is a :class:`FixedRing` — the static partition of
the paper's §3.3, which pins every entity to one site — or a seeded
consistent-hash :class:`HashRing`, a pure function of
``(seed, vnodes, site set)``, so two processes building the same view
agree on every placement without coordination.  The site set is fixed
for the whole run: sites may crash and recover, but none joins or
leaves.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable, Mapping

from ..core.transaction import TransactionProgram

#: Default virtual nodes per site.  More vnodes => smoother balance at
#: the cost of a larger ring; 64 keeps the max/min entity-load ratio
#: under ~2 for realistic site counts (pinned by the property tests).
DEFAULT_VNODES = 64


def stable_hash(label: str) -> int:
    """A process-stable 64-bit hash (``hash()`` is salted per process)."""
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A seeded consistent-hash ring over integer site ids.

    Each site contributes ``vnodes`` points at
    ``stable_hash(f"{seed}:s{site}:v{i}")``; a key is owned by the first
    point clockwise of ``stable_hash(f"{seed}:k{key}")``.  Identical
    ``(sites, vnodes, seed)`` always build the identical ring.
    """

    def __init__(
        self,
        sites: Iterable[int],
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
    ) -> None:
        self.sites: tuple[int, ...] = tuple(sorted(set(sites)))
        if not self.sites:
            raise ValueError("a hash ring needs at least one site")
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self.seed = seed
        points: list[tuple[int, int]] = []
        for site in self.sites:
            for v in range(vnodes):
                points.append(
                    (stable_hash(f"{seed}:s{site}:v{v}"), site)
                )
        # Ties are broken by site id so the ring is a pure function of
        # its inputs even in the (astronomically unlikely) collision case.
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [s for _, s in points]

    def _key_point(self, key: str) -> int:
        return stable_hash(f"{self.seed}:k{key}")

    def owner(self, key: str) -> int:
        """The primary site owning *key*."""
        index = bisect_right(self._hashes, self._key_point(key))
        if index == len(self._hashes):
            index = 0
        return self._owners[index]

    def owners(self, key: str, n: int) -> tuple[int, ...]:
        """The first ``min(n, len(sites))`` *distinct* sites clockwise of
        *key* — the replica set under replication factor ``n``."""
        n = min(n, len(self.sites))
        start = bisect_right(self._hashes, self._key_point(key))
        found: list[int] = []
        size = len(self._owners)
        for offset in range(size):
            site = self._owners[(start + offset) % size]
            if site not in found:
                found.append(site)
                if len(found) == n:
                    break
        return tuple(found)


class FixedRing:
    """A given key->site map over sites ``0 .. n_sites - 1``: one site
    per key, :class:`KeyError` for a key with no site."""

    def __init__(self, entity_sites: Mapping[str, int], n_sites: int) -> None:
        self.sites: tuple[int, ...] = tuple(range(n_sites))
        self._entity_sites = dict(entity_sites)

    def owner(self, key: str) -> int:
        site = self._entity_sites.get(key)
        if site is None:
            raise KeyError(f"{key!r} is not assigned to any site")
        return site

    def owners(self, key: str, n: int) -> tuple[int, ...]:
        return (self.owner(key),)


class View:
    """The cluster topology of one run.

    Answers the placement queries (``site_of_entity`` / ``home_of`` /
    ``replica_sites`` / ``n_sites`` / ``home_sites``) of the distributed
    scheduler, the fault injector and the chaos loop.  Entity placement
    is immutable; transaction homes accumulate as programs register.
    Over a :class:`FixedRing`, an unknown entity or transaction raises
    :class:`KeyError`.
    """

    def __init__(
        self,
        ring: HashRing | FixedRing,
        entities: Iterable[str],
        rf: int = 1,
        home_sites: Mapping[str, int] | None = None,
    ) -> None:
        if rf < 1:
            raise ValueError("replication factor must be positive")
        self.ring = ring
        self.entities: tuple[str, ...] = tuple(sorted(set(entities)))
        self.rf = rf
        self.home_sites: dict[str, int] = dict(home_sites or {})
        #: Placement cache: computed once per view, read many times.
        self._primary: dict[str, int] = {
            entity: ring.owner(entity) for entity in self.entities
        }
        self._replicas: dict[str, tuple[int, ...]] = {
            entity: ring.owners(entity, rf) for entity in self.entities
        }

    # -- placement queries --------------------------------------------------

    @property
    def sites(self) -> tuple[int, ...]:
        return self.ring.sites

    @property
    def n_sites(self) -> int:
        return len(self.ring.sites)

    def site_of_entity(self, entity: str) -> int:
        primary = self._primary.get(entity)
        if primary is None:
            # Dynamic placement: any key hashes somewhere; memoize so
            # repeated queries are dict hits.
            primary = self.ring.owner(entity)
            self._primary[entity] = primary
            self._replicas[entity] = self.ring.owners(entity, self.rf)
        return primary

    def home_of(self, txn_id: str) -> int:
        home = self.home_sites.get(txn_id)
        if home is None:
            # Un-registered transactions are homed by hash — balanced and
            # deterministic without any pre-assignment step.
            home = self.ring.owner(f"txn:{txn_id}")
            self.home_sites[txn_id] = home
        return home

    def assign_home(self, txn_id: str, site: int) -> None:
        if site not in self.ring.sites:
            raise ValueError(f"site {site} is not in this view")
        self.home_sites[txn_id] = site

    # -- replication queries ----------------------------------------------

    def replica_sites(self, entity: str) -> tuple[int, ...]:
        """The ``rf`` distinct sites holding a copy of *entity* (primary
        first)."""
        replicas = self._replicas.get(entity)
        if replicas is None:
            self.site_of_entity(entity)  # populates both caches
            replicas = self._replicas[entity]
        return replicas


def _home_programs(view: View, programs: Iterable[TransactionProgram]):
    """Home each transaction at the primary site of the first entity it
    locks (minimising its remote traffic for prefix-local programs);
    lockless programs carry no affinity, so they spread round-robin."""
    lockless = 0
    for program in programs:
        lock_ops = program.lock_operations
        if lock_ops:
            site = view.site_of_entity(lock_ops[0][1].entity_name)
        else:
            site = lockless % view.n_sites
            lockless += 1
        view.assign_home(program.txn_id, site)
    return view


def round_robin_partition(
    entities: Iterable[str],
    programs: Iterable[TransactionProgram],
    n_sites: int,
) -> View:
    """A static view: entities spread across sites round-robin in name
    order, transactions homed by :func:`_home_programs`."""
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    entity_sites = {
        entity: i % n_sites for i, entity in enumerate(sorted(entities))
    }
    return _home_programs(
        View(FixedRing(entity_sites, n_sites), entity_sites), programs
    )


def explicit_partition(
    entity_sites: Mapping[str, int],
    home_sites: Mapping[str, int],
) -> View:
    """A static view from explicit assignments (scenario tests)."""
    sites = set(entity_sites.values()) | set(home_sites.values())
    n_sites = (max(sites) + 1) if sites else 1
    return View(
        FixedRing(entity_sites, n_sites), entity_sites, home_sites=home_sites
    )


def hash_view(
    entities: Iterable[str],
    programs: Iterable[TransactionProgram],
    n_sites: int,
    rf: int = 1,
    vnodes: int = DEFAULT_VNODES,
    seed: int = 0,
) -> View:
    """Build the initial view for a workload (the dynamic counterpart of
    :func:`round_robin_partition`): entities placed by a seeded
    consistent-hash ring, transactions homed by :func:`_home_programs`.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be positive")
    ring = HashRing(range(n_sites), vnodes=vnodes, seed=seed)
    return _home_programs(View(ring, entities, rf=rf), programs)
