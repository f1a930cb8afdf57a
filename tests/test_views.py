"""Property-based tests for :mod:`repro.distributed.views`.

The consistent-hash ring's contract, pinned by properties rather than
examples:

* **determinism** — identical ``(sites, vnodes, seed)`` build identical
  rings and identical placements, across processes (the hash is
  blake2b, never ``hash()``);
* **bounded imbalance** — with the default virtual-node count, the
  max/min per-site entity load stays within a small constant factor.
"""

from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.distributed.views import (  # noqa: E402
    DEFAULT_VNODES,
    HashRing,
    View,
    hash_view,
)

ENTITY_POOL = [f"e{i}" for i in range(400)]


site_sets = st.lists(
    st.integers(min_value=0, max_value=40),
    min_size=2,
    max_size=8,
    unique=True,
)
entity_sets = st.lists(
    st.sampled_from(ENTITY_POOL), min_size=20, max_size=200, unique=True
)
seeds = st.integers(min_value=0, max_value=2**16)


class TestDeterminism:
    @given(sites=site_sets, entities=entity_sets, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_same_inputs_same_placement(self, sites, entities, seed):
        ring_a = HashRing(sites, seed=seed)
        ring_b = HashRing(list(reversed(sites)), seed=seed)
        view_a = View(ring_a, entities, rf=2)
        view_b = View(ring_b, entities, rf=2)
        for entity in entities:
            assert view_a.site_of_entity(entity) == view_b.site_of_entity(
                entity
            )
            assert view_a.replica_sites(entity) == view_b.replica_sites(
                entity
            )

    @given(sites=site_sets, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_different_seed_different_ring(self, sites, seed):
        # Not a hard guarantee for any single key, but over many keys two
        # seeds must not agree everywhere (the ring actually uses the
        # seed).
        ring_a = HashRing(sites, seed=seed)
        ring_b = HashRing(sites, seed=seed + 1)
        owners_a = [ring_a.owner(e) for e in ENTITY_POOL]
        owners_b = [ring_b.owner(e) for e in ENTITY_POOL]
        assert owners_a != owners_b

    def test_replica_sets_are_distinct_and_primary_first(self):
        ring = HashRing(range(5))
        view = View(ring, ENTITY_POOL, rf=3)
        for entity in ENTITY_POOL:
            replicas = view.replica_sites(entity)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == view.site_of_entity(entity)


class TestBalance:
    @given(
        n_sites=st.integers(min_value=2, max_value=12),
        seed=seeds,
    )
    @settings(max_examples=25, deadline=None)
    def test_load_imbalance_bounded(self, n_sites, seed):
        ring = HashRing(range(n_sites), vnodes=DEFAULT_VNODES, seed=seed)
        view = View(ring, ENTITY_POOL)
        load = Counter(view.site_of_entity(e) for e in ENTITY_POOL)
        mean = len(ENTITY_POOL) / n_sites
        # Every site carries something and nobody carries more than a
        # small multiple of the mean — the vnode count is chosen so this
        # holds for every seed, not merely on average.
        assert set(load) == set(range(n_sites))
        assert max(load.values()) <= 3.0 * mean


class TestViewSemantics:
    def test_hash_view_homes_lockless_round_robin(self):
        from repro import TransactionProgram

        programs = [
            TransactionProgram(f"t{i}", []) for i in range(5)
        ]
        view = hash_view(["a", "b"], programs, n_sites=3)
        homes = [view.home_of(p.txn_id) for p in programs]
        assert homes == [0, 1, 2, 0, 1]
