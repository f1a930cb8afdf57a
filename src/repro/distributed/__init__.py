"""Distributed substrate (§3.3): sites, messages, and the distributed
scheduler combining site-local detection, timestamp ordering, and timeouts
with partial rollback."""

from .network import Message, MessageLog, MessageType
from .replication import ReadRecord, ReplicaDirectory, ReplicatedScheduler
from .scheduler import PROBE, WAIT_DIE, WOUND_WAIT, DistributedScheduler
from .views import (
    DEFAULT_VNODES, FixedRing, HashRing, View, explicit_partition, hash_view,
    round_robin_partition, stable_hash,
)

__all__ = [
    "DEFAULT_VNODES",
    "DistributedScheduler",
    "FixedRing",
    "HashRing",
    "Message",
    "MessageLog",
    "MessageType",
    "PROBE",
    "ReadRecord",
    "ReplicaDirectory",
    "ReplicatedScheduler",
    "View",
    "WAIT_DIE",
    "WOUND_WAIT",
    "explicit_partition",
    "hash_view",
    "round_robin_partition",
    "stable_hash",
]
