"""Distributed substrate (§3.3): sites, messages, placement, and the one
distributed scheduler, which combines site-local detection, timestamp
ordering and timeouts with partial rollback over available copies (a
static placement is replication factor 1)."""

from .network import Message, MessageLog, MessageType
from .replicas import ReadRecord, ReplicaDirectory
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
    "View",
    "WAIT_DIE",
    "WOUND_WAIT",
    "explicit_partition",
    "hash_view",
    "round_robin_partition",
    "stable_hash",
]
