"""Synthetic workload generation.

The paper evaluates no concrete workload (it is a theory paper), but its
arguments are about workload structure: how many entities a transaction
locks, how contended the entities are, whether writes are *clustered*
immediately after the lock they belong to or *scattered* across later lock
states (§5, Figures 4–5), and whether the transaction follows the
three-phase acquire/update/release discipline.  :class:`WorkloadConfig`
exposes exactly those knobs; :func:`generate_workload` turns a config and a
seed into a database plus a set of validated transaction programs.

Access skew
-----------
``skew="uniform"`` picks entities uniformly; ``skew="zipf"`` weights entity
*i* by ``1/(i+1)**zipf_theta`` (classic hot-key contention);
``skew="hotspot"`` sends ``hotspot_probability`` of accesses to the first
``hotspot_fraction`` of entities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import ops
from ..core.operations import Operation
from ..core.transaction import TransactionProgram
from ..storage.database import Database


@dataclass
class WorkloadConfig:
    """Knobs for synthetic transaction workloads.

    Attributes
    ----------
    n_transactions:
        Number of concurrent transactions.
    n_entities:
        Number of global entities in the database.
    locks_per_txn:
        Inclusive ``(min, max)`` range of entities each transaction locks.
    write_ratio:
        Probability a locked entity is exclusive-locked (and written);
        the rest are shared-locked (read only).
    writes_per_entity:
        Inclusive ``(min, max)`` writes issued to each exclusive entity.
    clustered_writes:
        True: every write to an entity occurs immediately after its lock
        (the efficient §5 structure).  False: writes are scattered across
        later lock states (the rollback-hostile structure of Figure 4).
    three_phase:
        True: acquire all locks first, declare the last lock, then update,
        then release (§5's acquisition/update/release discipline).
    explicit_unlocks:
        Emit unlock operations at the end (otherwise commit releases).
    skew / zipf_theta / hotspot_fraction / hotspot_probability:
        Entity-selection distribution (see module docstring).
    """

    n_transactions: int = 8
    n_entities: int = 16
    locks_per_txn: tuple[int, int] = (2, 5)
    write_ratio: float = 1.0
    writes_per_entity: tuple[int, int] = (1, 2)
    clustered_writes: bool = True
    three_phase: bool = False
    explicit_unlocks: bool = False
    skew: str = "uniform"
    zipf_theta: float = 1.0
    hotspot_fraction: float = 0.2
    hotspot_probability: float = 0.8

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise ValueError("n_transactions must be positive")
        if self.n_entities < 1:
            raise ValueError("n_entities must be positive")
        lo, hi = self.locks_per_txn
        if not 1 <= lo <= hi:
            raise ValueError("locks_per_txn must satisfy 1 <= min <= max")
        if hi > self.n_entities:
            raise ValueError("locks_per_txn max exceeds n_entities")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")
        wlo, whi = self.writes_per_entity
        if not 1 <= wlo <= whi:
            raise ValueError("writes_per_entity must satisfy 1 <= min <= max")
        if self.skew not in ("uniform", "zipf", "hotspot"):
            raise ValueError(f"unknown skew {self.skew!r}")
        if self.three_phase and not self.clustered_writes:
            # Three-phase transactions perform all writes after the last
            # lock; scattering is meaningless (and harmless) there.
            pass


def entity_name(index: int) -> str:
    """Canonical generated entity names: ``e000``, ``e001``, ..."""
    return f"e{index:03d}"


def make_database(config: WorkloadConfig, initial_value: int = 0) -> Database:
    """A database with the configured number of integer entities."""
    return Database(
        {entity_name(i): initial_value for i in range(config.n_entities)}
    )


def _entity_weights(config: WorkloadConfig) -> list[float]:
    if config.skew == "uniform":
        return [1.0] * config.n_entities
    if config.skew == "zipf":
        return [
            1.0 / ((i + 1) ** config.zipf_theta)
            for i in range(config.n_entities)
        ]
    hot = max(1, int(config.n_entities * config.hotspot_fraction))
    cold = config.n_entities - hot
    weights = []
    for i in range(config.n_entities):
        if i < hot:
            weights.append(config.hotspot_probability / hot)
        else:
            weights.append(
                (1.0 - config.hotspot_probability) / max(cold, 1)
            )
    return weights


def _choose_entities(
    config: WorkloadConfig, rng: random.Random, count: int
) -> list[str]:
    """*count* distinct entities per the configured skew, random order."""
    weights = _entity_weights(config)
    indices: list[int] = []
    available = list(range(config.n_entities))
    local_weights = list(weights)
    for _ in range(count):
        chosen = rng.choices(available, weights=local_weights, k=1)[0]
        position = available.index(chosen)
        available.pop(position)
        local_weights.pop(position)
        indices.append(chosen)
    return [entity_name(i) for i in indices]


@dataclass
class _PlannedWrite:
    entity: str
    sequence: int  # per-entity write counter, for value expressions


def _write_op(txn_id: str, planned: _PlannedWrite) -> Operation:
    """A deterministic, serializability-checkable write expression.

    Writes increment the entity's current local value, so the final global
    value equals its initial value plus the total number of increments —
    an easy invariant for the test suite regardless of execution order.
    """
    return ops.write(planned.entity, ops.entity(planned.entity) + ops.const(1))


def generate_program(
    config: WorkloadConfig, txn_id: str, rng: random.Random
) -> TransactionProgram:
    """Generate one validated transaction program."""
    count = rng.randint(*config.locks_per_txn)
    entities = _choose_entities(config, rng, count)
    exclusive = {
        e: rng.random() < config.write_ratio for e in entities
    }
    # Ensure at least one exclusive lock when write_ratio > 0 so that
    # workloads marked as writing actually write.
    if config.write_ratio > 0 and not any(exclusive.values()):
        exclusive[entities[0]] = True
    writes: dict[str, int] = {
        e: rng.randint(*config.writes_per_entity)
        for e in entities
        if exclusive[e]
    }
    operations: list[Operation] = []

    def lock_op(entity: str) -> Operation:
        if exclusive[entity]:
            return ops.lock_exclusive(entity)
        return ops.lock_shared(entity)

    if config.three_phase:
        for entity in entities:
            operations.append(lock_op(entity))
        operations.append(ops.declare_last_lock())
        for entity in entities:
            operations.append(ops.read(entity, into=f"v_{entity}"))
            for seq in range(writes.get(entity, 0)):
                operations.append(
                    _write_op(txn_id, _PlannedWrite(entity, seq))
                )
    elif config.clustered_writes:
        for entity in entities:
            operations.append(lock_op(entity))
            operations.append(ops.read(entity, into=f"v_{entity}"))
            for seq in range(writes.get(entity, 0)):
                operations.append(
                    _write_op(txn_id, _PlannedWrite(entity, seq))
                )
    else:
        # Scattered: after each lock, write to a random already-locked
        # exclusive entity — the structure that maximises undefined states.
        pending: list[_PlannedWrite] = []
        locked_so_far: list[str] = []
        plan: dict[str, list[_PlannedWrite]] = {
            e: [_PlannedWrite(e, s) for s in range(n)]
            for e, n in writes.items()
        }
        for entity in entities:
            operations.append(lock_op(entity))
            operations.append(ops.read(entity, into=f"v_{entity}"))
            locked_so_far.append(entity)
            # Emit a random sample of outstanding writes to locked entities.
            pending.extend(plan.pop(entity, []))
            rng.shuffle(pending)
            emit = rng.randint(0, len(pending))
            for planned in pending[:emit]:
                operations.append(_write_op(txn_id, planned))
            pending = pending[emit:]
        for planned in pending:
            operations.append(_write_op(txn_id, planned))
    if config.explicit_unlocks:
        for entity in entities:
            operations.append(ops.unlock(entity))
    return TransactionProgram(txn_id, operations)


def generate_workload(
    config: WorkloadConfig, seed: int = 0
) -> tuple[Database, list[TransactionProgram]]:
    """A database plus ``n_transactions`` generated programs.

    The same ``(config, seed)`` pair always produces the identical
    workload.  The database carries a built-in consistency expectation:
    every write is an increment, so tests can compare the final state
    against the serial sum of increments.
    """
    rng = random.Random(seed)
    database = make_database(config)
    programs = [
        generate_program(config, f"T{i + 1:03d}", rng)
        for i in range(config.n_transactions)
    ]
    return database, programs


def expected_final_state(
    database: Database, programs: list[TransactionProgram]
) -> dict[str, int]:
    """The unique final state every serializable execution must reach.

    Generated writes are commutative increments, so the serial order does
    not matter: each entity's final value is its initial value plus the
    total increments applied to it across all programs.
    """
    from ..core.operations import Write

    state = database.snapshot()
    for program in programs:
        for op in program.operations:
            if isinstance(op, Write):
                state[op.entity_name] += 1
    return state
