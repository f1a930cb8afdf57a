"""Trace-based deadlock prediction (Pillar B of the analysis layer).

One recorded execution rarely hits every deadlock its workload can
produce — the cycle only closes under the interleavings that drive each
participant into its blocking position simultaneously.  But a *single*
trace already reveals the ingredient that makes those interleavings
dangerous: the lock-order relation.  Following the lock-graph school of
dynamic deadlock prediction (Goodlock and its partial-order
refinements, PAPERS.md), this module

1. **harvests** abstract lock events with the one fold of
   :mod:`repro.staticcheck.events` — over the bus events of a recorded
   :class:`~repro.verification.cases.ReplayCase`'s own replay, or over
   a service WAL/request journal — each event carrying the acquiring
   transaction's held set and its boot segment (the partial order:
   program order plus boot-segment barriers);
2. builds the **lock-order graph** — an arc ``e1 -> e2`` whenever some
   transaction acquired ``e2`` while holding ``e1`` — and enumerates
   its cycles with one transaction per arc;
3. applies the **partial-order feasibility check**: a cycle is
   reported only if its arcs all share one boot segment (a crash
   barrier between two acquisitions makes their reordering unreal), no
   two participants held a common guard lock in incompatible modes (a
   shared gate serialises their blocking points), and each waiter's
   requested mode conflicts with the next holder's mode;
4. **cross-validates** every feasible cycle against the engine itself:
   a witness schedule is synthesized (run each participant up to its
   blocking position, then let each issue its fatal request) and
   replayed over the participants' programs alone; the prediction
   counts as *confirmed* when the engine's own detector reports a
   deadlock among them.  That deadlock may be a shorter ring through a
   chord: a guard lock held in ``S`` by one participant can close a
   2-cycle with another before the predicted ring completes, and the
   chorded ring is still a real deadlock hazard of the same
   transactions.

Because this repo's transaction programs are straight-line and
two-phase (no lock follows an unlock), held sets grow monotonically up
to each blocking point, which makes the pairwise feasibility check
exact and the serial-prefix witness complete *for this program class*:
every feasible cycle is realizable, so ``repro lint --predict`` fails
if any feasible prediction cannot be confirmed (that would mean the
closure over-approximated).  The default search depth is 4 arcs, deep
enough for the 4-ring in
``tests/regressions/clean_ring4_seed131_serial.json``.

A confirmed cycle whose transaction set never deadlocked in the
original trace is an **alternate-interleaving deadlock** — the run was
one scheduler decision away from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..core.operations import Lock, Operation, lock_exclusive, lock_shared
from ..core.scheduler import Scheduler
from ..core.transaction import TransactionProgram
from ..errors import ReproError
from ..locking.modes import LockMode
from ..simulation.engine import SimulationEngine
from ..simulation.interleaving import Scripted
from ..simulation.trace import TraceEvent
from ..simulation.workload import generate_workload
from ..storage.database import Database
from ..verification.cases import ReplayCase
from ..verification.faults import resolve_policy
from ..verification.regressions import load_case
from .events import (
    AbstractLockEvent,
    JournalTrace,
    harvest_case,
    harvest_journal,
)


class _WitnessEnded(Exception):
    """Internal: the witness schedule is consumed; stop the replay."""


@dataclass(frozen=True)
class LockEdge:
    """Lock-order arc: *txn* acquired *acquired* while holding *held*."""

    held: str
    acquired: str
    txn: str
    held_mode: LockMode
    acquired_mode: LockMode
    #: Everything *txn* held at the acquisition point (includes *held*).
    guards: tuple[tuple[str, LockMode], ...]
    #: The boot segment of the acquisition (the partial order).
    segment: int


@dataclass(frozen=True)
class PredictedDeadlock:
    """One feasible cycle of the lock-order graph, with its witness."""

    entities: tuple[str, ...]
    txns: tuple[str, ...]
    #: Scripted schedule that drives the engine into the cycle.
    witness: tuple[str, ...]
    #: Whether this transaction set already deadlocked in the recorded
    #: trace (False = reachable only in an alternate interleaving).
    observed_in_trace: bool
    #: Whether the witness replay made the engine's detector report a
    #: deadlock among the participants (cross-validation against the
    #: engine itself).
    confirmed: bool

    @property
    def alternate(self) -> bool:
        return self.confirmed and not self.observed_in_trace

    def describe(self) -> str:
        ring = " -> ".join(self.entities + (self.entities[0],))
        kind = (
            "alternate-interleaving"
            if not self.observed_in_trace
            else "observed"
        )
        status = "confirmed" if self.confirmed else "UNCONFIRMED"
        return (
            f"{kind} deadlock over [{ring}] via "
            f"{', '.join(self.txns)} ({status}, witness of "
            f"{len(self.witness)} steps)"
        )


@dataclass
class PredictionReport:
    """Everything predicted from one trace (replay case or journal)."""

    case_path: str
    acquisitions: int
    edges: int
    #: Distinct transaction sets the recorded trace's detector reported.
    trace_deadlocks: int
    predicted: list[PredictedDeadlock] = field(default_factory=list)
    #: Boot segments the trace spanned (journals only; engine traces = 1).
    segments: int = 1

    @property
    def alternates(self) -> list[PredictedDeadlock]:
        return [p for p in self.predicted if p.alternate]

    @property
    def unconfirmed(self) -> list[PredictedDeadlock]:
        return [p for p in self.predicted if not p.confirmed]

    @property
    def ok(self) -> bool:
        """Soundness: every feasible prediction was realizable."""
        return not self.unconfirmed


class LockOrderGraph:
    """The lock-order relation of one trace (or one template pool).

    Built from :class:`~repro.staticcheck.events.AbstractLockEvent`
    streams; each arc remembers the boot segment of the acquisition
    that created it so the feasibility check can apply the partial
    order.
    """

    def __init__(self, events: Iterable[AbstractLockEvent]) -> None:
        self.edges: list[LockEdge] = []
        seen: set[tuple[str, str, str]] = set()
        for event in events:
            for held, held_mode in event.held_before:
                key = (event.txn, held, event.entity)
                if key in seen:
                    continue
                seen.add(key)
                self.edges.append(
                    LockEdge(
                        held=held,
                        acquired=event.entity,
                        txn=event.txn,
                        held_mode=held_mode,
                        acquired_mode=event.mode,
                        guards=event.held_before,
                        segment=event.segment,
                    )
                )
        self._by_held: dict[str, list[LockEdge]] = {}
        for edge in self.edges:
            self._by_held.setdefault(edge.held, []).append(edge)

    def cycles(
        self, max_length: int = 3, limit: int | None = 200
    ) -> list[tuple[LockEdge, ...]]:
        """Feasible cycles with one distinct transaction per arc.

        Enumerates simple cycles in the entity graph up to *max_length*
        arcs, applying the feasibility check; stops after *limit*
        candidates (``None``: no limit).
        """
        found: list[tuple[LockEdge, ...]] = []
        keys: set[tuple[tuple[str, str, str], ...]] = set()
        for start in sorted(self._by_held):
            stack: list[tuple[tuple[LockEdge, ...], str]] = [((), start)]
            while stack and (limit is None or len(found) < limit):
                path, at = stack.pop()
                for edge in self._by_held.get(at, ()):
                    if path and not _extends(path, edge):
                        continue
                    if edge.acquired == start and path:
                        cycle = path + (edge,)
                        key = _canonical(cycle)
                        if key not in keys and _closes(cycle):
                            keys.add(key)
                            found.append(cycle)
                        continue
                    if len(path) + 1 >= max_length:
                        continue
                    if edge.acquired == start or any(
                        e.held == edge.acquired for e in path
                    ):
                        continue
                    # Only walk "forward" from the lexicographically
                    # smallest entity so each cycle is found once.
                    if edge.acquired < start:
                        continue
                    stack.append((path + (edge,), edge.acquired))
        return found


def _canonical(
    cycle: tuple[LockEdge, ...]
) -> tuple[tuple[str, str, str], ...]:
    arcs = [(e.txn, e.held, e.acquired) for e in cycle]
    pivot = min(range(len(arcs)), key=lambda i: arcs[i])
    return tuple(arcs[pivot:] + arcs[:pivot])


def _extends(path: tuple[LockEdge, ...], edge: LockEdge) -> bool:
    """Whether *edge* can follow *path* towards a feasible ring.

    The feasibility rule is pairwise, so it is checked one arc at a
    time as the ring grows (the search only offers arcs holding what
    the previous participant requests): *edge*'s transaction is new, it
    holds that entity in a mode conflicting with the request (the
    requester must actually block), it shares the ring's boot segment
    (acquisitions separated by a restart cannot be reordered into a
    joint blocking state), and its guard set is mode-compatible with
    every earlier participant's (an incompatible common guard would
    serialise the two acquisition points).
    """
    if path[-1].acquired_mode.compatible_with(edge.held_mode):
        return False
    if edge.segment != path[0].segment:
        return False
    for earlier in path:
        if earlier.txn == edge.txn:
            return False
        held = dict(earlier.guards)
        for entity, mode in edge.guards:
            other = held.get(entity)
            if other is not None and not other.compatible_with(mode):
                return False
    return True


def _closes(cycle: tuple[LockEdge, ...]) -> bool:
    """Whether the last arc's request blocks on the first arc's hold."""
    return not cycle[-1].acquired_mode.compatible_with(cycle[0].held_mode)


# -- witness synthesis and confirmation --------------------------------------


def _witness_schedule(
    cycle: tuple[LockEdge, ...],
    programs: Mapping[str, TransactionProgram],
) -> tuple[str, ...] | None:
    """Schedule driving each participant to its blocking position.

    Each transaction runs alone up to (but not including) its request
    of the next participant's entity — the guard-feasibility check
    guarantees those prefixes cannot block each other — then each
    issues the fatal request in turn; the last one closes the cycle.
    """
    schedule: list[str] = []
    for edge in cycle:
        program = programs.get(edge.txn)
        if program is None:
            return None
        position = next(
            (
                index
                for index, op in enumerate(program.operations)
                if isinstance(op, Lock) and op.entity_name == edge.acquired
            ),
            None,
        )
        if position is None:
            return None
        schedule.extend([edge.txn] * position)
    schedule.extend(edge.txn for edge in cycle)
    return tuple(schedule)


def _confirm(
    participants: Mapping[str, TransactionProgram],
    witness: Sequence[str],
    state: Mapping[str, object],
    strategy: str,
    policy: str,
) -> bool:
    """Replay *witness* over *participants* from *state*; did it deadlock?

    The run stops when the witness ends.  A prediction is confirmed
    when the engine's detector reports a deadlock whose members are all
    participants — the predicted ring itself, or a shorter ring through
    a chord that closes first.
    """
    scheduler = Scheduler(
        Database(dict(state)), strategy=strategy, policy=resolve_policy(policy)
    )
    interleaving = Scripted(list(witness))

    def stop(engine: SimulationEngine, _event: TraceEvent) -> None:
        if interleaving.exhausted and not engine.scheduler.all_done:
            raise _WitnessEnded

    engine = SimulationEngine(
        scheduler,
        interleaving,
        max_steps=len(witness),
        livelock_window=0,
        on_step=stop,
    )
    for program in participants.values():
        engine.add(program)
    try:
        engine.run()
    except (_WitnessEnded, ReproError):
        pass
    return any(
        all(txn in participants for cycle in event.cycles for txn in cycle)
        for event in engine.trace.deadlock_events()
    )


def _sequence_program(
    txn: str, sequence: Iterable[tuple[str, LockMode]]
) -> TransactionProgram:
    """The straight-line lock program a journal recorded for *txn*."""
    operations: list[Operation] = [
        lock_exclusive(entity) if mode.is_exclusive else lock_shared(entity)
        for entity, mode in sequence
    ]
    return TransactionProgram(txn, operations)


# -- entry points ------------------------------------------------------------


def _predict(
    trace: JournalTrace,
    programs: Mapping[str, TransactionProgram],
    state: Mapping[str, object],
    strategy: str,
    policy: str,
    max_cycle_length: int,
    limit: int,
) -> PredictionReport:
    """Enumerate *trace*'s feasible cycles; witness and confirm each."""
    graph = LockOrderGraph(trace.events)
    observed = set(trace.observed_deadlocks)
    report = PredictionReport(
        case_path=trace.path,
        acquisitions=len(trace.events),
        edges=len(graph.edges),
        trace_deadlocks=len(observed),
        segments=trace.segments,
    )
    for cycle in graph.cycles(max_length=max_cycle_length, limit=limit):
        witness = _witness_schedule(cycle, programs)
        if witness is None:
            continue
        txns = tuple(edge.txn for edge in cycle)
        participants = {txn: programs[txn] for txn in txns}
        report.predicted.append(
            PredictedDeadlock(
                entities=tuple(edge.held for edge in cycle),
                txns=txns,
                witness=witness,
                observed_in_trace=frozenset(txns) in observed,
                confirmed=_confirm(
                    participants, witness, state, strategy, policy
                ),
            )
        )
    return report


def predict_case(
    case: ReplayCase,
    case_path: str = "",
    max_cycle_length: int = 4,
    limit: int = 200,
) -> PredictionReport:
    """Predict deadlocks reachable from *case*'s workload family."""
    database, programs = generate_workload(
        case.workload_config(), seed=case.workload_seed
    )
    return _predict(
        harvest_case(case, path=case_path),
        {program.txn_id: program for program in programs},
        database.snapshot(),
        case.strategy,
        case.policy,
        max_cycle_length,
        limit,
    )


def predict_journal(
    journal: str | Path,
    max_cycle_length: int = 4,
    limit: int = 200,
    strategy: str = "mcs",
    policy: str = "ordered-min-cost",
) -> PredictionReport:
    """Predict deadlocks from a service WAL/request journal.

    Each participant's straight-line lock program is reconstructed from
    its recorded sequence and replayed from all-zero entities — the
    same contract as the replay-case path.
    """
    trace = harvest_journal(journal)
    programs = {
        txn: _sequence_program(txn, sequence)
        for txn, sequence in trace.lock_sequences.items()
    }
    return _predict(
        trace,
        programs,
        {entity: 0 for entity in trace.entities},
        strategy,
        policy,
        max_cycle_length,
        limit,
    )


def predict_corpus(
    corpus: str | Path,
    max_cycle_length: int = 4,
    limit: int = 200,
) -> list[PredictionReport]:
    """Run prediction over every regression case under *corpus*."""
    reports: list[PredictionReport] = []
    for path in sorted(Path(corpus).glob("*.json")):
        case, _expect = load_case(path)
        if not isinstance(case, ReplayCase):
            # Non-replay kinds (e.g. overload comparisons) carry no
            # recorded schedule to build a lock-order graph from.
            continue
        reports.append(
            predict_case(
                case,
                case_path=str(path),
                max_cycle_length=max_cycle_length,
                limit=limit,
            )
        )
    return reports
