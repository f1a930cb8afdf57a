"""Trace-based deadlock prediction (Pillar B of the analysis layer).

One recorded execution rarely hits every deadlock its workload can
produce — the cycle only closes under the interleavings that drive each
participant into its blocking position simultaneously.  But a *single*
trace already reveals the ingredient that makes those interleavings
dangerous: the lock-order relation.  Following the lock-graph school of
dynamic deadlock prediction (Goodlock and its partial-order
refinements, PAPERS.md), this module

1. **harvests** abstract lock events — either by replaying a recorded
   :class:`~repro.verification.cases.ReplayCase` through the real
   engine, or by reading a service WAL/request journal
   (:func:`~repro.staticcheck.events.harvest_journal`) — each event
   carrying the acquiring transaction's held set and a vector clock
   over the sound happens-before order (program order plus boot-segment
   barriers, see :mod:`repro.staticcheck.events`);
2. builds the **lock-order graph** — an arc ``e1 -> e2`` whenever some
   transaction acquired ``e2`` while holding ``e1`` — and enumerates
   its cycles with one transaction per arc;
3. applies the **partial-order feasibility check**: a cycle is
   reported only if its blocking acquisitions are pairwise *concurrent*
   under the partial order (vector clocks — a crash barrier between two
   acquisitions makes their reordering unreal), no two participants
   held a common guard lock in incompatible modes (a shared gate
   serialises their blocking points), and each waiter's requested mode
   conflicts with the next holder's mode;
4. **cross-validates** every feasible cycle against the engine itself:
   a witness schedule is synthesized (run each participant up to its
   blocking position, then let each issue its fatal request) and
   replayed; the prediction counts as *confirmed* only if the engine's
   own detector reports the predicted cycle.

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

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..core.operations import Lock, Operation, Unlock, lock_exclusive, lock_shared
from ..core.scheduler import Scheduler
from ..core.transaction import TransactionProgram
from ..errors import ReproError
from ..locking.modes import LockMode
from ..simulation.engine import SimulationEngine, SimulationResult
from ..simulation.interleaving import Scripted
from ..simulation.trace import TraceEvent
from ..simulation.workload import generate_workload
from ..storage.database import Database
from ..verification.cases import ReplayCase
from ..verification.faults import resolve_policy
from ..verification.regressions import load_case
from .events import AbstractLockEvent, concurrent, events_from_acquisitions, harvest_journal


class _StopHarvest(Exception):
    """Internal: the scripted schedule is exhausted; stop the replay."""


@dataclass(frozen=True)
class _Acquisition:
    """One granted lock in the replayed trace."""

    txn: str
    entity: str
    mode: LockMode
    #: Locks (entity -> mode) the transaction held when this grant landed.
    held_before: tuple[tuple[str, LockMode], ...]


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
    #: The abstract acquisition event (vector clock carrier); ``None``
    #: only for synthetic edges built outside a trace (workload.py).
    event: AbstractLockEvent | None = None


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
    #: Whether the witness replay made the engine's detector report the
    #: predicted cycle (cross-validation against the fuzzer machinery).
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
    """The lock-order relation harvested from one trace.

    Built from :class:`~repro.staticcheck.events.AbstractLockEvent`
    streams; each arc remembers the acquisition event that created it so
    the partial-order feasibility check can consult vector clocks.
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
                        event=event,
                    )
                )
        self._by_held: dict[str, list[LockEdge]] = {}
        for edge in self.edges:
            self._by_held.setdefault(edge.held, []).append(edge)

    @classmethod
    def from_acquisitions(
        cls, acquisitions: Iterable[_Acquisition]
    ) -> "LockOrderGraph":
        """Graph over an engine-harvested trace (one boot segment)."""
        return cls(events_from_acquisitions(acquisitions))

    def cycles(
        self, max_length: int = 3, limit: int = 200
    ) -> list[tuple[LockEdge, ...]]:
        """Feasible cycles with one distinct transaction per arc.

        Enumerates simple cycles in the entity graph up to *max_length*
        arcs, applying the feasibility check; stops after *limit*
        candidates.
        """
        found: list[tuple[LockEdge, ...]] = []
        keys: set[tuple[tuple[str, str, str], ...]] = set()
        for start in sorted(self._by_held):
            stack: list[tuple[tuple[LockEdge, ...], str]] = [((), start)]
            while stack and len(found) < limit:
                path, at = stack.pop()
                for edge in self._by_held.get(at, ()):
                    if any(e.txn == edge.txn for e in path):
                        continue
                    if edge.acquired == start and path:
                        cycle = path + (edge,)
                        key = _canonical(cycle)
                        if key in keys:
                            continue
                        if _feasible(cycle):
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


def _feasible(cycle: tuple[LockEdge, ...]) -> bool:
    """Feasibility of the joint blocking state.

    Each participant sits at its acquisition point, holding its guard
    set and requesting the next participant's held entity.  The ring
    must actually block (each requested mode conflicts with the next
    holder's mode), every pairwise guard intersection must be
    mode-compatible (an incompatible common guard would serialise the
    two acquisition points), and the blocking acquisitions must be
    pairwise *concurrent* under the harvested happens-before order —
    two events separated by a boot-segment barrier cannot be reordered
    into a joint blocking state, however compatible their guards look.
    """
    k = len(cycle)
    for i in range(k):
        requester = cycle[i]
        holder = cycle[(i + 1) % k]
        if requester.acquired != holder.held:
            return False
        if requester.acquired_mode.compatible_with(holder.held_mode):
            return False
    for i in range(k):
        for j in range(i + 1, k):
            a = dict(cycle[i].guards)
            for entity, mode in cycle[j].guards:
                other = a.get(entity)
                if other is not None and not other.compatible_with(mode):
                    return False
            ev_i, ev_j = cycle[i].event, cycle[j].event
            if (
                ev_i is not None
                and ev_j is not None
                and not concurrent(ev_i, ev_j)
            ):
                return False
    return True


# -- harvesting --------------------------------------------------------------


def _harvest(
    case: ReplayCase,
) -> tuple[list[_Acquisition], list[TraceEvent], SimulationResult | None]:
    """Replay *case*'s schedule and collect every granted acquisition."""
    db, programs = generate_workload(
        case.workload_config(), seed=case.workload_seed
    )
    scheduler = Scheduler(
        db,
        strategy=case.strategy,
        policy=resolve_policy(case.policy),
    )
    interleaving = Scripted(list(case.schedule))
    by_id = {program.txn_id: program for program in programs}
    acquisitions: list[_Acquisition] = []
    recorded: set[tuple[str, int]] = set()

    def collect(engine: SimulationEngine, _event: TraceEvent) -> None:
        for txn_id, txn in engine.scheduler.transactions.items():
            program = by_id[txn_id]
            for record in txn.lock_records:
                if not record.granted:
                    continue
                key = (txn_id, record.ordinal)
                if key in recorded:
                    continue
                recorded.add(key)
                unlocked = {
                    op.entity_name
                    for op in program.operations[: record.pc]
                    if isinstance(op, Unlock)
                }
                held = tuple(
                    (earlier.entity, earlier.mode)
                    for earlier in txn.lock_records
                    if earlier.ordinal < record.ordinal
                    and earlier.entity not in unlocked
                )
                acquisitions.append(
                    _Acquisition(
                        txn=txn_id,
                        entity=record.entity,
                        mode=record.mode,
                        held_before=held,
                    )
                )
        if interleaving.exhausted and not engine.scheduler.all_done:
            raise _StopHarvest

    engine = SimulationEngine(
        scheduler,
        interleaving,
        max_steps=len(case.schedule) + case.extra_steps,
        livelock_window=0,
        on_step=collect,
    )
    for program in programs:
        engine.add(program)
    result: SimulationResult | None = None
    try:
        result = engine.run()
    except (_StopHarvest, ReproError):
        # Planted-fault cases may abort mid-run; the acquisitions
        # gathered up to that point are still a valid partial trace.
        pass
    return acquisitions, engine.trace.deadlock_events(), result


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
    case: ReplayCase, cycle: tuple[LockEdge, ...], witness: tuple[str, ...]
) -> bool:
    """Replay the witness; did the detector report the predicted cycle?"""
    predicted = frozenset(edge.txn for edge in cycle)
    witness_case = replace(
        case, schedule=list(witness), fault_plan=None
    )
    _acqs, deadlocks, _result = _harvest(witness_case)
    for event in deadlocks:
        for reported in event.cycles:
            if frozenset(reported) == predicted:
                return True
    return False


def _confirm_programs(
    programs: Mapping[str, TransactionProgram],
    witness: Sequence[str],
    predicted: frozenset[str],
    entities: Iterable[str],
    strategy: str,
    policy: str,
) -> bool:
    """Replay synthesized programs; did the detector report the cycle?

    The journal path has no :class:`ReplayCase` to re-generate a
    workload from, so confirmation runs the lock-sequence programs
    reconstructed from the journal through a fresh engine.
    """
    database = Database({entity: 0 for entity in sorted(entities)})
    scheduler = Scheduler(
        database, strategy=strategy, policy=resolve_policy(policy)
    )
    engine = SimulationEngine(
        scheduler,
        Scripted(list(witness)),
        max_steps=len(witness) + 8,
        livelock_window=0,
    )
    for program in programs.values():
        engine.add(program)
    try:
        engine.run()
    except ReproError:
        pass
    for event in engine.trace.deadlock_events():
        for reported in event.cycles:
            if frozenset(reported) == predicted:
                return True
    return False


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


def predict_case(
    case: ReplayCase,
    case_path: str = "",
    max_cycle_length: int = 4,
    limit: int = 200,
) -> PredictionReport:
    """Predict deadlocks reachable from *case*'s workload family."""
    acquisitions, trace_deadlocks, _result = _harvest(case)
    graph = LockOrderGraph.from_acquisitions(acquisitions)
    observed = {
        frozenset(reported)
        for event in trace_deadlocks
        for reported in event.cycles
    }
    _db, programs = generate_workload(
        case.workload_config(), seed=case.workload_seed
    )
    by_id = {program.txn_id: program for program in programs}
    report = PredictionReport(
        case_path=case_path,
        acquisitions=len(acquisitions),
        edges=len(graph.edges),
        trace_deadlocks=len(trace_deadlocks),
    )
    for cycle in graph.cycles(max_length=max_cycle_length, limit=limit):
        witness = _witness_schedule(cycle, by_id)
        if witness is None:
            continue
        txns = tuple(edge.txn for edge in cycle)
        report.predicted.append(
            PredictedDeadlock(
                entities=tuple(edge.held for edge in cycle),
                txns=txns,
                witness=witness,
                observed_in_trace=frozenset(txns) in observed,
                confirmed=_confirm(case, cycle, witness),
            )
        )
    return report


def predict_journal(
    journal: str | Path,
    max_cycle_length: int = 4,
    limit: int = 200,
    strategy: str = "mcs",
    policy: str = "ordered-min-cost",
) -> PredictionReport:
    """Predict deadlocks from a service WAL/request journal.

    Harvests the journal's grant stream into abstract lock events
    (vector clocks spanning boot segments), enumerates feasible cycles,
    reconstructs each participant's straight-line lock program from its
    recorded sequence, and confirms every prediction by engine replay —
    the same contract as the replay-case path.
    """
    trace = harvest_journal(journal)
    graph = LockOrderGraph(trace.events)
    observed = set(trace.observed_deadlocks)
    programs = {
        txn: _sequence_program(txn, sequence)
        for txn, sequence in trace.lock_sequences.items()
    }
    report = PredictionReport(
        case_path=str(journal),
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
                confirmed=_confirm_programs(
                    participants,
                    witness,
                    frozenset(txns),
                    trace.entities,
                    strategy,
                    policy,
                ),
            )
        )
    return report


def predict_corpus(
    corpus: str | Path,
    max_cycle_length: int = 4,
    limit: int = 200,
) -> list[PredictionReport]:
    """Run prediction over every regression case under *corpus*."""
    corpus = Path(corpus)
    reports: list[PredictionReport] = []
    for path in sorted(corpus.glob("*.json")):
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
