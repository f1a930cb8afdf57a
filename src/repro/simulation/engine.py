"""The simulation engine: deterministic concurrent execution of programs.

This substitutes for the concurrent database system the paper assumes: each
engine step executes one atomic operation of one transaction (chosen by an
:class:`~repro.simulation.interleaving.InterleavingPolicy`), so any
interleaving of the paper's model can be produced and reproduced exactly.

The engine also watches for *livelock* — the paper's "potentially infinite
mutual preemption" (Figure 2).  If the system keeps executing without any
transaction committing for a long stretch while rollbacks keep occurring,
the run is flagged (and optionally aborted) rather than spinning forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # avoids the admission <-> simulation import cycle
    from ..admission.guard import OverloadGuard

from ..core.metrics import Metrics
from ..core.scheduler import Scheduler, StepOutcome, StepResult
from ..core.transaction import TransactionProgram, TxnStatus
from ..errors import SimulationError
from ..observability.events import EventKind
from .interleaving import InterleavingPolicy, RoundRobin
from .trace import Trace, TraceEvent

#: Observer called after every recorded engine step: ``(engine, event)``.
#: Exceptions raised by the observer abort the run and propagate to the
#: caller — the verification oracles use this to fail fast at the exact
#: step an invariant breaks.
StepObserver = Callable[["SimulationEngine", TraceEvent], None]


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    steps: int
    committed: list[str]
    metrics: Metrics
    trace: Trace
    livelock_detected: bool = False
    final_state: dict = field(default_factory=dict)
    mean_runnable: float = 0.0
    mean_blocked: float = 0.0
    #: Transactions removed by the overload guard without committing
    #: (deadline ladder's last rung), sorted by id.
    shed: list[str] = field(default_factory=list)
    #: Live waits-for graph maintenance/query counters for the run
    #: (:attr:`repro.graphs.concurrency.ConcurrencyGraph.counters`);
    #: ``bench_scale`` records them into ``BENCH_scale.json``.
    graph_counters: dict[str, int] = field(default_factory=dict)
    #: Transactions the scheduler knew when the run ended.
    population: int = 0

    @property
    def all_committed(self) -> bool:
        """Every transaction of the run committed: none shed, none left
        live by a livelock stop."""
        return (
            not self.livelock_detected
            and not self.shed
            and len(self.committed) == self.population
        )


class SimulationEngine:
    """Drives a :class:`~repro.core.scheduler.Scheduler` to completion.

    Parameters
    ----------
    scheduler:
        The concurrency control to drive.
    interleaving:
        Interleaving policy; defaults to round-robin.
    max_steps:
        Hard step budget; exceeding it raises
        :class:`~repro.errors.SimulationError` unless
        ``stop_on_livelock`` converts persistent non-progress into a
        flagged result first.
    livelock_window:
        If no commit happens within this many consecutive steps *and*
        rollbacks occurred in that window, the run is classified as
        livelocked (mutual preemption).  On by default, so a livelocked
        run stops instead of spinning to *max_steps*; ``0`` disables the
        check.
    stop_on_livelock:
        When True, a detected livelock ends the run with
        ``livelock_detected=True`` instead of raising.
    on_step:
        Optional :data:`StepObserver` invoked after every recorded step
        (both :meth:`run` and :meth:`step_transaction`).
    overload:
        Optional :class:`~repro.admission.guard.OverloadGuard`.  When
        present, dynamic arrivals are routed through its admission gate
        instead of registering directly, and the guard is ticked once per
        engine step (including idle steps) so deadlines and starvation
        aging advance with time.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        interleaving: InterleavingPolicy | None = None,
        max_steps: int = 1_000_000,
        livelock_window: int = 20_000,
        stop_on_livelock: bool = True,
        on_step: StepObserver | None = None,
        overload: "OverloadGuard | None" = None,
    ) -> None:
        self.scheduler = scheduler
        self.interleaving = interleaving or RoundRobin()
        self.max_steps = max_steps
        self.livelock_window = livelock_window
        self.stop_on_livelock = stop_on_livelock
        self.on_step = on_step
        self.overload = overload
        self.trace = Trace()
        self._pending_arrivals: list[tuple[int, TransactionProgram]] = []

    def _step(self, step: int, txn_id: str) -> StepResult:
        """Step *txn_id* as engine step *step*, record what ran in the
        trace and, when a bus sink wants it, publish the same record as a
        STEP event (the run-wide observability stream), so the trace and
        every bus subscriber agree by construction; then notify
        ``on_step``.  Both callers advanced the bus clock to *step*
        first.  The trace keeps the operation itself: its text is
        rendered only when something reads it.
        """
        operation = self.scheduler.transaction(txn_id).current_operation()
        result = self.scheduler.step(txn_id)
        event = self.trace.record(
            step, result, "commit" if operation is None else operation
        )
        bus = self.scheduler.bus
        if bus.wants(EventKind.STEP):
            bus.publish(
                EventKind.STEP,
                event.txn_id,
                outcome=str(event.outcome),
                operation=event.operation,
                cycles=event.cycles,
                actions=event.actions,
            )
        if self.on_step is not None:
            self.on_step(self, event)
        return result

    def add(self, program: TransactionProgram) -> None:
        """Register one more program before (or during) a run."""
        self.scheduler.register(program)

    def add_at(self, step: int, program: TransactionProgram) -> None:
        """Schedule *program* to enter the executing environment at engine
        step *step* (dynamic arrivals; entry order — and therefore the
        Theorem 2 ordering — follows admission time)."""
        if step < 0:
            raise ValueError("arrival step must be non-negative")
        self._pending_arrivals.append((step, program))
        self._pending_arrivals.sort(key=lambda item: item[0])

    def run(self) -> SimulationResult:
        """Execute until every transaction commits (or livelock/step cap)."""
        steps = 0
        last_commit_step = 0
        rollbacks_at_last_commit = 0
        livelocked = False
        runnable_sum = 0
        blocked_sum = 0
        self.interleaving.reset()
        step_hook = getattr(self.scheduler, "on_engine_step", None)
        guard = self.overload
        bus = self.scheduler.bus
        while (
            not self.scheduler.all_done
            or self._pending_arrivals
            or (guard is not None and guard.pending())
        ):
            # The logical clock is the step number the *next* recorded
            # step will carry, so admissions, deadline firings, and the
            # step's own events all timestamp consistently.
            bus.advance(steps + 1)
            while (
                self._pending_arrivals
                and self._pending_arrivals[0][0] <= steps
            ):
                _arrival, program = self._pending_arrivals.pop(0)
                if guard is not None:
                    guard.submit(program, steps)
                else:
                    self.scheduler.register(program)
            if step_hook is not None:
                step_hook(steps)
            if guard is not None:
                guard.tick(steps)
            runnable = self.scheduler.runnable()
            if not runnable and self._pending_arrivals and guard is None:
                # Idle until the next arrival: fast-forward the clock.
                # (With an overload guard, deadlines and admission windows
                # are step-driven, so time must pass tick by tick below.)
                steps = max(steps, self._pending_arrivals[0][0])
                continue
            if not runnable and (step_hook is not None or guard is not None):
                # Everything is blocked; only the scheduler's time-based
                # machinery (distributed wait timeouts, deadline
                # escalation, admission-window growth) can unwedge the
                # system.  Advance idle time until it does or gives up.
                for idle in range(self.max_steps):
                    steps += 1
                    bus.advance(steps + 1)
                    if step_hook is not None:
                        step_hook(steps)
                    if guard is not None:
                        guard.tick(steps)
                    runnable = self.scheduler.runnable()
                    if runnable:
                        break
                    if (
                        self._pending_arrivals
                        and self._pending_arrivals[0][0] <= steps
                    ):
                        break
                if not runnable and self._pending_arrivals:
                    continue
            if not runnable:
                raise SimulationError(
                    "all transactions blocked but none committed: undetected "
                    "deadlock or lost wakeup (scheduler invariant broken)"
                )
            runnable_sum += len(runnable)
            blocked_sum += self.scheduler.blocked_count
            txn_id = self.interleaving.choose(runnable, steps)
            steps += 1
            result = self._step(steps, txn_id)
            if result.outcome is StepOutcome.COMMITTED:
                last_commit_step = steps
                rollbacks_at_last_commit = self.scheduler.metrics.rollbacks
            if self.livelock_window and (
                steps - last_commit_step >= self.livelock_window
                and self.scheduler.metrics.rollbacks > rollbacks_at_last_commit
            ):
                livelocked = True
                if self.stop_on_livelock:
                    break
                raise SimulationError(
                    f"livelock: {self.livelock_window} steps without a "
                    f"commit while rollbacks keep occurring"
                )
            if steps >= self.max_steps:
                raise SimulationError(
                    f"exceeded step budget of {self.max_steps}"
                )
        return SimulationResult(
            steps=steps,
            committed=self.trace.commits_in_order(),
            metrics=self.scheduler.metrics,
            trace=self.trace,
            livelock_detected=livelocked,
            final_state=self.scheduler.database.snapshot(),
            mean_runnable=runnable_sum / steps if steps else 0.0,
            mean_blocked=blocked_sum / steps if steps else 0.0,
            shed=sorted(
                txn_id
                for txn_id, txn in self.scheduler.transactions.items()
                if txn.status is TxnStatus.SHED
            ),
            graph_counters=(
                self.scheduler.lock_manager.table.waits_for
                .counters_snapshot()
            ),
            population=len(self.scheduler.transactions),
        )

    def step_transaction(self, txn_id: str):
        """Step a specific transaction once (scenario scripting helper)."""
        step = len(self.trace) + 1
        self.scheduler.bus.advance(step)
        return self._step(step, txn_id)

    def run_to_block(self, txn_id: str, max_steps: int = 10_000):
        """Step *txn_id* until it blocks, commits, or hits a deadlock.

        Returns the last :class:`~repro.core.scheduler.StepResult`.  Used
        by the figure scenarios, which advance transactions to precise
        blocking points.
        """
        result = None
        for _ in range(max_steps):
            txn = self.scheduler.transaction(txn_id)
            if txn.status is not TxnStatus.READY:
                return result
            result = self.step_transaction(txn_id)
            if result.outcome in (
                StepOutcome.BLOCKED,
                StepOutcome.DEADLOCK,
                StepOutcome.COMMITTED,
            ):
                return result
        raise SimulationError(f"{txn_id} did not block within {max_steps} steps")

    def run_for(self, txn_id: str, steps: int):
        """Step *txn_id* exactly *steps* times (must stay runnable)."""
        result = None
        for _ in range(steps):
            result = self.step_transaction(txn_id)
        return result
