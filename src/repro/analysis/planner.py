"""Offline retention planning: compile-time optimisation of rollback.

§5 closes with two pointers to future work: restructuring transactions at
compilation time, and allocating "a bounded amount of extra storage to the
entities in order to maximize the number of well-defined states".  This
module combines them: given a *program* (so the write placement is known
statically) and a retention budget *k*, decide **which** destructive
writes should retain the value they overwrite so that the number of
well-defined lock states at the final lock state is maximised.

Model
-----
Each destructive write (a re-write of variable *x* at a later lock index)
kills the lock states in the half-open interval ``(prev_write, this
write]``.  Retaining the overwritten value neutralises exactly that
interval.  With intervals ``I_1..I_m`` and budget ``k``, choose a subset
``S`` (|S| <= k) maximising the number of lock states not covered by the
un-neutralised intervals — a weighted maximum-coverage problem over
interval complements.  Exact search is exponential in *m*; for the small
*m* real transactions have we solve exactly, and fall back to the classic
greedy (pick the interval whose neutralisation uncovers the most states)
beyond a threshold, inheriting greedy max-coverage's (1 - 1/e) guarantee.

The resulting plan is enforced at runtime by :func:`planned_allocator`,
a drop-in allocator for
:class:`~repro.core.k_copy.KCopyStrategy`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.transaction import TransactionProgram
from .structure import run_alone

#: Above this many destructive writes the exact subset search is skipped.
EXACT_PLAN_LIMIT = 14


@dataclass(frozen=True)
class KillInterval:
    """A destructive write: retaining its overwritten value keeps the lock
    states in ``(lo, hi]`` well-defined."""

    variable: str
    lo: int
    hi: int

    def states(self) -> set[int]:
        return set(range(self.lo + 1, self.hi + 1))


def kill_intervals(program: TransactionProgram) -> list[KillInterval]:
    """Statically enumerate the program's destructive writes, by the lock
    index of the write.

    They are read off the write history the single-copy strategy records
    when the program runs alone (:func:`~repro.analysis.structure.
    run_alone`), so what counts as a write — a read into a local and an
    assignment do, the assignment that creates an undeclared local does
    not, nothing does after a last-lock declaration — is the runtime's
    rule by construction.
    """
    strategy, txn = run_alone(program)
    writes: dict[str, list[int]] = {}
    for lock_index, variable in strategy.write_history(txn):
        writes.setdefault(variable, []).append(lock_index)
    return sorted(
        (
            KillInterval(variable, lo, hi)
            for variable, indices in writes.items()
            for lo, hi in zip(indices, indices[1:])
            if hi > lo
        ),
        key=lambda interval: interval.hi,
    )


def _well_defined(
    program: TransactionProgram,
    intervals: list[KillInterval],
    neutralised: set[KillInterval],
) -> list[int]:
    covered: set[int] = set()
    for interval in intervals:
        if interval not in neutralised:
            covered |= interval.states()
    n_locks = len(program.lock_operations)
    return [q for q in range(n_locks + 1) if q not in covered]


def well_defined_after(
    program: TransactionProgram, neutralised: set[KillInterval]
) -> list[int]:
    """Well-defined lock states if *neutralised* intervals are retained."""
    return _well_defined(program, kill_intervals(program), neutralised)


@dataclass
class RetentionPlan:
    """Which destructive writes should retain, and what that buys."""

    program_id: str
    budget: int
    chosen: set[KillInterval]
    well_defined: list[int]
    baseline_well_defined: list[int]

    @property
    def gain(self) -> int:
        return len(self.well_defined) - len(self.baseline_well_defined)


def plan_retention(
    program: TransactionProgram, budget: int
) -> RetentionPlan:
    """Choose up to *budget* intervals to neutralise, maximising the
    number of well-defined lock states at the final lock state."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    intervals = kill_intervals(program)
    baseline = _well_defined(program, intervals, set())
    if budget == 0 or not intervals:
        return RetentionPlan(
            program.txn_id, budget, set(), baseline, baseline
        )
    if len(intervals) <= EXACT_PLAN_LIMIT:
        chosen = _plan_exact(program, intervals, budget)
    else:
        chosen = _plan_greedy(program, intervals, budget)
    return RetentionPlan(
        program.txn_id,
        budget,
        chosen,
        _well_defined(program, intervals, chosen),
        baseline,
    )


def _plan_exact(
    program: TransactionProgram,
    intervals: list[KillInterval],
    budget: int,
) -> set[KillInterval]:
    best: set[KillInterval] = set()
    best_count = len(_well_defined(program, intervals, set()))
    max_size = min(budget, len(intervals))
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(intervals, size):
            chosen = set(combo)
            count = len(_well_defined(program, intervals, chosen))
            if count > best_count:
                best, best_count = chosen, count
    return best


def _plan_greedy(
    program: TransactionProgram,
    intervals: list[KillInterval],
    budget: int,
) -> set[KillInterval]:
    chosen: set[KillInterval] = set()
    for _ in range(min(budget, len(intervals))):
        current = len(_well_defined(program, intervals, chosen))
        best_gain = 0
        best_interval = None
        for interval in intervals:
            if interval in chosen:
                continue
            gain = len(
                _well_defined(program, intervals, chosen | {interval})
            ) - current
            if gain > best_gain:
                best_gain, best_interval = gain, interval
        if best_interval is None:
            break
        chosen.add(best_interval)
    return chosen


def planned_allocator(plan: RetentionPlan):
    """Allocator for :class:`~repro.core.k_copy.KCopyStrategy` enforcing a
    precomputed plan.

    The runtime allocator is consulted per destructive write with the
    interval's width, the variable, and the write's lock index; the pair
    ``(variable, lock index)`` uniquely identifies the interval, so the
    allocator retains exactly the planned set.  Writes the plan did not
    select are declined even when budget remains.

    Note: kill intervals are keyed by the variable's *runtime* name with
    the ``e:``/``l:`` prefix the planner uses, while
    :class:`~repro.core.k_copy.KCopyStrategy` reports bare names — the
    allocator accepts both.
    """
    keys = {(iv.variable, iv.hi) for iv in plan.chosen}
    bare = {
        (variable.split(":", 1)[1], hi) for variable, hi in keys
    }

    def allocate(_width: int, variable: str, lock_index: int) -> bool:
        return (variable, lock_index) in keys or (
            (variable, lock_index) in bare
        )

    return allocate
