"""Victim selection policies (§3.1–§3.2).

Given a detected :class:`~repro.core.detection.Deadlock`, a policy chooses
the set of transactions to roll back and how far.  The cost of rolling a
transaction back is the number of states it loses; the *ideal* target for a
victim is the latest lock state at which it holds none of the entities the
other deadlocked transactions wait for, and the active rollback strategy
may clamp that target further down (single-copy strategies can only reach
well-defined states; total restart only state 0).

Policies implemented:

``min-cost``
    The paper's unconstrained optimisation: the cheapest set of victims
    whose rollback breaks every cycle — the minimum vertex separator, or
    the requester alone when that costs no more.  Vulnerable to
    *potentially infinite mutual preemption* (Figure 2).

``ordered-min-cost``
    Theorem 2's fix: only transactions below the requester in a
    time-invariant partial order (here: entry order — later entrants are
    "below" earlier... concretely ``allowed = {T_i : order(T_i) >
    order(requester)} ∪ {requester}``) may be preempted; the cheapest
    cover among the younger members wins when one exists.  Because every
    cycle passes through the requester, the requester alone is always a
    feasible cover, so selection never fails.

``requester``
    Always roll back the conflict-causing transaction — the simplest
    choice (§3.2 notes it removes *all* cycles at once; it makes no
    progress claim, and under partial rollback it can re-close the same
    cycle forever).

``youngest`` / ``oldest``
    Classic baselines: prefer the latest/earliest entrant among deadlock
    members, adding victims until every cycle is covered.

Every cycle passes through the requester (detection runs at every wait
response), so "covers every cycle" means "no path from the requester back
to itself avoids the victims" — a property of the deadlock's *arcs*.  No
policy consults the enumerated ``Deadlock.cycles``, which may be truncated;
the optimum is :func:`repro.graphs.algorithms.min_vertex_separator`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Mapping

from ..errors import DeadlockUnresolvableError
from ..graphs import algorithms
from .detection import Deadlock
from .rollback import RollbackStrategy
from .transaction import Transaction

TxnId = str


@dataclass(frozen=True)
class RollbackAction:
    """A chosen victim and the lock state it will be rolled back to."""

    txn_id: TxnId
    target_ordinal: int
    cost: int

    def __str__(self) -> str:
        return (
            f"rollback {self.txn_id} -> lock state {self.target_ordinal} "
            f"(cost {self.cost})"
        )


class VictimContext:
    """Everything a policy may consult when choosing victims.

    Computes, per deadlocked transaction, the rollback action that would
    remove its outgoing cycle arcs: the ideal target (just before it locked
    the earliest entity other members wait for), clamped by the strategy,
    costed in lost states.
    """

    def __init__(
        self,
        deadlock: Deadlock,
        transactions: Mapping[TxnId, Transaction],
        strategy: RollbackStrategy,
    ) -> None:
        self.deadlock = deadlock
        self.transactions = transactions
        self.strategy = strategy
        self._actions: dict[TxnId, RollbackAction] = {}

    @property
    def requester(self) -> TxnId:
        return self.deadlock.requester

    def entry_order(self, txn_id: TxnId) -> int:
        return self.transactions[txn_id].entry_order

    def action_for(self, txn_id: TxnId) -> RollbackAction:
        """The rollback action that takes *txn_id* out of the deadlock."""
        if txn_id in self._actions:
            return self._actions[txn_id]
        txn = self.transactions[txn_id]
        entities = self.deadlock.waited_entities_of(txn_id)
        if not entities:
            raise DeadlockUnresolvableError(
                f"{txn_id} holds nothing the deadlock waits for"
            )
        ideal = min(
            txn.record_for_entity(entity).ordinal for entity in entities
        )
        target = self.strategy.choose_target(txn, ideal)
        cost = txn.state_index - txn.lock_state_state_index(target)
        action = RollbackAction(txn_id, target, cost)
        self._actions[txn_id] = action
        return action

    def cost_of(self, txn_id: TxnId) -> int:
        return self.action_for(txn_id).cost

    def cheapest_cover(self, candidates: set[TxnId]) -> set[TxnId] | None:
        """The minimum-cost subset of *candidates* (requester excluded)
        whose rollback breaks every cycle, or ``None`` when some cycle
        avoids them all."""
        return algorithms.min_vertex_separator(
            self.deadlock.arcs, self.requester, self.cost_of, candidates
        )

    def still_deadlocked(self, victims: set[TxnId]) -> set[TxnId]:
        """Members left on a cycle once *victims* are rolled back."""
        return algorithms.on_cycles_through(
            self.deadlock.arcs, self.requester, without=victims
        )

    def evaluated_actions(self) -> list[RollbackAction]:
        """Every candidate action this context costed while the policy
        deliberated, in victim-id order — the observability layer attaches
        them to VICTIM_SELECT events so a trace shows the costs the
        decision compared, not just the winner."""
        return [
            self._actions[txn_id] for txn_id in sorted(self._actions)
        ]


class VictimPolicy(abc.ABC):
    """Strategy interface for choosing deadlock victims."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        """Return rollback actions whose application breaks every cycle."""

    def _validated(
        self, ctx: VictimContext, victims: set[TxnId]
    ) -> list[RollbackAction]:
        """Sanity-check that *victims* hit every cycle, then build actions."""
        missed = ctx.still_deadlocked(victims)
        if missed:
            raise DeadlockUnresolvableError(
                f"victim set {sorted(victims)} leaves a cycle among "
                f"{sorted(missed)}"
            )
        return [ctx.action_for(txn_id) for txn_id in sorted(victims)]


class MinCostPolicy(VictimPolicy):
    """Unconstrained minimum-cost victim selection (§3.1/§3.2 optimum)."""

    name = "min-cost"

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        # One victim beats several: the requester alone wins ties.
        requester = ctx.requester
        victims = ctx.cheapest_cover(ctx.deadlock.members)
        if victims is None or ctx.cost_of(requester) <= sum(
            map(ctx.cost_of, victims)
        ):
            victims = {requester}
        return self._validated(ctx, victims)


class OrderedMinCostPolicy(VictimPolicy):
    """Theorem 2: min-cost selection restricted by a time-invariant order.

    A transaction ``T_i`` may be preempted by a conflict caused by ``T_j``
    only if ``T_i`` entered the system after ``T_j`` (``T_i ω T_j``); the
    requester may always roll itself back.  The order is time-invariant, so
    no set of transactions can mutually preempt each other forever.
    """

    name = "ordered-min-cost"

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        requester_order = ctx.entry_order(ctx.requester)
        younger = {
            txn_id
            for txn_id in ctx.deadlock.members
            if ctx.entry_order(txn_id) > requester_order
        }
        # Prefer the cheapest cover among strictly-younger members: every
        # preemption arc then runs old -> young, so no set of transactions
        # can preempt each other forever (Theorem 2).  Only when some cycle
        # has no preemptible younger member does the requester roll itself
        # back — a fallback that always exists because every cycle passes
        # through the requester.
        victims = ctx.cheapest_cover(younger) or {ctx.requester}
        return self._validated(ctx, victims)


class RequesterPolicy(VictimPolicy):
    """Always roll back the transaction that caused the conflict."""

    name = "requester"

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        return self._validated(ctx, {ctx.requester})


class _EntryOrderPolicy(VictimPolicy):
    """Common machinery for youngest/oldest baselines: repeatedly take the
    preferred member among transactions still on a cycle."""

    def __init__(self, prefer_latest: bool) -> None:
        self._prefer_latest = prefer_latest

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        # Self-rollback is always permitted, and the requester is on every
        # cycle: the pool is non-empty for as long as a cycle remains.
        pick = max if self._prefer_latest else min
        victims: set[TxnId] = set()
        while remaining := ctx.still_deadlocked(victims):
            victims.add(pick(remaining, key=lambda t: (ctx.entry_order(t), t)))
        return self._validated(ctx, victims)


class YoungestPolicy(_EntryOrderPolicy):
    """Prefer the most recent entrant (classic 'abort the youngest')."""

    name = "youngest"

    def __init__(self) -> None:
        super().__init__(prefer_latest=True)


class OldestPolicy(_EntryOrderPolicy):
    """Prefer the earliest entrant (pathological baseline for comparison)."""

    name = "oldest"

    def __init__(self) -> None:
        super().__init__(prefer_latest=False)


#: Registry of selectable policies, in documentation order.
_POLICY_REGISTRY: dict[str, Callable[[], VictimPolicy]] = {
    "min-cost": MinCostPolicy,
    "ordered-min-cost": OrderedMinCostPolicy,
    "requester": RequesterPolicy,
    "youngest": YoungestPolicy,
    "oldest": OldestPolicy,
}


def available_policies() -> tuple[str, ...]:
    """Every CLI-selectable victim-policy name, in registry order."""
    return tuple(_POLICY_REGISTRY)


def make_policy(name: str) -> VictimPolicy:
    """Factory for victim policies by :attr:`VictimPolicy.name`."""
    if name not in _POLICY_REGISTRY:
        raise ValueError(
            f"unknown victim policy {name!r}; choose from "
            f"{sorted(_POLICY_REGISTRY)}"
        )
    return _POLICY_REGISTRY[name]()
