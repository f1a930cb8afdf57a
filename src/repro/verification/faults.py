"""Deliberately broken components for exercising the oracles.

These are *test-only* fault injections: plausible implementation bugs
planted so the verification suite can prove the oracles actually catch
them (an oracle that never fires is indistinguishable from a vacuous
one).  They are registered here — not in
:func:`repro.core.victim.make_policy` — so production factories can never
construct them by accident; the replayer resolves them through
:func:`resolve_policy` when a regression case names one.
"""

from __future__ import annotations

from typing import Callable

from ..core.victim import (
    OrderedMinCostPolicy,
    RollbackAction,
    VictimContext,
    VictimPolicy,
    make_policy,
)


class BrokenOrderPolicy(OrderedMinCostPolicy):
    """Theorem 2's ordering discipline with the comparison flipped.

    Where :class:`OrderedMinCostPolicy` restricts preemption to *later*
    entrants than the requester, this version restricts it to *earlier*
    entrants — the classic off-by-one-direction bug.  Every deadlock whose
    members include an elder of the requester then preempts that elder,
    which the ``preemption-order`` oracle must flag.
    """

    name = "broken-ordered-min-cost"

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        requester_order = ctx.entry_order(ctx.requester)
        elders = {
            txn_id
            for txn_id in ctx.deadlock.members
            if ctx.entry_order(txn_id) < requester_order
        }
        victims = ctx.cheapest_cover(elders) or {ctx.requester}
        return self._validated(ctx, victims)


class FirstCycleOnlyPolicy(VictimPolicy):
    """Resolves only the first enumerated cycle of a multi-cycle deadlock.

    With shared locks one wait can close several cycles (Figure 3); a
    resolver that forgets the rest leaves a live cycle in the waits-for
    graph, which the ``graph-acyclic`` oracle must flag on the next step.
    Victim choice within the first cycle follows the ordering discipline,
    so only the missing-cycles bug is planted.
    """

    name = "broken-first-cycle-only"

    def select(self, ctx: VictimContext) -> list[RollbackAction]:
        # Deciding from the enumerated record is part of the planted bug.
        first = ctx.deadlock.cycles[0]
        victim = max(first, key=lambda t: (ctx.entry_order(t), t))
        # No cycle-cover validation on purpose: that check is the bug
        # being planted.
        return [ctx.action_for(victim)]


FAULT_POLICIES: dict[str, Callable[[], VictimPolicy]] = {
    BrokenOrderPolicy.name: BrokenOrderPolicy,
    FirstCycleOnlyPolicy.name: FirstCycleOnlyPolicy,
}


def resolve_policy(name: str) -> VictimPolicy:
    """A victim policy by name, checking the fault registry first.

    Production names fall through to
    :func:`repro.core.victim.make_policy`.
    """
    if name in FAULT_POLICIES:
        return FAULT_POLICIES[name]()
    return make_policy(name)
