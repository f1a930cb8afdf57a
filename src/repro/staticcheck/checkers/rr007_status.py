"""RR007 — transaction status changes go through the scheduler.

:class:`repro.core.scheduler.Scheduler` answers ``runnable()``,
``blocked_count`` and ``all_done`` from an index it keeps at the status
transitions it owns, so that an engine step never rescans the
population.  The index is only right while every transition passes
through its single writer, ``Scheduler._set_status`` (and
``Transaction.apply_rollback``, which ``force_rollback`` reconciles
around).  A stray assignment of ``TxnStatus.BLOCKED`` to
``txn.status`` in a scheduler subclass, an admission component or a
service handler leaves the transaction in the ready list with a status
that says otherwise — the run keeps going and chooses differently; only
the ``graph-consistency`` oracle would notice, and only on a checked run.

Outside :mod:`repro.core.scheduler` and :mod:`repro.core.transaction`
this rule therefore forbids assigning a ``TxnStatus`` member to any
attribute named ``status``.  Reading and comparing a status stays
unrestricted, as does a ``status`` attribute that holds something else
(an HTTP code, a circuit-breaker state).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..framework import Checker, Finding, Module

_OWNERS = ("repro.core.scheduler", "repro.core.transaction")


def _txn_status_member(value: ast.expr) -> str | None:
    """The member name if *value* mentions ``TxnStatus.<member>`` (bare
    or through a module path, anywhere in the expression)."""
    for node in ast.walk(value):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        name = (
            owner.id if isinstance(owner, ast.Name)
            else owner.attr if isinstance(owner, ast.Attribute)
            else None
        )
        if name == "TxnStatus":
            return node.attr
    return None


class StatusDisciplineChecker(Checker):
    rule = "RR007"
    title = "transaction status changes only through the scheduler"

    def check_module(self, module: Module) -> Iterable[Finding]:
        if any(module.in_package(owner) for owner in _OWNERS):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            member = _txn_status_member(node.value)
            if member is None:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "status"
                ):
                    findings.append(
                        self.finding(
                            module, node,
                            f"direct assignment of TxnStatus.{member} to "
                            f"a .status attribute bypasses "
                            f"Scheduler._set_status, so runnable(), "
                            f"blocked_count and all_done go stale; call "
                            f"the scheduler's writer (or shed / "
                            f"force_rollback) instead",
                        )
                    )
        return findings
