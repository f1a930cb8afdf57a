"""RR002 — lock-API discipline.

Theorem 1 (the deadlock-free concurrency graph is a forest) and the
detector's "every new cycle passes through the requester" shortcut are
properties of the *protocol*, not the data structure: they hold because
every acquisition and release flows through
:class:`~repro.locking.manager.LockManager`, which enforces two-phase
order and never-rollback-after-unlock.  Code that pokes the lock table
directly sidesteps those guards, and nothing at runtime would notice
until an oracle fires on a workload that happens to hit the hole.

Outside :mod:`repro.locking` this rule therefore forbids:

* touching the table's/manager's private state (``_locks``,
  ``_held_by_txn``, ``_waiting``, ``_seq``, ``_grant``, ``_drain``,
  ``_shrinking``, ``_declared_last_lock``) on any object other than
  ``self`` — reading it couples callers to the representation, writing
  it corrupts the protocol;
* calling the table's mutating API through a ``.table`` attribute
  (``manager.table.request(...)`` bypasses two-phase enforcement;
  read-only inspection like ``manager.table.holders(...)`` is fine);
* constructing a bare :class:`~repro.locking.table.LockTable` — other
  layers must own a :class:`LockManager` so the protocol checks exist.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..framework import Checker, Finding, Module

_LOCK_PACKAGE = "repro.locking"
_PRIVATE_STATE = {
    "_locks",
    "_held_by_txn",
    "_waiting",
    "_seq",
    "_grant",
    "_drain",
    "_shrinking",
    "_declared_last_lock",
}
_MUTATING_TABLE_API = {
    "request", "release", "release_many", "release_all", "cancel_wait",
}


class LockDisciplineChecker(Checker):
    rule = "RR002"
    title = "lock-API discipline"

    def check_module(self, module: Module) -> Iterable[Finding]:
        if module.in_package(_LOCK_PACKAGE):
            return ()
        findings: list[Finding] = []
        for node in module.nodes:
            if isinstance(node, ast.Attribute):
                if node.attr in _PRIVATE_STATE and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    findings.append(
                        self.finding(
                            module, node,
                            f"access to lock-table internal "
                            f"{node.attr!r} outside repro.locking; use "
                            f"the LockManager/LockTable public API",
                        )
                    )
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_TABLE_API
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "table"
                ):
                    findings.append(
                        self.finding(
                            module, node,
                            f".table.{func.attr}(...) mutates the lock "
                            f"table behind the LockManager's back, "
                            f"bypassing two-phase enforcement; call the "
                            f"manager's lock/unlock/finish API",
                        )
                    )
                if (
                    isinstance(func, ast.Name)
                    and func.id == "LockTable"
                ):
                    findings.append(
                        self.finding(
                            module, node,
                            "constructing a bare LockTable outside "
                            "repro.locking skips protocol enforcement; "
                            "own a LockManager instead",
                        )
                    )
        return findings
