"""RR006 — no ``await`` while a lock-table mutation is open.

The service layer keeps the paper's machinery sound under concurrency
by construction: :class:`~repro.service.core.ServiceCore` and the lock
manager underneath it are synchronous critical sections, and the async
transport only ever calls them *between* awaits.  Journal append, table
mutation, and reply delivery therefore happen atomically with respect
to the event loop — no other connection's coroutine can observe a
half-applied mutation, which is what makes crash replay and the
differential oracle exact.

An ``async def`` that mutates the lock table (or drives the core's
``handle``/``tick``) and *then* awaits breaks that discipline: the
coroutine yields while its mutation's consequences — the reply, the
journal ordering other handlers will replay against — are still open,
and another connection interleaves into the gap.  The bug is invisible
under a single client and nondeterministic under several, so it is
checked here instead of at runtime.

The rule fires on any ``await`` that occurs lexically after a mutating
call inside the same ``async def``.  The fix is a shape change, not a
waiver: hoist the awaits (reads, sleeps) above the mutation, or push
the mutation into a synchronous helper called once, last.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..framework import Checker, Finding, Module

#: Calls that open a lock-table / core mutation: the LockTable's and
#: LockManager's mutating surface plus the service core's entry points.
_MUTATING_CALLS = {
    "request",
    "release",
    "release_all",
    "cancel_wait",
    "lock",
    "unlock",
    "finish",
    "handle",
    "tick",
    "rollback_to",
}


def _mutating_call(node: ast.AST) -> str | None:
    """The mutating-API name *node* invokes, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _MUTATING_CALLS:
        return func.attr
    if isinstance(func, ast.Name) and func.id in _MUTATING_CALLS:
        return func.id
    return None


class AwaitDisciplineChecker(Checker):
    rule = "RR006"
    title = "await while a lock-table mutation is open"
    severity = "warning"

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in module.nodes:
            if not isinstance(node, ast.AsyncFunctionDef):
                continue
            findings.extend(self._check_coroutine(module, node))
        return findings

    def _check_coroutine(
        self, module: Module, coroutine: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        """Awaits after a mutating call, in lexical order.

        Nested function definitions are opaque scopes: a sync helper
        cannot await, and a nested ``async def`` is its own coroutine
        (the module's walk visits it separately).
        """
        events: list[tuple[int, int, str, str]] = []
        stack: list[ast.AST] = list(ast.iter_child_nodes(coroutine))
        while stack:
            node = stack.pop()
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                continue
            name = _mutating_call(node)
            if name is not None:
                events.append((node.lineno, node.col_offset, "mutate", name))
            if isinstance(node, ast.Await):
                events.append((node.lineno, node.col_offset, "await", ""))
            stack.extend(ast.iter_child_nodes(node))
        open_mutation: tuple[int, str] | None = None
        for lineno, col, kind, name in sorted(events):
            if kind == "mutate":
                if open_mutation is None:
                    open_mutation = (lineno, name)
            elif open_mutation is not None:
                at, call = open_mutation
                yield Finding(
                    rule=self.rule,
                    message=(
                        f"await while the lock-table mutation opened by "
                        f"{call}(...) at line {at} is still in flight; "
                        f"finish the mutation and its reply before "
                        f"yielding to the event loop"
                    ),
                    path=str(module.path),
                    line=lineno,
                    col=col,
                    severity=self.severity,
                )
