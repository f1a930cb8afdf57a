"""RR004 — seeded-Random plumbing.

RR001 bans the module-global generator; this rule polices the private
generators that replace it.  A ``random.Random()`` constructed without
an argument is seeded from the OS — deterministic code built on top of
it is a contradiction.  And a generator seeded from something the
caller never passed in (a global, an ambient read) cannot be replayed
either.  So every ``random.Random(...)`` construction must be fed:

* a literal constant (a pinned seed is reproducible by definition), or
* an expression that mentions a ``seed``/``rng``-named value, or
* a parameter of the enclosing function/method — the caller then owns
  the seed and public entry points stay replayable end to end
  (``generate_workload(config, seed=...)``,
  ``RandomInterleaving(seed=..., rng=...)`` are the house pattern).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..framework import Checker, Finding, Module

_SEEDY_FRAGMENTS = ("seed", "rng", "random")


def _is_random_ctor(node: ast.Call, from_imports: set[str]) -> bool:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "random"
        and func.attr == "Random"
    ):
        return True
    return (
        isinstance(func, ast.Name)
        and func.id == "Random"
        and "Random" in from_imports
    )


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    every = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return {a.arg for a in every}


class SeededRandomChecker(Checker):
    rule = "RR004"
    title = "seeded-Random plumbing"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """One pass over the module's nodes collects its ``from random``
        imports and its calls; the calls are judged after the pass, once
        the whole import set is known, each against the parameters of
        every function it sits in."""
        from_imports: set[str] = set()
        calls: list[ast.Call] = []
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                from_imports.update(
                    alias.asname or alias.name for alias in node.names
                )
            elif isinstance(node, ast.Call):
                calls.append(node)
        findings: list[Finding] = []
        for call in calls:
            if not _is_random_ctor(call, from_imports):
                continue
            params: set[str] = set()
            scope = module.parents.get(call)
            while scope is not None:
                if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params |= _param_names(scope)
                scope = module.parents.get(scope)
            findings.extend(self._check_ctor(module, call, params))
        return findings

    def _check_ctor(
        self, module: Module, node: ast.Call, params: set[str]
    ) -> Iterable[Finding]:
        if not node.args and not node.keywords:
            yield self.finding(
                module, node,
                "random.Random() without a seed draws entropy from the "
                "OS; pass an explicit seed (or accept one from the "
                "caller)",
            )
            return
        arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
        for expr in arg_exprs:
            if isinstance(expr, ast.Constant):
                return
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    lowered = sub.id.lower()
                    if sub.id in params or any(
                        fragment in lowered
                        for fragment in _SEEDY_FRAGMENTS
                    ):
                        return
                if isinstance(sub, ast.Attribute):
                    lowered = sub.attr.lower()
                    if any(
                        fragment in lowered
                        for fragment in _SEEDY_FRAGMENTS
                    ):
                        return
        yield self.finding(
            module, node,
            "random.Random(...) seeded from a value the caller never "
            "passed in; plumb an explicit seed or rng parameter so the "
            "run stays replayable",
        )
