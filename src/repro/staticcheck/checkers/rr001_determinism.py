"""RR001 — nondeterminism hazards.

Every subsystem of this repo promises bit-for-bit reproducibility from a
seed: the fuzzer replays failures from a schedule, the chaos engine
derives a whole fault campaign from one integer, and trace fingerprints
assert step-for-step equality across runs.  One stray read of ambient
state breaks all of it silently.  This rule flags the ambient-state
reads that have actually bitten seeded systems:

* calls through the module-global ``random`` generator (shared,
  order-sensitive state; any library call can perturb it);
* wall-clock reads (``time.time``/``time_ns``, ``datetime.now`` and
  friends) — ``time.monotonic`` for *budgets* is acceptable and is the
  canonical noqa site;
* ordering keyed on ``id()`` (CPython allocation addresses vary run to
  run);
* direct iteration over a set expression feeding an ordering-sensitive
  sink — ``for x in set(...)``, ``list({...})``, ``next(iter(set(..)))``
  — string hashes are randomized per process (PYTHONHASHSEED), so the
  order differs between runs; wrap in ``sorted(...)``;
* ``os.environ`` / ``os.getenv`` reads — configuration must arrive
  through explicit parameters so a replay does not depend on the
  caller's shell.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..framework import Checker, Finding, Module

_WALLCLOCK_TIME = {"time", "time_ns"}
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "iter", "enumerate"}


def _is_set_expr(node: ast.expr) -> bool:
    """Conservatively: does *node* evaluate to a set (syntactically)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_id_key(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        return any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "id"
            for call in ast.walk(node.body)
        )
    return False


class NondeterminismChecker(Checker):
    rule = "RR001"
    title = "nondeterminism hazards"

    def check_module(self, module: Module) -> Iterable[Finding]:
        """One pass over the module's nodes: imports are checked and
        collected as they are met, and every other candidate node is
        judged after the pass, once the module's whole import set is
        known."""
        imported: set[str] = set()
        findings: list[Finding] = []
        candidates: list[ast.AST] = []
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import_from(module, node))
                if node.module:
                    # ``from datetime import datetime`` also puts the
                    # wall-clock API in scope under the module's name.
                    for alias in node.names:
                        if alias.name == node.module:
                            imported.add(alias.asname or alias.name)
            elif isinstance(
                node,
                (ast.Call, ast.Attribute, ast.For, ast.AsyncFor,
                 ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                candidates.append(node)
        for node in candidates:
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, imported))
            elif isinstance(node, ast.Attribute):
                findings.extend(
                    self._check_environ(module, node, imported)
                )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                findings.extend(self._check_iteration(module, node.iter))
            else:
                for generator in node.generators:
                    findings.extend(
                        self._check_iteration(module, generator.iter)
                    )
        return findings

    # -- sub-rules ---------------------------------------------------------

    def _check_import_from(
        self, module: Module, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            bad = [
                alias.name for alias in node.names if alias.name != "Random"
            ]
            if bad:
                yield self.finding(
                    module, node,
                    f"importing {', '.join(bad)} from random binds the "
                    f"shared global generator; import random.Random and "
                    f"thread an instance instead",
                )

    def _check_call(
        self, module: Module, node: ast.Call, imported: set[str]
    ) -> Iterator[Finding]:
        func = node.func
        # random.X(...) through the module-global generator.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and "random" in imported
            and func.attr != "Random"
        ):
            yield self.finding(
                module, node,
                f"random.{func.attr}() draws from the shared global "
                f"generator; use an explicit random.Random instance",
            )
        # time.time()/time.time_ns()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and "time" in imported
            and func.attr in _WALLCLOCK_TIME
        ):
            yield self.finding(
                module, node,
                f"time.{func.attr}() reads the wall clock; results become "
                f"irreproducible (pass timestamps or counters explicitly)",
            )
        # datetime.now()/utcnow()/today() in any spelling that mentions
        # the datetime module or class.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _WALLCLOCK_DATETIME
            and _mentions_datetime(func.value)
            and "datetime" in imported
        ):
            yield self.finding(
                module, node,
                f"datetime {func.attr}() reads the wall clock; replays "
                f"cannot reproduce it",
            )
        # os.getenv(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and "os" in imported
            and func.attr == "getenv"
        ):
            yield self.finding(
                module, node,
                "os.getenv() makes behaviour depend on the caller's shell; "
                "accept configuration through explicit parameters",
            )
        # sorted(..., key=id) / .sort(key=id) / min/max(key=id)
        for keyword in node.keywords:
            if keyword.arg == "key" and _is_id_key(keyword.value):
                yield self.finding(
                    module, node,
                    "ordering keyed on id() follows allocation addresses, "
                    "which differ between runs; key on stable identity "
                    "(name, ordinal) instead",
                )
        # list(set(...)), tuple({...}), iter(set(...)), enumerate(set(..))
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDER_SENSITIVE_WRAPPERS
            and node.args
            and _is_set_expr(node.args[0])
        ):
            yield self.finding(
                module, node,
                f"{func.id}() over a set materialises hash order, which is "
                f"randomized per process; wrap the set in sorted(...)",
            )

    def _check_environ(
        self, module: Module, node: ast.Attribute, imported: set[str]
    ) -> Iterator[Finding]:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and "os" in imported
            and node.attr == "environ"
        ):
            yield self.finding(
                module, node,
                "os.environ read makes behaviour depend on the caller's "
                "shell; accept configuration through explicit parameters",
            )

    def _check_iteration(
        self, module: Module, iter_node: ast.expr
    ) -> Iterator[Finding]:
        if _is_set_expr(iter_node):
            yield self.finding(
                module, iter_node,
                "iterating a set yields hash order, which is randomized "
                "per process; iterate sorted(...) so downstream ordering "
                "is stable",
            )


def _mentions_datetime(node: ast.expr) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id == "datetime"
        for sub in ast.walk(node)
    )
