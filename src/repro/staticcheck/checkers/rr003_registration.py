"""RR003 — registration completeness.

The engine is assembled by name: rollback strategies through
:func:`repro.core.rollback.make_strategy`, victim policies through
:func:`repro.core.victim.make_policy` (with the deliberately-broken
fault policies in :data:`repro.verification.faults.FAULT_POLICIES`),
and invariant oracles through :data:`repro.verification.oracles._ORACLE_TYPES`
(which also defines the fuzzer's default "all" suite).  A concrete
subclass that never makes it into its registry is invisible to the CLI,
the differential fuzzer, and the chaos sweeps — the worst kind of drift
because everything still passes, just with one implementation silently
untested.

This is a whole-project rule: it collects every concrete subclass of
``RollbackStrategy`` / ``VictimPolicy`` / ``Oracle`` (and of the lint
rules' own ``Checker``, registered in ``default_checkers``) across the
linted tree and demands each is referenced from at least one registry
site.  A kind whose registries are absent from the linted tree is
skipped, so linting a subtree does not produce spurious findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..framework import Checker, Finding, Module

#: Root class -> the functions / module-level constants that count as its
#: registry.  A concrete subclass must be referenced by name inside one.
_KINDS: dict[str, tuple[str, ...]] = {
    "RollbackStrategy": ("make_strategy", "_strategy_registry"),
    "VictimPolicy": (
        "make_policy",
        "_POLICY_REGISTRY",
        "resolve_policy",
        "FAULT_POLICIES",
    ),
    "Oracle": ("make_oracles", "_ORACLE_TYPES", "oracle_names"),
    # The lint rules themselves: one left out of the default suite
    # checks nothing, and ``repro lint`` still exits 0.
    "Checker": ("default_checkers",),
}


@dataclass
class _ClassInfo:
    name: str
    module: Module
    node: ast.ClassDef
    bases: list[str] = field(default_factory=list)
    abstract: bool = False


def _base_names(node: ast.ClassDef) -> list[str]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_abstract(node: ast.ClassDef) -> bool:
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                name = (
                    decorator.attr
                    if isinstance(decorator, ast.Attribute)
                    else decorator.id
                    if isinstance(decorator, ast.Name)
                    else ""
                )
                if name == "abstractmethod":
                    return True
    return False


class RegistrationChecker(Checker):
    rule = "RR003"
    title = "registration completeness"

    def check_project(
        self, modules: Sequence[Module]
    ) -> Iterable[Finding]:
        classes: dict[str, _ClassInfo] = {}
        registry_refs: dict[str, set[str]] = {site: set() for sites in
                                              _KINDS.values()
                                              for site in sites}
        registry_present: set[str] = set()
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = _ClassInfo(
                        name=node.name,
                        module=module,
                        node=node,
                        bases=_base_names(node),
                        abstract=_is_abstract(node),
                    )
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in registry_refs
                ):
                    registry_present.add(node.name)
                    registry_refs[node.name] |= _names_in(node)
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in registry_refs
                            and node.value is not None
                        ):
                            registry_present.add(target.id)
                            registry_refs[target.id] |= _names_in(node.value)

        findings: list[Finding] = []
        for info in classes.values():
            kind = self._kind_of(info, classes)
            if kind is None or info.name.startswith("_"):
                continue
            if info.abstract:
                continue
            sites = [s for s in _KINDS[kind] if s in registry_present]
            if not sites:
                continue  # registries not part of the linted tree
            referenced = any(
                info.name in registry_refs[site] for site in sites
            )
            if not referenced:
                findings.append(
                    self.finding(
                        info.module, info.node,
                        f"{kind} subclass {info.name!r} is not referenced "
                        f"from any registry ({', '.join(_KINDS[kind])}); "
                        f"the CLI and fuzzer cannot reach it",
                    )
                )
        return findings

    @staticmethod
    def _kind_of(
        info: _ClassInfo, classes: dict[str, _ClassInfo]
    ) -> str | None:
        """The root kind *info* descends from, following project bases."""
        seen: set[str] = set()
        frontier = list(info.bases)
        while frontier:
            base = frontier.pop()
            if base in seen:
                continue
            seen.add(base)
            if base in _KINDS:
                return base
            parent = classes.get(base)
            if parent is not None:
                frontier.extend(parent.bases)
        return None


def _names_in(node: ast.AST) -> set[str]:
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }
