"""The checker framework: findings, suppression, file walking.

A :class:`Checker` inspects one parsed module at a time
(:meth:`Checker.check_module`, e.g. "this call is nondeterministic")
and yields :class:`Finding` objects.

Suppression follows the repo's own pragma, not a third-party tool's::

    self._deadline = time.monotonic()  # repro: noqa[RR001] wall-clock budget only

The bracketed list names the rules being waived on that physical line;
the trailing free text is the justification.  A pragma without a
justification still suppresses, but ``repro lint`` reports it so bare
waivers stay visible in review.

Rule codes are extracted from the bracket region by token, not by
splitting the whole region on commas, so punctuation in the region —
a parenthetical, a stray ``[`` from quoted code — cannot silently kill
the pragma, and ``noqa[RR001 RR002]`` (space-separated) waives both
rules rather than neither.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: ``# repro: noqa[RR001]`` or ``# repro: noqa[RR001,RR004] because ...``
#: The bracket region is anything up to the first ``]``; rule codes are
#: pulled out of it by token so commentary inside the brackets is inert.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[^\]]*)\]\s*(?P<why>.*)$"
)
_RULE_TOKEN_RE = re.compile(r"RR\d+", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int = 0
    #: ``"error"`` findings are protocol violations; ``"warning"``
    #: findings are interleaving hazards a human should stare at.  Both
    #: fail ``repro lint`` — severity only grades how CI annotates them.
    severity: str = "error"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity}: {self.rule} {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class Suppression:
    """A noqa pragma: which rules it waives on which line, and why."""

    line: int
    rules: tuple[str, ...]
    justification: str

    def covers(self, finding: Finding) -> bool:
        return finding.line == self.line and finding.rule in self.rules


@dataclass
class Module:
    """One parsed source file, plus the metadata checkers scope on."""

    path: Path
    #: Dotted module name when the file sits inside a package
    #: (``repro.locking.table``); the bare stem otherwise.  Scope rules
    #: ("only inside ``repro.locking``") key on this.
    name: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    #: The module's one walk, which every rule reads: each node of
    #: :attr:`tree` in ``ast.walk`` order, and each node's parent.
    nodes: list[ast.AST] = field(default_factory=list)
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def in_package(self, dotted_prefix: str) -> bool:
        return self.name == dotted_prefix or self.name.startswith(
            dotted_prefix + "."
        )


class Checker:
    """Base class for lint rules.

    Subclasses set :attr:`rule` (the ``RR00x`` code) and :attr:`title`,
    and override :meth:`check_module`.
    """

    rule: str = "RR000"
    title: str = "abstract"
    severity: str = "error"

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def finding(
        self, module: Module, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule,
            message=message,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
        )


def _module_name(path: Path) -> str:
    """Dotted name for *path*, walking up through ``__init__.py`` dirs."""
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.parent.name]
    return ".".join(reversed(parts))


def _parse_suppressions(source: str) -> list[Suppression]:
    suppressions: list[Suppression] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            dict.fromkeys(
                token.upper()
                for token in _RULE_TOKEN_RE.findall(match.group("rules"))
            )
        )
        if not rules:
            continue
        suppressions.append(
            Suppression(
                line=lineno,
                rules=rules,
                # Leading ``)]`` is debris from commentary inside the
                # bracket region; it is not part of the justification.
                justification=match.group("why").lstrip(")] ").strip(" -"),
            )
        )
    return suppressions


def load_module(path: Path) -> Module:
    """Parse one file into a :class:`Module` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    nodes: list[ast.AST] = [tree]
    parents: dict[ast.AST, ast.AST] = {}
    for node in nodes:  # grows as it goes: breadth first, as ast.walk
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            nodes.append(child)
    return Module(
        path=path,
        name=_module_name(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
        suppressions=_parse_suppressions(source),
        nodes=nodes,
        parents=parents,
    )


def iter_source_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under *paths*, deterministically ordered."""
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield path


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    suppressed: list[tuple[Finding, Suppression]]
    files_checked: int
    parse_errors: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def bare_suppressions(self) -> list[tuple[Finding, Suppression]]:
        """Suppressions that waive a real finding without a justification."""
        return [
            (finding, supp)
            for finding, supp in self.suppressed
            if not supp.justification
        ]


def run_lint(
    paths: Sequence[Path],
    checkers: Sequence[Checker],
    select: Sequence[str] | None = None,
) -> LintReport:
    """Lint every file under *paths* with *checkers*.

    ``select`` restricts to the named rules (``["RR001", "RR002"]``);
    ``None`` runs everything.  Findings on a line carrying a matching
    ``# repro: noqa[...]`` pragma are moved to the suppressed list.
    """
    if select is not None:
        wanted = {rule.upper() for rule in select}
        checkers = [c for c in checkers if c.rule in wanted]
    modules: list[Module] = []
    parse_errors: list[Finding] = []
    for path in iter_source_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            parse_errors.append(
                Finding(
                    rule="RR000",
                    message=f"syntax error: {exc.msg}",
                    path=str(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                )
            )
    raw: list[Finding] = []
    for checker in checkers:
        for module in modules:
            raw.extend(checker.check_module(module))
    by_path = {str(module.path): module for module in modules}
    findings: list[Finding] = []
    suppressed: list[tuple[Finding, Suppression]] = []
    for finding in sorted(raw, key=lambda f: (f.path, f.line, f.col, f.rule)):
        module = by_path.get(finding.path)
        pragma = None
        if module is not None:
            pragma = next(
                (s for s in module.suppressions if s.covers(finding)), None
            )
        if pragma is not None:
            suppressed.append((finding, pragma))
        else:
            findings.append(finding)
    return LintReport(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(modules) + len(parse_errors),
        parse_errors=parse_errors,
    )
