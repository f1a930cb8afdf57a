"""Static workload risk analysis (Pillar C of the analysis layer).

The predictor in :mod:`repro.staticcheck.predict` needs a recorded
trace; this module needs only the *programs*.  A transaction template —
the ordered ``(entity, mode)`` lock sequence of a
:class:`~repro.core.transaction.TransactionProgram` or a service
:class:`~repro.service.session.SessionProgram` — is static data, so the
lock-order graph of an entire workload can be built and scored without
executing anything.

The analysis follows the probabilistic deadlock-prevention argument
(PAPERS.md: "Revisiting deadlock prevention: a probabilistic
approach"): deadlock risk lives in *lock-order inversions* — template
``t`` locks ``e`` before ``f`` while ``u`` locks ``f`` before ``e``,
with conflicting modes on both — and the number of transaction pairs
grows quadratically in the multiprogramming level, so a workload's
structural risk translates directly into a recommended MPL.  Concretely:

* templates are grouped into **workload classes** by their structural
  signature (reader vs writer, lock count) or supplied explicitly;
* every feasible pairwise inversion is counted — the 2-cycles of the
  pooled template lock-order graph, under the predictor's own
  feasibility rule (a common earlier entity locked in incompatible
  modes by both templates serialises the pair — the inversion can
  never close);
* a pair's deadlock score is ``1 - exp(-h)`` where the hazard ``h``
  sums each inversion's chance of joint residence in the critical
  window (``1 / (len_t * len_u)`` per inversion — both transactions
  must sit between their first ring lock and their blocking request at
  the same time).  This is a structural *ranking* score, deliberately
  workload-relative rather than a calibrated probability;
* cross-class entity **cycles** are enumerated on the same graph, so a
  three-class ring that no pair exhibits still surfaces;
* the **recommended MPL** is the largest ``n`` whose expected number of
  deadlocking pairs ``C(n, 2) * mean_pair_risk`` stays within a budget
  (default 0.5 expected deadlocks) — the admission layer's
  ``predictive`` policy seeds its window from exactly this number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..core.operations import Lock, Unlock
from ..core.transaction import TransactionProgram
from ..locking.modes import LockMode
from ..simulation.workload import WorkloadConfig, generate_workload
from .events import AbstractLockEvent, harvest_journal
from .predict import LockOrderGraph

#: Expected-deadlock budget the MPL recommendation defaults to.
DEFAULT_BUDGET = 0.5
#: Recommendation ceiling when a workload carries no structural risk.
MAX_RECOMMENDED_MPL = 64


@dataclass(frozen=True)
class TransactionTemplate:
    """The static lock shape of one transaction program.

    ``locks`` is the ordered acquisition sequence; two-phase programs
    never re-lock after an unlock, so the sequence *is* the program's
    whole locking behaviour.
    """

    name: str
    locks: tuple[tuple[str, LockMode], ...]

    @classmethod
    def from_program(cls, program: TransactionProgram) -> "TransactionTemplate":
        """Extract the template of any transaction program, unexecuted.

        Works on :class:`~repro.service.session.SessionProgram` too —
        it subclasses :class:`TransactionProgram` and keeps the same
        append-only operation list.
        """
        locks: list[tuple[str, LockMode]] = []
        seen: set[str] = set()
        for op in program.operations:
            if isinstance(op, Lock) and op.entity_name not in seen:
                seen.add(op.entity_name)
                locks.append((op.entity_name, op.mode))
            elif isinstance(op, Unlock):
                # Shrinking phase: no further acquisitions may follow
                # (enforced by the program's own two-phase validation),
                # so the template is already complete.
                break
        return cls(name=program.txn_id, locks=tuple(locks))

    @property
    def signature(self) -> str:
        """Structural class key: ``w3`` = writer with 3 locks, ``r2``…"""
        kind = (
            "w"
            if any(mode.is_exclusive for _e, mode in self.locks)
            else "r"
        )
        return f"{kind}{len(self.locks)}"

    @property
    def entities(self) -> tuple[str, ...]:
        return tuple(entity for entity, _mode in self.locks)


@dataclass
class WorkloadClass:
    """A named group of templates (a transaction class à la TPC-C)."""

    name: str
    templates: list[TransactionTemplate]


def classify_templates(
    templates: Iterable[TransactionTemplate],
) -> list[WorkloadClass]:
    """Group templates into classes by structural signature."""
    groups: dict[str, list[TransactionTemplate]] = {}
    for template in templates:
        groups.setdefault(template.signature, []).append(template)
    return [
        WorkloadClass(name=signature, templates=groups[signature])
        for signature in sorted(groups)
    ]


# -- the report ---------------------------------------------------------------


@dataclass(frozen=True)
class ClassRisk:
    """One workload class's structural deadlock risk."""

    name: str
    templates: int
    score: float
    inversions: int
    hot_entities: tuple[str, ...]


@dataclass(frozen=True)
class PairRisk:
    """Deadlock score between two classes (possibly the same one)."""

    a: str
    b: str
    score: float
    inversions: int


@dataclass
class RiskReport:
    """The static analyzer's verdict on one workload."""

    name: str
    classes: list[ClassRisk] = field(default_factory=list)
    pairs: list[PairRisk] = field(default_factory=list)
    #: Entity rings feasible on the pooled lock-order graph, each with
    #: the participating template names.
    cycles: list[dict[str, tuple[str, ...]]] = field(default_factory=list)
    #: Mean template-pair deadlock score (drives the MPL recommendation).
    mean_pair_risk: float = 0.0
    #: Per-template score (mean against the rest of the pool) — the
    #: admission layer's reordering priority.
    template_risk: dict[str, float] = field(default_factory=dict)
    total_templates: int = 0

    def recommended_mpl(self, budget: float = DEFAULT_BUDGET) -> int:
        """Largest MPL whose expected deadlocking pairs fit *budget*.

        ``C(n, 2) * mean_pair_risk <= budget`` solved for ``n``:
        ``n = (1 + sqrt(1 + 8 * budget / p)) / 2``, floored, clamped to
        ``[1, MAX_RECOMMENDED_MPL]``; a risk-free workload gets the cap.
        """
        p = self.mean_pair_risk
        if p <= 0.0:
            return MAX_RECOMMENDED_MPL
        n = int((1.0 + math.sqrt(1.0 + 8.0 * budget / p)) / 2.0)
        return max(1, min(MAX_RECOMMENDED_MPL, n))

    def risk_of(self, template: TransactionTemplate) -> float:
        """Score for a (possibly unseen) template against this pool.

        Known templates answer from the precomputed table; new ones —
        e.g. a live :class:`~repro.service.session.SessionProgram`
        arriving at admission — are scored by their signature class's
        mean, falling back to the pool mean.
        """
        known = self.template_risk.get(template.name)
        if known is not None:
            return known
        for cls in self.classes:
            if cls.name == template.signature:
                return cls.score
        return self.mean_pair_risk

    def to_obj(self, budget: float = DEFAULT_BUDGET) -> dict[str, object]:
        """JSON-ready form (stable key order via sort_keys dumps)."""
        return {
            "name": self.name,
            "classes": [
                {
                    "name": c.name,
                    "templates": c.templates,
                    "score": round(c.score, 6),
                    "inversions": c.inversions,
                    "hot_entities": list(c.hot_entities),
                }
                for c in self.classes
            ],
            "pairs": [
                {
                    "a": p.a,
                    "b": p.b,
                    "score": round(p.score, 6),
                    "inversions": p.inversions,
                }
                for p in self.pairs
            ],
            "cycles": [
                {
                    "entities": list(cycle["entities"]),
                    "templates": list(cycle["templates"]),
                }
                for cycle in self.cycles
            ],
            "mean_pair_risk": round(self.mean_pair_risk, 6),
            "recommended_mpl": self.recommended_mpl(budget),
            "total_templates": self.total_templates,
        }

    def to_json(self, budget: float = DEFAULT_BUDGET) -> str:
        return json.dumps(self.to_obj(budget), indent=2, sort_keys=True)

    def describe(self, budget: float = DEFAULT_BUDGET) -> str:
        """Multi-line human-readable report (the ``repro advise`` body)."""
        lines = [
            f"workload             {self.name}",
            f"templates            {self.total_templates} "
            f"in {len(self.classes)} class(es)",
            f"mean pair risk       {self.mean_pair_risk:.4f}",
            f"recommended MPL      {self.recommended_mpl(budget)} "
            f"(budget {budget} expected deadlocks)",
        ]
        for cls in self.classes:
            hot = ", ".join(cls.hot_entities[:4]) or "none"
            lines.append(
                f"class {cls.name:<6} score {cls.score:.4f}  "
                f"templates {cls.templates}  inversions {cls.inversions}  "
                f"hot [{hot}]"
            )
        for pair in self.pairs[:6]:
            lines.append(
                f"pair  {pair.a}~{pair.b:<5} score {pair.score:.4f}  "
                f"inversions {pair.inversions}"
            )
        if self.cycles:
            for cycle in self.cycles[:4]:
                ring = " -> ".join(
                    cycle["entities"] + (cycle["entities"][0],)
                )
                lines.append(
                    f"cycle [{ring}] via {', '.join(cycle['templates'])}"
                )
            if len(self.cycles) > 4:
                lines.append(f"... and {len(self.cycles) - 4} more cycles")
        else:
            lines.append("cycle none feasible on the pooled lock-order graph")
        return "\n".join(lines)


# -- the analysis --------------------------------------------------------------


def _template_events(
    templates: Sequence[TransactionTemplate],
) -> list[AbstractLockEvent]:
    """Each template's acquisitions as lock events, all in segment 0:
    nothing orders two static templates."""
    return [
        AbstractLockEvent(
            txn=template.name,
            entity=entity,
            mode=mode,
            segment=0,
            held_before=template.locks[:index],
        )
        for template in templates
        for index, (entity, mode) in enumerate(template.locks)
    ]


def analyze_classes(
    classes: Sequence[WorkloadClass],
    name: str = "workload",
    max_cycle_length: int = 4,
) -> RiskReport:
    """Score *classes* without executing anything.

    A template pair's inversions are the arcs of the 2-cycles between
    them on the pooled lock-order graph (every 2-cycle, unlimited);
    ``report.cycles`` is the separate, limited ring search on the same
    graph.
    """
    report = RiskReport(name=name)
    pool: list[tuple[str, TransactionTemplate]] = [
        (cls.name, template)
        for cls in classes
        for template in cls.templates
    ]
    report.total_templates = len(pool)
    if not pool:
        return report
    graph = LockOrderGraph(_template_events([t for _c, t in pool]))
    inversions_of: dict[frozenset[str], set[tuple[str, str]]] = {}
    for ring in graph.cycles(max_length=2, limit=None):
        inversions_of.setdefault(
            frozenset(edge.txn for edge in ring), set()
        ).update((edge.held, edge.acquired) for edge in ring)

    # Template-pair scores, aggregated per class pair and per template.
    pair_scores: dict[tuple[str, str], list[float]] = {}
    pair_inversions: dict[tuple[str, str], int] = {}
    per_template: dict[str, list[float]] = {t.name: [] for _c, t in pool}
    entity_heat: dict[str, dict[str, int]] = {}
    all_scores: list[float] = []
    for i in range(len(pool)):
        class_a, a = pool[i]
        for j in range(i + 1, len(pool)):
            class_b, b = pool[j]
            # Each inversion contributes 1 / (len_a * len_b): the chance
            # both occupy their critical windows at once shrinks with
            # program length.
            inversions = sorted(
                inversions_of.get(frozenset((a.name, b.name)), ())
            )
            hazard = (
                len(inversions) / float(len(a.locks) * len(b.locks))
                if inversions
                else 0.0
            )
            score = 1.0 - math.exp(-hazard)
            all_scores.append(score)
            per_template[a.name].append(score)
            per_template[b.name].append(score)
            key = (min(class_a, class_b), max(class_a, class_b))
            pair_scores.setdefault(key, []).append(score)
            pair_inversions[key] = pair_inversions.get(key, 0) + len(
                inversions
            )
            for e, f in inversions:
                for cls_name in (class_a, class_b):
                    heat = entity_heat.setdefault(cls_name, {})
                    heat[e] = heat.get(e, 0) + 1
                    heat[f] = heat.get(f, 0) + 1

    report.mean_pair_risk = (
        sum(all_scores) / len(all_scores) if all_scores else 0.0
    )
    report.template_risk = {
        tname: (sum(scores) / len(scores) if scores else 0.0)
        for tname, scores in per_template.items()
    }
    for cls in classes:
        scores = [
            score
            for tname, score in report.template_risk.items()
            if any(t.name == tname for t in cls.templates)
        ]
        heat = entity_heat.get(cls.name, {})
        report.classes.append(
            ClassRisk(
                name=cls.name,
                templates=len(cls.templates),
                score=sum(scores) / len(scores) if scores else 0.0,
                inversions=sum(
                    count
                    for key, count in pair_inversions.items()
                    if cls.name in key
                ),
                hot_entities=tuple(
                    sorted(heat, key=lambda e: (-heat[e], e))[:8]
                ),
            )
        )
    report.pairs = sorted(
        (
            PairRisk(
                a=key[0],
                b=key[1],
                score=sum(scores) / len(scores),
                inversions=pair_inversions[key],
            )
            for key, scores in pair_scores.items()
        ),
        key=lambda p: (-p.score, p.a, p.b),
    )
    report.cycles = [
        {
            "entities": tuple(edge.held for edge in ring),
            "templates": tuple(edge.txn for edge in ring),
        }
        for ring in graph.cycles(max_length=max_cycle_length, limit=50)
    ]
    return report


def analyze_programs(
    programs: Iterable[TransactionProgram],
    name: str = "workload",
    max_cycle_length: int = 4,
) -> RiskReport:
    """Score a program set, auto-classed by structural signature."""
    templates = [TransactionTemplate.from_program(p) for p in programs]
    return analyze_classes(
        classify_templates(templates),
        name=name,
        max_cycle_length=max_cycle_length,
    )


def analyze_config(
    config: WorkloadConfig,
    seed: int = 0,
    name: str = "",
    max_cycle_length: int = 4,
) -> RiskReport:
    """Score the workload a ``(config, seed)`` pair *would* generate.

    Generation is pure and cheap (no execution), so this is still a
    static analysis: the engine never runs.
    """
    _db, programs = generate_workload(config, seed=seed)
    return analyze_programs(
        programs,
        name=name or f"generated(seed={seed})",
        max_cycle_length=max_cycle_length,
    )


def analyze_sequences(
    sequences: Mapping[str, Sequence[tuple[str, LockMode]]],
    name: str = "sequences",
    max_cycle_length: int = 4,
) -> RiskReport:
    """Score raw lock sequences (e.g. a journal's per-txn grants)."""
    templates = [
        TransactionTemplate(name=txn, locks=tuple(locks))
        for txn, locks in sorted(sequences.items())
    ]
    return analyze_classes(
        classify_templates(templates),
        name=name,
        max_cycle_length=max_cycle_length,
    )


def analyze_journal(
    journal: str | Path, max_cycle_length: int = 4
) -> RiskReport:
    """Score the workload a service journal recorded."""
    trace = harvest_journal(journal)
    return analyze_sequences(
        trace.lock_sequences,
        name=str(journal),
        max_cycle_length=max_cycle_length,
    )
