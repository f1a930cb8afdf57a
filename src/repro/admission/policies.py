"""Pluggable admission policies: how many transactions may run at once.

The multiprogramming level (MPL) is the lever the probabilistic
deadlock-prevention literature identifies (PAPERS.md: Oliveira & Barbosa):
deadlock probability grows superlinearly in the number of concurrent
transactions, so under contention it is cheaper to queue arrivals than to
admit them into a rollback storm.  Three policies ship:

``fixed-mpl``
    A constant cap — the classic static MPL knob.
``aimd``
    Additive-increase / multiplicative-decrease: the admitted window
    shrinks (halves) whenever the observed rollback rate over the last
    adaptation window exceeds a threshold and creeps up (by one, with a
    seeded probabilistic extra probe) while the system is healthy.  The
    same seed always yields the same window trajectory for the same
    observation sequence.
``predictive``
    Seeds its window from the *static* risk analysis of the workload
    (:mod:`repro.staticcheck.workload`): the recommended MPL is the
    largest window whose expected number of deadlocking pairs stays
    within a budget, given the workload's measured lock-order inversion
    structure.  At runtime it is ``aimd`` around that anchor, without
    the probe slot and never above twice the recommendation, and it
    exposes a :meth:`~PredictivePolicy.priority` hook the controller
    uses to admit low-risk templates first under backlog.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.transaction import TransactionProgram
    from ..staticcheck.workload import RiskReport


@dataclass(frozen=True)
class AdmissionSnapshot:
    """What a policy may observe when asked for the current capacity."""

    step: int
    in_flight: int
    queued: int
    commits: int
    rollbacks: int
    shed: int


class AdmissionPolicy(abc.ABC):
    """Strategy interface deciding the admitted-transaction window."""

    name: str = "abstract"

    @abc.abstractmethod
    def capacity(self, snapshot: AdmissionSnapshot) -> int:
        """The number of transactions allowed in flight right now."""


class FixedMplPolicy(AdmissionPolicy):
    """A constant multiprogramming-level cap."""

    name = "fixed-mpl"

    def __init__(self, mpl: int = 8) -> None:
        if mpl < 1:
            raise ValueError("mpl must be positive")
        self.mpl = mpl

    def capacity(self, snapshot: AdmissionSnapshot) -> int:
        return self.mpl


class AimdPolicy(AdmissionPolicy):
    """AIMD window adaptation driven by the observed rollback rate.

    Every ``window_steps`` engine steps the policy compares the rollbacks
    and commits accumulated since its last adaptation.  A rollback rate
    ``rollbacks / (rollbacks + commits)`` above ``rollback_threshold``
    halves the window (multiplicative decrease, floored at
    ``min_window``); otherwise the window grows by one, plus one extra
    probe slot with probability ``probe_boost`` drawn from a private
    ``random.Random(seed)`` (additive increase, capped at
    ``max_window``).  Deterministic: same seed and same observation
    sequence, same trajectory.
    """

    name = "aimd"

    def __init__(
        self,
        initial: int = 8,
        min_window: int = 1,
        max_window: int = 64,
        window_steps: int = 50,
        rollback_threshold: float = 0.5,
        probe_boost: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not 1 <= min_window <= initial <= max_window:
            raise ValueError(
                "windows must satisfy 1 <= min_window <= initial <= max_window"
            )
        if window_steps < 1:
            raise ValueError("window_steps must be positive")
        if not 0.0 <= rollback_threshold <= 1.0:
            raise ValueError("rollback_threshold must be in [0, 1]")
        if not 0.0 <= probe_boost <= 1.0:
            raise ValueError("probe_boost must be in [0, 1]")
        self.min_window = min_window
        self.max_window = max_window
        self.window_steps = window_steps
        self.rollback_threshold = rollback_threshold
        self.probe_boost = probe_boost
        self._rng = random.Random(seed)
        self._window = initial
        self._adapted_at = 0
        self._rollbacks_then = 0
        self._commits_then = 0
        #: (step, window) after every adaptation, for reporting.
        self.history: list[tuple[int, int]] = []

    @property
    def window(self) -> int:
        """The current admitted-transaction window."""
        return self._window

    def capacity(self, snapshot: AdmissionSnapshot) -> int:
        if snapshot.step - self._adapted_at >= self.window_steps:
            self._adapt(snapshot)
        return self._window

    def _adapt(self, snapshot: AdmissionSnapshot) -> None:
        d_rollbacks = snapshot.rollbacks - self._rollbacks_then
        d_commits = snapshot.commits - self._commits_then
        observed = d_rollbacks + d_commits
        rate = d_rollbacks / observed if observed else 0.0
        if rate > self.rollback_threshold:
            self._window = max(self.min_window, self._window // 2)
        else:
            growth = 1 + (1 if self._rng.random() < self.probe_boost else 0)
            self._window = min(self.max_window, self._window + growth)
        self._adapted_at = snapshot.step
        self._rollbacks_then = snapshot.rollbacks
        self._commits_then = snapshot.commits
        self.history.append((snapshot.step, self._window))


class PredictivePolicy(AimdPolicy):
    """Risk-anchored admission (probabilistic deadlock prevention).

    The static workload analyzer scores every transaction template's
    lock-order inversion structure and recommends the largest MPL whose
    expected deadlocking pairs fit a budget; this policy is an
    :class:`AimdPolicy` that starts there, grows by exactly one (no
    probe slot) and is capped at twice the recommendation (contention
    risk is quadratic in the window, so drifting far above the anchor
    defeats the prediction).  The same report and observation sequence
    always yield the same trajectory.

    :meth:`priority` ranks programs by their template's risk score so
    the controller can admit low-risk work first while a backlog holds
    high-risk templates back (throttle-by-reordering).
    """

    name = "predictive"

    def __init__(
        self,
        report: "RiskReport | None" = None,
        budget: float = 0.5,
        initial: int = 8,
        min_window: int = 1,
        max_window: int = 64,
        window_steps: int = 40,
        rollback_threshold: float = 0.5,
    ) -> None:
        anchor = (
            report.recommended_mpl(budget) if report is not None else initial
        )
        self.recommended = max(min_window, min(max_window, anchor))
        super().__init__(
            initial=self.recommended,
            min_window=min_window,
            max_window=min(max_window, 2 * self.recommended),
            window_steps=window_steps,
            rollback_threshold=rollback_threshold,
            probe_boost=0.0,
        )
        self.report = report
        self._risk_cache: dict[str, float] = {}

    def priority(self, program: "TransactionProgram") -> float:
        """Risk score of *program*'s template (lower admits first)."""
        cached = self._risk_cache.get(program.txn_id)
        if cached is not None:
            return cached
        if self.report is None:
            risk = 0.0
        else:
            from ..staticcheck.workload import TransactionTemplate

            risk = self.report.risk_of(
                TransactionTemplate.from_program(program)
            )
        self._risk_cache[program.txn_id] = risk
        return risk


#: Registry of selectable admission policies, in documentation order.
_ADMISSION_POLICY_REGISTRY: dict[str, Callable[..., AdmissionPolicy]] = {
    "fixed-mpl": FixedMplPolicy,
    "aimd": AimdPolicy,
    "predictive": PredictivePolicy,
}


def available_admission_policies() -> tuple[str, ...]:
    """Every selectable admission-policy name, in registry order."""
    return tuple(_ADMISSION_POLICY_REGISTRY)


def make_admission_policy(name: str, **kwargs: object) -> AdmissionPolicy:
    """Factory for admission policies by :attr:`AdmissionPolicy.name`."""
    if name not in _ADMISSION_POLICY_REGISTRY:
        raise ValueError(
            f"unknown admission policy {name!r}; choose from "
            f"{sorted(_ADMISSION_POLICY_REGISTRY)}"
        )
    return _ADMISSION_POLICY_REGISTRY[name](**kwargs)
