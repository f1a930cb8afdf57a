"""Overload resilience: admission control and deadlines.

The paper proves deadlock *removal* correct but leaves open what a system
should do under sustained contention overload: Figure 2 shows unrestrained
partial rollback can livelock, and Theorem 2's cure — a time-invariant
partial order on preemption — is the victim policy's obligation (the
ordered policies keep it).  What cuts lost work under contention is how
many transactions contend, so this package supplies the load-shedding
layer a production-scale system needs on top of the core scheduler:

:class:`~repro.admission.controller.AdmissionController`
    Gates how many transactions run concurrently (the multiprogramming
    level), queueing the rest; policies are pluggable (fixed MPL cap, or
    an adaptive AIMD window driven by the observed rollback rate).
:class:`~repro.admission.deadlines.DeadlineEnforcer`
    Per-transaction deadlines in engine steps, with a deterministic
    escalation ladder on expiry while blocked: partial-rollback self,
    then total restart, then shed — never a silent loop.
:class:`~repro.admission.breaker.CircuitBreaker`
    The lock service's failure circuit breaker (``ServiceCore``).
:class:`~repro.admission.guard.OverloadGuard`
    Bundles the above into the single object
    :class:`~repro.simulation.engine.SimulationEngine` ticks each step.
:mod:`~repro.admission.stress`
    Seeded open/closed-loop overload benchmark behind ``repro overload``.
"""

from .breaker import BreakerState, CircuitBreaker
from .controller import AdmissionController
from .deadlines import DeadlineEnforcer
from .guard import OverloadGuard
from .policies import (
    AdmissionPolicy,
    AdmissionSnapshot,
    AimdPolicy,
    FixedMplPolicy,
    available_admission_policies,
    make_admission_policy,
)
from .stress import OverloadConfig, OverloadReport, overload_run

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionSnapshot",
    "AimdPolicy",
    "BreakerState",
    "CircuitBreaker",
    "DeadlineEnforcer",
    "FixedMplPolicy",
    "OverloadConfig",
    "OverloadGuard",
    "OverloadReport",
    "available_admission_policies",
    "make_admission_policy",
    "overload_run",
]
