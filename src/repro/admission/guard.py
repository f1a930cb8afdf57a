"""The overload guard: one object the simulation engine ticks per step.

:class:`OverloadGuard` composes the two step-driven admission mechanisms
— the admission controller and the deadline enforcer — behind the two
calls the engine makes:

* :meth:`submit` for every arrival (instead of registering directly), and
* :meth:`tick` once per engine step (including idle steps).

Each component is optional; a guard with only a controller is a pure MPL
gate, a guard with only deadlines bounds how long a transaction may wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..observability.events import EventKind
from .controller import AdmissionController
from .deadlines import DeadlineEnforcer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.scheduler import Scheduler
    from ..core.transaction import TransactionProgram


class OverloadGuard:
    """Admission + deadlines, wired to one scheduler."""

    def __init__(
        self,
        scheduler: "Scheduler",
        controller: AdmissionController | None = None,
        deadlines: DeadlineEnforcer | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.controller = controller
        self.deadlines = deadlines

    def pending(self) -> int:
        """Arrivals queued behind the admission gate."""
        return self.controller.pending() if self.controller else 0

    def submit(self, program: "TransactionProgram", step: int) -> None:
        """Route one arrival: queue it behind the gate, or admit it now.

        Without a controller the program registers immediately (and still
        gets a deadline, when a deadline enforcer is configured).
        """
        self.scheduler.bus.publish(
            EventKind.ADMISSION_SUBMIT,
            program.txn_id,
            gated=self.controller is not None,
        )
        if self.controller is not None:
            self.controller.submit(program)
            return
        self.scheduler.register(program)
        self.scheduler.metrics.admitted += 1
        self.scheduler.bus.publish(
            EventKind.ADMISSION_ADMIT, program.txn_id, immediate=True
        )
        if self.deadlines is not None:
            self.deadlines.watch(program.txn_id, step)

    def tick(self, step: int) -> None:
        """One guard step: admit, then enforce deadlines.

        Admission runs first so transactions admitted this step get their
        deadline clocks started at this step.
        """
        if self.controller is not None:
            for txn_id in self.controller.tick(self.scheduler, step):
                if self.deadlines is not None:
                    self.deadlines.watch(txn_id, step)
        if self.deadlines is not None:
            self.deadlines.tick(self.scheduler, step)
