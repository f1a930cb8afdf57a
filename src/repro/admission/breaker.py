"""The lock service's circuit breaker.

A service whose transactions keep failing (sheds, deadline expiries) is
not helped by more traffic — each retry deepens the convoy.  The breaker
is the classic three-state machine, made fully deterministic (step-count
time, no wall clock):

* ``CLOSED`` — requests flow; failures within a sliding window are
  counted, and reaching the threshold trips the breaker.
* ``OPEN`` — requests are rejected (``503``) for a fixed cool-down.
* ``HALF_OPEN`` — after the cool-down one probe request is allowed
  through: its success closes the breaker, its failure re-opens it for
  another full cool-down.
"""

from __future__ import annotations

import enum
from collections import deque


class BreakerState(enum.Enum):
    """The classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:
        return self.value


class CircuitBreaker:
    """Deterministic failure breaker over step-count time.

    Parameters
    ----------
    failure_threshold:
        Failures within *window* steps that trip a CLOSED breaker.
    window:
        Sliding-window length (steps) over which failures are counted.
    cooldown:
        Steps an OPEN breaker rejects requests before probing again.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        window: int = 50,
        cooldown: int = 100,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be positive")
        if window < 1 or cooldown < 1:
            raise ValueError("window and cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.window = window
        self.cooldown = cooldown
        self.state = BreakerState.CLOSED
        self.opened_count = 0
        self._failures: deque[int] = deque()
        self._opened_at = 0
        self._probes_left = 0

    def _trim(self, now: int) -> None:
        while self._failures and self._failures[0] <= now - self.window:
            self._failures.popleft()

    def reopen_at(self) -> int:
        """The step at which an OPEN breaker transitions to HALF_OPEN."""
        return self._opened_at + self.cooldown

    def allow(self, now: int) -> bool:
        """Whether a request against this site may proceed at step *now*.

        Consumes a probe slot when HALF_OPEN, so callers must follow up
        with :meth:`record_success` or :meth:`record_failure` for the
        requests they actually send.
        """
        if self.state is BreakerState.OPEN:
            if now < self.reopen_at():
                return False
            self.state = BreakerState.HALF_OPEN
            self._probes_left = 1
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_left <= 0:
                return False
            self._probes_left -= 1
            return True
        return True

    def record_failure(self, now: int) -> bool:
        """Account one failed request; return True if the breaker tripped
        (CLOSED/HALF_OPEN -> OPEN) at this call."""
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return True
        if self.state is BreakerState.OPEN:
            return False
        self._failures.append(now)
        self._trim(now)
        if len(self._failures) >= self.failure_threshold:
            self._open(now)
            return True
        return False

    def record_success(self, now: int) -> None:
        """Account one successful request (closes a HALF_OPEN breaker)."""
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self._failures.clear()
            self._probes_left = 0

    def _open(self, now: int) -> None:
        self.state = BreakerState.OPEN
        self.opened_count += 1
        self._opened_at = now
        self._failures.clear()
        self._probes_left = 0
