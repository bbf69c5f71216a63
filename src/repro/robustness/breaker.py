"""Per-access-path circuit breaker (closed / open / half-open).

A breaker guards one access path (e.g. ``"nyt95:search"``).  Repeated
consecutive failures open it; while open, calls are rejected outright —
no database access, no retries — so a hard-down service stops burning
retry budget and simulated time.  After ``cooldown`` rejected calls the
breaker half-opens and admits probe calls; ``recovery_successes``
consecutive successes close it again, while any probe failure re-opens it.

The cooldown is measured in *rejected calls* rather than wall-clock time:
the reproduction's execution time is simulated, and call counts are the
deterministic clock every executor already advances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """State machine guarding one access path.

    Use as: ``if not breaker.allow(): reject``, then
    ``breaker.record_success()`` / ``breaker.record_failure()`` after the
    guarded call.
    """

    #: consecutive failures that trip CLOSED -> OPEN
    failure_threshold: int = 5
    #: rejected calls while OPEN before the breaker half-opens
    cooldown: int = 20
    #: consecutive HALF_OPEN successes required to close again
    recovery_successes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown < 1:
            raise ValueError("cooldown must be at least 1")
        if self.recovery_successes < 1:
            raise ValueError("recovery_successes must be at least 1")
        self.state = BreakerState.CLOSED
        #: failures since the last recorded success
        self.consecutive_failures = 0
        self._rejections = 0
        self._probe_successes = 0
        #: lifetime CLOSED/HALF_OPEN -> OPEN transitions
        self.times_opened = 0
        #: successes observed while OPEN — admitted before the trip, so
        #: they must not close the breaker, but they are not silently
        #: dropped either: the count is surfaced in resilience reports
        self.ignored_successes = 0

    def allow(self) -> bool:
        """Whether the next call may proceed; rejections age the cooldown."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            self._rejections += 1
            if self._rejections >= self.cooldown:
                self.state = BreakerState.HALF_OPEN
                self._probe_successes = 0
                return True
            return False
        return True  # HALF_OPEN: admit probes

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self.recovery_successes:
                self.state = BreakerState.CLOSED
        elif self.state is BreakerState.OPEN:
            # A success can only come from a call admitted before the trip;
            # it does not close an open breaker, but it is counted so the
            # anomaly is visible in metrics instead of vanishing.
            self.ignored_successes += 1

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self.times_opened += 1
        self._rejections = 0
        self._probe_successes = 0

    @property
    def is_open(self) -> bool:
        return self.state is BreakerState.OPEN
