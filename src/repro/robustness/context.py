"""The resilience context: retry + breaker + accounting for one execution.

Retrieval strategies and query probes route every database access through
:meth:`ResilienceContext.call` instead of calling the database raw.  The
context:

* consults the access path's :class:`~repro.robustness.breaker.CircuitBreaker`
  and rejects immediately (raising :class:`AccessPathUnavailable`) when the
  path is down;
* retries retryable faults under the :class:`~repro.robustness.retry.RetryPolicy`,
  accounting simulated backoff time;
* raises :class:`AccessFailedError` when one operation exhausts its retry
  allowance — callers must treat this as *access failed*, never as "the
  query matched nothing";
* aggregates everything into a
  :class:`~repro.core.quality.ResilienceReport` for the execution report.

One context is shared by every retriever/probe/executor of one logical
execution (including adaptive re-planning across plan switches), so the
final report covers the whole run.

An access that answers on a CLOSED breaker -- every access of a run
without faults -- costs the deadline check, one breaker-state read and an
operation number; the retry machinery is built only after a fault.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from ..core.quality import ResilienceReport
from ..observability.context import NULL_OBSERVABILITY
from ..observability.tracer import SpanKind
from .breaker import BreakerState, CircuitBreaker
from .deadline import Deadline
from .faults import RETRYABLE_ERRORS, FaultInjectingDatabase
from .retry import RetryPolicy

T = TypeVar("T")

_CLOSED = BreakerState.CLOSED


class AccessFailedError(RuntimeError):
    """One database operation failed even after retrying.

    Distinct from an empty result: callers skip or requeue the operation
    and must not record it as "matched nothing" (which would silently skew
    the s(a) sample frequencies feeding the MLE estimator).
    """

    def __init__(self, path: str, cause: Optional[BaseException] = None) -> None:
        self.path = path
        super().__init__(f"access to {path} failed after retries: {cause}")


class AccessPathUnavailable(RuntimeError):
    """An access path's circuit breaker is open — the path is down.

    Join executors let this propagate; the adaptive optimizer catches it,
    excludes the path from the plan space, and re-plans with what is left.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        super().__init__(f"access path {path} is unavailable (circuit open)")


class ResilienceContext:
    """Shared fault-handling state of one (possibly multi-plan) execution."""

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        failure_threshold: int = 5,
        cooldown: int = 20,
        recovery_successes: int = 2,
    ) -> None:
        self.policy = policy or RetryPolicy()
        self._breaker_config = dict(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            recovery_successes=recovery_successes,
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._injectors: List[FaultInjectingDatabase] = []
        self._operations = 0
        self.faults: Counter = Counter()
        self.retries = 0
        self.retries_remaining = self.policy.retry_budget
        self.backoff_time = 0.0
        self.failed_operations = 0
        self.documents_lost = 0
        #: optional end-to-end request deadline, installed by the serving
        #: layer; checked on every :meth:`call` so an expired request can
        #: run past its budget by at most one database access
        self.deadline: Optional[Deadline] = None
        #: shared tracing/metrics context, installed by
        #: :func:`repro.robustness.environment.harden` when the environment
        #: carries one; the default no-op context costs nothing
        self.observability = NULL_OBSERVABILITY

    def breaker(self, path: str) -> CircuitBreaker:
        """The circuit breaker guarding *path* (created on first use)."""
        if path not in self._breakers:
            self._breakers[path] = CircuitBreaker(**self._breaker_config)
        return self._breakers[path]

    def attach_injector(self, database: FaultInjectingDatabase) -> None:
        """Register a fault injector so its counts appear in reports."""
        self._injectors.append(database)

    @property
    def injects_faults(self) -> bool:
        """Whether any database behind this context injects faults (a
        :func:`~repro.robustness.environment.harden` profile that can
        fire), so a run here may differ from a fault-free one."""
        return bool(self._injectors)

    def call(self, path: str, fn: Callable[..., T], *args: Any) -> T:
        """Run one database access ``fn(*args)`` with breaker + retry
        protection.

        Raises :class:`~repro.robustness.deadline.DeadlineExceeded` when
        the request's deadline (if any) has passed,
        :class:`AccessPathUnavailable` when the breaker rejects the call,
        :class:`AccessFailedError` when retries are exhausted, and
        returns ``fn(*args)``'s result otherwise.

        Every access pays for the deadline check, one breaker-state read
        and its operation number.  Everything else -- the jitter
        generator, attempt and backoff accounting, breaker failure
        records and the fault metrics -- is paid in :meth:`_retry`, which
        only a retryable fault enters.
        """
        if self.deadline is not None:
            self.deadline.check(path)
        breaker = self._breakers.get(path)
        if breaker is None:
            breaker = self.breaker(path)
        if breaker.state is not _CLOSED and not breaker.allow():
            raise AccessPathUnavailable(path)
        self._operations = operation = self._operations + 1
        try:
            result = fn(*args)
        except RETRYABLE_ERRORS as exc:
            return self._retry(path, breaker, operation, exc, fn, args)
        if breaker.state is not _CLOSED or breaker.consecutive_failures:
            self._record_success(path, breaker)
        return result

    def _retry(
        self,
        path: str,
        breaker: CircuitBreaker,
        operation: int,
        exc: BaseException,
        fn: Callable[..., T],
        args: Tuple[Any, ...],
    ) -> T:
        """Handle *exc*, the first fault of operation *operation*, then
        retry ``fn(*args)`` under the policy until it answers or gives up.

        Delays come from the operation's own jitter stream
        (``policy.delays("<path>|<operation>")``), so a replayed execution
        waits the same simulated seconds.
        """
        observability = self.observability
        delays = self.policy.delays(f"{path}|{operation}")
        attempts = 1
        spent = 0.0
        while True:
            self.faults[type(exc).__name__] += 1
            was_open = breaker.is_open
            breaker.record_failure()
            if observability.enabled:
                observability.metrics.counter(
                    "repro_faults_total", kind=type(exc).__name__
                ).inc()
                if breaker.is_open and not was_open:
                    observability.metrics.counter(
                        "repro_breaker_transitions_total", state="open"
                    ).inc()
                    observability.event(
                        SpanKind.BREAKER_TRANSITION,
                        name=path,
                        path=path,
                        state="open",
                    )
            if breaker.is_open:
                self.failed_operations += 1
                raise AccessPathUnavailable(path) from exc
            if not self._may_retry(attempts, spent):
                self.failed_operations += 1
                raise AccessFailedError(path, exc) from exc
            delay = next(delays)
            if (
                self.policy.deadline is not None
                and spent + delay > self.policy.deadline
            ):
                self.failed_operations += 1
                raise AccessFailedError(path, exc) from exc
            spent += delay
            self.backoff_time += delay
            self.retries += 1
            if self.retries_remaining is not None:
                self.retries_remaining -= 1
            if observability.enabled:
                observability.metrics.counter("repro_retries_total").inc()
                observability.metrics.counter(
                    "repro_backoff_seconds_total"
                ).inc(delay)
            attempts += 1
            try:
                result = fn(*args)
            except RETRYABLE_ERRORS as retried:
                exc = retried
                continue
            self._record_success(path, breaker)
            return result

    def _record_success(self, path: str, breaker: CircuitBreaker) -> None:
        """Record an answered access on *path*'s breaker."""
        observability = self.observability
        before = breaker.state
        breaker.record_success()
        if observability.enabled and before is BreakerState.OPEN:
            # The breaker ignores a success observed while OPEN
            # (see CircuitBreaker.record_success); count the
            # swallowed event so it shows up in /v1/metrics.
            observability.metrics.counter(
                "repro_swallowed_events_total",
                kind="breaker_open_success",
            ).inc()
        if (
            observability.enabled
            and before is not breaker.state
            and breaker.state is _CLOSED
        ):
            # HALF_OPEN → CLOSED: the path recovered.
            observability.metrics.counter(
                "repro_breaker_transitions_total", state="closed"
            ).inc()
            observability.event(
                SpanKind.BREAKER_TRANSITION,
                name=path,
                path=path,
                state="closed",
            )

    def _may_retry(self, attempts: int, spent: float) -> bool:
        if attempts >= self.policy.max_attempts:
            return False
        if self.retries_remaining is not None and self.retries_remaining <= 0:
            return False
        return True

    # -- reporting -----------------------------------------------------------

    @property
    def open_paths(self) -> List[str]:
        return sorted(
            path for path, b in self._breakers.items() if b.is_open
        )

    def report(self) -> ResilienceReport:
        """Immutable snapshot of everything observed so far."""
        truncated = sum(db.injected["truncated"] for db in self._injectors)
        return ResilienceReport(
            faults=dict(self.faults),
            retries=self.retries,
            backoff_time=self.backoff_time,
            failed_operations=self.failed_operations,
            documents_lost=self.documents_lost,
            documents_truncated=truncated,
            breaker_opens=sum(
                b.times_opened for b in self._breakers.values()
            ),
            open_paths=tuple(self.open_paths),
        )
