"""Fault-tolerant join execution (robustness subsystem).

The paper's algorithms assume database access always succeeds; this
package makes the reproduction survive the real world where it does not:

* :mod:`~repro.robustness.faults` — fault taxonomy and the deterministic,
  seeded :class:`FaultInjectingDatabase` wrapper;
* :mod:`~repro.robustness.retry` — :class:`RetryPolicy`, exponential
  backoff with decorrelated jitter, retry budgets, per-operation deadlines;
* :mod:`~repro.robustness.breaker` — per-access-path
  :class:`CircuitBreaker` (closed/open/half-open);
* :mod:`~repro.robustness.context` — the :class:`ResilienceContext` that
  retrieval strategies and query probes call through instead of hitting
  the database raw;
* :mod:`~repro.robustness.deadline` — :class:`Deadline` /
  :class:`DeadlineExceeded`, end-to-end request deadlines checked on
  every database access, with partial-state capture on expiry;
* :mod:`~repro.robustness.checkpoint` — checkpoint/resume of join
  execution state, so interrupted executions do not re-pay extraction;
* :mod:`~repro.robustness.degradation` — access-path → plan-space mapping
  for the adaptive optimizer's graceful degradation;
* :mod:`~repro.robustness.environment` — :func:`harden`, the one-call
  entry point wiring all of the above into an execution environment.
"""

from .breaker import BreakerState, CircuitBreaker
from .context import (
    AccessFailedError,
    AccessPathUnavailable,
    ResilienceContext,
)
from .deadline import Deadline, DeadlineExceeded
from .degradation import (
    FETCH,
    SEARCH,
    access_path,
    plan_uses_path,
    plans_without,
    split_path,
    surviving_plans,
)
from .environment import harden
from .faults import (
    RETRYABLE_ERRORS,
    AccessError,
    AccessTimeout,
    FaultInjectingDatabase,
    FaultProfile,
    RateLimitError,
    TransientAccessError,
    raw_database,
)
from .retry import RetryPolicy

#: checkpoint names are loaded lazily (PEP 562): the checkpoint module
#: imports the join executors, which themselves import this package — an
#: eager import here would be circular.
_CHECKPOINT_EXPORTS = (
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
    "checkpoint_execution",
    "load_checkpoint",
    "restore_execution",
    "save_checkpoint",
)


def __getattr__(name: str):
    if name in _CHECKPOINT_EXPORTS:
        from . import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AccessError",
    "AccessFailedError",
    "AccessPathUnavailable",
    "AccessTimeout",
    "BreakerState",
    "CheckpointError",
    "CheckpointInfo",
    "CheckpointManager",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "FETCH",
    "FaultInjectingDatabase",
    "FaultProfile",
    "RETRYABLE_ERRORS",
    "RateLimitError",
    "ResilienceContext",
    "RetryPolicy",
    "SEARCH",
    "TransientAccessError",
    "access_path",
    "checkpoint_execution",
    "harden",
    "load_checkpoint",
    "plan_uses_path",
    "plans_without",
    "raw_database",
    "restore_execution",
    "save_checkpoint",
    "split_path",
    "surviving_plans",
]
