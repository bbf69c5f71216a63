"""The shared observability context: tracer + metrics + drift in one handle.

Mirrors :class:`~repro.robustness.context.ResilienceContext`: one context
is threaded through every component of a logical execution — join
executors, retrieval strategies, the optimizer and its evaluation
engine, the adaptive driver, and the resilience layer — so a single
trace/metrics dump covers the whole run.

``None`` observability everywhere defaults to :data:`NULL_OBSERVABILITY`,
whose tracer, metrics, and drift tracker are shared no-op singletons:
the disabled path allocates nothing per unit of work and leaves results
byte-identical to a build without instrumentation.  Hot loops may
additionally guard on :attr:`ObservabilityContext.enabled` to skip
attribute packing entirely.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Dict, Optional

from .drift import DriftTracker, NullDriftTracker
from .metrics import MetricsRegistry, NullMetrics
from .tracer import NullTracer, SpanKind, Tracer

__all__ = [
    "ObservabilityContext",
    "NULL_OBSERVABILITY",
    "ensure_observability",
    "SpanKind",
]


class ObservabilityContext:
    """Tracing, metrics, and drift telemetry for one logical execution."""

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        drift: Optional[DriftTracker] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.drift = drift if drift is not None else DriftTracker()
        #: coarse phase name -> accumulated wall seconds, for wide events
        self.phases: Dict[str, float] = {}
        #: per-request work totals (database accesses, documents, tuples)
        #: that a wide event carries in its counters
        self.work: Dict[str, float] = {}

    # -- delegation shorthands ------------------------------------------------

    def phase(self, name: str) -> "_PhaseTimer":
        """Accumulate wall time under a coarse phase name.

        Phases are driver-level buckets (pilot / estimate / optimize /
        execute), recorded even when the body raises — a deadline 504
        still reports how its budget was spent.
        """
        return _PhaseTimer(self.phases, name)

    def span(self, kind: str, name: Optional[str] = None, **attrs: Any):
        return self.tracer.span(kind, name, **attrs)

    def event(self, kind: str, name: Optional[str] = None, **attrs: Any) -> None:
        self.tracer.event(kind, name, **attrs)

    def counter(self, name: str, **labels: Any):
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any):
        return self.metrics.gauge(name, **labels)

    # -- drift ----------------------------------------------------------------

    def record_drift(self, **kwargs: Any) -> None:
        """Record a drift snapshot and mirror it into trace + metrics."""
        snapshot = self.drift.record(**kwargs)
        if snapshot is None:
            return
        self.event(
            SpanKind.DRIFT_SNAPSHOT,
            name=snapshot.label,
            refit=snapshot.refit,
            plan=snapshot.plan,
            observed_good=snapshot.observed_good,
            observed_bad=snapshot.observed_bad,
            predicted_good=snapshot.predicted_good,
            predicted_bad=snapshot.predicted_bad,
            good_error=snapshot.good_error,
            bad_error=snapshot.bad_error,
        )
        self.metrics.gauge("repro_drift_good_error").set(snapshot.good_error)
        self.metrics.gauge("repro_drift_bad_error").set(snapshot.bad_error)

    # -- export ---------------------------------------------------------------

    def write_trace(self, path: str) -> Dict[str, str]:
        """Write the JSONL log at *path* and a Chrome trace next to it.

        ``run.jsonl`` → ``run.chrome.json``; any other name gets
        ``.chrome.json`` appended.  Returns ``{"jsonl": ..., "chrome": ...}``.
        """
        target = pathlib.Path(path)
        if target.suffix == ".jsonl":
            chrome = target.with_suffix(".chrome.json")
        else:
            chrome = target.parent / (target.name + ".chrome.json")
        return {
            "jsonl": self.tracer.export_jsonl(str(target)),
            "chrome": self.tracer.export_chrome(str(chrome)),
        }

    def write_metrics(self, path: str) -> str:
        pathlib.Path(path).write_text(self.metrics.render())
        return path


class _NullObservability(ObservabilityContext):
    """The always-off context: shared no-op tracer/metrics/drift."""

    enabled = False

    def __init__(self) -> None:
        self.tracer = NullTracer()
        self.metrics = NullMetrics()
        self.drift = NullDriftTracker()
        self.phases = {}

    def phase(self, name: str) -> "_NullPhaseTimer":
        return _NULL_PHASE

    def record_drift(self, **kwargs: Any) -> None:
        return None


class _PhaseTimer:
    """Context manager adding elapsed wall time to ``phases[name]``."""

    __slots__ = ("_phases", "_name", "_started")

    def __init__(self, phases: Dict[str, float], name: str) -> None:
        self._phases = phases
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self._started
        self._phases[self._name] = self._phases.get(self._name, 0.0) + elapsed


class _NullPhaseTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullPhaseTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_PHASE = _NullPhaseTimer()

NULL_OBSERVABILITY = _NullObservability()


def ensure_observability(
    observability: Optional[ObservabilityContext],
) -> ObservabilityContext:
    """Normalize ``None`` to the shared disabled context."""
    return observability if observability is not None else NULL_OBSERVABILITY
