"""Nested-span tracing with JSONL and Chrome-trace export.

The tracer is deliberately dependency-free: spans are plain dicts
accumulated in memory, written out on demand as

* a JSONL event log (one JSON object per line — greppable, schema-checked
  in CI against the span record of ``tests/event_schema.json``), and
* a Chrome trace (``chrome://tracing`` / Perfetto ``traceEvents`` format),
  so a join execution can be inspected on a real timeline.

Span nesting follows the call stack: the tracer keeps a stack of open
span ids and stamps each finished span with its parent.  All timestamps
are wall-clock microseconds relative to the tracer's origin — simulated
execution time is *not* the span clock; executors attach it as span
attributes instead, so a trace shows both where real time went and what
the cost model charged.  Every record carries the process id and lane
0 as its ``pid``/``tid``, the fields trace viewers group by.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional


class SpanKind:
    """The span taxonomy (DESIGN §6.3) — one constant per unit of work."""

    #: one plan's effort curve built by the evaluation engine
    PLAN_CURVE = "plan.curve"
    #: one full optimize() pass over the plan space
    OPTIMIZE = "optimizer.optimize"
    #: one MLE refit of the side statistics (Section VI)
    MLE_REFIT = "mle.refit"
    #: the adaptive optimizer's pilot execution
    PILOT = "adaptive.pilot"
    #: a mid-flight re-optimization (milestone or degradation)
    REOPTIMIZE = "adaptive.reoptimize"
    #: cross-validation of a plan choice on observation halves
    CROSS_VALIDATE = "adaptive.crossvalidate"
    #: the adaptive optimizer's final plan execution
    EXECUTE = "adaptive.execute"
    #: instant event: an estimator-drift snapshot was recorded
    DRIFT_SNAPSHOT = "drift.snapshot"
    #: instant event: a circuit breaker changed state
    BREAKER_TRANSITION = "breaker.transition"
    #: one point of an experiment sweep (figures, frontier, budget)
    EXPERIMENT = "experiment.sweep"
    #: one request handled by the serving front end
    SERVICE_REQUEST = "service.request"


def _clean_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Keep attributes JSON-serializable (numbers/strings/bools/None)."""
    cleaned: Dict[str, Any] = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            cleaned[key] = value
        else:
            cleaned[key] = str(value)
    return cleaned


class _LiveSpan:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "kind", "name", "attrs", "_start", "span_id", "parent")

    def __init__(self, tracer: "Tracer", kind: str, name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self._start = 0
        self.span_id = 0
        self.parent: Optional[int] = None

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        self.parent = tracer._stack[-1] if tracer._stack else None
        tracer._stack.append(self.span_id)
        self._start = tracer._now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer._now_us()
        tracer._stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer.records.append(
            {
                "type": "span",
                "kind": self.kind,
                "name": self.name,
                "ts_us": self._start,
                "dur_us": end - self._start,
                "pid": tracer.pid,
                "tid": tracer.tid,
                "id": self.span_id,
                "parent": self.parent,
                "attrs": _clean_attrs(self.attrs),
            }
        )
        return False


class _NullSpan:
    """Shared no-op span: zero allocation on enter/exit, attrs dropped."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every span is the shared no-op span."""

    enabled = False
    records: List[Dict[str, Any]] = []

    def span(self, kind: str, name: Optional[str] = None, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def event(self, kind: str, name: Optional[str] = None, **attrs: Any) -> None:
        return None


class Tracer:
    """Collects nested spans and instant events for one execution."""

    enabled = True

    #: logical lane stamped on every record (trace viewers group by it)
    tid = 0

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.pid = os.getpid()
        self._stack: List[int] = []
        self._next_id = 1
        self.origin_ns = time.perf_counter_ns()

    def _now_us(self) -> float:
        return (time.perf_counter_ns() - self.origin_ns) / 1000.0

    def span(self, kind: str, name: Optional[str] = None, **attrs: Any) -> _LiveSpan:
        """Open a span; use as a context manager."""
        return _LiveSpan(self, kind, name if name is not None else kind, attrs)

    def event(self, kind: str, name: Optional[str] = None, **attrs: Any) -> None:
        """Record an instant (zero-duration) event at the current nesting."""
        event_id = self._next_id
        self._next_id += 1
        self.records.append(
            {
                "type": "event",
                "kind": kind,
                "name": name if name is not None else kind,
                "ts_us": self._now_us(),
                "dur_us": 0.0,
                "pid": self.pid,
                "tid": self.tid,
                "id": event_id,
                "parent": self._stack[-1] if self._stack else None,
                "attrs": _clean_attrs(attrs),
            }
        )

    # -- export ---------------------------------------------------------------

    def export_jsonl(self, path: str) -> str:
        """Write one JSON object per span/event; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return path

    def export_chrome(self, path: str) -> str:
        """Write a ``chrome://tracing`` / Perfetto ``traceEvents`` file."""
        events = []
        for record in self.records:
            event = {
                "name": record["name"],
                "cat": record["kind"],
                "ph": "X" if record["type"] == "span" else "i",
                "ts": record["ts_us"],
                "pid": record["pid"],
                "tid": record["tid"],
                "args": record["attrs"],
            }
            if record["type"] == "span":
                event["dur"] = record["dur_us"]
            else:
                event["s"] = "t"  # thread-scoped instant
            events.append(event)
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return path
