"""Wide events and the flight recorder: per-request service introspection.

One *wide event* is emitted per service request — a single flat record
carrying everything an operator needs to answer "why was this request
slow?": task signature, priority, the admission decision, deadline
budget/spent, coarse phase timings, the chosen plan, cache/pruning
counters, drift deltas, and the outcome.  Events land in a bounded
in-memory ring buffer (the :class:`FlightRecorder`) that the service
exposes through ``GET /v1/debug/requests``.

Retention is *tail-based*: the sampling decision is made after the
request finishes, when its outcome and latency are known.  Errors,
deadline 504s, and sheds are always kept; requests slower than the
rolling p99 are kept; the boring majority is down-sampled 1-in-N
(deterministically, by request id, so reruns keep the same events).
Only kept events retain their span records — cheap to observe
everything, expensive detail on demand — and a kept event is the one
per-request record: ``GET /v1/debug/requests/<id>`` nests its spans into
a tree, and the JSONL *spill* file (so a crash does not lose the
interesting tail) gets one line per kept event, the event with its flat
span records under ``spans``.
"""

from __future__ import annotations

import collections
import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

from .metrics import percentile

__all__ = [
    "WideEvent",
    "TailSampler",
    "FlightRecorder",
    "span_tree",
    "WIDE_EVENT_SCHEMA",
]

#: schema tag stamped on every emitted event
WIDE_EVENT_SCHEMA = "wide-event/1"


@dataclass
class WideEvent:
    """One canonical structured record per service request."""

    id: int
    ts: float  # completion time, service clock
    task: str
    signature: str
    mode: str  # "plan" | "execute"
    priority: str
    tau_good: int
    tau_bad: int
    outcome: str  # "ok" | "degraded" | "shed" | "deadline" | "error"
    admission: Dict[str, Any] = field(default_factory=dict)
    queue_seconds: float = 0.0
    total_seconds: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    deadline_ms: Optional[float] = None
    deadline_spent_ms: Optional[float] = None
    phase: Optional[str] = None  # interrupted phase (deadline/error only)
    plan: Optional[str] = None
    warm_started: Optional[bool] = None
    rounds: Optional[int] = None
    pilot_fresh_documents: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)
    drift: Optional[Dict[str, float]] = None
    error: Optional[str] = None
    keep: Optional[str] = None  # set by the recorder: why it was kept

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": WIDE_EVENT_SCHEMA,
            "id": self.id,
            "ts": self.ts,
            "task": self.task,
            "signature": self.signature,
            "mode": self.mode,
            "priority": self.priority,
            "tau_good": self.tau_good,
            "tau_bad": self.tau_bad,
            "outcome": self.outcome,
            "admission": dict(self.admission),
            "queue_seconds": self.queue_seconds,
            "total_seconds": self.total_seconds,
            "phases": dict(self.phases),
            "deadline_ms": self.deadline_ms,
            "deadline_spent_ms": self.deadline_spent_ms,
            "phase": self.phase,
            "plan": self.plan,
            "warm_started": self.warm_started,
            "rounds": self.rounds,
            "pilot_fresh_documents": self.pilot_fresh_documents,
            "counters": dict(self.counters),
            "drift": dict(self.drift) if self.drift is not None else None,
            "error": self.error,
            "keep": self.keep,
        }


class TailSampler:
    """Keep-or-drop decisions made *after* the request finishes.

    Decision order (first match wins):

    1. non-success outcomes (anything but ``ok``/``degraded``) — always keep;
    2. latency at or above the rolling p99 of recent requests — keep
       (only once at least ``min_samples`` latencies have been seen, so
       a cold recorder does not flag everything as slow);
    3. deterministic 1-in-``sample_every`` by request id — keep;
    4. otherwise drop.

    The latency window is updated *after* the decision: tail-based
    sampling compares a request against the distribution that preceded
    it, not one that already contains it.
    """

    BORING_OUTCOMES = frozenset({"ok", "degraded"})

    def __init__(
        self,
        sample_every: int = 10,
        slow_fraction: float = 0.99,
        min_samples: int = 20,
        window: int = 512,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        if not 0.0 < slow_fraction <= 1.0:
            raise ValueError(
                f"slow_fraction must lie in (0, 1], got {slow_fraction!r}"
            )
        self.sample_every = sample_every
        self.slow_fraction = slow_fraction
        self.min_samples = min_samples
        self._latencies: Deque[float] = collections.deque(maxlen=window)

    def decide(self, event: WideEvent) -> Optional[str]:
        """Why to keep *event*, or ``None`` to drop it."""
        reason: Optional[str] = None
        if event.outcome not in self.BORING_OUTCOMES:
            reason = event.outcome
        elif (
            len(self._latencies) >= self.min_samples
            and event.total_seconds
            >= percentile(self._latencies, self.slow_fraction)
        ):
            reason = "slow"
        elif event.id % self.sample_every == 1 % self.sample_every:
            reason = "sampled"
        self._latencies.append(event.total_seconds)
        return reason


class FlightRecorder:
    """Bounded ring of wide events with JSONL spill for the kept tail.

    Every event enters the ring (so ``/v1/debug/requests`` shows the
    recent past regardless of sampling); only *kept* events retain span
    records and are appended, spans included, to the spill file.  All
    methods are thread-safe: the service's worker pool records
    concurrently.
    """

    def __init__(
        self,
        capacity: int = 512,
        sampler: Optional[TailSampler] = None,
        spill_path: Optional[str] = None,
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.sampler = sampler if sampler is not None else TailSampler()
        self.spill_path = (
            pathlib.Path(spill_path) if spill_path is not None else None
        )
        self.clock = clock
        self._ring: Deque[Dict[str, Any]] = collections.deque(maxlen=capacity)
        self._spans: "collections.OrderedDict[int, List[Dict[str, Any]]]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()
        self._events_total = 0
        self._kept_total = 0
        self._spilled_total = 0
        self._spill_failures_total = 0
        self._by_outcome: Dict[str, int] = {}

    # -- recording ------------------------------------------------------------

    def record(
        self,
        event: WideEvent,
        spans: Optional[Sequence[Dict[str, Any]]] = None,
    ) -> None:
        """Admit one finished request (a failed spill write is counted in
        :meth:`stats`, never raised: the caller's answer stands)."""
        with self._lock:
            keep = self.sampler.decide(event)
            event.keep = keep
            payload = event.to_dict()
            self._ring.append(payload)
            self._events_total += 1
            self._by_outcome[event.outcome] = (
                self._by_outcome.get(event.outcome, 0) + 1
            )
            if keep is not None:
                self._kept_total += 1
                kept = list(spans) if spans else []
                if kept:
                    self._spans[event.id] = kept
                    while len(self._spans) > self.capacity:
                        self._spans.popitem(last=False)
                if self.spill_path is not None:
                    self._spill({**payload, "spans": kept})

    def _spill(self, payload: Dict[str, Any]) -> None:
        try:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            with self.spill_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(payload, sort_keys=True) + "\n")
        except OSError:
            self._spill_failures_total += 1
        else:
            self._spilled_total += 1

    # -- querying -------------------------------------------------------------

    def recent(
        self,
        limit: int = 50,
        outcome: Optional[str] = None,
        mode: Optional[str] = None,
        priority: Optional[str] = None,
        phase: Optional[str] = None,
        since_id: Optional[int] = None,
        signature: Optional[str] = None,
        task: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Most-recent-first slice of the ring, filtered (``signature`` and
        ``task`` match the event's identity exactly)."""
        with self._lock:
            events = list(self._ring)
        selected: List[Dict[str, Any]] = []
        for event in reversed(events):
            if outcome is not None and event["outcome"] != outcome:
                continue
            if mode is not None and event["mode"] != mode:
                continue
            if priority is not None and event["priority"] != priority:
                continue
            if phase is not None and not (
                event["phase"] == phase or phase in event["phases"]
            ):
                continue
            if since_id is not None and event["id"] <= since_id:
                continue
            if signature is not None and event["signature"] != signature:
                continue
            if task is not None and event["task"] != task:
                continue
            selected.append(event)
            if len(selected) >= limit:
                break
        return selected

    def get(self, request_id: int) -> Optional[Dict[str, Any]]:
        """Full event plus span tree (spans only for kept events)."""
        with self._lock:
            found = None
            for event in self._ring:
                if event["id"] == request_id:
                    found = dict(event)
                    break
            if found is None:
                return None
            spans = self._spans.get(request_id)
        found["spans"] = span_tree(spans) if spans else []
        return found

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "ring_size": len(self._ring),
                "events_total": self._events_total,
                "kept_total": self._kept_total,
                "spilled_total": self._spilled_total,
                "spill_failures_total": self._spill_failures_total,
                "by_outcome": dict(sorted(self._by_outcome.items())),
                "spill_path": (
                    str(self.spill_path) if self.spill_path is not None else None
                ),
            }


def span_tree(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat tracer records into parent/child trees.

    Tracer records carry ``id``/``parent``; spans whose parent is absent
    from the record set (or ``None``) become roots.  Events (``dur_us``
    absent) nest like spans.  Record order within one level is retained.
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    roots: List[Dict[str, Any]] = []
    for record in records:
        node = dict(record)
        node["children"] = []
        nodes[record["id"]] = node
    for record in records:
        node = nodes[record["id"]]
        parent = record.get("parent")
        if parent is not None and parent in nodes:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    return roots
