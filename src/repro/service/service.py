"""The concurrent join service.

One :class:`JoinService` wraps one bound
:class:`~repro.experiments.testbed.JoinTask` and serves (τg, τb) join
requests through a fixed worker pool:

* **admission control** — a bounded request queue behind a
  priority-aware :class:`~repro.service.admission.AdmissionController`:
  under load a request is admitted, answered *degraded* from stored warm
  statistics (a plan-only answer flagged ``"degraded": true``), or shed
  with :class:`ServiceBusyError` carrying a jittered ``retry_after``
  hint instead of letting latency grow without bound;
* **end-to-end deadlines** — a request carrying ``deadline_ms`` gets a
  :class:`~repro.robustness.deadline.Deadline` installed on its
  resilience context; expiry raises
  :class:`~repro.robustness.deadline.DeadlineExceeded` at the next
  database access, carrying partial progress and a checkpoint of the
  interrupted execution, so no worker is ever pinned past the budget;
* **per-request isolation** — every request runs under its own
  :class:`~repro.robustness.context.ResilienceContext` (fresh breaker
  state, fresh fault accounting) and, for an execute, its own
  :class:`~repro.observability.context.ObservabilityContext` whose spans
  ride the request's wide event when the tail sampler keeps it and whose
  metrics merge into the service-level registry;
* **warm starts** — before running the adaptive optimizer the service
  consults its :class:`~repro.service.store.StatisticsStore`
  (crash-safe, journaled, sharded by corpus fingerprint); a fresh
  record for this task yields a
  :class:`~repro.optimizer.adaptive.PilotWarmStart`, so the pilot phase
  replays stored observations instead of re-scanning the databases.
  After any run that pulled fresh pilot documents, the store is updated
  (atomically) for the next request;
* **plan caching** — every planning step (plan mode, degraded answers,
  n-ary executes, the first round of fully-warm binary executes) goes
  through one :class:`~repro.service.plancache.PlanCache` of plan spaces
  built from *stored* statistics — the binary optimizer or the n-ary
  planner: repeated τ levels cost a dict lookup, a fully-warm execute
  reuses its generation's restored pilot and refit memoized on the
  binary space, a warm execute that stops on its plan's recorded run is
  answered from it without running the join (DESIGN §6.4), and any
  statistics update or breaker-driven degradation invalidates the
  affected entries.  Every answer a healthy key computes
  is journaled to the store, so a restarted service replies to a known
  plan request from disk (``warm_planned``) without planning;
* **extraction memo** — every execute environment is bound through the
  service's :class:`~repro.extraction.memo.ExtractionMemo`, so a
  document is extracted (at θ=0, every request θ filtering that one
  output on read) and FS-classified once per system per service; the
  memo serves only the document objects its databases hold, so
  truncated payloads under a fault profile are extracted fresh;
* **frozen boot heap** — the corpus, characterizations and models built
  before the workers start live as long as the service, so boot ends
  with one full collection and moves the survivors to the collector's
  permanent generation; no full collection on the request path walks
  them again (DESIGN §6.2);
* **graceful drain** — :meth:`close` stops admissions, lets queued
  requests finish, joins the workers and, as the process's last live
  service, unfreezes the heap.

Determinism: request handling never reads wall-clock time or shared
mutable execution state (the extraction memo holds only pure
per-document outputs) — given the same store contents, a request's
response is a pure function of the request, so concurrent and serial
executions of the same request set produce byte-identical responses.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .. import __version__
from ..core.preferences import QualityRequirement
from ..estimation.mle import EstimatedParameters
from ..estimation.online import estimated_catalog
from ..extraction.memo import ExtractionMemo
from ..joins.trajectory import OUTCOMES, serve_or_record
from ..models.parameters import ValueOverlapModel
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.events import FlightRecorder, TailSampler, WideEvent
from ..observability.metrics import MetricsRegistry
from ..observability.profiler import ProfileResult, SamplingProfiler
from ..observability.slo import DEFAULT_SLO_SPEC, SLOConfig, SLOTracker
from ..observability.tracer import SpanKind
from ..optimizer.adaptive import AdaptiveJoinExecutor, AdaptiveResult
from ..optimizer.binder import ExecutionEnvironment
from ..optimizer.enumerator import enumerate_plans
from ..optimizer.optimizer import JoinOptimizer
from ..planner.binder import bind_multiway_plan, multiway_caps
from ..planner.graph import JoinGraph
from ..planner.planner import MultiwayPlanner
from ..robustness.checkpoint import CheckpointManager
from ..robustness.deadline import Deadline, DeadlineExceeded
from ..robustness.degradation import plans_without
from ..robustness.environment import harden
from ..robustness.faults import SWALLOWED_EXCEPTIONS, FaultProfile
from .admission import DEGRADE, SHED, AdmissionController
from .coalesce import RequestCoalescer
from .plancache import (
    BinaryPlanSpace,
    MultiwayPlanSpace,
    PlanCache,
    PlanCacheKey,
    PlanSpace,
    journal_key,
)
from .store import StatisticsStore, WarmStartPolicy, task_signature

#: (side-1 parameters, side-2 parameters, overlap classes) read from the
#: store — everything the stored-statistics catalog is built from
StoredStatistics = Tuple[
    EstimatedParameters, EstimatedParameters, ValueOverlapModel
]


class ServiceBusyError(RuntimeError):
    """The request was shed; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"service overloaded; retry after {retry_after:.1f}s"
        )
        self.retry_after = retry_after


class ServiceClosedError(RuntimeError):
    """The service is draining or closed; no new requests are admitted."""


@dataclass(frozen=True)
class JoinRequest:
    """One serving request: a quality contract plus the answer mode.

    ``mode="execute"`` runs the full adaptive pipeline and returns actual
    join results; ``mode="plan"`` answers from stored statistics through
    the plan cache without touching the databases (fails when the store
    holds nothing fresh for the task).

    ``deadline_ms`` is an end-to-end budget: the clock starts at
    admission and expiry interrupts the run at its next database access.
    ``priority`` ("high"/"normal"/"low") moves the request's degrade
    threshold under load — it never changes the answer, only how much
    backlog the request is willing to ride out before accepting a
    degraded (plan-only) response.

    A payload carrying ``relations``/``edges`` keys is a **multiway**
    request: ``graph`` holds the parsed (acyclic, connected)
    :class:`~repro.planner.graph.JoinGraph` and the request is answered
    by the n-ary planner instead of the binary optimizer.  Every graph
    defect — cycles, dangling attributes, duplicate relations — raises
    ``ValueError`` at parse time, so the HTTP layer answers a structured
    4xx and a malformed graph can never reach a worker.
    """

    tau_good: int
    tau_bad: int
    mode: str = "execute"
    deadline_ms: Optional[float] = None
    priority: str = "normal"
    graph: Optional[JoinGraph] = None

    def __post_init__(self) -> None:
        if self.tau_good < 0 or self.tau_bad < 0:
            raise ValueError("tau_good and tau_bad must be non-negative")
        if self.mode not in ("execute", "plan"):
            raise ValueError(f"unknown request mode {self.mode!r}")
        if self.deadline_ms is not None:
            if (
                isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, (int, float))
                or not math.isfinite(self.deadline_ms)
                or self.deadline_ms <= 0
            ):
                raise ValueError(
                    "deadline_ms must be a positive finite number"
                )
        if self.priority not in ("high", "normal", "low"):
            raise ValueError(f"unknown priority {self.priority!r}")

    @property
    def requirement(self) -> QualityRequirement:
        return QualityRequirement(
            tau_good=self.tau_good, tau_bad=self.tau_bad
        )

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "JoinRequest":
        if not isinstance(payload, dict):
            raise ValueError("request payload must be a JSON object")
        try:
            # OverflowError: json.loads accepts ``Infinity`` and int() of
            # an infinite float overflows rather than raising ValueError.
            tau_good = int(payload["tau_good"])
            tau_bad = int(payload["tau_bad"])
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            raise ValueError(
                "payload needs integer tau_good and tau_bad"
            ) from error
        mode = payload.get("mode", "execute")
        if not isinstance(mode, str):
            raise ValueError("mode must be a string")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
        ):
            raise ValueError("deadline_ms must be a number")
        priority = payload.get("priority", "normal")
        if not isinstance(priority, str):
            raise ValueError("priority must be a string")
        graph: Optional[JoinGraph] = None
        if "relations" in payload or "edges" in payload:
            graph = JoinGraph.from_payload(payload)
        return JoinRequest(
            tau_good=tau_good,
            tau_bad=tau_bad,
            mode=mode,
            deadline_ms=deadline_ms,
            priority=priority,
            graph=graph,
        )


class _PlanSource(NamedTuple):
    """Everything the plan cache and the store need to plan one request."""

    key: PlanCacheKey
    #: the databases the store's journal record is fingerprinted against
    databases: Tuple[Any, ...]
    factory: Callable[[], PlanSpace]
    #: answers the store's journal record already holds, by ``"τg|τb"``
    #: (empty under a degraded key, which never reads the record)
    journal: Dict[str, Dict[str, Any]]


#: services that froze the heap at boot and are not closed yet
_frozen_services = 0
_freeze_lock = threading.Lock()


def _freeze_boot_heap() -> None:
    """Collect once, then exempt every surviving object from collection.

    Called at the end of boot, when the heap holds what the service keeps
    for its whole life.  A full collection over it costs tens of
    milliseconds even when it finds no garbage, so leaving it in the
    tracked generations lets the interpreter charge that walk to whichever
    request happens to trigger it.  ``gc.freeze`` is process-wide, so the
    live frozen services are counted: :func:`_release_boot_heap`, called
    by :meth:`JoinService.close`, unfreezes only when the last one closes.
    """
    global _frozen_services
    with _freeze_lock:
        gc.collect()
        gc.freeze()
        _frozen_services += 1


def _release_boot_heap() -> None:
    """Undo one :func:`_freeze_boot_heap`; the last live service unfreezes."""
    global _frozen_services
    with _freeze_lock:
        _frozen_services -= 1
        if _frozen_services == 0:
            gc.unfreeze()


class JoinService:
    """Worker pool + statistics store + plan cache around one join task."""

    def __init__(
        self,
        task,
        store_root: str,
        workers: int = 2,
        queue_limit: int = 8,
        pilot_documents: int = 60,
        pilot_theta: float = 0.4,
        max_rounds: int = 2,
        margin: float = 0.3,
        warm_policy: Optional[WarmStartPolicy] = None,
        checkpoints: Optional[CheckpointManager] = None,
        clock: Callable[[], float] = time.time,
        admission: Optional[AdmissionController] = None,
        fault_profile: Optional[FaultProfile] = None,
        slo: Optional[str] = None,
        flight_capacity: int = 512,
        flight_spill: Optional[str] = None,
        trace_sample: int = 10,
        multiway: Optional[Any] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        self.task = task
        self.clock = clock
        self.store = StatisticsStore(store_root, clock=clock)
        self.plan_cache = PlanCache()
        #: cross-request singleflight for side-effect-free (plan-mode)
        #: requests; the HTTP front end routes duplicates through it,
        #: while ``submit`` itself never coalesces
        self.coalescer = RequestCoalescer()
        #: multiway bindings (duck-typed scenario exposing ``catalog()``,
        #: ``environment()`` and ``database_of(alias)``); None rejects
        #: relations/edges payloads with a structured error
        self.multiway = multiway
        self._multiway_catalog = None
        self._multiway_lock = threading.Lock()
        #: fault profile injected into every request's environment — the
        #: chaos harness's hook; None serves against the raw databases
        self.fault_profile = fault_profile
        self.pilot_documents = pilot_documents
        self.pilot_theta = pilot_theta
        self.max_rounds = max_rounds
        self.margin = margin
        # Default freshness gate: a stored pilot at least as large as this
        # service's own pilot size is trustworthy (the cold run that wrote
        # it used exactly that size).
        self.warm_policy = (
            warm_policy
            if warm_policy is not None
            else WarmStartPolicy(min_documents=pilot_documents)
        )
        self.signature = task_signature(
            task.database1,
            task.extractor1.name,
            task.database2,
            task.extractor2.name,
            pilot_theta,
        )
        self.plans = enumerate_plans(
            task.extractor1.name, task.extractor2.name
        )
        #: per-document extraction (one θ=0 pass per system, filtered by
        #: θ on read) and FS verdicts, filled by this service's executes
        #: only (DESIGN §6.4)
        self.extraction_memo = ExtractionMemo()
        #: wide-event flight recorder: every request lands in the ring,
        #: tail sampling decides which keep their spans and are spilled
        self.recorder = FlightRecorder(
            capacity=flight_capacity,
            sampler=TailSampler(sample_every=trace_sample),
            spill_path=flight_spill,
            clock=clock,
        )
        #: declarative latency/availability objectives with burn rates
        self.slo = SLOTracker(
            SLOConfig.parse(slo if slo is not None else DEFAULT_SLO_SPEC),
            clock=clock,
        )
        #: stale checkpoints are pruned at startup, not left to accrete
        self.checkpoints = checkpoints
        self.pruned_checkpoints: Tuple[str, ...] = ()
        if checkpoints is not None:
            self.pruned_checkpoints = tuple(checkpoints.prune())
        #: service-level metrics; per-request registries merge in here
        self.metrics = MetricsRegistry()
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(queue_limit)
        )
        #: access paths the optimizer degraded around in past requests
        self._unavailable_paths: List[str] = []
        #: curve-store bookkeeping: whether a fresh plan space found a
        #: stored journal record (hits/misses are per space build, plus
        #: ``warm_planned`` answers) and how many exports were written
        self._curve_store_hits = 0
        self._curve_store_misses = 0
        self._curve_exports = 0
        #: request id -> Deadline, registered at admission, claimed by
        #: the worker that picks the request up
        self._deadlines: Dict[int, Deadline] = {}
        self._deadline_lock = threading.Lock()
        self._store_lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._queue: "queue.Queue[Optional[Tuple[int, JoinRequest, Dict[str, Any], Future]]]" = (
            queue.Queue(maxsize=queue_limit)
        )
        self._closed = threading.Event()
        #: can a degraded (plan-only) answer be served right now?
        self._warm_available = self._stored_statistics() is not None
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"join-service-{n}", daemon=True
            )
            for n in range(workers)
        ]
        _freeze_boot_heap()
        for worker in self._workers:
            worker.start()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "JoinService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests, drain the queue, join the workers,
        and return the boot heap to the collector once no other service
        of this process keeps it frozen."""
        if self._closed.is_set():
            return
        self._closed.set()
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for worker in self._workers:
                worker.join()
        _release_boot_heap()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    # -- submission -----------------------------------------------------------

    def submit(self, request: JoinRequest) -> "Future[Dict[str, Any]]":
        """Enqueue a request; resolves to its JSON-ready response dict.

        Admission runs the degrade ladder: under backlog an ``execute``
        request may be answered synchronously from stored warm statistics
        (``"degraded": true`` in the response) instead of queueing, and a
        shed raises :class:`ServiceBusyError` with a jittered
        ``retry_after`` hint scaled to the backlog.  Raises
        :class:`ServiceClosedError` when draining.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is closed")
        future: "Future[Dict[str, Any]]" = Future()
        request_id = next(self._ids)
        decision = self.admission.decide(
            mode=request.mode,
            priority=request.priority,
            depth=self._queue.qsize(),
            warm_available=self._warm_available,
            plan_cached=len(self.plan_cache) > 0,
        )
        with self._metrics_lock:
            self.metrics.counter(
                "repro_service_admission_total", decision=decision.action
            ).inc()
        if decision.action == SHED:
            with self._metrics_lock:
                self.metrics.counter(
                    "repro_service_rejected_total", reason=decision.reason
                ).inc()
            self._record_edge_event(request_id, request, "shed", decision)
            raise ServiceBusyError(retry_after=decision.retry_after)
        if decision.action == DEGRADE:
            admitted_at = self.clock()
            try:
                response = self._degraded_response(request, decision.reason)
            except ServiceBusyError:
                self._record_edge_event(
                    request_id, request, "shed", decision, reason="warm_lost"
                )
                raise
            self._record_edge_event(
                request_id,
                request,
                "degraded",
                decision,
                started=admitted_at,
                plan=response.get("plan"),
            )
            future.set_result(response)
            return future
        self._register_deadline(request_id, request)
        meta = {
            "action": decision.action,
            "reason": decision.reason or "admit",
            "depth": decision.depth,
            "admitted_at": self.clock(),
        }
        try:
            self._queue.put_nowait((request_id, request, meta, future))
        except queue.Full:
            # Lost the race against other submitters since the depth
            # check; fall back to a shed.
            self._claim_deadline(request_id)
            with self._metrics_lock:
                self.metrics.counter(
                    "repro_service_rejected_total", reason="queue_full"
                ).inc()
            self._record_edge_event(
                request_id, request, "shed", decision, reason="queue_full"
            )
            raise ServiceBusyError(
                retry_after=self.admission.retry_after(self._queue.qsize())
            ) from None
        return future

    def coalesce_key(self, request: JoinRequest) -> Optional[Tuple[Any, ...]]:
        """Identity of the shared computation this request may join.

        None means the request must run individually.  Only plan-mode
        requests coalesce: they are pure functions of the statistics
        store, so everything their answer depends on is in the key —
        the plan-cache key at attach time (plan-space identity, store
        generation, unavailable access paths) and the requirement.
        Deadline and priority are deliberately absent: deadlines are
        enforced per waiter, and priority only shapes admission, never
        the answer.
        """
        if request.mode != "plan":
            return None
        with self._store_lock:
            key = self._plan_key(request)
        return (key, request.tau_good, request.tau_bad)

    def execute(self, request: JoinRequest) -> Dict[str, Any]:
        """Process a request synchronously on the calling thread.

        The exact code path the workers run — the serial baseline that
        concurrent submissions must match byte-for-byte.  Bypasses
        admission control (no queue is involved) but honours the
        request's deadline.
        """
        request_id = next(self._ids)
        self._register_deadline(request_id, request)
        meta = {
            "action": "admit",
            "reason": "bypass",
            "depth": 0,
            "admitted_at": self.clock(),
        }
        return self._handle(request_id, request, meta)

    def _register_deadline(
        self, request_id: int, request: JoinRequest
    ) -> None:
        """Start the request's end-to-end clock at admission time."""
        if request.deadline_ms is None:
            return
        deadline = Deadline.after(
            request.deadline_ms / 1000.0, clock=self.clock
        )
        with self._deadline_lock:
            self._deadlines[request_id] = deadline

    def _claim_deadline(self, request_id: int) -> Optional[Deadline]:
        with self._deadline_lock:
            return self._deadlines.pop(request_id, None)

    # -- worker loop ----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request_id, request, meta, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(self._handle(request_id, request, meta))
            except BaseException as error:  # noqa: BLE001 — future carries it
                future.set_exception(error)

    # -- request handling -----------------------------------------------------

    def _handle(
        self,
        request_id: int,
        request: JoinRequest,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        deadline = self._claim_deadline(request_id)
        meta = meta if meta is not None else {}
        status = "error"
        started = self.clock()
        response: Optional[Dict[str, Any]] = None
        expired_info: Optional[DeadlineExceeded] = None
        error_text: Optional[str] = None
        # Every execute request gets its own context: the flight recorder
        # needs its phase timings/drift, and kept events keep its spans.
        observability = (
            ObservabilityContext() if request.mode == "execute" else None
        )
        try:
            if deadline is not None:
                # A request that expired while queued never starts work.
                deadline.check("service.queue")
            if request.mode == "plan":
                response, _, _ = self._handle_plan(request)
            elif request.graph is not None:
                response = self._handle_multiway(
                    request_id, request, deadline, observability
                )
            else:
                response = self._handle_execute(
                    request_id, request, deadline, observability
                )
            status = "ok"
            return response
        except DeadlineExceeded as expired:
            status = "deadline"
            if expired.phase is None:
                expired.attach("queued")
            self._on_deadline_exceeded(request_id, expired)
            expired_info = expired
            raise
        except Exception as error:
            error_text = f"{type(error).__name__}: {error}"
            raise
        finally:
            finished = self.clock()
            latency = max(finished - started, 0.0)
            with self._metrics_lock:
                self.metrics.counter(
                    "repro_service_requests_total",
                    mode=request.mode,
                    status=status,
                ).inc()
                self.metrics.histogram(
                    "repro_service_request_seconds", mode=request.mode
                ).observe(latency, exemplar=str(request_id))
            try:
                self._finish_event(
                    request_id,
                    request,
                    meta,
                    status,
                    started,
                    finished,
                    deadline,
                    observability,
                    response,
                    expired_info,
                    error_text,
                )
            except Exception:  # noqa: BLE001 — never mask the response
                with self._metrics_lock:
                    self.metrics.counter(
                        "repro_flight_recorder_errors_total"
                    ).inc()

    def _on_deadline_exceeded(
        self, request_id: int, expired: DeadlineExceeded
    ) -> None:
        """Account an expiry and persist its checkpoint for a resume.

        The raw execution snapshot captured at expiry is moved out of the
        partial payload (it is large and not JSON-response material) and,
        when a checkpoint manager is configured, written to disk; the
        response then carries only its path.
        """
        with self._metrics_lock:
            self.metrics.counter(
                "repro_service_deadline_total",
                phase=expired.phase or "unknown",
            ).inc()
        snapshot = expired.partial.pop("checkpoint", None)
        if snapshot is None or self.checkpoints is None:
            return
        try:
            expired.partial["checkpoint_path"] = self.checkpoints.save_snapshot(
                snapshot, f"request-{request_id}"
            )
        except OSError:
            pass  # losing the checkpoint must not mask the 504

    # -- wide events -----------------------------------------------------------

    def _identity(self, request: JoinRequest) -> Dict[str, str]:
        """A wide event's task and signature: its join graph's, if any."""
        graph = request.graph
        if graph is None:
            return {"task": self.task.name, "signature": self.signature}
        return {"task": graph.describe(), "signature": graph.signature()}

    def _record_edge_event(
        self,
        request_id: int,
        request: JoinRequest,
        outcome: str,
        decision,
        reason: Optional[str] = None,
        started: Optional[float] = None,
        plan: Optional[str] = None,
    ) -> None:
        """A wide event for a request that never reached a worker.

        Sheds and degrades are decided on the submitter's thread; they
        still deserve a flight-recorder entry (sheds are always kept by
        the tail sampler) so ``/v1/debug/requests?outcome=shed`` shows
        exactly who was turned away and at what queue depth.
        """
        now = self.clock()
        origin = started if started is not None else now
        event = WideEvent(
            id=request_id,
            ts=now,
            **self._identity(request),
            mode=request.mode,
            priority=request.priority,
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            outcome=outcome,
            admission={
                "action": decision.action,
                "reason": reason if reason is not None else decision.reason,
                "depth": decision.depth,
            },
            total_seconds=round(max(now - origin, 0.0), 6),
            deadline_ms=request.deadline_ms,
            plan=plan,
        )
        self.recorder.record(event)
        self.slo.observe(
            latency=event.total_seconds,
            available=outcome in ("ok", "degraded"),
            request_id=request_id,
            now=now,
        )

    def _finish_event(
        self,
        request_id: int,
        request: JoinRequest,
        meta: Dict[str, Any],
        status: str,
        started: float,
        finished: float,
        deadline: Optional[Deadline],
        observability: Optional[ObservabilityContext],
        response: Optional[Dict[str, Any]],
        expired: Optional[DeadlineExceeded],
        error_text: Optional[str],
    ) -> None:
        """Assemble and record the request's wide event (worker path)."""
        admitted_at = meta.get("admitted_at", started)
        counters: Dict[str, float] = {}
        plan: Optional[str] = None
        warm_started: Optional[bool] = None
        rounds: Optional[int] = None
        fresh: Optional[int] = None
        if response is not None:
            plan = response.get("plan")
            warm_started = response.get("warm_started")
            rounds = response.get("rounds")
            fresh = response.get("pilot_fresh_documents")
            for key in ("documents_processed", "queries_issued"):
                totals = response.get(key)
                if isinstance(totals, dict):
                    counters[key] = float(sum(totals.values()))
            for key in (
                "candidates",
                "feasible",
                "good",
                "bad",
                "plan_space",
                "subplans_enumerated",
                "subplans_pruned",
            ):
                value = response.get(key)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    counters[key] = float(value)
        if expired is not None:
            plan = expired.partial.get("plan")
            for key in (
                "good",
                "bad",
                "documents_processed",
                "simulated_time",
            ):
                value = expired.partial.get(key)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    counters[key] = float(value)
        drift: Optional[Dict[str, float]] = None
        phases: Dict[str, float] = {}
        if observability is not None:
            counters.update(observability.work)
            phases = {
                name: round(seconds, 6)
                for name, seconds in observability.phases.items()
            }
            if observability.drift.snapshots:
                last = observability.drift.snapshots[-1]
                drift = {
                    "good_error": last.good_error,
                    "bad_error": last.bad_error,
                }
        spent = deadline.spent() if deadline is not None else None
        event = WideEvent(
            id=request_id,
            ts=finished,
            **self._identity(request),
            mode=request.mode,
            priority=request.priority,
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            outcome=status,
            admission={
                "action": meta.get("action", "admit"),
                "reason": meta.get("reason", "bypass"),
                "depth": meta.get("depth", 0),
            },
            queue_seconds=round(max(started - admitted_at, 0.0), 6),
            total_seconds=round(max(finished - admitted_at, 0.0), 6),
            phases=phases,
            deadline_ms=request.deadline_ms,
            deadline_spent_ms=(
                round(spent * 1000.0, 3) if spent is not None else None
            ),
            phase=expired.phase if expired is not None else None,
            plan=plan,
            warm_started=warm_started,
            rounds=rounds,
            pilot_fresh_documents=fresh,
            counters=counters,
            drift=drift,
            error=error_text,
        )
        spans = (
            observability.tracer.records if observability is not None else None
        )
        self.recorder.record(event, spans=spans)
        self.slo.observe(
            latency=event.total_seconds,
            available=status in ("ok", "degraded"),
            request_id=request_id,
            now=finished,
        )

    def _environment(
        self,
        bindings,
        deadline: Optional[Deadline],
        observability: Optional[ObservabilityContext],
    ) -> ExecutionEnvironment:
        """One execute request's environment over *bindings* (the task or
        the multiway scenario), for binary and n-ary requests alike."""
        environment = bindings.environment().memoized(self.extraction_memo)
        environment.observability = observability
        # A fresh per-request resilience context: breaker state and fault
        # accounting never leak between requests, and the service's fault
        # profile reaches every path.
        environment = harden(environment, profile=self.fault_profile)
        # Every database access flows through the resilience context, so
        # the deadline bounds overrun to at most one access.
        environment.resilience.deadline = deadline
        return environment

    def _handle_execute(
        self,
        request_id: int,
        request: JoinRequest,
        deadline: Optional[Deadline] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Dict[str, Any]:
        source: Optional[_PlanSource] = None
        # One lock section: the warm start, the stored statistics and the
        # plan-cache key all describe the same store generation.
        with self._store_lock:
            warm = self.store.warm_start_for(
                self.signature,
                (self.task.database1, self.task.database2),
                policy=self.warm_policy,
            )
            stored = self._stored_statistics() if warm is not None else None
            if stored is not None:
                source = self._binary_source(request, stored)
        if source is not None:
            # The driver answers its first round from the plan cache when
            # the refit reproduces the stored statistics (DESIGN §6.4).
            warm = replace(
                warm,
                statistics=stored,
                plan_cache=self.plan_cache,
                plan_key=source.key,
                plan_factory=source.factory,
            )
        driver = AdaptiveJoinExecutor(
            environment=self._environment(self.task, deadline, observability),
            characterization1=self.task.characterization1,
            characterization2=self.task.characterization2,
            plans=self.plans,
            pilot_theta=self.pilot_theta,
            pilot_documents=self.pilot_documents,
            max_rounds=self.max_rounds,
            classifier_profile1=self.task.offline_classifier_profile1,
            classifier_profile2=self.task.offline_classifier_profile2,
            query_stats1=self.task.offline_query_stats1,
            query_stats2=self.task.offline_query_stats2,
            feasibility_margin=self.margin,
            warm_start=warm,
            snapshot_pilot=True,
        )
        with ensure_observability(observability).span(
            SpanKind.SERVICE_REQUEST,
            "join",
            request_id=request_id,
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            warm=warm is not None,
        ) as span:
            result = driver.run(request.requirement)
            # Per-document work is counted, never spanned (DESIGN §6.3).
            span.set(**result.work)
        if source is not None:
            self._publish(source.key)
        self._absorb(result, observability)
        if observability is not None:
            observability.work.update(result.work)
            # Spans stay on the wide event only when the tail sampler
            # keeps it (see _finish_event); metrics always merge.
            with self._metrics_lock:
                self.metrics.merge(observability.metrics.export_state())
        return self._response(request, result)

    def _absorb(
        self,
        result: AdaptiveResult,
        observability: Optional[ObservabilityContext],
    ) -> None:
        """Fold a finished run's statistics back into the service state.

        Only runs that pulled *fresh* pilot documents update the store: a
        fully-warm run learned nothing new, and skipping the write keeps
        warm requests read-only — their responses cannot depend on how
        many ran before them, which is what makes concurrent and serial
        execution byte-identical on a warmed store.
        """
        with self._metrics_lock:
            if result.warm_started:
                self.metrics.counter("repro_service_warm_starts_total").inc()
            self.metrics.counter(
                "repro_service_pilot_documents_total"
            ).inc(result.pilot_fresh_documents)
        if result.degraded_paths:
            with self._store_lock:
                for path in result.degraded_paths:
                    if path not in self._unavailable_paths:
                        self._unavailable_paths.append(path)
            self.plan_cache.invalidate(self.signature)
        if result.pilot_fresh_documents <= 0:
            return
        drift = (
            tuple(s.to_dict() for s in observability.drift.snapshots)
            if observability is not None
            else ()
        )
        with self._store_lock:
            self.store.record_run(
                self.signature,
                (self.task.database1, self.task.database2),
                (self.task.extractor1.name, self.task.extractor2.name),
                self.pilot_theta,
                result,
                drift_snapshots=drift,
            )
            # Fresh statistics may have just unlocked the degrade rung.
            self._warm_available = self._stored_statistics() is not None

    def _response(
        self, request: JoinRequest, result: AdaptiveResult
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "task": self.task.name,
            "mode": "execute",
            "tau_good": request.tau_good,
            "tau_bad": request.tau_bad,
            "rounds": result.rounds,
            "warm_started": result.warm_started,
            "pilot_documents": result.pilot_size,
            "pilot_fresh_documents": result.pilot_fresh_documents,
            "plan": (
                result.chosen.plan.describe()
                if result.chosen is not None
                else None
            ),
            "feasible": result.chosen is not None,
        }
        if result.report is not None:
            response.update(
                _execution_facts(result.report, request.requirement, str)
            )
            response["total_time"] = round(result.total_time, 6)
        if result.degraded_paths:
            response["degraded_paths"] = list(result.degraded_paths)
        return response

    # -- planning (stored statistics + plan cache) ------------------------------

    def _plan_key(self, request: JoinRequest) -> PlanCacheKey:
        """The plan-cache key *request* plans under; caller holds
        ``_store_lock``.  Cheap and side-effect free, so
        :meth:`coalesce_key` can call it before admission."""
        if request.graph is None:
            return PlanCacheKey.of(
                self.signature, self.store.generation, self._unavailable_paths
            )
        return PlanCacheKey.of(
            request.graph.plan_space_key(), self.store.generation
        )

    def _plan_source(self, request: JoinRequest) -> _PlanSource:
        """The plan-cache key, databases, space factory and journal.

        The one place planning tells a binary request from an n-ary one.
        Raises ValueError when *request* cannot be planned: no fresh
        stored statistics (binary), no multiway bindings or an alias the
        scenario does not bind (n-ary).
        """
        graph = request.graph
        if graph is None:
            with self._store_lock:
                stored = self._stored_statistics()
                if stored is None:
                    raise ValueError(
                        "no fresh statistics stored for this task; run an "
                        "execute-mode request first"
                    )
                return self._binary_source(request, stored)
        if self.multiway is None:
            raise ValueError(
                "this service has no multiway bindings; start it with a "
                "multiway scenario to accept relations/edges payloads"
            )
        with self._multiway_lock:
            if self._multiway_catalog is None:
                self._multiway_catalog = self.multiway.catalog()
            catalog = self._multiway_catalog
        missing = [name for name in graph.names if name not in catalog.entries]
        if missing:
            bound = ", ".join(sorted(catalog.entries))
            raise ValueError(
                f"unknown relation alias {missing[0]!r}; "
                f"bound aliases: {bound}"
            )
        databases = tuple(
            self.multiway.database_of(alias) for alias in graph.names
        )

        def build() -> MultiwayPlanSpace:
            return MultiwayPlanSpace(
                MultiwayPlanner(graph, catalog, feasibility_margin=self.margin)
            )

        with self._store_lock:
            return self._journaled_source(
                self._plan_key(request), databases, build
            )

    def _journaled_source(
        self,
        key: PlanCacheKey,
        databases: Tuple[Any, ...],
        build: Callable[[], PlanSpace],
    ) -> _PlanSource:
        """*key*'s plan source with the store's answer journal for it.

        The one journal read for both kinds; the caller holds
        ``_store_lock``.  A degraded key (unavailable paths) reads no
        record: the journal is stored under the bare signature, so its
        answers may use a path that is now dead.
        """
        record = None
        if not key.unavailable_paths:
            record = self.store.curves_for(
                key.signature, databases, key.generation
            )

        def factory() -> PlanSpace:
            self._count_curve_store(hit=record is not None)
            return build()

        journal = record["plans"] if record is not None else {}
        return _PlanSource(key, databases, factory, journal)

    def _binary_source(
        self, request: JoinRequest, stored: StoredStatistics
    ) -> _PlanSource:
        """The binary plan source over *stored* statistics.

        Shared by plan mode and warm execute mode.  The caller holds
        ``_store_lock``, so the key's generation, the unavailable paths
        and the journal describe the same statistics as *stored*.
        """
        databases = (self.task.database1, self.task.database2)
        key = self._plan_key(request)

        def build() -> BinaryPlanSpace:
            # For an unchanged corpus the stored statistics are the exact
            # values the warm-started driver would refit, so this catalog
            # is the one an execute-mode request would optimize over.
            task = self.task
            catalog = estimated_catalog(
                stored[:2],
                stored[2],
                databases=databases,
                characterizations=(
                    task.characterization1,
                    task.characterization2,
                ),
                classifiers=(
                    task.offline_classifier_profile1,
                    task.offline_classifier_profile2,
                ),
                queries=(task.offline_query_stats1, task.offline_query_stats2),
            )
            optimizer = JoinOptimizer(
                catalog,
                costs=task.costs,
                feasibility_margin=self.margin,
            )
            # A degraded key plans only over the plans its paths allow.
            plans = plans_without(
                self.plans,
                key.unavailable_paths,
                [database.name for database in databases],
            )
            return BinaryPlanSpace(optimizer, plans)

        return self._journaled_source(key, databases, build)

    def _count_curve_store(self, hit: bool) -> None:
        """Tally whether a new plan space found a stored journal record.

        Factories call this under the plan cache's lock (lock order: plan
        cache, then metrics)."""
        with self._metrics_lock:
            if hit:
                self._curve_store_hits += 1
            else:
                self._curve_store_misses += 1

    def _handle_plan(
        self, request: JoinRequest
    ) -> Tuple[Dict[str, Any], Optional[PlanSpace], Any]:
        """Plan *request* through the plan cache: plan mode, degraded
        answers and the planning step of an n-ary execute.

        Returns the response plus the space and result behind it.  A
        plan-mode request on a cold cache entry whose requirement the
        store's journal record already answers is served from disk,
        flagged ``warm_planned``, with no space and no result.
        """
        source = self._plan_source(request)
        journaled = source.journal.get(journal_key(request.requirement))
        if (
            request.mode == "plan"
            and journaled is not None
            and self.plan_cache.space_for(source.key) is None
        ):
            self._count_curve_store(hit=True)
            response = self._plan_response(request, journaled)
            return {**response, "warm_planned": True}, None, None
        space, result, _ = self.plan_cache.optimize(
            source.key, request.requirement, source.factory
        )
        self._persist(source)
        self._publish(source.key)
        return self._plan_response(request, space.facts(result)), space, result

    def _persist(self, source: _PlanSource) -> None:
        """Merge the cached entry's answer journal into the store's record.

        Only when the journal grew since its last export and the merge
        changes the record — repeated requirements over a warm store are
        read-only, so their responses stay independent of request order.
        A degraded key never writes: the record is keyed by the bare
        signature, and a healthy restart must not serve an answer planned
        while a path was dead.
        """
        key = source.key
        if key.unavailable_paths:
            return
        payload = self.plan_cache.unexported(key)
        if payload is None:
            return  # nothing new, or evicted since the optimization
        with self._store_lock:
            if self.store.generation != key.generation:
                # Statistics moved on while we planned; the payload
                # describes a superseded generation.
                return
            record = self.store.curves_for(
                key.signature, source.databases, key.generation
            )
            if record is not None:
                merged = {**record["plans"], **payload}
                if merged == record["plans"]:
                    return  # every answer was journaled already
                payload = merged
            self.store.record_curves(
                key.signature, source.databases, key.generation, payload
            )
            self.store.save()
        with self._metrics_lock:
            self._curve_exports += 1

    def _publish(self, key: PlanCacheKey) -> None:
        """Fold the cached space's tally growth into the metrics.

        The plan cache hands out each increment once, so the service-level
        counters stay monotone however many requests share one space.
        """
        samples = self.plan_cache.unpublished(key)
        with self._metrics_lock:
            for name, labels, value in samples:
                self.metrics.counter(name, **labels).inc(value)

    def _plan_response(
        self, request: JoinRequest, facts: Dict[str, Any]
    ) -> Dict[str, Any]:
        return {
            **facts,
            "task": self.task.name,
            "mode": request.mode,
            "tau_good": request.tau_good,
            "tau_bad": request.tau_bad,
        }

    # -- multiway execute (n-ary executor over the scenario's databases) -------

    def _handle_multiway(
        self,
        request_id: int,
        request: JoinRequest,
        deadline: Optional[Deadline] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Dict[str, Any]:
        """Plan an n-ary execute request, then bind and run its plan.

        The chosen plan runs against the scenario's live databases under
        the (τg, τb) stopping condition, in an environment built the way a
        binary execute's is (:meth:`_environment`): the service's fault
        profile and the request's deadline apply to both.
        """
        response, space, result = self._handle_plan(request)
        chosen = result.chosen
        if chosen is None:
            return response
        if deadline is not None:
            try:
                deadline.check("multiway.plan")
            except DeadlineExceeded as expired:
                expired.attach("optimize", plan=chosen.plan.describe())
                raise
        graph = request.graph
        environment = self._environment(self.multiway, deadline, observability)
        context = ensure_observability(observability)
        model = space.planner.model
        caps = multiway_caps(graph, chosen, model=model)

        def bind():
            return bind_multiway_plan(environment, graph, chosen, model=model)

        def run(executor):
            try:
                return executor.run(request.requirement)
            except DeadlineExceeded as expired:
                expired.attach("execute", plan=chosen.plan.describe())
                raise

        with context.span(
            SpanKind.SERVICE_REQUEST,
            "multiway-join",
            request_id=request_id,
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            graph=graph.describe(),
        ) as span:
            if environment.resilience.injects_faults:
                # A run under injected faults is no prefix of the recorded one.
                executor = bind()
                report = run(executor).report
                work = executor.work_counters()
            else:
                report, work = serve_or_record(
                    space.trajectories,
                    chosen.plan,
                    request.requirement,
                    caps,
                    bind,
                    run,
                    environment.resilience,
                    context,
                )
            # Per-access work is counted, never spanned (DESIGN §6.3).
            span.set(**work)
        if observability is not None:
            observability.work.update(work)
            with self._metrics_lock:
                self.metrics.merge(observability.metrics.export_state())
        response.update(
            _execution_facts(
                report,
                request.requirement,
                lambda side: graph.names[side - 1],
            )
        )
        return response

    def _degraded_response(
        self, request: JoinRequest, reason: str
    ) -> Dict[str, Any]:
        """A degraded answer: the plan path, flagged so the client knows.

        Runs synchronously on the submitter's thread — the entire point
        is to answer without consuming a worker or a queue slot.  If the
        warm statistics vanished between the admission decision and now,
        the request is shed instead.
        """
        try:
            response, _, _ = self._handle_plan(replace(request, mode="plan"))
        except ValueError as error:
            with self._metrics_lock:
                self.metrics.counter(
                    "repro_service_rejected_total", reason="warm_lost"
                ).inc()
            raise ServiceBusyError(
                retry_after=self.admission.retry_after(self._queue.qsize())
            ) from error
        response["mode"] = request.mode
        response["degraded"] = True
        response["degrade_reason"] = reason
        with self._metrics_lock:
            self.metrics.counter(
                "repro_service_degraded_total", reason=reason
            ).inc()
        return response

    def _stored_statistics(self) -> Optional[StoredStatistics]:
        """The task's stored MLE parameters and overlap classes, or None.

        For an unchanged corpus these are the exact values the
        warm-started driver would refit from the stored pilot; the driver
        checks that before it shares a plan-cache optimizer.  Caller holds
        ``_store_lock`` (or is the constructor).
        """
        record = self.store.task_record(
            self.signature, (self.task.database1, self.task.database2)
        )
        if record is None or "overlap" not in record:
            return None
        if not self.warm_policy.fresh(record, now=self.store.clock()):
            return None
        parameters = []
        for database, extractor in (
            (self.task.database1, self.task.extractor1.name),
            (self.task.database2, self.task.extractor2.name),
        ):
            side = self.store.side_parameters(
                database, extractor, self.pilot_theta
            )
            if side is None:
                return None
            parameters.append(side)
        overlap = ValueOverlapModel(**record["overlap"])
        return parameters[0], parameters[1], overlap

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload."""
        with self._store_lock:
            store = self.store.summary()
            paths = list(self._unavailable_paths)
        with self._metrics_lock:
            curve_store = {
                "hits": self._curve_store_hits,
                "misses": self._curve_store_misses,
                "exports": self._curve_exports,
            }
        return {
            "task": self.task.name,
            "signature": self.signature,
            "workers": len(self._workers),
            "queue_depth": self._queue.qsize(),
            "closed": self.closed,
            "unavailable_paths": paths,
            "plan_cache": self.plan_cache.stats(),
            "plan_pruning": self.plan_cache.aggregate_counters(),
            "curve_store": curve_store,
            "store": store,
            "pruned_checkpoints": list(self.pruned_checkpoints),
            "admission": self.admission.snapshot(),
            "coalescing": self.coalescer.stats(),
            "warm_available": self._warm_available,
            "multiway_scenario": getattr(self.multiway, "name", None),
            "slo": {
                "spec": self.slo.config.spec,
                "burn_rates": self.slo.worst_burn_rates(),
            },
            "flight_recorder": self.recorder.stats(),
        }

    # -- introspection (/v1/debug) ---------------------------------------------

    def debug_requests(
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
        """Recent wide events, most recent first (``/v1/debug/requests``)."""
        return self.recorder.recent(
            limit=limit,
            outcome=outcome,
            mode=mode,
            priority=priority,
            phase=phase,
            since_id=since_id,
            signature=signature,
            task=task,
        )

    def debug_request(self, request_id: int) -> Optional[Dict[str, Any]]:
        """One wide event with its span tree, or None if it left the ring."""
        return self.recorder.get(request_id)

    def debug_slo(self) -> Dict[str, Any]:
        """The ``/v1/debug/slo`` payload: burn rates + recorder health."""
        return {
            "slo": self.slo.snapshot(),
            "flight_recorder": self.recorder.stats(),
        }

    def profile(self, seconds: float = 1.0, interval: float = 0.005) -> ProfileResult:
        """Sample every service thread's stacks for *seconds*, blocking."""
        return SamplingProfiler(interval=interval).sample_for(seconds)

    def health(self) -> Dict[str, Any]:
        """The ``/v1/healthz`` payload."""
        return {
            "status": "draining" if self.closed else "ok",
            "task": self.task.name,
            "queue_depth": self._queue.qsize(),
        }

    #: ``# HELP`` text for the service-owned metric families
    METRIC_HELP = {
        "repro_service_requests_total": "Requests handled, by mode and final status.",
        "repro_service_request_seconds": "End-to-end request latency (exemplars link buckets to request ids).",
        "repro_service_admission_total": "Admission-ladder decisions (admit/degrade/shed).",
        "repro_service_rejected_total": "Requests shed, by reason.",
        "repro_service_degraded_total": "Requests answered degraded from warm statistics.",
        "repro_service_deadline_total": "Deadline expiries, by interrupted phase.",
        "repro_service_coalescing": "Cross-request plan coalescing tallies (leaders/attached/resolved/detached/cancelled/in_flight), by key.",
        "repro_service_queue_depth": "Requests currently queued.",
        "repro_service_workers": "Worker threads serving the pool.",
        "repro_planner_events_total": "Multiway planner search-space events (assignments, subplans enumerated/pruned, plan space), by event.",
        OUTCOMES: "Warm executes by what they did with their plan's recorded run (served from it, extended it, or ran live beside it).",
        "repro_build_info": "Constant 1; build/runtime facts live in the labels.",
    }

    def render_metrics(self) -> str:
        """Prometheus exposition text for ``/v1/metrics``."""
        # Plan-cache reads come first: plan-space factories take the
        # metrics lock while the cache's lock is held, so holding the
        # metrics lock while taking the cache's would invert that order.
        cache = self.plan_cache.stats()
        pruning = sorted(self.plan_cache.aggregate_counters().items())
        with self._metrics_lock:
            for name, text in self.METRIC_HELP.items():
                self.metrics.describe(name, text)
            # Info-style gauge: refreshed per scrape so mutable labels
            # (store generation) never leave stale series behind.
            self.metrics.drop("repro_build_info")
            with self._store_lock:
                generation = self.store.generation
            self.metrics.gauge(
                "repro_build_info",
                version=__version__,
                store_generation=str(generation),
                checkpoint_prune=(
                    "on" if self.checkpoints is not None else "off"
                ),
                warm_start="on" if self._warm_available else "off",
            ).set(1)
            self.metrics.gauge("repro_service_queue_depth").set(
                self._queue.qsize()
            )
            self.metrics.gauge("repro_service_workers").set(
                len(self._workers)
            )
            for name, value in cache.items():
                self.metrics.gauge(
                    "repro_service_plan_cache", key=name
                ).set(value)
            for name, value in pruning:
                self.metrics.gauge(
                    "repro_service_plan_pruning", key=name
                ).set(value)
            self.metrics.gauge(
                "repro_service_curve_store", key="hits"
            ).set(self._curve_store_hits)
            self.metrics.gauge(
                "repro_service_curve_store", key="misses"
            ).set(self._curve_store_misses)
            self.metrics.gauge(
                "repro_service_curve_store", key="exports"
            ).set(self._curve_exports)
            with self._store_lock:
                self.metrics.gauge("repro_service_store_generation").set(
                    self.store.generation
                )
            for action, count in sorted(self.admission.snapshot().items()):
                self.metrics.gauge(
                    "repro_service_admission_decisions", action=action
                ).set(count)
            for name, value in sorted(self.coalescer.stats().items()):
                self.metrics.gauge(
                    "repro_service_coalescing", key=name
                ).set(value)
            for reason, count in sorted(SWALLOWED_EXCEPTIONS.items()):
                self.metrics.gauge(
                    "repro_swallowed_exceptions", reason=reason
                ).set(count)
            return self.metrics.render()


def _execution_facts(
    report, requirement: QualityRequirement, side_name: Callable[[int], str]
) -> Dict[str, Any]:
    """A finished join's response fields; *side_name* names a side index."""
    return {
        "good": report.composition.n_good,
        "bad": report.composition.n_bad,
        "satisfied": report.check(requirement),
        "documents_processed": {
            side_name(side): count
            for side, count in sorted(report.documents_processed.items())
        },
        "queries_issued": {
            side_name(side): count
            for side, count in sorted(report.queries_issued.items())
        },
        "execution_time": round(report.time.total, 6),
    }


def response_json(response: Dict[str, Any]) -> str:
    """Canonical JSON encoding of a response (sorted keys, no spaces)."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))


__all__ = [
    "JoinRequest",
    "JoinService",
    "ServiceBusyError",
    "ServiceClosedError",
    "response_json",
]
