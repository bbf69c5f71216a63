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
  state, fresh fault accounting) and, when tracing is enabled, its own
  :class:`~repro.observability.context.ObservabilityContext` whose trace
  is written per request and whose metrics merge into the service-level
  registry;
* **warm starts** — before running the adaptive optimizer the service
  consults its :class:`~repro.service.store.StatisticsStore`
  (crash-safe, journaled, sharded by corpus fingerprint); a fresh
  record for this task yields a
  :class:`~repro.optimizer.adaptive.PilotWarmStart`, so the pilot phase
  replays stored observations instead of re-scanning the databases.
  After any run that pulled fresh pilot documents, the store is updated
  (atomically) for the next request;
* **plan caching** — ``plan``-mode requests, and the first round of
  fully-warm ``execute``-mode requests, are answered from one
  :class:`~repro.service.plancache.PlanCache` over an optimizer built
  purely from *stored* statistics: repeated τ levels cost a dict lookup,
  new τ levels reuse the cached effort curves, and any statistics update
  or breaker-driven degradation invalidates the affected entries;
* **graceful drain** — :meth:`close` stops admissions, lets queued
  requests finish, and joins the workers.

Determinism: request handling never reads wall-clock time or shared
mutable execution state — given the same store contents, a request's
response is a pure function of the request, so concurrent and serial
executions of the same request set produce byte-identical responses.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import __version__
from ..core.preferences import QualityRequirement
from ..estimation.mle import EstimatedParameters
from ..models.parameters import SideStatistics, ValueOverlapModel
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.events import FlightRecorder, TailSampler, WideEvent
from ..observability.metrics import MetricsRegistry
from ..observability.profiler import ProfileResult, SamplingProfiler
from ..observability.slo import DEFAULT_SLO_SPEC, SLOConfig, SLOTracker
from ..observability.tracer import SpanKind
from ..optimizer.adaptive import AdaptiveJoinExecutor, AdaptiveResult
from ..optimizer.catalog import StatisticsCatalog
from ..optimizer.enumerator import enumerate_plans
from ..optimizer.optimizer import JoinOptimizer, OptimizationResult
from ..planner.binder import bind_multiway_plan
from ..planner.graph import JoinGraph
from ..planner.planner import MultiwayPlanner, PlannerResult
from ..robustness.checkpoint import CheckpointManager
from ..robustness.deadline import Deadline, DeadlineExceeded
from ..robustness.environment import harden
from ..robustness.faults import SWALLOWED_EXCEPTIONS, FaultProfile
from .admission import DEGRADE, SHED, AdmissionController
from .coalesce import RequestCoalescer
from .plancache import PlanCache, PlanCacheKey
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


class _PlannerTallyPool:
    """Monotone accumulator of multiway planner tallies.

    Shaped like ``JoinOptimizer.pruning`` (an ``as_dict``) so the plan
    cache's aggregate counters — and its retired-pruning pool on
    eviction — cover multiway planners without knowing about them.
    """

    def __init__(self) -> None:
        self._totals: Dict[str, int] = {}

    def absorb(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self._totals[name] = self._totals.get(name, 0) + int(value)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._totals)


class _MultiwayPlannerAdapter:
    """Duck-types :class:`JoinOptimizer` for the :class:`PlanCache`.

    The cache calls ``optimize(plans, requirement)`` and reads a
    ``pruning`` attribute; the adapter ignores the (binary) plan list,
    delegates to the n-ary planner, and folds each run's search tallies
    into a monotone pool.  Cached per
    ``(plan-space key, store generation)`` key, so repeated τ levels
    over one graph reuse the planner's memoized catalog and structure
    counts, and any statistics mutation invalidates the entry.
    """

    def __init__(self, planner: MultiwayPlanner) -> None:
        self.planner = planner
        self.pruning = _PlannerTallyPool()

    def optimize(self, plans: Any, requirement) -> PlannerResult:
        result = self.planner.optimize(requirement)
        self.pruning.absorb(result.tallies.as_counters())
        return result


class _CachedOptimizer:
    """One plan-cache key as the adaptive driver's shared optimizer.

    Implements :class:`~repro.optimizer.adaptive.SharedOptimizer`: a
    fully-warm execute request optimizes through the same cache entry,
    key and factory a plan-mode request would use.
    """

    def __init__(
        self,
        cache: PlanCache,
        key: PlanCacheKey,
        factory: Callable[[], JoinOptimizer],
        statistics: StoredStatistics,
    ) -> None:
        self.cache = cache
        self.key = key
        self.factory = factory
        self.statistics = statistics

    def optimize(self, plans, requirement) -> OptimizationResult:
        result, _ = self.cache.optimize(
            self.key, plans, requirement, self.factory
        )
        return result

    def curve_points(self, plan):
        return self.cache.curve_points(self.key, plan, self.factory)


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
        trace_dir: Optional[str] = None,
        checkpoints: Optional[CheckpointManager] = None,
        clock: Callable[[], float] = time.time,
        admission: Optional[AdmissionController] = None,
        fault_profile: Optional[FaultProfile] = None,
        slo: Optional[str] = None,
        flight_capacity: int = 512,
        flight_spill: Optional[str] = None,
        trace_sample: int = 10,
        trace_keep: Optional[int] = None,
        trace_grace: float = 30.0,
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
        self.trace_dir = (
            pathlib.Path(trace_dir) if trace_dir is not None else None
        )
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        #: wide-event flight recorder: every request lands in the ring,
        #: tail sampling decides which keep spans / spill / trace files
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
        #: sampled trace files share the checkpoint retention logic —
        #: one manager per trace suffix, pruned after each kept write
        self._trace_retention: List[CheckpointManager] = []
        if self.trace_dir is not None and trace_keep is not None:
            self._trace_retention = [
                CheckpointManager(
                    str(self.trace_dir),
                    max_count=trace_keep,
                    grace=trace_grace,
                    suffix=suffix,
                )
                for suffix in (".jsonl", ".chrome.json")
            ]
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
        #: curve-store bookkeeping: whether a fresh plan-cache optimizer
        #: found persisted probes (hits/misses are per optimizer build,
        #: serialized by the plan cache's own lock) and how many exports
        #: were written
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
        for worker in self._workers:
            worker.start()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "JoinService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self, wait: bool = True) -> None:
        """Stop admitting requests, drain the queue, join the workers."""
        if self._closed.is_set():
            return
        self._closed.set()
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for worker in self._workers:
                worker.join()

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
        the task signature (or the join graph's plan-space key), the
        store's generation at attach time, the requirement, and (for the
        binary path) the set of currently unavailable access paths the
        plan cache also keys on.  Deadline and priority are deliberately
        absent: deadlines are enforced per waiter, and priority only
        shapes admission, never the answer.
        """
        if request.mode != "plan":
            return None
        with self._store_lock:
            generation = self.store.generation
            paths = tuple(self._unavailable_paths)
        if request.graph is not None:
            return (
                "multiway",
                request.graph.plan_space_key(),
                generation,
                request.tau_good,
                request.tau_bad,
            )
        return (
            "plan",
            self.signature,
            generation,
            request.tau_good,
            request.tau_bad,
            tuple(sorted(set(paths))),
        )

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
            if request.graph is not None:
                response = self._handle_multiway(
                    request_id, request, deadline, observability
                )
            elif request.mode == "plan":
                response = self._handle_plan(request)
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
            task=self.task.name,
            signature=self.signature,
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
            task=self.task.name,
            signature=self.signature,
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
        kept = self.recorder.record(event, spans=spans)
        self.slo.observe(
            latency=event.total_seconds,
            available=status in ("ok", "degraded"),
            request_id=request_id,
            now=finished,
        )
        if (
            kept is not None
            and observability is not None
            and self.trace_dir is not None
        ):
            try:
                observability.write_trace(
                    str(self.trace_dir / f"request-{request_id}.jsonl")
                )
            except OSError:
                return  # losing a trace must not mask the response
            for manager in self._trace_retention:
                manager.prune()

    def _handle_execute(
        self,
        request_id: int,
        request: JoinRequest,
        deadline: Optional[Deadline] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Dict[str, Any]:
        key: Optional[PlanCacheKey] = None
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
                key, factory = self._plan_source(stored)
        if key is not None:
            # The driver answers its first round from the plan cache when
            # the refit reproduces the stored statistics (DESIGN §6.4).
            warm = replace(
                warm,
                shared=_CachedOptimizer(self.plan_cache, key, factory, stored),
            )
        environment = self.task.environment()
        environment.observability = observability
        # A fresh per-request resilience context: breaker state and fault
        # accounting never leak between requests.
        environment = harden(environment, profile=self.fault_profile)
        if deadline is not None and environment.resilience is not None:
            # Every database access flows through the resilience context,
            # so installing the deadline there bounds overrun to at most
            # one access beyond the budget.
            environment.resilience.deadline = deadline
        driver = AdaptiveJoinExecutor(
            environment=environment,
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
        ):
            result = driver.run(request.requirement)
        if key is not None:
            self._publish_plan_counters(key)
        self._absorb(result, observability)
        if observability is not None:
            # Trace files are written later, only for events the tail
            # sampler keeps (see _finish_event); metrics always merge.
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
        if result.execution is not None:
            report = result.execution.report
            composition = report.composition
            response.update(
                {
                    "good": composition.n_good,
                    "bad": composition.n_bad,
                    "satisfied": report.check(request.requirement),
                    "documents_processed": {
                        str(side): count
                        for side, count in sorted(
                            report.documents_processed.items()
                        )
                    },
                    "queries_issued": {
                        str(side): count
                        for side, count in sorted(
                            report.queries_issued.items()
                        )
                    },
                    "execution_time": round(report.time.total, 6),
                    "total_time": round(result.total_time, 6),
                }
            )
        if result.degraded_paths:
            response["degraded_paths"] = list(result.degraded_paths)
        return response

    # -- plan-only mode (stored statistics + plan cache) -----------------------

    def _handle_plan(self, request: JoinRequest) -> Dict[str, Any]:
        with self._store_lock:
            stored = self._stored_statistics()
            if stored is not None:
                key, factory = self._plan_source(stored)
        if stored is None:
            raise ValueError(
                "no fresh statistics stored for this task; run an "
                "execute-mode request first"
            )
        result, _ = self.plan_cache.optimize(
            key, self.plans, request.requirement, factory
        )
        self._persist_curves(key)
        self._publish_plan_counters(key)
        return self._plan_response(request, result)

    def _plan_source(
        self, stored: StoredStatistics
    ) -> Tuple[PlanCacheKey, Callable[[], JoinOptimizer]]:
        """The plan-cache key and optimizer factory for *stored*.

        Shared by plan mode and warm execute mode.  The caller holds
        ``_store_lock``, so the key's generation, the unavailable paths
        and the persisted curves describe the same statistics as *stored*.
        """
        generation = self.store.generation
        key = PlanCacheKey.of(
            self.signature, generation, self._unavailable_paths
        )
        stored_curves = self.store.curves_for(
            self.signature,
            (self.task.database1, self.task.database2),
            generation,
        )

        def factory() -> JoinOptimizer:
            # Called under the plan cache's lock; the curve tallies are
            # also bumped by the multiway warm path, so they take the
            # metrics lock (lock order: plan cache, then metrics).
            optimizer = JoinOptimizer(
                self._stored_catalog(stored),
                costs=self.task.costs,
                feasibility_margin=self.margin,
                prune=True,
            )
            loaded = 0
            if stored_curves is not None:
                loaded = optimizer.import_probes(
                    stored_curves["plans"], self.plans
                )
            with self._metrics_lock:
                if loaded > 0:
                    self._curve_store_hits += 1
                else:
                    self._curve_store_misses += 1
            return optimizer

        return key, factory

    def _persist_curves(self, key: PlanCacheKey) -> None:
        """Write the cached optimizer's probe curves back to the store.

        Only when the optimizer computed probes the store does not hold
        yet — repeated requirements over a warm store are read-only, so
        their responses stay independent of request order.
        """
        payload = self.plan_cache.unpersisted_probes(key)
        if payload is None:
            return  # nothing new, or evicted since the optimization
        with self._store_lock:
            if self.store.generation != key.generation:
                # Statistics moved on while we optimized; these probes
                # describe curves of a superseded generation.
                return
            self.store.record_curves(
                self.signature,
                (self.task.database1, self.task.database2),
                key.generation,
                payload,
            )
            self.store.save()
        with self._metrics_lock:
            self._curve_exports += 1

    def _publish_plan_counters(self, key: PlanCacheKey) -> None:
        """Fold the cached optimizer's pruning tallies into the metrics.

        The plan cache hands out each tally increment once, so the
        service-level ``repro_plans_pruned_total`` and
        ``repro_curve_cache_hits_total`` counters stay monotone however
        many requests share one optimizer.
        """
        delta = self.plan_cache.unpublished(key)
        with self._metrics_lock:
            for reason in (
                "infeasible_bound",
                "infeasible_tau_bad",
                "dominated",
            ):
                if delta.get(reason):
                    self.metrics.counter(
                        "repro_plans_pruned_total", reason=reason
                    ).inc(delta[reason])
            if delta.get("curve_import_hits"):
                self.metrics.counter(
                    "repro_curve_cache_hits_total", source="store"
                ).inc(delta["curve_import_hits"])

    def _plan_response(
        self, request: JoinRequest, result: OptimizationResult
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "task": self.task.name,
            "mode": "plan",
            "tau_good": request.tau_good,
            "tau_bad": request.tau_bad,
            "candidates": len(result.evaluations),
            "feasible": len(result.feasible),
            "plan": None,
        }
        chosen = result.chosen
        if chosen is not None:
            response.update(
                {
                    "plan": chosen.plan.describe(),
                    "predicted_good": round(chosen.prediction.n_good, 3),
                    "predicted_bad": round(chosen.prediction.n_bad, 3),
                    "predicted_time": round(chosen.predicted_time, 3),
                    "effort_fraction": round(chosen.effort_fraction, 6),
                }
            )
        return response

    # -- multiway mode (n-ary planner over relations/edges payloads) -----------

    def _multiway_statistics(self):
        """The shared (memoized) planner catalog for the bound scenario."""
        with self._multiway_lock:
            if self._multiway_catalog is None:
                self._multiway_catalog = self.multiway.catalog()
            return self._multiway_catalog

    def _handle_multiway(
        self,
        request_id: int,
        request: JoinRequest,
        deadline: Optional[Deadline] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> Dict[str, Any]:
        """Answer a ``relations``/``edges`` request with the n-ary planner.

        Planning reuses the service's plan cache keyed by
        ``(plan-space key, store generation)`` — repeated τ levels over
        one graph and grid cost a dict lookup — and every freshly planned
        requirement is journaled to the statistics store under the same
        key, so a restarted service answers known (graph, τg, τb)
        plan requests from disk without replanning.  ``execute`` mode
        binds the chosen plan to the scenario's live databases and runs
        the n-ary executor under the (τg, τb) stopping condition.
        """
        if self.multiway is None:
            raise ValueError(
                "this service has no multiway bindings; start it with a "
                "multiway scenario to accept relations/edges payloads"
            )
        graph = request.graph
        assert graph is not None
        catalog = self._multiway_statistics()
        missing = [
            name for name in graph.names if name not in catalog.entries
        ]
        if missing:
            bound = ", ".join(sorted(catalog.entries))
            raise ValueError(
                f"unknown relation alias {missing[0]!r}; "
                f"bound aliases: {bound}"
            )
        plan_space = graph.plan_space_key()
        databases = tuple(
            self.multiway.database_of(alias) for alias in graph.names
        )
        with self._store_lock:
            generation = self.store.generation
            stored = self.store.curves_for(plan_space, databases, generation)
        key = PlanCacheKey.of(plan_space, generation, ())
        requirement_key = f"{request.tau_good}|{request.tau_bad}"
        if (
            request.mode == "plan"
            and stored is not None
            and requirement_key in stored["plans"]
            and self.plan_cache.optimizer_for(key) is None
        ):
            # Cross-restart warm start: the in-memory cache is cold but
            # the journaled store already holds this exact answer.
            with self._metrics_lock:
                self._curve_store_hits += 1
            response = dict(stored["plans"][requirement_key])
            response.update(
                {
                    "task": self.task.name,
                    "mode": "plan",
                    "tau_good": request.tau_good,
                    "tau_bad": request.tau_bad,
                    "warm_planned": True,
                }
            )
            return response

        def factory() -> _MultiwayPlannerAdapter:
            with self._metrics_lock:
                if stored is not None:
                    self._curve_store_hits += 1
                else:
                    self._curve_store_misses += 1
            return _MultiwayPlannerAdapter(
                MultiwayPlanner(
                    graph, catalog, feasibility_margin=self.margin
                )
            )

        result, was_hit = self.plan_cache.optimize(
            key, (), request.requirement, factory
        )
        self._publish_multiway_counters(key)
        if not was_hit:
            self._persist_multiway(
                plan_space, databases, generation, requirement_key, result
            )
        response = self._multiway_response(request, result)
        if request.mode != "execute":
            return response
        chosen = result.chosen
        if chosen is None:
            return response
        if deadline is not None:
            deadline.check("multiway.plan")
        environment = self.multiway.environment()
        environment.observability = observability
        adapter = self.plan_cache.optimizer_for(key)
        model = adapter.planner.model if adapter is not None else None
        executor = bind_multiway_plan(
            environment, graph, chosen, model=model
        )
        with ensure_observability(observability).span(
            SpanKind.SERVICE_REQUEST,
            "multiway-join",
            request_id=request_id,
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            graph=graph.describe(),
        ):
            execution = executor.run(request.requirement)
        if observability is not None:
            with self._metrics_lock:
                self.metrics.merge(observability.metrics.export_state())
        report = execution.report
        composition = report.composition
        response.update(
            {
                "good": composition.n_good,
                "bad": composition.n_bad,
                "satisfied": report.check(request.requirement),
                "documents_processed": {
                    graph.names[side - 1]: count
                    for side, count in sorted(
                        report.documents_processed.items()
                    )
                },
                "queries_issued": {
                    graph.names[side - 1]: count
                    for side, count in sorted(report.queries_issued.items())
                },
                "execution_time": round(report.time.total, 6),
            }
        )
        return response

    def _persist_multiway(
        self,
        plan_space: str,
        databases: Tuple[Any, ...],
        generation: int,
        requirement_key: str,
        result: PlannerResult,
    ) -> None:
        """Journal a freshly planned requirement under the plan-space key.

        Merged into the store's curve record for the key (fingerprint-
        and generation-checked, like binary probe curves) so plan-mode
        answers survive a service restart.
        """
        facts = self._multiway_facts(result)
        with self._store_lock:
            if self.store.generation != generation:
                return  # statistics moved on; the answer is superseded
            record = self.store.curves_for(plan_space, databases, generation)
            plans = dict(record["plans"]) if record is not None else {}
            plans[requirement_key] = facts
            self.store.record_curves(plan_space, databases, generation, plans)
            self.store.save()
        with self._metrics_lock:
            self._curve_exports += 1

    def _publish_multiway_counters(self, key: PlanCacheKey) -> None:
        """Delta-publish the cached planner's search tallies as counters."""
        delta = self.plan_cache.unpublished(key)
        with self._metrics_lock:
            for name, value in sorted(delta.items()):
                event = (
                    name[len("planner_"):]
                    if name.startswith("planner_")
                    else name
                )
                self.metrics.counter(
                    "repro_planner_events_total", event=event
                ).inc(value)

    def _multiway_facts(self, result: PlannerResult) -> Dict[str, Any]:
        """Planning facts alone — the store-journaled (and cacheable) part."""
        tallies = result.tallies
        facts: Dict[str, Any] = {
            "multiway": True,
            "graph": result.graph.describe(),
            "signature": result.graph.signature(),
            "candidates": tallies.assignments,
            "feasible": result.feasible,
            "feasible_assignments": sum(
                1 for e in result.evaluations if e.feasible
            ),
            "plan_space": tallies.plan_space,
            "subplans_enumerated": tallies.subplans_enumerated,
            "subplans_pruned": tallies.subplans_pruned_bound,
            "pruned_fraction": round(tallies.pruned_fraction, 6),
            "plan": None,
        }
        chosen = result.chosen
        if chosen is not None:
            facts.update(
                {
                    "plan": chosen.plan.describe(),
                    "order": chosen.plan.order_describe(),
                    "strategy": chosen.plan.strategy.value,
                    "predicted_good": round(chosen.good, 3),
                    "predicted_bad": round(chosen.bad, 3),
                    "predicted_time": round(chosen.total_time, 3),
                    "effort_fraction": round(chosen.effort_fraction, 6),
                }
            )
        return facts

    def _multiway_response(
        self, request: JoinRequest, result: PlannerResult
    ) -> Dict[str, Any]:
        response = self._multiway_facts(result)
        response.update(
            {
                "task": self.task.name,
                "mode": request.mode,
                "tau_good": request.tau_good,
                "tau_bad": request.tau_bad,
            }
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
            if request.graph is not None:
                response = self._handle_multiway(
                    0, replace(request, mode="plan"), None, None
                )
            else:
                response = self._handle_plan(request)
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

    def _stored_catalog(self, stored: StoredStatistics) -> StatisticsCatalog:
        """A statistics catalog built purely from stored statistics.

        Mirrors the adaptive driver's catalog construction, substituting
        the stored MLE parameters and overlap-class sizes for a live
        pilot's — for an unchanged corpus these are the exact values the
        warm-started driver would refit, so cached plan answers agree
        with what an execute-mode request would choose.
        """
        parameters1, parameters2, overlap = stored

        def builder(database, characterization, parameters):
            def build(theta: float) -> SideStatistics:
                return _side_statistics(
                    database, characterization, parameters, theta
                )

            return build

        return StatisticsCatalog(
            side_builder1=builder(
                self.task.database1, self.task.characterization1, parameters1
            ),
            side_builder2=builder(
                self.task.database2, self.task.characterization2, parameters2
            ),
            classifier1=self.task.offline_classifier_profile1,
            classifier2=self.task.offline_classifier_profile2,
            queries1=tuple(self.task.offline_query_stats1),
            queries2=tuple(self.task.offline_query_stats2),
            overlap=overlap,
            per_value=False,
        )

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
    ) -> List[Dict[str, Any]]:
        """Recent wide events, most recent first (``/v1/debug/requests``)."""
        return self.recorder.recent(
            limit=limit,
            outcome=outcome,
            mode=mode,
            priority=priority,
            phase=phase,
            since_id=since_id,
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
        "repro_build_info": "Constant 1; build/runtime facts live in the labels.",
    }

    def render_metrics(self) -> str:
        """Prometheus exposition text for ``/v1/metrics``."""
        # Plan-cache reads come first: optimizer factories take the
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
                trace_prune="on" if self._trace_retention else "off",
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


def _side_statistics(
    database,
    characterization,
    parameters: EstimatedParameters,
    theta: float,
) -> SideStatistics:
    """Synthetic SideStatistics from stored parameters at one θ."""
    n_good_docs = max(
        0, int(min(round(parameters.n_good_docs), len(database)))
    )
    n_bad_docs = max(
        0, int(min(round(parameters.n_bad_docs), len(database) - n_good_docs))
    )
    return SideStatistics.from_histograms(
        relation=parameters.relation,
        n_documents=len(database),
        n_good_docs=n_good_docs,
        n_bad_docs=n_bad_docs,
        good_histogram=parameters.good_histogram(),
        bad_histogram=parameters.bad_histogram(),
        tp=characterization.tp_at(theta),
        fp=characterization.fp_at(theta),
        top_k=database.max_results,
        value_prefix=f"{parameters.relation}:",
    )


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
