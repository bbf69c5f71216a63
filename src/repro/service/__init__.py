"""Join serving subsystem: statistics persistence, plan caching, serving.

The experiments run the adaptive optimizer as a one-shot batch job; this
package turns it into a long-lived *service*:

* :mod:`~repro.service.store` — the persistent, crash-safe
  :class:`StatisticsStore`: what every finished run learned (per-side
  MLE estimates, overlap-class sizes, the final pilot checkpoint, drift
  snapshots), keyed by corpus fingerprint so statistics of a changed
  corpus are never reused, and persisted per fingerprint shard through
  an append-then-compact journal, so independent corpora never contend
  on one file and a ``kill -9`` mid-write never loses the last committed
  generation;
* :mod:`~repro.service.shards` — the store's on-disk format: shard keys,
  checksummed journal records, and the :func:`tear_journal` chaos helper;
* :mod:`~repro.service.plancache` — the :class:`PlanCache` that reuses
  plan spaces (the binary optimizer's memoized predictors and effort
  curves, the n-ary planner's catalog and composition model) and their
  answers across requests, invalidated when statistics change or an
  access path degrades;
* :mod:`~repro.service.admission` — the :class:`AdmissionController`
  degrade ladder: admit, answer degraded from warm statistics, or shed
  with a jittered ``Retry-After``;
* :mod:`~repro.service.service` — the :class:`JoinService` front end: a
  bounded-queue worker pool with admission control, end-to-end request
  deadlines, per-request resilience and observability contexts,
  warm-started adaptive runs, and graceful drain;
* :mod:`~repro.service.asyncio_frontend` — the HTTP front end
  (``repro serve``): an event loop holding thousands of idle keep-alive
  connections without a thread each, join work dispatched to the
  service's bounded worker pool;
* :mod:`~repro.service.http` — the JSON API's read-only route table
  (``/v1/stats``, ``/v1/healthz``, ``/v1/metrics``, ``/v1/debug/*``) and
  the clients behind ``repro submit``;
* :mod:`~repro.service.coalesce` — cross-request singleflight for
  plan-mode requests: duplicates of an in-flight computation attach as
  waiters and share its one result;
* :mod:`~repro.service.loadtest` — the ``repro loadtest`` chaos/load
  harness: seeded concurrent load, fault injection, clock jumps, journal
  tears, and a ``BENCH_service.json`` report.
"""

from .admission import AdmissionController, AdmissionDecision
from .asyncio_frontend import AsyncServiceServer, serve_async, shutdown_async
from .coalesce import FlightCancelled, RequestCoalescer, Waiter, submit_coalesced
from .loadtest import LoadTestConfig, run_http_loadtest, run_local_loadtest
from .plancache import PlanCache
from .service import (
    JoinRequest,
    JoinService,
    ServiceBusyError,
    ServiceClosedError,
)
from .shards import tear_journal
from .store import (
    StatisticsStore,
    StoreError,
    WarmStartPolicy,
    corpus_fingerprint,
    task_signature,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AsyncServiceServer",
    "FlightCancelled",
    "JoinRequest",
    "JoinService",
    "LoadTestConfig",
    "PlanCache",
    "RequestCoalescer",
    "ServiceBusyError",
    "ServiceClosedError",
    "StatisticsStore",
    "StoreError",
    "Waiter",
    "WarmStartPolicy",
    "corpus_fingerprint",
    "run_http_loadtest",
    "run_local_loadtest",
    "serve_async",
    "shutdown_async",
    "submit_coalesced",
    "task_signature",
    "tear_journal",
]
