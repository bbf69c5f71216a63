"""HTTP API shared pieces: the route table, the 504 body, and the clients.

The :class:`~repro.service.service.JoinService` is served over HTTP by
the asyncio front end (:mod:`~repro.service.asyncio_frontend`,
``repro serve``) as a small JSON API:

* ``POST /v1/join`` — body ``{"tau_good": .., "tau_bad": .., "mode": ..,
  "deadline_ms": .., "priority": ..}``; replies with the service's JSON
  response.  A shed request maps to ``503`` with a jittered
  ``Retry-After`` header (admission control surfaces as backpressure,
  not latency); an expired deadline to ``504`` carrying the partial
  progress the run made; a malformed body to ``400``; a draining
  service to ``503``.
* ``GET /v1/healthz`` — liveness/drain status.
* ``GET /v1/stats`` — statistics-store and plan-cache introspection.
* ``GET /v1/metrics`` — Prometheus exposition text.
* ``GET /v1/debug/requests`` — recent wide events from the flight
  recorder (filters: ``outcome``, ``mode``, ``priority``, ``phase``,
  ``since_id``, ``limit``).
* ``GET /v1/debug/requests/<id>`` — one wide event with its span tree.
* ``GET /v1/debug/slo`` — burn rates per objective and window.
* ``GET /v1/debug/profile?seconds=N`` — collapsed-stack sampling
  profile of the service threads (text/plain, flamegraph-ready).

This module holds what does not depend on how connections are handled:
the read-only routes (:func:`route_get`), the deadline 504 body, the
size and timeout limits, and the matching clients — :func:`request_json`
(one call) and :func:`submit_with_retries` (a submit loop that honours
503 ``Retry-After`` hints with decorrelated jitter), used by ``repro
submit`` so driving a server needs no extra tooling.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Callable, Dict, Optional, Tuple

from ..robustness.deadline import DeadlineExceeded
from ..robustness.retry import RetryPolicy
from .service import JoinService, response_json

#: maximum accepted request-body size; joins need a few dozen bytes
MAX_BODY_BYTES = 64 * 1024

#: default bound on reads within a request and on the wait for a join
#: without a deadline, seconds
DEFAULT_REQUEST_TIMEOUT = 30.0

JSON_CONTENT_TYPE = "application/json"
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4"


# -- routing -------------------------------------------------------------------
#
# A route returns ``(status, body text, content type)``; the front end only
# decides how the bytes reach the socket.


def _single_param(params: Dict[str, list], name: str) -> Optional[str]:
    values = params.get(name)
    return values[-1] if values else None


def _error_body(message: str, **extra: Any) -> str:
    return response_json({"error": message, **extra})


def _route_debug_requests(
    service: JoinService, params: Dict[str, list]
) -> Tuple[int, str, str]:
    try:
        limit = int(_single_param(params, "limit") or 50)
        raw_since = _single_param(params, "since_id")
        since_id = int(raw_since) if raw_since is not None else None
    except ValueError:
        return (
            400,
            _error_body("limit and since_id must be integers"),
            JSON_CONTENT_TYPE,
        )
    events = service.debug_requests(
        limit=max(min(limit, 1000), 1),
        outcome=_single_param(params, "outcome"),
        mode=_single_param(params, "mode"),
        priority=_single_param(params, "priority"),
        phase=_single_param(params, "phase"),
        since_id=since_id,
        signature=_single_param(params, "signature"),
        task=_single_param(params, "task"),
    )
    body = response_json({"requests": events, "count": len(events)})
    return 200, body, JSON_CONTENT_TYPE


def _route_debug_request(
    service: JoinService, raw_id: str
) -> Tuple[int, str, str]:
    try:
        request_id = int(raw_id)
    except ValueError:
        return (
            400,
            _error_body(f"request id must be an integer, got {raw_id!r}"),
            JSON_CONTENT_TYPE,
        )
    event = service.debug_request(request_id)
    if event is None:
        return (
            404,
            _error_body(f"request {request_id} not in the ring"),
            JSON_CONTENT_TYPE,
        )
    return 200, response_json(event), JSON_CONTENT_TYPE


def _route_debug_profile(
    service: JoinService, params: Dict[str, list]
) -> Tuple[int, str, str]:
    try:
        seconds = float(_single_param(params, "seconds") or 1.0)
        interval = float(_single_param(params, "interval") or 0.005)
    except ValueError:
        return (
            400,
            _error_body("seconds and interval must be numbers"),
            JSON_CONTENT_TYPE,
        )
    if not (0.0 < seconds <= 60.0):
        return (
            400,
            _error_body("seconds must lie in (0, 60]"),
            JSON_CONTENT_TYPE,
        )
    profile = service.profile(seconds=seconds, interval=interval)
    text = (
        f"# samples: {profile.samples} duration: {profile.duration:.3f}s\n"
        + profile.render()
    )
    return 200, text, "text/plain"


def route_get(service: JoinService, raw_path: str) -> Tuple[int, str, str]:
    """Answer one GET request; returns ``(status, body, content type)``."""
    path, _, query = raw_path.partition("?")
    params = urllib.parse.parse_qs(query)
    if path == "/v1/healthz":
        health = service.health()
        status = 200 if health["status"] == "ok" else 503
        return status, response_json(health), JSON_CONTENT_TYPE
    if path == "/v1/stats":
        return 200, response_json(service.stats()), JSON_CONTENT_TYPE
    if path == "/v1/metrics":
        return 200, service.render_metrics(), METRICS_CONTENT_TYPE
    if path == "/v1/debug/requests":
        return _route_debug_requests(service, params)
    if path.startswith("/v1/debug/requests/"):
        return _route_debug_request(
            service, path[len("/v1/debug/requests/"):]
        )
    if path == "/v1/debug/slo":
        return 200, response_json(service.debug_slo()), JSON_CONTENT_TYPE
    if path == "/v1/debug/profile":
        return _route_debug_profile(service, params)
    return 404, _error_body(f"unknown path {path}"), JSON_CONTENT_TYPE


def deadline_payload(expired: DeadlineExceeded) -> Dict[str, Any]:
    """The 504 body: whatever partial progress the interrupted run made."""
    return {
        "error": "deadline exceeded",
        "where": expired.where,
        "phase": expired.phase,
        "deadline_ms": expired.budget_ms,
        "partial": expired.partial,
    }


def _retry_after_header(retry_after: float) -> str:
    """HTTP Retry-After is integer seconds; round up, never below 1."""
    return str(max(1, int(math.ceil(retry_after))))


# -- client -------------------------------------------------------------------


def request_json(
    base_url: str,
    endpoint: str = "join",
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 300.0,
) -> Tuple[int, Any]:
    """Call one API endpoint; returns ``(status, decoded body)``.

    ``join`` POSTs *payload*; the read-only endpoints GET.  The metrics
    endpoint returns its text body undecoded.  HTTP error statuses are
    returned, not raised — callers inspect the status.
    """
    base = base_url.rstrip("/")
    url = f"{base}/v1/{endpoint}"
    if endpoint == "join":
        data = json.dumps(payload or {}).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
    else:
        request = urllib.request.Request(url)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            status = reply.status
            body = reply.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        status = error.code
        body = error.read().decode("utf-8")
    if endpoint == "metrics":
        return status, body
    try:
        return status, json.loads(body)
    except ValueError:
        return status, body


def submit_with_retries(
    base_url: str,
    payload: Dict[str, Any],
    max_retries: int = 0,
    policy: Optional[RetryPolicy] = None,
    timeout: float = 300.0,
    sleep: Callable[[float], None] = time.sleep,
    seed: int = 0,
) -> Tuple[int, Any, int]:
    """Submit a join, honouring 503 ``Retry-After`` hints.

    Retries *only* sheds (503) — a 504 deadline or a 4xx is final.  Each
    backoff is the larger of the server's ``retry_after`` hint and the
    policy's decorrelated-jitter delay, capped at the policy's
    ``max_delay``, so a fleet of shed clients spreads out instead of
    stampeding back together.  Returns ``(status, body, attempts)``.
    """
    if policy is None:
        policy = RetryPolicy(
            max_attempts=max(max_retries + 1, 1),
            base_delay=0.5,
            max_delay=15.0,
            seed=seed,
        )
    delays = policy.delays(f"submit|{base_url}")
    attempts = 0
    while True:
        attempts += 1
        status, body = request_json(
            base_url, "join", payload, timeout=timeout
        )
        if status != 503 or attempts > max_retries:
            return status, body, attempts
        hint = 0.0
        if isinstance(body, dict):
            raw_hint = body.get("retry_after", 0.0)
            if isinstance(raw_hint, (int, float)) and not isinstance(
                raw_hint, bool
            ):
                hint = float(raw_hint)
        try:
            jittered = next(delays)
        except StopIteration:
            return status, body, attempts
        sleep(min(policy.max_delay, max(jittered, hint)))


__all__ = [
    "DEFAULT_REQUEST_TIMEOUT",
    "JSON_CONTENT_TYPE",
    "MAX_BODY_BYTES",
    "METRICS_CONTENT_TYPE",
    "deadline_payload",
    "request_json",
    "route_get",
    "submit_with_retries",
]
