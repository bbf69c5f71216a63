"""Chaos/load harness for the join service (``repro loadtest``).

Drives many concurrent submissions against either an in-process
:class:`~repro.service.service.JoinService` (local mode — the default,
used by tests and the CI chaos smoke) or a running HTTP server
(``--url``), and reduces the outcomes into a ``BENCH_service.json``
payload: p50/p90/p99 latency, throughput, and the shed/degrade/deadline
rates that tell you how the degrade ladder actually behaved under the
offered load.  Held idle keep-alive connections and duplicate-burst
coalescing are HTTP properties, so local mode measures those two
sections against an HTTP front end it boots over a separate service.

Chaos mode (``--chaos``) layers in every controlled failure the repo can
inject deterministically:

* **database faults** — a seeded
  :class:`~repro.robustness.faults.FaultProfile` on every request's
  environment (dropped connections, timeouts, rate limits);
* **clock jumps** — the service's injected clock is wrapped in
  :class:`ChaosClock`, which jumps forward at seeded random points, the
  way NTP steps and VM migrations do; deadlines and store timestamps
  must survive it;
* **fsync tears** — after the run the store's journal is truncated
  mid-record (:func:`~repro.service.shards.tear_journal`, simulating
  ``kill -9`` during an append) and the store is re-opened under a
  collecting invariant checker; the emitted payload reports recovery
  facts and any invariant violations (the acceptance bar is zero).

Everything is seeded — the request mix, the priorities, the faults, the
clock jumps, and the tear point all derive from ``--seed``/
``--chaos-seed``, so a failing run replays exactly.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import zlib
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..observability.metrics import percentile
from ..observability.slo import DEFAULT_SLO_SPEC, SLOConfig, compliance
from ..robustness.deadline import DeadlineExceeded
from ..robustness.faults import FaultProfile
from ..validation.invariants import (
    InvariantChecker,
    active_checker,
    install_checker,
)
from .asyncio_frontend import serve_async, shutdown_async
from .http import request_json
from .service import (
    JoinRequest,
    JoinService,
    ServiceBusyError,
    ServiceClosedError,
)
from .shards import tear_journal
from .store import StatisticsStore

#: every request ends in exactly one of these buckets
OUTCOMES = (
    "ok",
    "degraded",
    "shed",
    "deadline",
    "timeout",
    "unavailable",
    "error",
)

#: fault profile used by --chaos when none is given explicitly
DEFAULT_CHAOS_FAULTS = "transient=0.05,timeout=0.02,rate_limit=0.02"


@dataclass
class LoadTestConfig:
    """One load-test run, fully seeded and JSON-serialisable."""

    requests: int = 50
    concurrency: int = 8
    tau_good: int = 40
    tau_bad: int = 1_000_000
    #: fraction of requests sent in cheap plan mode (the rest execute)
    plan_fraction: float = 0.5
    deadline_ms: Optional[float] = None
    seed: int = 0
    chaos: bool = False
    chaos_seed: int = 0
    #: FaultProfile.parse spec; empty means DEFAULT_CHAOS_FAULTS when
    #: chaos is on, no faults otherwise
    fault_profile: str = ""
    workers: int = 2
    queue_limit: int = 8
    pilot_documents: int = 60
    #: run one execute request first so warm starts and the degrade rung
    #: are available (matches a service that has been up for a while)
    prewarm: bool = True
    timeout: float = 300.0
    #: SLO spec evaluated per priority class in the bench payload; empty
    #: string disables the section
    slo: str = DEFAULT_SLO_SPEC
    #: keep-alive connections held open and idle for the whole run
    #: (over HTTP; local mode boots a front end for it); 0 disables the
    #: section
    idle_connections: int = 0
    #: size of each duplicate-burst round (identical concurrent
    #: plan-mode requests); 0 disables the coalescing section
    duplicate_burst: int = 0
    #: duplicate-burst rounds, each at a fresh requirement
    burst_rounds: int = 3

    def __post_init__(self) -> None:
        if self.requests <= 0:
            raise ValueError("requests must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")
        if not 0.0 <= self.plan_fraction <= 1.0:
            raise ValueError("plan_fraction must lie in [0, 1]")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class ChaosClock:
    """An injectable clock that jumps forward at seeded random points.

    Wraps a monotone base clock; each reading may add a forward step
    (probability ``jump_rate``, size uniform in ``[0, max_jump]``), all
    drawn from a seeded counter-mode hash so a given seed replays the
    same jump sequence.  Never goes backwards — the store's freshness
    logic and deadline arithmetic are entitled to monotone time.
    """

    def __init__(
        self,
        base: Callable[[], float] = time.time,
        jump_rate: float = 0.05,
        max_jump: float = 30.0,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.jump_rate = jump_rate
        self.max_jump = max_jump
        self.seed = seed
        self.jumps = 0
        self._offset = 0.0
        self._calls = 0
        self._lock = threading.Lock()

    def _draw(self, counter: int) -> float:
        raw = zlib.crc32(f"chaos-clock|{self.seed}|{counter}".encode())
        return (raw % 1_000_000) / 1_000_000.0

    def __call__(self) -> float:
        with self._lock:
            self._calls += 1
            if self._draw(self._calls) < self.jump_rate:
                self.jumps += 1
                self._offset += self._draw(-self._calls) * self.max_jump
            return self.base() + self._offset


def _draw(seed: int, index: int, what: str) -> float:
    """Deterministic uniform [0, 1) draw for request *index*."""
    raw = zlib.crc32(f"{what}|{seed}|{index}".encode())
    return (raw % 1_000_000) / 1_000_000.0


def _request_payload(config: LoadTestConfig, index: int) -> Dict[str, Any]:
    """The i-th request of a seeded run — a pure function of (config, i)."""
    mode = (
        "plan"
        if _draw(config.seed, index, "mode") < config.plan_fraction
        else "execute"
    )
    priority_draw = _draw(config.seed, index, "priority")
    if priority_draw < 0.2:
        priority = "high"
    elif priority_draw < 0.8:
        priority = "normal"
    else:
        priority = "low"
    payload: Dict[str, Any] = {
        "tau_good": config.tau_good,
        "tau_bad": config.tau_bad,
        "mode": mode,
        "priority": priority,
    }
    if config.deadline_ms is not None:
        payload["deadline_ms"] = config.deadline_ms
    return payload


@dataclass
class _Sample:
    outcome: str
    latency: float
    #: request priority class ("high"/"normal"/"low"); "unknown" for
    #: callers that predate the SLO section
    priority: str = "unknown"
    #: request index in the seeded run — the SLO exemplar id
    index: int = -1
    #: completion time, seconds since the run started (for windowing)
    finished: float = 0.0


#: requests that count as available for the SLO availability objective
_AVAILABLE_OUTCOMES = frozenset({"ok", "degraded"})


def _slo_report(
    config: LoadTestConfig, samples: List[_Sample], wall_seconds: float
) -> Optional[Dict[str, Any]]:
    """Per-priority SLO compliance over the whole run and its second half.

    The "run" window is the before/after yardstick for the ROADMAP's
    async-front-end work; the "last_half" window shows whether the tail
    of the run (warm caches, warm store) already meets the objectives a
    cold start misses.  Each objective carries its worst exemplar — the
    seeded request index, which replays exactly.
    """
    if not config.slo:
        return None
    slo_config = SLOConfig.parse(config.slo)
    windows = {
        "run": samples,
        "last_half": [
            s for s in samples if s.finished >= wall_seconds / 2.0
        ],
    }
    priorities: Dict[str, Any] = {}
    for priority in ("high", "normal", "low", "unknown"):
        chosen = [s for s in samples if s.priority == priority]
        if not chosen:
            continue
        per_window = {}
        for window_name, window_samples in windows.items():
            observations = [
                (s.latency, s.outcome in _AVAILABLE_OUTCOMES, s.index)
                for s in window_samples
                if s.priority == priority
            ]
            per_window[window_name] = [
                compliance(observations, objective)
                for objective in slo_config.objectives
            ]
        priorities[priority] = {
            "requests": len(chosen),
            "windows": per_window,
        }
    all_observations = [
        (s.latency, s.outcome in _AVAILABLE_OUTCOMES, s.index)
        for s in samples
    ]
    overall = [
        compliance(all_observations, objective)
        for objective in slo_config.objectives
    ]
    return {
        "spec": config.slo,
        "overall": overall,
        "healthy": all(entry["burn_rate"] <= 1.0 for entry in overall),
        "priorities": priorities,
    }


def _bench_payload(
    mode: str,
    config: LoadTestConfig,
    samples: List[_Sample],
    wall_seconds: float,
    recovery: Optional[Dict[str, Any]],
    store: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    outcomes = {name: 0 for name in OUTCOMES}
    for sample in samples:
        outcomes[sample.outcome] += 1
    latencies = [s.latency for s in samples]
    total = max(len(samples), 1)
    payload: Dict[str, Any] = {
        "schema": "bench-service/1",
        "mode": mode,
        "config": config.to_dict(),
        "requests": len(samples),
        "outcomes": outcomes,
        "latency_seconds": {
            "p50": round(percentile(latencies, 0.50), 6),
            "p90": round(percentile(latencies, 0.90), 6),
            "p99": round(percentile(latencies, 0.99), 6),
            "mean": round(sum(latencies) / max(len(latencies), 1), 6),
            "max": round(max(latencies, default=0.0), 6),
        },
        "wall_seconds": round(wall_seconds, 6),
        "throughput_rps": round(len(samples) / max(wall_seconds, 1e-9), 3),
        "shed_rate": round(outcomes["shed"] / total, 6),
        "degrade_rate": round(outcomes["degraded"] / total, 6),
        "deadline_rate": round(outcomes["deadline"] / total, 6),
        "error_rate": round(outcomes["error"] / total, 6),
        "recovery": recovery,
    }
    slo = _slo_report(config, samples, wall_seconds)
    if slo is not None:
        payload["slo"] = slo
    if store is not None:
        payload["store"] = store
    return payload


# -- local mode ----------------------------------------------------------------


def run_local_loadtest(
    task, store_root: str, config: LoadTestConfig
) -> Dict[str, Any]:
    """Drive an in-process JoinService; chaos tears the store afterwards."""
    clock: Callable[[], float] = time.time
    profile: Optional[FaultProfile] = None
    spec = config.fault_profile
    if config.chaos:
        clock = ChaosClock(seed=config.chaos_seed)
        spec = spec or DEFAULT_CHAOS_FAULTS
    if spec:
        profile = FaultProfile.parse(spec, seed=config.chaos_seed)
        if profile.disabled:
            profile = None
    service = JoinService(
        task,
        store_root,
        workers=config.workers,
        queue_limit=config.queue_limit,
        pilot_documents=config.pilot_documents,
        clock=clock,
        fault_profile=profile,
    )
    samples: List[_Sample] = []
    samples_lock = threading.Lock()
    run_started = [0.0]

    def one(index: int) -> None:
        payload = _request_payload(config, index)
        request = JoinRequest.from_payload(payload)
        started = time.perf_counter()
        try:
            response = service.submit(request).result(timeout=config.timeout)
            outcome = "degraded" if response.get("degraded") else "ok"
        except ServiceBusyError:
            outcome = "shed"
        except DeadlineExceeded:
            outcome = "deadline"
        except ServiceClosedError:
            outcome = "unavailable"
        except (TimeoutError, FutureTimeoutError):
            outcome = "timeout"
        except Exception:  # noqa: BLE001 — the bench reports, not raises
            outcome = "error"
        now = time.perf_counter()
        with samples_lock:
            samples.append(
                _Sample(
                    outcome,
                    now - started,
                    priority=payload["priority"],
                    index=index,
                    finished=now - run_started[0],
                )
            )

    try:
        if config.prewarm:
            service.execute(
                JoinRequest(tau_good=config.tau_good, tau_bad=config.tau_bad)
            )
        started = time.perf_counter()
        run_started[0] = started
        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            list(pool.map(one, range(config.requests)))
        wall = time.perf_counter() - started
    finally:
        service.close()
    recovery = None
    if config.chaos:
        recovery = _tear_and_recover(store_root, config.chaos_seed)
    store_summary = {
        "generation": service.store.generation,
        "sides": len(service.store.sides),
        "tasks": len(service.store.tasks),
    }
    payload = _bench_payload(
        "local", config, samples, wall, recovery, store=store_summary
    )
    if config.idle_connections > 0 or config.duplicate_burst > 0:
        payload.update(_front_end_sections(task, config))
    return payload


def _front_end_sections(task, config: LoadTestConfig) -> Dict[str, Any]:
    """The idle-connection and coalescing sections, measured over HTTP.

    Both need a live front end, so local mode boots one over its own
    un-faulted service on a throwaway store — the chaos run's faults and
    torn journal never reach these sections — and runs the HTTP harness
    against it.
    """
    with tempfile.TemporaryDirectory(prefix="repro-loadtest-http-") as root:
        service = JoinService(
            task,
            root,
            workers=config.workers,
            queue_limit=config.queue_limit,
            pilot_documents=config.pilot_documents,
        )
        server = serve_async(service)
        try:
            if config.prewarm:
                service.execute(
                    JoinRequest(
                        tau_good=config.tau_good, tau_bad=config.tau_bad
                    )
                )
            url = f"http://127.0.0.1:{server.server_address[1]}"
            report = run_http_loadtest(url, config)
        finally:
            shutdown_async(server)
    sections = ("idle_connections", "coalescing")
    return {key: report[key] for key in sections if key in report}


def _tear_and_recover(store_root: str, seed: int) -> Dict[str, Any]:
    """Crash the store (torn journal append), reopen, report the damage.

    The reopen runs under a collecting invariant checker so every
    recovery-time check lands in the payload instead of raising; a clean
    run reports ``"violations": []``.
    """
    tear = tear_journal(store_root, seed=seed)
    checker = InvariantChecker(enabled=True, raise_on_violation=False)
    previous = active_checker()
    install_checker(checker)
    started = time.perf_counter()
    try:
        reopened = StatisticsStore(store_root)
    finally:
        install_checker(previous)
    return {
        "journal_tear": tear,
        "recovery_seconds": round(time.perf_counter() - started, 6),
        "recovered_generation": reopened.generation,
        "recovered_sides": len(reopened.sides),
        "recovered_tasks": len(reopened.tasks),
        "recovery_facts": dict(reopened.recovery),
        "violations": [v.to_dict() for v in checker.violations],
    }


# -- HTTP mode -----------------------------------------------------------------


def _run_http_mix(
    url: str, config: LoadTestConfig
) -> Tuple[List[_Sample], float, bool]:
    """The seeded request mix over HTTP; returns (samples, wall, saw_down)."""
    samples: List[_Sample] = []
    samples_lock = threading.Lock()
    saw_down = threading.Event()
    run_started = [0.0]

    def one(index: int) -> None:
        payload = _request_payload(config, index)
        started = time.perf_counter()
        try:
            status, body = request_json(
                url, "join", payload, timeout=config.timeout
            )
            if status == 200:
                degraded = isinstance(body, dict) and body.get("degraded")
                outcome = "degraded" if degraded else "ok"
            elif status == 503:
                outcome = "shed"
            elif status == 504:
                outcome = "deadline"
            elif status == 408:
                outcome = "timeout"
            else:
                outcome = "error"
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            TimeoutError,
            OSError,
        ):
            outcome = "unavailable"
            saw_down.set()
        now = time.perf_counter()
        with samples_lock:
            samples.append(
                _Sample(
                    outcome,
                    now - started,
                    priority=payload["priority"],
                    index=index,
                    finished=now - run_started[0],
                )
            )

    started = time.perf_counter()
    run_started[0] = started
    with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        list(pool.map(one, range(config.requests)))
    wall = time.perf_counter() - started
    return samples, wall, saw_down.is_set()


def run_http_loadtest(url: str, config: LoadTestConfig) -> Dict[str, Any]:
    """Drive a running server; classifies by status, survives its death.

    A connection-level failure (the CI chaos job ``kill -9``-ing the
    server mid-run) is counted as ``unavailable`` rather than aborting;
    after the run the harness polls ``/v1/healthz`` and reports how long
    the service took to come back, if it did.

    ``idle_connections > 0`` additionally parks that many keep-alive
    connections for the duration of the mix and reports whether they
    stayed live; ``duplicate_burst > 0`` follows the mix with rounds of
    identical concurrent plan-mode requests and reports the server's
    coalescing tallies (scraped from ``/v1/stats``).
    """
    idle = None
    if config.idle_connections > 0:
        idle = _IdleConnections(url, config.idle_connections)
        idle.open()
        idle.verify()
    try:
        samples, wall, saw_down = _run_http_mix(url, config)
    finally:
        idle_report = None
        if idle is not None:
            live_after = idle.verify()
            idle_report = idle.report(live_after)
            idle.close()
    recovery = None
    if saw_down:
        recovery = _await_recovery(url)
    payload = _bench_payload("http", config, samples, wall, recovery)
    if idle_report is not None:
        payload["idle_connections"] = idle_report
    if config.duplicate_burst > 0:
        payload["coalescing"] = _duplicate_burst_http(url, config)
    return payload


class _IdleConnections:
    """A pool of idle keep-alive connections held against one server.

    ``verify()`` round-trips a ``/v1/healthz`` on every socket — proving
    each parked connection is still truly live, not just half-open — and
    returns how many answered.
    """

    _PROBE = b"GET /v1/healthz HTTP/1.1\r\nHost: bench\r\n\r\n"

    def __init__(self, url: str, target: int, timeout: float = 30.0):
        parsed = urllib.parse.urlsplit(
            url if "//" in url else f"http://{url}"
        )
        self.address = (parsed.hostname or "127.0.0.1", parsed.port or 80)
        self.target = target
        self.timeout = timeout
        self.sockets: List[socket.socket] = []
        self.threads_before = threading.active_count()
        self.threads_during = self.threads_before
        self.live_at_open = 0

    def open(self) -> int:
        # Warm the request path with one connection before sampling the
        # thread count: worker pools spawn threads lazily on first use,
        # and that one-time growth is not a per-connection cost.
        self._open_sockets(1)
        self.verify()
        self.threads_before = threading.active_count()
        self._open_sockets(self.target - len(self.sockets))
        self.live_at_open = self.verify()
        self.threads_during = threading.active_count()
        return self.live_at_open

    def _open_sockets(self, count: int) -> None:
        for _ in range(count):
            try:
                sock = socket.create_connection(
                    self.address, timeout=self.timeout
                )
            except OSError:
                break  # fd limit or backlog exhausted; report what held
            sock.settimeout(self.timeout)
            self.sockets.append(sock)

    def verify(self) -> int:
        """Round-trip a health check on every held connection."""
        responsive = []
        for sock in self.sockets:
            try:
                sock.sendall(self._PROBE)
                responsive.append(sock)
            except OSError:
                pass
        live = 0
        for sock in responsive:
            try:
                if self._read_response(sock) == 200:
                    live += 1
            except (OSError, ValueError, AssertionError):
                pass
        return live

    def _read_response(self, sock: socket.socket) -> int:
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise OSError("connection closed")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise OSError("body truncated")
            rest += chunk
        return status

    def report(self, live_after: int) -> Dict[str, Any]:
        return {
            "target": self.target,
            "opened": len(self.sockets),
            "live_at_open": self.live_at_open,
            "live_after_mix": live_after,
            #: threads the process gained parking the connections beyond
            #: the first (warm-up) one — ~0 for a remote server, and for
            #: an in-process front end, whose idle connections cost a
            #: socket each, not a thread
            "thread_cost": self.threads_during - self.threads_before,
        }

    def close(self) -> None:
        for sock in self.sockets:
            try:
                sock.close()
            except OSError:
                pass
        self.sockets = []


def _scrape_section(url: str, section: str) -> Dict[str, Any]:
    try:
        status, stats = request_json(url, "stats", timeout=30.0)
    except Exception:  # noqa: BLE001 — absent section below
        return {}
    if status != 200 or not isinstance(stats, dict):
        return {}
    value = stats.get(section)
    return value if isinstance(value, dict) else {}


def _canonical(body: Any) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _duplicate_burst_http(url: str, config: LoadTestConfig) -> Dict[str, Any]:
    """Rounds of identical concurrent plan-mode requests, tallied.

    Each round uses a fresh requirement (``tau_good`` offset by the
    round index), so the first arrival must run the optimizer and its
    duplicates have a real in-flight computation to attach to.  The
    coalescing and plan-cache tallies are scraped from ``/v1/stats``
    before and after: ``computations`` counts plan-cache result misses —
    the number of times the optimizer actually ran — so the hit rate is
    the fraction of duplicate requests that were resolved from a single
    computation, whether by attaching to the flight or by hitting the
    memoized result it produced.

    The byte-identity reference is the same server asked again after
    the flight resolved: a lone request never coalesces with anything.
    """
    flights_before = _scrape_section(url, "coalescing")
    cache_before = _scrape_section(url, "plan_cache")
    rounds: List[Dict[str, Any]] = []
    size = config.duplicate_burst
    for round_index in range(config.burst_rounds):
        payload = {
            "tau_good": config.tau_good + round_index + 1,
            "tau_bad": config.tau_bad,
            "mode": "plan",
        }
        barrier = threading.Barrier(size)
        answers: List[Optional[Tuple[int, Any]]] = [None] * size

        def one(index: int) -> None:
            try:
                barrier.wait(timeout=60)
                answers[index] = request_json(
                    url, "join", payload, timeout=config.timeout
                )
            except Exception as error:  # noqa: BLE001 — reported below
                answers[index] = (-1, str(error))

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=config.timeout + 60)

        statuses = [a[0] if a else -1 for a in answers]
        bodies = {
            _canonical(a[1]) for a in answers if a and a[0] == 200
        }
        ref_status, reference = request_json(
            url, "join", payload, timeout=config.timeout
        )
        identical = (
            all(status == 200 for status in statuses)
            and len(bodies) == 1
            and ref_status == 200
            and _canonical(reference) in bodies
        )
        rounds.append(
            {
                "tau_good": payload["tau_good"],
                "requests": size,
                "ok": sum(1 for status in statuses if status == 200),
                "distinct_answers": len(bodies),
                "byte_identical_to_uncoalesced": identical,
            }
        )
    flights_after = _scrape_section(url, "coalescing")
    cache_after = _scrape_section(url, "plan_cache")

    def delta(after: Dict[str, Any], before: Dict[str, Any], key: str) -> int:
        return int(after.get(key, 0)) - int(before.get(key, 0))

    total = size * config.burst_rounds
    duplicates = max(total - config.burst_rounds, 1)
    computations = delta(cache_after, cache_before, "misses")
    # The per-round reference requests arrive after their flight
    # resolved and hit the memoized result, so they never add to the
    # computation count.
    resolved_from_single = max(total - computations, 0)
    return {
        "burst_size": size,
        "rounds": config.burst_rounds,
        "requests": total,
        "duplicates": duplicates,
        "computations": computations,
        "coalesced": delta(flights_after, flights_before, "attached"),
        "leaders": delta(flights_after, flights_before, "leaders"),
        "hit_rate": round(
            min(resolved_from_single / duplicates, 1.0), 6
        ),
        "byte_identical": all(
            entry["byte_identical_to_uncoalesced"] for entry in rounds
        ),
        "rounds_detail": rounds,
    }


def _await_recovery(
    url: str, poll_interval: float = 0.5, max_wait: float = 120.0
) -> Dict[str, Any]:
    """Poll healthz until the service answers again (or give up)."""
    started = time.perf_counter()
    while time.perf_counter() - started < max_wait:
        try:
            status, _ = request_json(url, "healthz", timeout=5.0)
        except Exception:  # noqa: BLE001 — still down
            status = None
        if status == 200:
            return {
                "recovered": True,
                "recovery_seconds": round(
                    time.perf_counter() - started, 6
                ),
            }
        time.sleep(poll_interval)
    return {"recovered": False, "recovery_seconds": None}


__all__ = [
    "ChaosClock",
    "DEFAULT_CHAOS_FAULTS",
    "LoadTestConfig",
    "OUTCOMES",
    "run_http_loadtest",
    "run_local_loadtest",
]
