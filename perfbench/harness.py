"""Set-up, the closed-loop client, and the metrics of one benchmark run.

One client thread drives an in-process :class:`JoinService` in a closed
loop: it calls ``submit(request).result()`` -- the call both HTTP front
ends make -- and serializes each reply with ``response_json``, then sends
the next request.  The reference kernel runs between requests, so every
request is bracketed by two host-speed samples (see :mod:`hostscale`).
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostscale import HostScale
from layers import LayerTracer, Span
from workloads import MULTIWAY_SETUP, Request, Workload

#: times the set-up is repeated in an untraced run; setup_s is the median
SETUP_REPEATS = 3

#: kernel runs per host-speed sample (their median) around a timed step
SAMPLE_REPEATS = 3

#: canonical testbed (the CLI's defaults) and the binary join service's
#: serving defaults (``repro serve``)
TESTBED_SEED = 11
TESTBED_SCALE = 0.6
SERVICE_WORKERS = 2

#: the execute request that warms the store during set-up.  It runs both
#: pilot rounds, so every later execute request starts fully warm and the
#: store is only read; it is outside every workload's grid.
COLD_REQUEST = (20, 40)


@dataclass
class Sample:
    """One answered (or failed) request."""

    request: Request
    wall_s: float
    #: reference seconds (wall scaled by the bracketing kernel samples)
    scaled_s: float
    response: Optional[Dict[str, Any]]
    error: Optional[str] = None
    #: traced runs only: layer -> (scaled self seconds, span count)
    layers: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: traced runs only: scaled request time covered by no span
    uncovered_s: float = 0.0


class Rig:
    """The program under test: testbed, optional star3 scenario, service."""

    def __init__(self, workload: Workload, store_dir: Path, repro: Any) -> None:
        self.workload = workload
        self.store_dir = store_dir
        self.repro = repro
        self.task = None
        self.scenario = None
        self.service = None

    def steps(self) -> List[Callable[[], None]]:
        """The whole set-up, as steps timed one by one."""
        return self.testbed_steps() + self.service_steps()

    def testbed_steps(self) -> List[Callable[[], None]]:
        steps = [self._build_testbed]
        if self.workload.name == "multiway_mix":
            steps.append(self._build_scenario)
        return steps

    def service_steps(self) -> List[Callable[[], None]]:
        """Boot a service on an empty store and warm it."""
        steps = [self._boot, self._cold_execute]
        if self.workload.name == "multiway_mix":
            steps.append(self._first_plan)
        return steps

    def _build_testbed(self) -> None:
        testbed_module = self.repro.experiments.testbed
        # The testbed builders memoize; a repeated set-up must rebuild.
        testbed_module.build_testbed.cache_clear()
        testbed = testbed_module.build_testbed(
            testbed_module.TestbedConfig(seed=TESTBED_SEED, scale=TESTBED_SCALE)
        )
        self.task = testbed.task()

    def _build_scenario(self) -> None:
        testbed_module = self.repro.experiments.testbed
        testbed_module.build_multiway_testbed.cache_clear()
        self.scenario = testbed_module.build_multiway_testbed().scenario("star3")

    def _boot(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        self.store_dir.mkdir(parents=True)
        self.service = self.repro.service.JoinService(
            self.task,
            str(self.store_dir),
            workers=SERVICE_WORKERS,
            multiway=self.scenario,
        )

    def _cold_execute(self) -> None:
        good, bad = COLD_REQUEST
        self.answer(Request(good, bad, "execute"))

    def _first_plan(self) -> None:
        good, bad = MULTIWAY_SETUP
        self.answer(Request(good, bad, "plan", multiway=True))

    def join_request(self, request: Request) -> Any:
        return self.repro.service.JoinRequest(
            tau_good=request.tau_good,
            tau_bad=request.tau_bad,
            mode=request.mode,
            graph=self.scenario.graph if request.multiway else None,
        )

    def answer(self, request: Request) -> str:
        """The request's canonical JSON reply, through ``submit``."""
        reply = self.service.submit(self.join_request(request)).result()
        return self.repro.service.service.response_json(reply)

    def close(self) -> None:
        """Drain the service and delete its store; the testbed stays."""
        if self.service is not None:
            self.service.close()
            self.service = None
        shutil.rmtree(self.store_dir, ignore_errors=True)


def timed_setup(rig: Rig, scale: HostScale) -> float:
    """Run every set-up step; returns the summed reference seconds."""
    total = 0.0
    before = scale.sample_median(SAMPLE_REPEATS)
    for step in rig.steps():
        started = time.perf_counter()
        step()
        wall = time.perf_counter() - started
        after = scale.sample_median(SAMPLE_REPEATS)
        total += scale.scaled(wall, before, after)
        before = after
    return total


def drive(
    rig: Rig,
    requests: List[Request],
    scale: HostScale,
    tracer: Optional[LayerTracer] = None,
) -> List[Sample]:
    """Send the requests one at a time; time each between kernel samples."""
    samples: List[Sample] = []
    before = scale.sample_median(SAMPLE_REPEATS)
    for request in requests:
        body: Optional[str] = None
        error: Optional[str] = None
        started = time.perf_counter()
        try:
            body = rig.answer(request)
        except Exception as exc:  # noqa: BLE001 — a failure is a data point
            error = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        wall = finished - started
        after = scale.sample_median(SAMPLE_REPEATS)
        factor = scale.factor(before, after)
        response = json.loads(body) if body is not None else None
        sample = Sample(request, wall, wall * factor, response, error)
        if tracer is not None:
            _attribute(sample, tracer, started, finished, factor)
        samples.append(sample)
        before = after
    return samples


def _attribute(
    sample: Sample,
    tracer: LayerTracer,
    started: float,
    finished: float,
    factor: float,
) -> None:
    """Fold one request's spans and counters into its sample."""
    spans, counts, documents = tracer.take()
    layers, uncovered = partition(spans, started, finished)
    sample.layers = {k: (v * factor, n) for k, (v, n) in layers.items()}
    sample.uncovered_s = uncovered * factor
    sample.counts = dict(counts)
    for (kind, _), value in documents.items():
        sample.counts[f"{kind}.documents"] = (
            sample.counts.get(f"{kind}.documents", 0) + value
        )


def partition(
    spans: List[Span], started: float, finished: float
) -> Tuple[Dict[str, Tuple[float, int]], float]:
    """Split one request's time into layer self times and uncovered time.

    Returns layer -> (self seconds, span count) and the request time no
    root span covers.  The split adds up to the request time exactly when
    every self time is non-negative and the root spans lie inside the
    request and do not overlap; each of these is checked, so a span
    counted twice (two threads in one layer at once) or a span from
    outside the request fails the run instead of skewing the split.
    """
    layers: Dict[str, Tuple[float, int]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.self_s < 0.0:
            raise AccountingError(f"{span.layer} span has negative self time")
        total, count = layers.get(span.layer, (0.0, 0))
        layers[span.layer] = (total + span.self_s, count + 1)
        if span.parent is None:
            if not (started <= span.start and span.end <= finished):
                raise AccountingError(f"{span.layer} span outside its request")
            roots.append(span)
    roots.sort(key=lambda span: span.start)
    for earlier, later in zip(roots, roots[1:]):
        if later.start < earlier.end:
            raise AccountingError(
                f"{earlier.layer} and {later.layer} root spans overlap"
            )
    uncovered = finished - started - sum(span.duration for span in roots)
    return layers, uncovered


class AccountingError(RuntimeError):
    """A traced request's spans do not partition its time."""


# -- metrics ---------------------------------------------------------------


def tail_point(values: List[float]) -> Tuple[float, float, int]:
    """Highest order statistic with at least 10 samples beyond it.

    Returns (value, percentile, sample count); with 10 samples or fewer
    it is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples: List[Sample], correct: int, setup_s: float) -> Dict[str, float]:
    """Every end-to-end metric of one untraced pass."""
    ok = [s for s in samples if s.error is None]
    latencies = [s.scaled_s * 1e3 for s in ok] or [0.0]
    tail, _, _ = tail_point(latencies)
    simulated = [t for t in (simulated_time(s) for s in ok) if t is not None]
    return {
        "setup_s": setup_s,
        "throughput_per_s": len(ok) / sum(s.scaled_s for s in samples),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb(),
        "answered_ratio": len(ok) / len(samples),
        "correct_ratio": correct / len(samples),
        "requirement_met_ratio": sum(1 for s in ok if requirement_met(s)) / len(samples),
        "simulated_join_s": statistics.fmean(simulated) if simulated else 0.0,
    }


def wall_metrics(samples: List[Sample]) -> Dict[str, float]:
    """Unscaled diagnostics of one pass."""
    ok = [s for s in samples if s.error is None]
    latencies = [s.wall_s * 1e3 for s in ok] or [0.0]
    return {
        "wall.latency_p50_ms": statistics.median(latencies),
        "wall.throughput_per_s": len(ok) / sum(s.wall_s for s in samples),
    }


def requirement_met(sample: Sample) -> bool:
    """Does the answer meet (τg, τb)?  Realized counts for execute mode,
    the chosen plan's predicted counts for plan mode; infeasible misses."""
    response = sample.response or {}
    request = sample.request
    if response.get("plan") is None:
        return False
    if request.mode == "execute":
        good, bad = response.get("good"), response.get("bad")
    else:
        good, bad = response.get("predicted_good"), response.get("predicted_bad")
    if good is None or bad is None:
        return False
    return good >= request.tau_good and bad <= request.tau_bad


def simulated_time(sample: Sample) -> Optional[float]:
    """Paper-cost-model seconds of the answered plan (None: no plan)."""
    response = sample.response or {}
    if response.get("plan") is None:
        return None
    if sample.request.mode == "plan":
        return response.get("predicted_time")
    if sample.request.multiway:
        return response.get("execution_time")
    return response.get("total_time")


def layer_metrics(
    samples: List[Sample], plan_cache: Dict[str, int]
) -> Dict[str, float]:
    """Per-request per-layer metrics of one traced pass."""
    n = len(samples)

    def ms(layer: str) -> float:
        return sum(s.layers.get(layer, (0.0, 0))[0] for s in samples) * 1e3 / n

    def calls(layer: str) -> float:
        return sum(s.layers.get(layer, (0.0, 0))[1] for s in samples) / n

    def count(name: str) -> int:
        return sum(s.counts.get(name, 0) for s in samples)

    def ratio(part: str, whole: str) -> float:
        total = count(whole)
        return count(part) / total if total else 0.0

    lookups = plan_cache["hits"] + plan_cache["misses"]
    return {
        "store.fingerprint_ms": ms("store.fingerprint"),
        "store.fingerprint_calls": calls("store.fingerprint"),
        "store.read_ms": ms("store.read"),
        "store.write_ms": ms("store.write"),
        "store.fsyncs": count("store.fsyncs") / n,
        "plancache.hit_ratio": plan_cache["hits"] / lookups if lookups else 0.0,
        "plancache.builds": plan_cache["builds"] / n,
        "optimizer.ms": ms("optimizer"),
        "optimizer.curve_builds": count("optimizer.curve_builds") / n,
        "optimizer.pruned_ratio": ratio("optimizer.plans_pruned", "optimizer.plans"),
        "models.kernel_ms": ms("models"),
        "models.kernel_calls": calls("models"),
        "estimation.ms": ms("estimation"),
        "adaptive.self_ms": ms("adaptive"),
        "joins.idjn_ms": ms("joins.idjn"),
        "joins.oijn_ms": ms("joins.oijn"),
        "joins.zgjn_ms": ms("joins.zgjn"),
        "joins.documents": count("joins.documents") / n,
        "extraction.ms": ms("extraction"),
        "extraction.calls": calls("extraction"),
        "textdb.searches": count("textdb.searches") / n,
        "planner.ms": ms("planner"),
        "planner.pruned_ratio": ratio("planner.subplans_pruned", "planner.subplans"),
        "multiway.ms": ms("multiway"),
        "multiway.documents": count("multiway.documents") / n,
        "observability.ms": ms("observability"),
        "service.self_ms": sum(s.uncovered_s for s in samples) * 1e3 / n,
    }


#: per-layer self-time metrics, which with service.self_ms partition the
#: traced request time (see :func:`partition`)
SELF_TIME_METRICS = (
    "store.fingerprint_ms",
    "store.read_ms",
    "store.write_ms",
    "optimizer.ms",
    "models.kernel_ms",
    "estimation.ms",
    "adaptive.self_ms",
    "joins.idjn_ms",
    "joins.oijn_ms",
    "joins.zgjn_ms",
    "extraction.ms",
    "planner.ms",
    "multiway.ms",
    "observability.ms",
    "service.self_ms",
)


def plan_cache_counters(service: Any) -> Dict[str, int]:
    cache = service.plan_cache
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "builds": cache.optimizer_misses,
    }
