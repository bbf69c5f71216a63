"""Join service tests: statistics persistence, warm starts, plan caching,
the concurrent front end, and the HTTP API.

The acceptance contracts from the serving subsystem's design:

* a statistics store round-trips through disk losslessly and rejects
  records whose corpus fingerprint no longer matches;
* a warm-started adaptive run on an unchanged corpus issues measurably
  fewer pilot-phase database accesses than the cold run that seeded the
  store, while choosing the identical plan and producing the identical
  join result;
* concurrent requests through the service return byte-identical
  responses to serial execution of the same request sequence.
"""

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest
from validate_events import validate_file

from repro.core import QualityRequirement
from repro.optimizer import AdaptiveJoinExecutor, adaptive, enumerate_plans
from repro.robustness.checkpoint import checkpoint_execution, restore_execution
from repro.robustness.faults import FaultInjectingDatabase, FaultProfile
from repro.service import (
    JoinRequest,
    JoinService,
    PlanCache,
    ServiceBusyError,
    ServiceClosedError,
    StatisticsStore,
    StoreError,
    WarmStartPolicy,
    corpus_fingerprint,
    task_signature,
)
from repro.service.asyncio_frontend import serve_async, shutdown_async
from repro.service.http import request_json
from repro.service.plancache import PlanCacheKey
from repro.service.shards import (
    JOURNAL_SUFFIX,
    SNAPSHOT_SUFFIX,
    decode_journal_record,
)
from repro.service.store import STORE_VERSION
from repro.service.service import response_json
from repro.textdb import TextDatabase

TAU_GOOD = 40
TAU_BAD = 10**6
PILOT = 60
PILOT_THETA = 0.4


def _driver(task, **kwargs):
    plans = enumerate_plans(task.extractor1.name, task.extractor2.name)
    defaults = dict(
        environment=task.environment(),
        characterization1=task.characterization1,
        characterization2=task.characterization2,
        plans=plans,
        pilot_theta=PILOT_THETA,
        pilot_documents=PILOT,
        max_rounds=2,
        classifier_profile1=task.offline_classifier_profile1,
        classifier_profile2=task.offline_classifier_profile2,
        query_stats1=task.offline_query_stats1,
        query_stats2=task.offline_query_stats2,
        feasibility_margin=0.3,
        snapshot_pilot=True,
    )
    defaults.update(kwargs)
    return AdaptiveJoinExecutor(**defaults)


def _signature(task):
    return task_signature(
        task.database1,
        task.extractor1.name,
        task.database2,
        task.extractor2.name,
        PILOT_THETA,
    )


def _reseeded(database):
    """The same documents under a different scan permutation — the cheapest
    corpus change that must invalidate every stored statistic."""
    return TextDatabase(
        name=database.name,
        documents=list(database.documents),
        max_results=database.max_results,
        rank_seed=database.rank_seed + 1,
    )


@pytest.fixture(scope="module")
def cold_result(hq_ex_task):
    """One cold adaptive run with pilot snapshotting, shared module-wide."""
    return _driver(hq_ex_task).run(
        QualityRequirement(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
    )


@pytest.fixture()
def populated_store(tmp_path, hq_ex_task, cold_result):
    store = StatisticsStore(str(tmp_path / "store"))
    signature = _signature(hq_ex_task)
    store.record_run(
        signature,
        (hq_ex_task.database1, hq_ex_task.database2),
        (hq_ex_task.extractor1.name, hq_ex_task.extractor2.name),
        PILOT_THETA,
        cold_result,
    )
    return store, signature


@pytest.fixture(scope="module")
def warmed_service(hq_ex_task, tmp_path_factory):
    """A service whose store has been seeded by one cold execute request."""
    root = tmp_path_factory.mktemp("warmed-store")
    service = JoinService(
        hq_ex_task, str(root), workers=3, pilot_documents=PILOT
    )
    cold = service.execute(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
    yield service, cold
    service.close()


class TestStatisticsStore:
    def test_round_trip_equals_in_memory(
        self, populated_store, hq_ex_task, cold_result
    ):
        store, signature = populated_store
        reloaded = StatisticsStore(str(store.root))
        assert reloaded.sides == store.sides
        assert reloaded.tasks == store.tasks
        parameters = reloaded.side_parameters(
            hq_ex_task.database1, hq_ex_task.extractor1.name, PILOT_THETA
        )
        assert parameters == cold_result.estimates[0].parameters
        warm = reloaded.warm_start_for(
            signature, (hq_ex_task.database1, hq_ex_task.database2)
        )
        assert warm is not None
        assert warm.documents == cold_result.pilot_size
        assert warm.rounds == cold_result.rounds
        assert warm.snapshot == cold_result.pilot_snapshot

    def test_summary_is_json_ready(self, populated_store, hq_ex_task):
        import json

        store, signature = populated_store
        summary = json.loads(json.dumps(store.summary()))
        assert signature in summary["tasks"]
        assert summary["tasks"][signature]["pilot_documents"] > 0
        key = store.side_key(
            hq_ex_task.database1.name, hq_ex_task.extractor1.name, PILOT_THETA
        )
        assert summary["sides"][key]["documents_processed"] > 0

    def test_corrupt_file_degrades_to_empty(self, populated_store):
        store, _ = populated_store
        journals = list(store.shard_dir.glob(f"*{JOURNAL_SUFFIX}"))
        assert journals
        for journal in journals:
            journal.write_text("{not json")
        assert StatisticsStore(str(store.root)).sides == {}

    def test_future_version_degrades_to_empty(self, populated_store):
        """Snapshots carry the store version; a future one is not read."""
        store, _ = populated_store
        bodies = {}
        for journal in store.shard_dir.glob(f"*{JOURNAL_SUFFIX}"):
            last = journal.read_bytes().splitlines()[-1]
            bodies[journal.with_suffix(SNAPSHOT_SUFFIX)] = decode_journal_record(
                last
            )
            journal.unlink()  # only the snapshots are left to read
        assert bodies
        for version, loads in ((STORE_VERSION, True), (99, False)):
            for snapshot, body in bodies.items():
                snapshot.write_text(json.dumps({**body, "version": version}))
            reloaded = StatisticsStore(str(store.root))
            assert bool(reloaded.sides) is loads
            assert bool(reloaded.tasks) is loads

    def test_stale_fingerprint_drops_side_record(
        self, populated_store, hq_ex_task
    ):
        store, _ = populated_store
        generation = store.generation
        stale = _reseeded(hq_ex_task.database1)
        assert corpus_fingerprint(stale) != corpus_fingerprint(
            hq_ex_task.database1
        )
        assert (
            store.side_record(stale, hq_ex_task.extractor1.name, PILOT_THETA)
            is None
        )
        key = store.side_key(
            stale.name, hq_ex_task.extractor1.name, PILOT_THETA
        )
        assert key not in store.sides
        assert store.generation > generation

    def test_fingerprint_is_memoized_and_equals_a_fresh_digest(
        self, hq_ex_task, monkeypatch
    ):
        database = hq_ex_task.database1
        memoized = corpus_fingerprint(database)
        # An identical corpus in a new object is digested from scratch.
        twin = TextDatabase(
            name=database.name,
            documents=list(database.documents),
            max_results=database.max_results,
            rank_seed=database.rank_seed,
        )
        assert corpus_fingerprint(twin) == memoized
        # The second lookup on an object never re-reads its documents.
        monkeypatch.setattr(
            TextDatabase,
            "documents",
            property(lambda _: pytest.fail("documents re-hashed")),
        )
        assert corpus_fingerprint(database) == memoized

    def test_stale_fingerprint_rejects_warm_start(
        self, populated_store, hq_ex_task
    ):
        store, signature = populated_store
        stale = _reseeded(hq_ex_task.database1)
        assert (
            store.warm_start_for(signature, (stale, hq_ex_task.database2))
            is None
        )
        assert signature not in store.tasks

    def test_warm_policy_gates_small_or_old_pilots(
        self, populated_store, hq_ex_task, cold_result
    ):
        store, signature = populated_store
        databases = (hq_ex_task.database1, hq_ex_task.database2)
        strict = WarmStartPolicy(min_documents=cold_result.pilot_size + 1)
        assert store.warm_start_for(signature, databases, policy=strict) is None
        created = store.tasks[signature]["created_at"]
        aged = WarmStartPolicy(min_documents=1, max_age=10.0)
        assert (
            store.warm_start_for(
                signature, databases, policy=aged, now=created + 11.0
            )
            is None
        )
        assert (
            store.warm_start_for(
                signature, databases, policy=aged, now=created + 9.0
            )
            is not None
        )

    def test_record_task_requires_pilot_snapshot(
        self, tmp_path, hq_ex_task, cold_result
    ):
        import dataclasses

        store = StatisticsStore(str(tmp_path / "bare"))
        bare = dataclasses.replace(cold_result, pilot_snapshot=None)
        with pytest.raises(StoreError):
            store.record_task(
                _signature(hq_ex_task),
                (hq_ex_task.database1, hq_ex_task.database2),
                bare,
            )


class TestWarmStart:
    def test_warm_run_skips_pilot_accesses_and_matches_cold_plan(
        self, populated_store, hq_ex_task, cold_result
    ):
        store, signature = populated_store
        warm_start = store.warm_start_for(
            signature,
            (hq_ex_task.database1, hq_ex_task.database2),
            policy=WarmStartPolicy(min_documents=PILOT),
        )
        assert warm_start is not None
        warm = _driver(hq_ex_task, warm_start=warm_start).run(
            QualityRequirement(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
        )
        # The cold run paid at least one full pilot per side; the warm run
        # restored all of it and touched the databases not at all.
        assert cold_result.pilot_fresh_documents >= 2 * PILOT
        assert warm.warm_started
        assert warm.pilot_fresh_documents == 0
        assert warm.pilot_fresh_documents < cold_result.pilot_fresh_documents
        # Identical statistics in, identical decisions and results out.
        assert warm.chosen is not None and cold_result.chosen is not None
        assert (
            warm.chosen.plan.describe() == cold_result.chosen.plan.describe()
        )
        assert (
            warm.report.composition
            == cold_result.report.composition
        )
        assert warm.estimates[0].parameters == cold_result.estimates[0].parameters


class TestJoinRequest:
    def test_rejects_negative_taus(self):
        with pytest.raises(ValueError):
            JoinRequest(tau_good=-1, tau_bad=0)
        with pytest.raises(ValueError):
            JoinRequest(tau_good=0, tau_bad=-1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            JoinRequest(tau_good=1, tau_bad=1, mode="bogus")

    def test_from_payload(self):
        request = JoinRequest.from_payload(
            {"tau_good": 3, "tau_bad": 7, "mode": "plan"}
        )
        assert request == JoinRequest(tau_good=3, tau_bad=7, mode="plan")
        assert request.requirement.tau_good == 3

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"tau_good": 1},
            {"tau_good": "x", "tau_bad": 1},
            {"tau_good": 1, "tau_bad": 1, "mode": 5},
        ],
    )
    def test_from_payload_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            JoinRequest.from_payload(payload)


class TestJoinService:
    def test_cold_then_warm_execute(self, warmed_service):
        service, cold = warmed_service
        assert cold["warm_started"] is False
        assert cold["pilot_fresh_documents"] >= 2 * PILOT
        assert cold["feasible"] and cold["plan"] is not None
        warm = service.execute(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
        assert warm["warm_started"] is True
        assert warm["pilot_fresh_documents"] == 0
        assert (
            warm["pilot_fresh_documents"] < cold["pilot_fresh_documents"]
        )
        assert warm["plan"] == cold["plan"]
        assert warm["good"] == cold["good"]
        assert warm["bad"] == cold["bad"]

    def test_concurrent_matches_serial(self, warmed_service):
        service, _ = warmed_service
        requests = [
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD),
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan"),
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD),
            JoinRequest(tau_good=TAU_GOOD + 20, tau_bad=TAU_BAD, mode="plan"),
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD),
        ]
        serial = [response_json(service.execute(r)) for r in requests]
        futures = [service.submit(r) for r in requests]
        concurrent = [response_json(f.result(timeout=600)) for f in futures]
        assert concurrent == serial
        # Precondition of the determinism claim: every execute was fully
        # warm (read-only), so ordering cannot have influenced anything.
        for encoded in serial:
            assert '"pilot_fresh_documents":0' in encoded or '"mode":"plan"' in encoded

    def test_plan_mode_matches_execute_choice(self, warmed_service):
        service, cold = warmed_service
        plan = service.execute(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        )
        assert plan["mode"] == "plan"
        assert plan["plan"] == cold["plan"]
        assert plan["candidates"] > 0 and plan["feasible"] > 0
        before = service.plan_cache.stats()
        repeat = service.execute(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        )
        assert repeat == plan
        after = service.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1

    def test_plan_mode_without_statistics_fails(self, hq_ex_task, tmp_path):
        with JoinService(
            hq_ex_task, str(tmp_path / "empty"), workers=1
        ) as service:
            with pytest.raises(ValueError, match="no fresh statistics"):
                service.execute(
                    JoinRequest(tau_good=1, tau_bad=TAU_BAD, mode="plan")
                )

    def test_plan_mode_publishes_pruning_and_persists_curves(
        self, warmed_service, hq_ex_task
    ):
        service, _ = warmed_service
        plan = service.execute(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        )
        assert plan["feasible"] > 0
        stats = service.stats()
        pruning = stats["plan_pruning"]
        assert (
            pruning.get("infeasible_bound", 0)
            + pruning.get("infeasible_tau_bad", 0)
            + pruning.get("dominated", 0)
        ) > 0
        assert {"hits", "misses", "exports"} <= set(stats["curve_store"])
        assert stats["curve_store"]["exports"] >= 1
        text = service.render_metrics()
        assert "repro_plans_pruned_total" in text
        assert "repro_service_curve_store" in text

        # A fresh service over the same store answers the journaled
        # requirement from disk, and says so.
        with JoinService(
            hq_ex_task, str(service.store.root), workers=1
        ) as revived:
            again = revived.execute(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
            )
            assert again == {**plan, "warm_planned": True}
            curve_stats = revived.stats()["curve_store"]
            assert curve_stats["hits"] >= 1

    def test_degraded_key_neither_reads_nor_writes_the_journal(
        self, hq_ex_task, tmp_path
    ):
        plan = JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        databases = (hq_ex_task.database1, hq_ex_task.database2)
        with JoinService(
            hq_ex_task, str(tmp_path), workers=1, pilot_documents=PILOT
        ) as service:
            service.execute(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
            service.execute(plan)  # journaled under the healthy key
            generation = service.store.generation
            journaled = dict(
                service.store.curves_for(
                    service.signature, databases, generation
                )["plans"]
            )
            # The search interface dies: the next execute degrades
            # around it, and later keys carry the dead paths.
            service.fault_profile = FaultProfile(break_search_after=1)
            degraded = service.execute(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
            )
            assert degraded["degraded_paths"]
            assert service.store.generation == generation
            exports = service.stats()["curve_store"]["exports"]
            for request in (plan, replace(plan, tau_good=20, tau_bad=60)):
                reply = service.execute(request)
                assert "warm_planned" not in reply, reply
            assert service.stats()["curve_store"]["exports"] == exports
            record = service.store.curves_for(
                service.signature, databases, generation
            )
            assert record["plans"] == journaled

    def test_degraded_key_plans_only_over_live_paths(
        self, hq_ex_task, tmp_path
    ):
        with JoinService(
            hq_ex_task,
            str(tmp_path),
            workers=1,
            pilot_documents=PILOT,
            fault_profile=FaultProfile(break_search_after=1),
        ) as service:
            degraded = service.execute(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
            )
            assert degraded["degraded_paths"] == [
                "nyt96:search",
                "nyt95:search",
            ]
            reply = service.execute(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
            )
        # Both search interfaces are dead: no AQG side, no query-driven
        # join, as the degraded execute itself chose.
        assert reply["plan"] != "IDJN θ1=0.4 θ2=0.4 X1=AQG X2=AQG"
        assert reply["plan"] == degraded["plan"]
        assert reply["plan"].startswith("IDJN") and "AQG" not in reply["plan"]
        assert reply["candidates"] < len(service.plans)

    def test_stats_and_health_and_metrics(self, warmed_service, hq_ex_task):
        service, _ = warmed_service
        health = service.health()
        assert health["status"] == "ok"
        stats = service.stats()
        assert stats["signature"] == _signature(hq_ex_task)
        assert stats["store"]["generation"] > 0
        assert stats["workers"] == 3
        text = service.render_metrics()
        assert "repro_service_requests_total" in text
        assert "repro_service_queue_depth" in text
        assert "repro_service_store_generation" in text

    def test_admission_control_rejects_when_queue_full(
        self, hq_ex_task, tmp_path
    ):
        service = JoinService(
            hq_ex_task, str(tmp_path / "busy"), workers=1, queue_limit=1
        )
        release = threading.Event()
        started = threading.Event()

        def stalled(request_id, request, meta=None):
            started.set()
            release.wait(timeout=30)
            return {"request_id": request_id}

        service._handle = stalled
        try:
            running = service.submit(JoinRequest(tau_good=1, tau_bad=1))
            assert started.wait(timeout=10)
            queued = service.submit(JoinRequest(tau_good=1, tau_bad=1))
            with pytest.raises(ServiceBusyError) as rejected:
                service.submit(JoinRequest(tau_good=1, tau_bad=1))
            assert rejected.value.retry_after >= 1.0
            release.set()
            assert running.result(timeout=30)["request_id"] == 1
            assert queued.result(timeout=30)["request_id"] == 2
            assert "repro_service_rejected_total" in service.render_metrics()
        finally:
            release.set()
            service.close()

    def test_closed_service_rejects_submissions(self, hq_ex_task, tmp_path):
        service = JoinService(hq_ex_task, str(tmp_path / "drained"), workers=1)
        service.close()
        assert service.closed
        assert service.health()["status"] == "draining"
        with pytest.raises(ServiceClosedError):
            service.submit(JoinRequest(tau_good=1, tau_bad=1))

    def test_validates_pool_shape(self, hq_ex_task, tmp_path):
        with pytest.raises(ValueError):
            JoinService(hq_ex_task, str(tmp_path / "w"), workers=0)
        with pytest.raises(ValueError):
            JoinService(hq_ex_task, str(tmp_path / "q"), queue_limit=0)


class _StubSpace:
    """A plan space whose answers count the calls that made them."""

    def __init__(self) -> None:
        self.calls = 0

    def answer(self, requirement):
        self.calls += 1
        return (requirement.tau_good, requirement.tau_bad, self.calls)

    def tallies(self):
        return {}

    def facts(self, result):
        return {"answer": list(result)}

    def samples(self, delta):
        return [(name, {}, value) for name, value in sorted(delta.items())]


class _TalliedStub(_StubSpace):
    """A stub whose tallies grow by one per answer."""

    def tallies(self):
        return {"dominated": self.calls}


#: the metric samples of one more "dominated" tally
ONE_DOMINATED = [("dominated", {}, 1)]


class TestPlanCache:
    def _cache_and_factory(self, **kwargs):
        cache = PlanCache(**kwargs)
        built = []

        def factory():
            space = _StubSpace()
            built.append(space)
            return space

        return cache, built, factory

    def test_result_and_optimizer_reuse(self):
        cache, built, factory = self._cache_and_factory()
        key = PlanCacheKey.of("sig", 1)
        _, first, hit = cache.optimize(key, QualityRequirement(1, 2), factory)
        assert not hit and len(built) == 1
        _, again, hit = cache.optimize(key, QualityRequirement(1, 2), factory)
        assert hit and again is first and len(built) == 1
        _, other_tau, hit = cache.optimize(
            key, QualityRequirement(3, 2), factory
        )
        assert not hit and other_tau != first
        assert len(built) == 1  # optimizer reused across requirements
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2
        assert stats["optimizer_hits"] == 2 and stats["optimizer_misses"] == 1

    def test_newer_generation_invalidates_stale_entry(self):
        cache, built, factory = self._cache_and_factory()
        requirement = QualityRequirement(1, 2)
        cache.optimize(PlanCacheKey.of("sig", 1), requirement, factory)
        cache.optimize(PlanCacheKey.of("sig", 2), requirement, factory)
        assert len(built) == 2
        assert len(cache) == 1  # the generation-1 entry is unreachable, gone
        assert cache.stats()["invalidations"] == 1

    def test_unavailable_paths_partition_entries(self):
        cache, built, factory = self._cache_and_factory()
        requirement = QualityRequirement(1, 2)
        healthy = PlanCacheKey.of("sig", 1)
        degraded = PlanCacheKey.of("sig", 1, ("aqg:2",))
        cache.optimize(healthy, requirement, factory)
        cache.optimize(degraded, requirement, factory)
        assert len(built) == 2 and len(cache) == 2
        # Paths are normalized: order and duplicates don't split entries.
        assert PlanCacheKey.of("sig", 1, ("b", "a", "a")) == PlanCacheKey.of(
            "sig", 1, ("a", "b")
        )

    def test_lru_eviction(self):
        cache, built, factory = self._cache_and_factory(max_entries=1)
        requirement = QualityRequirement(1, 2)
        cache.optimize(PlanCacheKey.of("one", 1), requirement, factory)
        cache.optimize(PlanCacheKey.of("two", 1), requirement, factory)
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1

    def test_invalidate_by_signature_and_wholesale(self):
        cache, built, factory = self._cache_and_factory()
        requirement = QualityRequirement(1, 2)
        cache.optimize(PlanCacheKey.of("one", 1), requirement, factory)
        cache.optimize(PlanCacheKey.of("two", 1), requirement, factory)
        assert cache.invalidate("one") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_validates_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    def test_unpublished_hands_out_each_increment_once(self):
        cache = PlanCache()
        key = PlanCacheKey.of("sig", 1)
        cache.optimize(key, QualityRequirement(1, 2), _TalliedStub)
        assert cache.unpublished(key) == ONE_DOMINATED
        assert cache.unpublished(key) == []
        cache.optimize(key, QualityRequirement(3, 2), _TalliedStub)
        assert cache.unpublished(key) == ONE_DOMINATED
        assert cache.unpublished(PlanCacheKey.of("sig", 9)) == []

    def test_curve_points_survive_eviction_without_recaching(self):
        class Curved(_StubSpace):
            def curve_points(self, plan):
                return plan, self

        cache = PlanCache(max_entries=1)
        built = []

        def factory():
            built.append(Curved())
            return built[-1]

        key = PlanCacheKey.of("one", 1)
        requirement = QualityRequirement(1, 2)
        cache.optimize(key, requirement, factory)
        assert cache.curve_points(key, "p", factory) == ("p", built[0])
        cache.optimize(PlanCacheKey.of("two", 1), requirement, factory)
        assert cache.curve_points(key, "p", factory) == ("p", built[2])
        assert cache.space_for(key) is None and len(cache) == 1

    def test_per_key_tallies_leave_with_their_entry(self):
        cache = PlanCache(max_entries=2)
        requirement = QualityRequirement(1, 2)
        for generation in range(1, 6):
            for paths in ((), ("aqg:1",), ("aqg:2",)):
                key = PlanCacheKey.of("sig", generation, paths)
                cache.optimize(key, requirement, _TalliedStub)
                assert cache.unpublished(key) == ONE_DOMINATED
            assert len(cache) <= 2
        # A key rebuilt after eviction starts its tallies from scratch.
        first = PlanCacheKey.of("sig", 5)
        assert cache.space_for(first) is None
        cache.optimize(first, requirement, _TalliedStub)
        assert cache.unpublished(first) == ONE_DOMINATED


class TestHTTPService:
    def test_end_to_end_round_trip(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, cold = warmed_service
        # A second service over the *same* store file: it inherits the
        # warm statistics, so its execute requests replay the pilot.
        service = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=2,
            pilot_documents=PILOT,
        )
        server = serve_async(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, health = request_json(base, "healthz")
            assert status == 200 and health["status"] == "ok"

            status, reply = request_json(
                base, "join", {"tau_good": TAU_GOOD, "tau_bad": TAU_BAD}
            )
            assert status == 200
            assert reply["warm_started"] is True
            assert reply["pilot_fresh_documents"] == 0
            assert reply["plan"] == cold["plan"]

            status, planned = request_json(
                base,
                "join",
                {"tau_good": TAU_GOOD, "tau_bad": TAU_BAD, "mode": "plan"},
            )
            assert status == 200 and planned["plan"] == cold["plan"]

            status, body = request_json(base, "join", {"tau_good": "nope"})
            assert status == 400 and "error" in body

            status, body = request_json(base, "nonsense")
            assert status == 404 and "error" in body

            status, stats = request_json(base, "stats")
            assert status == 200
            assert stats["signature"] == service.signature

            status, text = request_json(base, "metrics")
            assert status == 200
            assert "repro_service_requests_total" in text

            # The 1-in-10 sampler keeps request 1, the execute, with its
            # spans.
            status, single = request_json(base, "debug/requests/1")
            assert status == 200 and single["mode"] == "execute"
            assert single["keep"] == "sampled"
            assert single["spans"], "a kept execute keeps its span tree"
        finally:
            shutdown_async(server)
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit(JoinRequest(tau_good=1, tau_bad=1))


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0
        assert "serve" in result.stdout
        assert "submit" in result.stdout

    @pytest.mark.parametrize("stop_signal", ["SIGTERM", "SIGINT"])
    def test_background_serve_drains_on_signal(self, tmp_path, stop_signal):
        """A server launched with SIGINT ignored (``&`` in a script) still
        drains and exits cleanly on TERM, and on INT."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "Serving" in server.stdout.readline()
            server.send_signal(getattr(signal, stop_signal))
            assert server.wait(timeout=10) == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
        assert "draining the request queue" in server.stderr.read()


class _TickingClock:
    """A deterministic clock that advances a fixed step on every read."""

    def __init__(self, start: float = 1_000.0, step: float = 0.01) -> None:
        self.now = start
        self.step = step
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self.now += self.step
            return self.now


class TestAdmissionLadder:
    """The degrade ladder: admit -> degraded plan answer -> shed."""

    @pytest.fixture()
    def congested(self, warmed_service, hq_ex_task):
        """A 1-worker service over warm statistics whose handler stalls
        until released, so queue depth is fully under test control."""
        warmed, _ = warmed_service
        release = threading.Event()
        service = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            queue_limit=4,
            pilot_documents=PILOT,
        )

        def stalled(request_id, request, meta=None):
            release.wait(timeout=30.0)
            return {"stalled": True}

        service._handle = stalled
        yield service, release
        release.set()
        service.close()

    def _fill(self, service, depth):
        """Occupy the worker and queue until qsize() == depth."""
        futures = [
            service.submit(
                JoinRequest(
                    tau_good=TAU_GOOD, tau_bad=TAU_BAD, priority="high"
                )
            )
            for _ in range(depth + 1)
        ]
        deadline = time.time() + 10.0
        while service._queue.qsize() != depth:
            assert time.time() < deadline, "queue never reached target depth"
            time.sleep(0.01)
        return futures

    def test_backlog_degrades_normal_priority_to_a_plan_answer(
        self, congested, warmed_service
    ):
        _, cold = warmed_service
        service, release = congested
        self._fill(service, 3)  # normal degrade threshold: ceil(0.75*4)
        future = service.submit(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
        )
        assert future.done(), "degraded answers resolve synchronously"
        response = future.result()
        assert response["degraded"] is True
        assert response["degrade_reason"] == "backlog"
        assert response["mode"] == "execute"
        assert response["plan"] == cold["plan"]
        release.set()

    def test_high_priority_rides_out_backlog_until_the_queue_fills(
        self, congested
    ):
        service, release = congested
        self._fill(service, 3)
        # depth 3 < high threshold 4: a high-priority execute still queues.
        future = service.submit(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, priority="high")
        )
        assert not future.done()
        # Now the queue is full: even high priority degrades.
        degraded = service.submit(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, priority="high")
        )
        assert degraded.done()
        assert degraded.result()["degrade_reason"] == "queue_full"
        release.set()

    def test_plan_requests_shed_only_at_a_full_queue(self, congested):
        service, release = congested
        self._fill(service, 3)
        queued = service.submit(
            JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
        )
        assert not queued.done(), "plan work is bounded; admit below full"
        with pytest.raises(ServiceBusyError) as caught:
            service.submit(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD, mode="plan")
            )
        assert caught.value.retry_after >= 1.0
        release.set()

    def test_stats_surface_the_ladder(self, congested):
        service, release = congested
        self._fill(service, 3)
        service.submit(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
        stats = service.stats()
        assert stats["warm_available"] is True
        assert stats["admission"]["admit"] >= 4
        assert stats["admission"]["degrade"] >= 1
        assert "repro_service_admission_decisions" in service.render_metrics()
        release.set()


class TestServiceDeadlines:
    def test_deadline_expiring_mid_pilot_checkpoints_and_raises(
        self, hq_ex_task, tmp_path
    ):
        from repro.robustness import CheckpointManager, DeadlineExceeded

        manager = CheckpointManager(str(tmp_path / "ckpt"))
        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
            clock=_TickingClock(step=0.01),
            checkpoints=manager,
        )
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                service.execute(
                    JoinRequest(
                        tau_good=TAU_GOOD, tau_bad=TAU_BAD, deadline_ms=200.0
                    )
                )
            expired = caught.value
            assert expired.phase == "pilot"
            assert expired.budget_ms == pytest.approx(200.0)
            # The in-flight state was described and its checkpoint moved
            # out of the payload onto disk.
            assert "documents_processed" in expired.partial
            assert "checkpoint" not in expired.partial
            path = expired.partial["checkpoint_path"]
            assert pathlib.Path(path).exists()
            assert "repro_service_deadline_total" in service.render_metrics()
        finally:
            service.close()

    def test_request_expired_while_queued_never_starts_work(
        self, hq_ex_task, tmp_path
    ):
        from repro.robustness import DeadlineExceeded

        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
            clock=_TickingClock(step=1.0),
        )
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                service.execute(
                    JoinRequest(
                        tau_good=TAU_GOOD, tau_bad=TAU_BAD, deadline_ms=500.0
                    )
                )
            assert caught.value.phase == "queued"
            assert caught.value.where == "service.queue"
        finally:
            service.close()

    def test_http_maps_deadline_to_504_with_partial_payload(
        self, hq_ex_task, tmp_path
    ):
        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
            clock=_TickingClock(step=1.0),
        )
        server = serve_async(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, body = request_json(
                base,
                "join",
                {
                    "tau_good": TAU_GOOD,
                    "tau_bad": TAU_BAD,
                    "deadline_ms": 500.0,
                },
            )
            assert status == 504
            assert body["error"] == "deadline exceeded"
            assert body["phase"] == "queued"
            assert body["deadline_ms"] == pytest.approx(500.0)
            assert isinstance(body["partial"], dict)
        finally:
            shutdown_async(server)


class TestSubmitWithRetries:
    def test_retries_honour_the_server_hint(self, monkeypatch):
        from repro.service import http as http_module

        replies = [
            (503, {"error": "overloaded", "retry_after": 2.0}),
            (503, {"error": "overloaded", "retry_after": 4.0}),
            (200, {"ok": True}),
        ]
        calls = []

        def fake_request_json(base_url, endpoint, payload=None, timeout=300.0):
            calls.append(endpoint)
            return replies[len(calls) - 1]

        sleeps = []
        monkeypatch.setattr(http_module, "request_json", fake_request_json)
        status, body, attempts = http_module.submit_with_retries(
            "http://test", {"tau_good": 1}, max_retries=3, sleep=sleeps.append
        )
        assert (status, body, attempts) == (200, {"ok": True}, 3)
        assert len(sleeps) == 2
        # Each backoff at least matches the server's Retry-After hint.
        assert sleeps[0] >= 2.0 and sleeps[1] >= 4.0

    def test_no_retries_returns_the_first_shed(self, monkeypatch):
        from repro.service import http as http_module

        monkeypatch.setattr(
            http_module,
            "request_json",
            lambda *a, **k: (503, {"error": "overloaded", "retry_after": 1.0}),
        )
        sleeps = []
        status, body, attempts = http_module.submit_with_retries(
            "http://test", {"tau_good": 1}, sleep=sleeps.append
        )
        assert status == 503 and attempts == 1 and sleeps == []

    def test_gives_up_after_the_retry_budget(self, monkeypatch):
        from repro.service import http as http_module

        monkeypatch.setattr(
            http_module,
            "request_json",
            lambda *a, **k: (503, {"error": "overloaded"}),
        )
        status, _, attempts = http_module.submit_with_retries(
            "http://test", {"tau_good": 1}, max_retries=2, sleep=lambda _: None
        )
        assert status == 503 and attempts == 3


class TestServiceIntrospection:
    """Wide events, /v1/debug, SLO burn rates, and trace tail-sampling."""

    def test_wide_events_and_debug_endpoints(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, cold = warmed_service
        spill = tmp_path / "spill.jsonl"
        service = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=2,
            pilot_documents=PILOT,
            trace_sample=1,
            slo="p99=2s,availability=99.5",
            flight_spill=str(spill),
        )
        server = serve_async(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, reply = request_json(
                base, "join", {"tau_good": TAU_GOOD, "tau_bad": TAU_BAD}
            )
            assert status == 200 and reply["plan"] == cold["plan"]
            status, _ = request_json(
                base,
                "join",
                {"tau_good": TAU_GOOD, "tau_bad": TAU_BAD, "mode": "plan"},
            )
            assert status == 200

            status, body = request_json(base, "debug/requests?limit=10")
            assert status == 200
            events = body["requests"]
            assert body["count"] == len(events) == 2
            execute_event = next(e for e in events if e["mode"] == "execute")
            assert execute_event["schema"] == "wide-event/1"
            assert execute_event["outcome"] == "ok"
            assert execute_event["plan"] == cold["plan"]
            assert execute_event["warm_started"] is True
            assert execute_event["admission"]["action"] == "admit"
            assert execute_event["total_seconds"] > 0.0
            # phase timings cover the driver's coarse stages
            assert "execute" in execute_event["phases"]
            assert "optimize" in execute_event["phases"]
            assert execute_event["counters"]["documents_processed"] >= 0
            assert execute_event["keep"] is not None

            status, body = request_json(base, "debug/requests?mode=plan")
            assert status == 200
            assert all(e["mode"] == "plan" for e in body["requests"])
            status, body = request_json(
                base, "debug/requests?outcome=error"
            )
            assert status == 200 and body["count"] == 0

            # single event with its span tree
            status, single = request_json(
                base, f"debug/requests/{execute_event['id']}"
            )
            assert status == 200
            assert single["id"] == execute_event["id"]
            assert single["spans"], "kept events retain their span tree"
            status, _ = request_json(base, "debug/requests/999999")
            assert status == 404
            status, _ = request_json(base, "debug/requests/nope")
            assert status == 400

            status, slo = request_json(base, "debug/slo")
            assert status == 200
            assert slo["slo"]["spec"] == "p99=2s,availability=99.5"
            assert slo["slo"]["observations"] >= 2
            for objective in slo["slo"]["objectives"]:
                assert len(objective["windows"]) == 3
            assert slo["flight_recorder"]["events_total"] >= 2

            status, text = request_json(
                base, "debug/profile?seconds=0.05&interval=0.002"
            )
            assert status == 200
            assert text.startswith("# samples:")
            assert len(text.splitlines()) >= 2, "idle threads still stack"
            status, _ = request_json(base, "debug/profile?seconds=999")
            assert status == 400

            status, stats = request_json(base, "stats")
            assert stats["flight_recorder"]["events_total"] >= 2
            assert "burn_rates" in stats["slo"]

            status, metrics_text = request_json(base, "metrics")
            assert status == 200
            assert "# HELP repro_service_requests_total" in metrics_text
            assert 'le="+Inf"' in metrics_text
            assert "repro_build_info{" in metrics_text
            assert 'version="' in metrics_text
            assert 'store_generation="' in metrics_text
            assert metrics_text.count("# TYPE repro_build_info gauge") == 1
        finally:
            shutdown_async(server)
        # the spill validates against the committed wide-event schema
        import pathlib as _pathlib
        import sys as _sys

        _sys.path.insert(0, str(_pathlib.Path(__file__).parent))
        from validate_events import validate_file

        assert validate_file(str(spill)) == []

    def test_build_info_refreshes_instead_of_accumulating(
        self, hq_ex_task, tmp_path
    ):
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1,
            pilot_documents=PILOT,
        )
        try:
            first = service.render_metrics()
            second = service.render_metrics()
            assert first.count("repro_build_info{") == 1
            assert second.count("repro_build_info{") == 1
        finally:
            service.close()

    def test_deadline_event_reports_phases_and_budget(
        self, hq_ex_task, tmp_path
    ):
        from repro.robustness import DeadlineExceeded

        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
            clock=_TickingClock(step=0.01),
        )
        try:
            with pytest.raises(DeadlineExceeded):
                service.execute(
                    JoinRequest(
                        tau_good=TAU_GOOD, tau_bad=TAU_BAD, deadline_ms=200.0
                    )
                )
            events = service.debug_requests(outcome="deadline")
            assert len(events) == 1
            event = events[0]
            assert event["keep"] == "deadline", "504s are always kept"
            assert event["phase"] == "pilot"
            assert event["phases"].get("pilot", 0.0) > 0.0
            assert event["deadline_ms"] == pytest.approx(200.0)
            assert event["deadline_spent_ms"] > 0.0
            assert event["counters"].get("documents_processed", 0) >= 0
            # the interrupted-phase filter finds it too
            assert service.debug_requests(phase="pilot")[0]["id"] == event["id"]
            # one bad request out of one burns the availability budget
            assert max(service.slo.worst_burn_rates().values()) > 1.0
        finally:
            service.close()

    def test_shed_requests_leave_wide_events(self, hq_ex_task, tmp_path):
        release = threading.Event()
        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            queue_limit=2,
            pilot_documents=PILOT,
        )

        def stalled(request_id, request, meta=None):
            release.wait(timeout=30.0)
            return {"stalled": True}

        service._handle = stalled
        try:
            # occupy the worker, then fill the queue to its limit
            service.submit(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
            deadline = time.time() + 10.0
            while service._queue.qsize() != 0:
                assert time.time() < deadline, "worker never started"
                time.sleep(0.01)
            for _ in range(2):
                service.submit(
                    JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
                )
            deadline = time.time() + 10.0
            while service._queue.qsize() != 2:
                assert time.time() < deadline, "queue never filled"
                time.sleep(0.01)
            with pytest.raises(ServiceBusyError):
                service.submit(
                    JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
                )
            events = service.debug_requests(outcome="shed")
            assert len(events) == 1
            event = events[0]
            assert event["keep"] == "shed", "sheds are always kept"
            assert event["admission"] == {
                "action": "shed",
                "reason": "queue_full",
                "depth": 2,
            }
        finally:
            release.set()
            service.close()

    def test_degraded_answers_leave_wide_events(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, cold = warmed_service
        release = threading.Event()
        service = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            queue_limit=4,
            pilot_documents=PILOT,
        )

        def stalled(request_id, request, meta=None):
            release.wait(timeout=30.0)
            return {"stalled": True}

        service._handle = stalled
        try:
            service.submit(
                JoinRequest(
                    tau_good=TAU_GOOD, tau_bad=TAU_BAD, priority="high"
                )
            )
            deadline = time.time() + 10.0
            while service._queue.qsize() != 0:
                assert time.time() < deadline, "worker never started"
                time.sleep(0.01)
            for _ in range(3):
                service.submit(
                    JoinRequest(
                        tau_good=TAU_GOOD, tau_bad=TAU_BAD, priority="high"
                    )
                )
            deadline = time.time() + 10.0
            while service._queue.qsize() != 3:
                assert time.time() < deadline, "queue never filled"
                time.sleep(0.01)
            future = service.submit(
                JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
            )
            assert future.result(timeout=5)["degraded"] is True
            events = service.debug_requests(outcome="degraded")
            assert len(events) == 1
            event = events[0]
            assert event["admission"]["action"] == "degrade"
            assert event["admission"]["reason"] == "backlog"
            assert event["plan"] == cold["plan"]
        finally:
            release.set()
            service.close()

    def test_trace_tail_sampling_downsamples_boring_requests(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, _ = warmed_service
        spill = tmp_path / "spill.jsonl"
        service = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            pilot_documents=PILOT,
            flight_spill=str(spill),
            trace_sample=10,
        )
        try:
            for _ in range(5):
                service.execute(
                    JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
                )
            (line,) = _spill_lines(spill)
            assert line["id"] == 1, (
                "only the 1-in-10 sampled request should be spilled"
            )
            assert line["spans"]
            kept = {e["id"]: e["keep"] for e in service.debug_requests()}
            assert kept[1] == "sampled"
            assert all(kept[i] is None for i in range(2, 6))
            assert all(
                service.debug_request(i)["spans"] == [] for i in range(2, 6)
            ), "dropped requests keep no spans"
        finally:
            service.close()

    def test_kept_execute_spill_line_carries_its_spans(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, cold = warmed_service
        spill = tmp_path / "spill.jsonl"
        with JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            pilot_documents=PILOT,
            flight_spill=str(spill),
            trace_sample=1,
        ) as service:
            service.execute(JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD))
            detail = service.debug_request(1)
        (line,) = _spill_lines(spill)
        assert line["plan"] == cold["plan"] and line["keep"] == "sampled"
        # The spill line is the ring's event plus its flat span records,
        # the same records /v1/debug/requests/<id> nests into a tree.
        spans = line.pop("spans")
        tree = detail.pop("spans")
        assert line == detail
        assert sorted(r["id"] for r in spans) == sorted(_tree_ids(tree))
        (join,) = [r for r in spans if r["name"] == "join"]
        assert join["kind"] == "service.request" and join["parent"] is None
        assert join["attrs"]["documents_processed"] == (
            line["counters"]["documents_processed"]
        )
        assert {r["kind"] for r in spans} >= {
            "service.request", "adaptive.execute", "optimizer.optimize"
        }
        assert validate_file(str(spill)) == []

    def test_responses_identical_with_introspection_enabled(
        self, hq_ex_task, warmed_service, tmp_path
    ):
        warmed, _ = warmed_service
        plain = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            pilot_documents=PILOT,
        )
        instrumented = JoinService(
            hq_ex_task,
            str(warmed.store.root),
            workers=1,
            pilot_documents=PILOT,
            slo="p99=1ms,availability=99.9",
            trace_sample=1,
            flight_spill=str(tmp_path / "spill.jsonl"),
        )
        try:
            request = JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
            baseline = plain.execute(request)
            observed = instrumented.execute(request)
            assert response_json(baseline) == response_json(observed)
        finally:
            plain.close()
            instrumented.close()


class TestSpillFailures:
    """A spill write that fails is counted in the recorder's stats; it
    never costs a request its SLO observation or its answer."""

    @staticmethod
    def _service(task, root, tmp_path, **kwargs):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory\n")
        return JoinService(
            task,
            root,
            workers=1,
            pilot_documents=PILOT,
            flight_spill=str(blocker / "spill.jsonl"),
            trace_sample=1,
            **kwargs,
        )

    def test_execute_still_reaches_the_slo_tracker(
        self, warmed_service, hq_ex_task, tmp_path
    ):
        service, _ = warmed_service
        root = _store_copy(service, tmp_path / "store")
        with self._service(hq_ex_task, root, tmp_path) as broken:
            answer = broken.execute(JoinRequest(TAU_GOOD, TAU_BAD))
            assert answer["plan"]
            assert broken.slo.snapshot()["observations"] == 1
            stats = broken.recorder.stats()
            assert (stats["spilled_total"], stats["spill_failures_total"]) == (
                0,
                1,
            )
            assert broken.metrics.value(
                "repro_flight_recorder_errors_total"
            ) == 0

    def test_shed_still_raises_busy(self, hq_ex_task, tmp_path, monkeypatch):
        from repro.service.admission import SHED, AdmissionDecision

        root = str(tmp_path / "store")
        with self._service(hq_ex_task, root, tmp_path) as broken:
            monkeypatch.setattr(
                broken.admission,
                "_decide",
                lambda *_: AdmissionDecision(SHED, retry_after=1.0),
            )
            with pytest.raises(ServiceBusyError):
                broken.submit(JoinRequest(TAU_GOOD, TAU_BAD))
            (shed,) = broken.debug_requests(limit=1, outcome="shed")
            assert shed["keep"] is not None
            assert broken.recorder.stats()["spill_failures_total"] == 1
            assert broken.slo.snapshot()["observations"] == 1

    def test_degraded_answer_is_returned(
        self, warmed_service, hq_ex_task, tmp_path, monkeypatch
    ):
        from repro.service.admission import DEGRADE, AdmissionDecision

        service, _ = warmed_service
        root = _store_copy(service, tmp_path / "store")
        with self._service(hq_ex_task, root, tmp_path) as broken:
            monkeypatch.setattr(
                broken.admission,
                "_decide",
                lambda *_: AdmissionDecision(DEGRADE, reason="backlog"),
            )
            answer = broken.submit(JoinRequest(TAU_GOOD, TAU_BAD)).result()
            assert answer["degraded"] is True
            assert broken.recorder.stats()["spill_failures_total"] == 1


def _spill_lines(spill):
    """The flight-recorder spill's events, in write order."""
    return [json.loads(line) for line in spill.read_text().splitlines()]


def _tree_ids(nodes):
    """Every record id in a /v1/debug/requests/<id> span tree."""
    for node in nodes:
        yield node["id"]
        yield from _tree_ids(node["children"])


def _tree_kinds(nodes):
    """Every record kind in a /v1/debug/requests/<id> span tree."""
    for node in nodes:
        yield node["kind"]
        yield from _tree_kinds(node["children"])


def _store_copy(service, target):
    """A private copy of *service*'s store directory."""
    shutil.copytree(service.store.root, target)
    return str(target)


def _drift_recorder(service):
    """Record every execute request's drift snapshots, by requirement."""
    recorded = []
    absorb = service._absorb

    def recording(result, observability):
        snapshots = [s.to_dict() for s in observability.drift.snapshots]
        recorded.append(
            (
                result.requirement.tau_good,
                result.requirement.tau_bad,
                json.dumps(snapshots, sort_keys=True),
            )
        )
        absorb(result, observability)

    service._absorb = recording
    return recorded


#: the execute-request grid the shared-optimizer tests sweep
SHARED_GRID = [
    (good, bad)
    for good in (10, 20, 40, 80, 150, 300, 600)
    for bad in (15, 60, TAU_BAD)
]


@pytest.fixture(scope="module")
def two_round_service(hq_ex_task, tmp_path_factory):
    """A service seeded by a cold execute that ran both pilot rounds, so
    every later execute restores a converged pilot and stays read-only."""
    root = tmp_path_factory.mktemp("two-round-store")
    service = JoinService(
        hq_ex_task, str(root), workers=1, pilot_documents=PILOT
    )
    cold = service.execute(JoinRequest(tau_good=20, tau_bad=40))
    assert cold["rounds"] == 2
    yield service
    service.close()


class TestSharedPlanCache:
    """Warm execute requests optimize through the plan-mode cache."""

    def test_plan_cache_optimizer_equals_a_fresh_refit(
        self, two_round_service, hq_ex_task
    ):
        service = two_round_service
        with service._store_lock:
            warm = service.store.warm_start_for(
                service.signature,
                (hq_ex_task.database1, hq_ex_task.database2),
                policy=service.warm_policy,
            )
            stored = service._stored_statistics()
        source = service._plan_source(JoinRequest(TAU_GOOD, TAU_BAD, "plan"))
        assert warm is not None and warm.documents >= PILOT
        assert warm.rounds == 2  # the driver stops after one refit

        def evaluations(result):
            return [
                (
                    e.plan.describe(),
                    e.feasible,
                    e.pruned,
                    e.effort_fraction,
                    e.prediction.n_good if e.prediction else None,
                    e.prediction.n_bad if e.prediction else None,
                    e.predicted_time,
                )
                for e in result.evaluations
            ]

        for good, bad in SHARED_GRID:
            requirement = QualityRequirement(tau_good=good, tau_bad=bad)
            fresh = _driver(hq_ex_task, warm_start=warm).run(requirement)
            assert fresh.rounds == 2 and fresh.pilot_fresh_documents == 0
            assert fresh.estimates[0].parameters == stored[0]
            assert fresh.estimates[1].parameters == stored[1]
            _, cached, _ = service.plan_cache.optimize(
                source.key, requirement, source.factory
            )
            assert evaluations(cached) == evaluations(fresh.optimization)

    def test_warm_execute_and_plan_requests_share_one_entry(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        warmed = two_round_service
        with JoinService(
            hq_ex_task,
            _store_copy(warmed, tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
        ) as service:
            execute = JoinRequest(tau_good=TAU_GOOD + 7, tau_bad=TAU_BAD)
            answer = service.execute(execute)
            assert answer["warm_started"]
            assert answer["pilot_fresh_documents"] == 0
            stats = service.plan_cache.stats()
            assert stats["entries"] == 1 and stats["optimizer_misses"] == 1
            # The plan request for the same requirement is a result hit.
            plan = service.execute(replace(execute, mode="plan"))
            assert plan["plan"] == answer["plan"]
            after = service.plan_cache.stats()
            assert after["hits"] == stats["hits"] + 1
            assert after["optimizer_misses"] == 1
            assert "repro_plans_pruned_total" in service.render_metrics()

    def test_interleaved_workers_match_a_serial_run(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        warmed = two_round_service
        requests = [
            JoinRequest(tau_good=good, tau_bad=bad, mode=mode)
            for good, bad in SHARED_GRID[::4]
            for mode in ("plan", "execute", "execute")
        ]

        def serve(root, concurrent):
            # A queue deep enough that admission never degrades.
            with JoinService(
                hq_ex_task,
                root,
                workers=2,
                queue_limit=2 * len(requests),
                pilot_documents=PILOT,
            ) as service:
                drift = _drift_recorder(service)
                if concurrent:
                    futures = [service.submit(r) for r in requests]
                    responses = [f.result(timeout=600) for f in futures]
                else:
                    responses = [service.execute(r) for r in requests]
                return (
                    [response_json(r) for r in responses],
                    sorted(drift),
                    service.plan_cache.stats(),
                )

        serial, serial_drift, _ = serve(
            _store_copy(warmed, tmp_path / "serial"), concurrent=False
        )
        concurrent, concurrent_drift, stats = serve(
            _store_copy(warmed, tmp_path / "concurrent"), concurrent=True
        )
        assert concurrent == serial
        assert concurrent_drift == serial_drift
        assert len(serial_drift) == 2 * len(SHARED_GRID[::4])
        for encoded in serial:
            assert (
                '"pilot_fresh_documents":0' in encoded
                or '"mode":"plan"' in encoded
            )
        # One optimizer served every request; each requirement was
        # optimized once and answered from the memo afterwards.
        assert stats["optimizer_misses"] == 1
        assert stats["misses"] == len(SHARED_GRID[::4])

    def test_store_write_retires_the_shared_optimizer(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        warmed = two_round_service
        with JoinService(
            hq_ex_task,
            _store_copy(warmed, tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
        ) as service:
            request = JoinRequest(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
            assert service.execute(request)["pilot_fresh_documents"] == 0
            generation = service.store.generation
            (old_key,) = list(service.plan_cache._entries)
            old = service.plan_cache.space_for(old_key)
            # Forget the task record: the next execute runs cold and
            # writes the store, bumping the generation.
            with service._store_lock:
                del service.store.tasks[service.signature]
            cold = service.execute(request)
            assert cold["warm_started"] is False
            assert service.store.generation > generation
            warm = service.execute(request)
            assert warm["warm_started"] and warm["pilot_fresh_documents"] == 0
            (new_key,) = list(service.plan_cache._entries)
            assert new_key.generation == service.store.generation
            assert service.plan_cache.space_for(new_key) is not old
            assert service.plan_cache.stats()["invalidations"] >= 1


def _warm_start(service, task):
    """*service*'s stored warm start, without any plan-cache source."""
    with service._store_lock:
        return service.store.warm_start_for(
            service.signature,
            (task.database1, task.database2),
            policy=service.warm_policy,
        )


def _join_gauges(service):
    """The /v1/metrics lines a binary run's finish leaves behind."""
    names = (
        "repro_join_tuples",
        "repro_simulated_seconds",
        "repro_productive_fraction",
    )
    return sorted(
        line
        for line in service.render_metrics().splitlines()
        if line.startswith(names)
    )


class TestRefitMemo:
    """A fully-warm execute reuses its generation's restored pilot and
    refit (DESIGN §6.4)."""

    def test_memoized_executes_equal_fresh_refits(
        self, two_round_service, hq_ex_task, tmp_path, monkeypatch
    ):
        warmed = two_round_service
        calls = []
        restores = []
        estimate_side = adaptive.estimate_side
        restore = adaptive.restore_execution

        def counting(observations, *args, **kwargs):
            calls.append(observations.relation)
            return estimate_side(observations, *args, **kwargs)

        def counting_restore(executor, snapshot):
            restores.append(snapshot["algorithm"])
            return restore(executor, snapshot)

        monkeypatch.setattr(adaptive, "estimate_side", counting)
        monkeypatch.setattr(adaptive, "restore_execution", counting_restore)

        def serve(service, grid):
            """Warm-execute *grid* and compare each reply with a driver
            whose warm start has no shared source; returns the refits and
            restores the service ran."""
            reference_warm = _warm_start(service, hq_ex_task)
            refits, restored = [], []
            for good, bad in grid:
                request = JoinRequest(tau_good=good, tau_bad=bad)
                fresh = _driver(hq_ex_task, warm_start=reference_warm).run(
                    request.requirement
                )
                expected = response_json(service._response(request, fresh))
                before, restored_before = len(calls), len(restores)
                answer = service.execute(request)
                refits.extend(calls[before:])
                restored.extend(restores[restored_before:])
                assert answer["pilot_fresh_documents"] == 0
                assert response_json(answer) == expected
            return refits, restored

        with JoinService(
            hq_ex_task,
            _store_copy(warmed, tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
        ) as service:
            # SHARED_GRID is perfbench's EXECUTE_GRID: 21 requirements.
            assert len(SHARED_GRID) == 21
            refits, restored = serve(service, SHARED_GRID)
            assert sorted(refits) == ["EX", "HQ"]
            assert restored == ["IndependentJoin"]
            (key,) = list(service.plan_cache._entries)
            memo = service.plan_cache.space_for(key).pilot
            assert memo is not None
            # The memo holds no per-request object and was never extended.
            report = memo.execution.report
            assert report.resilience is None
            stored = _warm_start(service, hq_ex_task).snapshot
            state = memo.execution.state
            assert len(state.relation(1)) == len(stored["left"])
            assert len(state.relation(2)) == len(stored["right"])
            assert report.documents_processed == {
                int(side): count for side, count in stored["processed"].items()
            }
            # A store write bumps the generation: one new restore and
            # refit, then memo.
            with service._store_lock:
                del service.store.tasks[service.signature]
            assert service.execute(JoinRequest(20, 40))["warm_started"] is False
            refits, restored = serve(service, SHARED_GRID[::4])
            assert sorted(refits) == ["EX", "HQ"]
            assert restored == ["IndependentJoin"]
            (new_key,) = list(service.plan_cache._entries)
            assert new_key.generation > key.generation
            assert service.plan_cache.space_for(new_key).pilot is not memo

    def test_deadline_at_optimize_matches_the_restore_path(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        from repro.robustness import CheckpointManager, DeadlineExceeded

        expirations = []
        for memoized in (False, True):
            root = tmp_path / f"memoized-{memoized}"
            with JoinService(
                hq_ex_task,
                _store_copy(two_round_service, root / "store"),
                workers=1,
                pilot_documents=PILOT,
                clock=_TickingClock(step=1.0),
                checkpoints=CheckpointManager(str(root / "ckpt")),
            ) as service:
                if memoized:
                    service.execute(JoinRequest(20, 40))
                    (key,) = list(service.plan_cache._entries)
                    assert service.plan_cache.space_for(key).pilot is not None
                # Passes the queue check, expires before the first round.
                with pytest.raises(DeadlineExceeded) as caught:
                    service.execute(
                        JoinRequest(TAU_GOOD, TAU_BAD, deadline_ms=4500.0)
                    )
                stored = _warm_start(service, hq_ex_task).snapshot
            expired = caught.value
            assert expired.phase == "optimize"
            assert expired.where == "adaptive.optimize"
            partial = dict(expired.partial)
            path = pathlib.Path(partial.pop("checkpoint_path"))
            checkpoint = json.loads(path.read_text())
            assert checkpoint == stored
            expirations.append((partial, checkpoint))
        assert expirations[0] == expirations[1]

    def test_a_one_round_store_cross_validates_once_per_requirement(
        self, hq_ex_task, tmp_path
    ):
        """A warm execute resumes the stored run's last round, so on a
        store whose cold execute converged in one round it cross-validates
        the stored pilot; the space keeps that verdict."""
        root = str(tmp_path / "store")
        with JoinService(
            hq_ex_task, root, workers=1, pilot_documents=PILOT
        ) as service:
            cold = service.execute(JoinRequest(TAU_GOOD, TAU_BAD))
            assert cold["rounds"] == 1
        with JoinService(
            hq_ex_task, root, workers=1, pilot_documents=PILOT, trace_sample=1
        ) as service:
            answers = [
                service.execute(JoinRequest(TAU_GOOD, TAU_BAD))
                for _ in range(2)
            ]
            first, second = sorted(
                service.debug_requests(mode="execute"), key=lambda e: e["id"]
            )
            kinds = [
                set(_tree_kinds(service.debug_request(event["id"])["spans"]))
                for event in (first, second)
            ]
            (key,) = list(service.plan_cache._entries)
            verdicts = service.plan_cache.space_for(key).verdicts
        assert response_json(answers[0]) == response_json(answers[1])
        assert "adaptive.crossvalidate" in kinds[0]
        assert "adaptive.crossvalidate" not in kinds[1]
        assert "crossvalidate" not in second["phases"]
        assert list(verdicts) == [QualityRequirement(TAU_GOOD, TAU_BAD)]

    @pytest.mark.parametrize("requirement", [(TAU_GOOD, TAU_BAD), (600, 15)])
    def test_memo_path_leaves_the_join_gauges(
        self, two_round_service, hq_ex_task, tmp_path, requirement
    ):
        gauges = []
        for memoized in (False, True):
            with JoinService(
                hq_ex_task,
                _store_copy(two_round_service, tmp_path / f"m-{memoized}"),
                workers=1,
                pilot_documents=PILOT,
            ) as service:
                if memoized:
                    service.execute(JoinRequest(10, 60))
                answer = service.execute(JoinRequest(*requirement))
                assert answer["pilot_fresh_documents"] == 0
                gauges.append((answer["feasible"], _join_gauges(service)))
        assert gauges[0] == gauges[1]
        assert gauges[0][1], "no join gauges in /v1/metrics"
        feasible = gauges[0][0]
        assert feasible is (requirement == (TAU_GOOD, TAU_BAD))


class TestBinaryExecuteEvents:
    """A binary execute counts its work on its wide event (DESIGN §6.3)."""

    def test_execute_counts_its_work_on_the_event(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        spill = tmp_path / "spill.jsonl"
        results = []
        with JoinService(
            hq_ex_task,
            _store_copy(two_round_service, tmp_path / "store"),
            workers=1,
            pilot_documents=PILOT,
            flight_spill=str(spill),
            trace_sample=1,
        ) as service:
            absorb = service._absorb

            def recording(result, observability):
                results.append(result)
                absorb(result, observability)

            service._absorb = recording
            # The first warm execute restores the pilot, the second reads
            # the memo.
            answers = [
                service.execute(JoinRequest(TAU_GOOD, TAU_BAD))
                for _ in range(2)
            ]
            events = sorted(
                service.debug_requests(mode="execute"), key=lambda e: e["id"]
            )
        assert response_json(answers[0]) == response_json(answers[1])
        for event, answer, result in zip(events, answers, results):
            counters = event["counters"]
            assert sorted(result.work) == [
                "accesses",
                "documents_processed",
                "documents_rejected",
                "documents_retrieved",
                "tuples_extracted",
            ]
            assert {k: counters[k] for k in result.work} == result.work
            assert counters["documents_processed"] == sum(
                answer["documents_processed"].values()
            )
            assert counters["accesses"] >= counters["documents_retrieved"] > 0
        restored, memoized = events
        assert restored["counters"] == memoized["counters"]
        # A memo-served execute does no pilot work.
        assert "pilot" in restored["phases"]
        assert "pilot" not in memoized["phases"]
        written = _spill_lines(spill)
        assert [line["id"] for line in written] == [e["id"] for e in events]
        for line in written:
            kinds = {record["kind"] for record in line["spans"]}
            assert "service.request" in kinds
            assert not kinds & {
                "retrieval.document",
                "extraction.document",
                "join.round",
                "query.issue",
            }, kinds


class TestSnapshotReuse:
    """A fully-warm run hands back the stored pilot snapshot unchanged."""

    def test_checkpoint_of_a_restored_pilot_is_the_snapshot(
        self, two_round_service, hq_ex_task
    ):
        warm = _warm_start(two_round_service, hq_ex_task)
        executor = _driver(hq_ex_task)._pilot_executor()
        restore_execution(executor, warm.snapshot)
        encoded = json.dumps(checkpoint_execution(executor))
        assert json.loads(encoded) == warm.snapshot

    def test_fully_warm_run_returns_the_stored_snapshot(
        self, two_round_service, hq_ex_task
    ):
        warm = _warm_start(two_round_service, hq_ex_task)
        result = _driver(hq_ex_task, warm_start=warm).run(
            QualityRequirement(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
        )
        assert result.pilot_fresh_documents == 0
        assert result.pilot_snapshot is warm.snapshot

    def test_top_up_run_checkpoints_afresh(
        self, two_round_service, hq_ex_task, tmp_path
    ):
        warmed = two_round_service
        warm = _warm_start(warmed, hq_ex_task)
        documents = warm.documents + 40
        requirement = QualityRequirement(tau_good=TAU_GOOD, tau_bad=TAU_BAD)
        # A cold single-round pilot of the topped-up size observes the
        # same documents the top-up run ends with.
        cold = _driver(
            hq_ex_task, pilot_documents=documents, max_rounds=1
        ).run(requirement)
        expected = json.loads(json.dumps(cold.pilot_snapshot))
        topped = _driver(
            hq_ex_task, warm_start=warm, pilot_documents=documents
        ).run(requirement)
        assert topped.pilot_fresh_documents > 0
        assert topped.pilot_snapshot is not warm.snapshot
        assert json.loads(json.dumps(topped.pilot_snapshot)) == expected
        with JoinService(
            hq_ex_task,
            _store_copy(warmed, tmp_path / "store"),
            workers=1,
            pilot_documents=documents,
            warm_policy=WarmStartPolicy(min_documents=warm.documents),
        ) as service:
            answer = service.execute(JoinRequest(TAU_GOOD, TAU_BAD))
            assert answer["warm_started"] is True
            assert answer["pilot_fresh_documents"] > 0
            recorded = _warm_start(service, hq_ex_task)
        assert recorded.documents == documents
        assert recorded.snapshot == expected


class TestRefitCounter:
    """``repro_mle_refits_total`` counts MLE fits of both sides."""

    def test_counter_is_half_the_refit_spans(
        self, hq_ex_task, tmp_path, monkeypatch
    ):
        from repro.observability import ObservabilityContext, SpanKind

        contexts = []

        def recording():
            context = ObservabilityContext()
            contexts.append(context)
            return context

        monkeypatch.setattr(
            "repro.service.service.ObservabilityContext", recording
        )
        with JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1,
            pilot_documents=PILOT,
        ) as service:
            cold = service.execute(JoinRequest(tau_good=20, tau_bad=40))
            assert cold["warm_started"] is False
            generation = service.store.generation
            for good, bad in SHARED_GRID[::3]:
                answer = service.execute(JoinRequest(good, bad))
                assert answer["pilot_fresh_documents"] == 0
            assert service.store.generation == generation
            spans = sum(
                record["kind"] == SpanKind.MLE_REFIT
                for context in contexts
                for record in context.tracer.records
            )
            # the cold run's rounds plus the generation's one memo fill
            assert spans == 2 * (cold["rounds"] + 1)
            assert service.metrics.value("repro_mle_refits_total") == (
                spans // 2
            )


class TestExtractionMemoUnderFaults:
    """Truncated payloads bypass the service's extraction memo."""

    def test_prefilled_memo_answers_like_an_empty_one(
        self, hq_ex_task, tmp_path, monkeypatch
    ):
        truncations = []
        truncate = FaultInjectingDatabase._truncate

        def counting(self, document):
            truncations.append(document.doc_id)
            return truncate(self, document)

        monkeypatch.setattr(FaultInjectingDatabase, "_truncate", counting)
        profile = FaultProfile(truncate=0.3, seed=5)
        replies = []
        for prefill in (False, True):
            with JoinService(
                hq_ex_task,
                str(tmp_path / f"store-{prefill}"),
                workers=1,
                pilot_documents=PILOT,
                fault_profile=profile,
            ) as service:
                if prefill:
                    # Every untruncated output is already memoized.
                    environment = hq_ex_task.environment().memoized(
                        service.extraction_memo
                    )
                    for side in (1, 2):
                        database = environment.database(side)
                        classifier = environment.classifiers[side]
                        extractors = [
                            environment.extractor_at(side, theta)
                            for theta in (0.4, 0.8)
                        ]
                        for document in database.documents:
                            classifier.classify(document)
                            for extractor in extractors:
                                extractor.extract(document)
                filled = len(service.extraction_memo)
                replies.append(
                    [
                        response_json(service.execute(JoinRequest(good, bad)))
                        for good, bad in ((TAU_GOOD, TAU_BAD), (20, 40))
                    ]
                )
                if prefill:
                    assert len(service.extraction_memo) == filled
        assert truncations
        assert replies[0] == replies[1]
