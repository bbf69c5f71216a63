"""Service tests for the multiway (``relations``/``edges``) request path.

The contract under test: a multiway-bound service plans n-ary joins
through the shared plan cache, journals every fresh answer to the
statistics store (so a restarted service replies ``warm_planned``),
executes chosen plans against the scenario's live databases, publishes
planner search tallies to ``/v1/metrics`` — and maps every malformed
graph payload to a structured 4xx, never a 500.
"""

import json
import urllib.parse

import pytest

from repro.experiments import build_multiway_testbed
from repro.multiway.executor import MultiwayIndependentJoin
from repro.planner.planner import MultiwayPlanner
from repro.robustness import DeadlineExceeded, FaultProfile
from repro.robustness.context import AccessPathUnavailable
from repro.service import JoinRequest, JoinService, ServiceBusyError
from repro.service.admission import SHED, AdmissionDecision
from repro.service.asyncio_frontend import serve_async, shutdown_async
from repro.service.coalesce import submit_coalesced
from repro.service.http import request_json

TAU_GOOD = 40
TAU_BAD = 120


def star3_payload(mode="plan", tau_good=TAU_GOOD, tau_bad=TAU_BAD, **extra):
    payload = {
        "tau_good": tau_good,
        "tau_bad": tau_bad,
        "mode": mode,
        "relations": [
            {
                "name": "HQ",
                "attributes": ["Company", "Location"],
                "thetas": [0.4, 0.8],
                "access_paths": ["SC", "FS"],
            },
            {
                "name": "EX",
                "attributes": ["Company", "CEO"],
                "thetas": [0.4, 0.8],
                "access_paths": ["SC", "FS"],
            },
            {
                "name": "MG",
                "attributes": ["Company", "MergedWith"],
                "thetas": [0.4, 0.8],
                "access_paths": ["SC", "FS"],
            },
        ],
        "edges": ["HQ.Company=EX.Company", "HQ.Company=MG.Company"],
    }
    payload.update(extra)
    return payload


#: payloads that must be rejected at parse time (HTTP 400), one per
#: structural defect class
MALFORMED_PAYLOADS = {
    "cycle": star3_payload(
        edges=[
            "HQ.Company=EX.Company",
            "HQ.Company=MG.Company",
            "EX.Company=MG.Company",
        ]
    ),
    "dangling-attribute": star3_payload(
        edges=["HQ.Ticker=EX.Company", "HQ.Company=MG.Company"]
    ),
    "duplicate-relation": star3_payload(
        relations=["HQ", "HQ", "MG"],
        edges=["HQ.value=MG.value", "HQ.value=MG.value"],
    ),
    "disconnected": star3_payload(edges=["HQ.Company=EX.Company"]),
    "bad-access-path": star3_payload(
        relations=[
            {"name": "HQ", "access_paths": ["SCAN"]},
            "EX",
            "MG",
        ],
        edges=["HQ.value=EX.value", "HQ.value=MG.value"],
    ),
    "relations-not-a-list": star3_payload(relations="HQ"),
}


@pytest.fixture(scope="module")
def multiway_service(hq_ex_task, tmp_path_factory):
    scenario = build_multiway_testbed().scenario("star3")
    root = tmp_path_factory.mktemp("multiway-store")
    service = JoinService(
        hq_ex_task, str(root), workers=2, pilot_documents=60,
        multiway=scenario,
    )
    yield service, scenario, root
    service.close()


class TestMultiwayRequestParsing:
    def test_graph_rides_along_on_the_request(self):
        request = JoinRequest.from_payload(star3_payload())
        assert request.graph is not None
        assert request.graph.names == ("HQ", "EX", "MG")

    @pytest.mark.parametrize("defect", sorted(MALFORMED_PAYLOADS))
    def test_malformed_graph_raises_value_error(self, defect):
        with pytest.raises(ValueError):
            JoinRequest.from_payload(MALFORMED_PAYLOADS[defect])


class TestMultiwayService:
    def test_plan_mode_answers_with_planning_facts(self, multiway_service):
        service, scenario, _ = multiway_service
        reply = service.execute(JoinRequest.from_payload(star3_payload()))
        assert reply["multiway"] is True
        assert reply["feasible"] is True
        assert reply["plan"].startswith("PIPE")
        assert reply["signature"] == scenario.graph.signature()
        assert reply["candidates"] == 64
        assert reply["plan_space"] > 0
        assert reply["predicted_good"] >= TAU_GOOD
        assert "warm_planned" not in reply

    def test_repeat_plan_is_a_cache_hit(self, multiway_service):
        service, _, _ = multiway_service
        first = service.execute(JoinRequest.from_payload(star3_payload()))
        before = service.plan_cache.stats()["hits"]
        second = service.execute(JoinRequest.from_payload(star3_payload()))
        assert service.plan_cache.stats()["hits"] == before + 1
        assert second["plan"] == first["plan"]

    def test_execute_meets_the_scenario_requirement(self, multiway_service):
        service, _, _ = multiway_service
        reply = service.execute(
            JoinRequest.from_payload(star3_payload(mode="execute"))
        )
        assert reply["satisfied"] is True
        assert reply["good"] >= TAU_GOOD
        assert reply["bad"] <= TAU_BAD
        assert set(reply["documents_processed"]) == {"HQ", "EX", "MG"}
        assert all(
            count > 0 for count in reply["documents_processed"].values()
        )
        assert reply["execution_time"] > 0

    def test_unknown_alias_is_a_client_error(self, multiway_service):
        service, _, _ = multiway_service
        payload = star3_payload(
            relations=["ZZ", "EX", "MG"],
            edges=["ZZ.value=EX.value", "ZZ.value=MG.value"],
        )
        with pytest.raises(ValueError, match="unknown relation alias 'ZZ'"):
            service.execute(JoinRequest.from_payload(payload))

    def test_service_without_bindings_rejects_graphs(
        self, hq_ex_task, tmp_path
    ):
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1
        )
        try:
            with pytest.raises(ValueError, match="no multiway bindings"):
                service.execute(JoinRequest.from_payload(star3_payload()))
        finally:
            service.close()

    def test_planner_tallies_reach_the_metrics_registry(
        self, multiway_service
    ):
        service, _, _ = multiway_service
        service.execute(JoinRequest.from_payload(star3_payload()))
        rendered = service.metrics.render()
        assert "repro_planner_events_total" in rendered
        assert 'event="subplans_pruned_bound"' in rendered or (
            'event="subplans_enumerated"' in rendered
        )

    def test_wide_events_carry_the_graph_identity(
        self, multiway_service, monkeypatch
    ):
        service, scenario, _ = multiway_service
        graph = scenario.graph
        identity = (graph.describe(), graph.signature())
        service.execute(JoinRequest.from_payload(star3_payload()))
        (planned,) = service.debug_requests(limit=1)
        assert (planned["task"], planned["signature"]) == identity
        assert planned["mode"] == "plan" and planned["outcome"] == "ok"
        # A shed is recorded on the submitter's thread, not by a worker.
        monkeypatch.setattr(
            service.admission,
            "_decide",
            lambda *_: AdmissionDecision(SHED, retry_after=1.0),
        )
        with pytest.raises(ServiceBusyError):
            service.submit(JoinRequest.from_payload(star3_payload()))
        (shed,) = service.debug_requests(limit=1, outcome="shed")
        assert (shed["task"], shed["signature"]) == identity
        assert service.task.name not in identity

    def test_debug_requests_filter_on_identity(self, multiway_service):
        service, scenario, _ = multiway_service
        graph = scenario.graph
        service.execute(JoinRequest(tau_good=40, tau_bad=10**6))
        service.execute(JoinRequest.from_payload(star3_payload()))
        for key, binary, star3 in (
            ("signature", service.signature, graph.signature()),
            ("task", service.task.name, graph.describe()),
        ):
            for value in (binary, star3):
                events = service.debug_requests(limit=1000, **{key: value})
                assert events and {e[key] for e in events} == {value}
            assert service.debug_requests(**{key: "no-such"}) == []
        binary_events = service.debug_requests(
            limit=1000, signature=service.signature
        )
        assert not [
            e for e in binary_events if e["signature"].startswith("mwg:")
        ]

    def test_execute_counts_per_access_work_on_its_event(
        self, hq_ex_task, multiway_service, tmp_path, monkeypatch
    ):
        _, scenario, _ = multiway_service
        runs = []
        run = MultiwayIndependentJoin.run

        def recording_run(self, *args, **kwargs):
            execution = run(self, *args, **kwargs)
            runs.append((self, execution.report))
            return execution

        monkeypatch.setattr(MultiwayIndependentJoin, "run", recording_run)
        spill = tmp_path / "spill.jsonl"
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1,
            multiway=scenario, flight_spill=str(spill), trace_sample=1,
        )
        try:
            service.execute(
                JoinRequest.from_payload(star3_payload(mode="execute"))
            )
            (event,) = service.debug_requests(mode="execute")
        finally:
            service.close()
        ((executor, report),) = runs
        work = executor.work_counters()
        assert work["accesses"] >= work["documents_retrieved"] > 0
        assert {k: event["counters"][k] for k in work} == work
        for name in (
            "documents_retrieved", "documents_processed", "tuples_extracted"
        ):
            assert event["counters"][name] == sum(
                getattr(report, name).values()
            )
        (line,) = [json.loads(text) for text in spill.read_text().splitlines()]
        assert line["id"] == event["id"]
        records = line["spans"]
        kinds = {record["kind"] for record in records}
        assert not kinds & {
            "db.access",
            "retrieval.document",
            "extraction.document",
            "query.issue",
        }, kinds
        (span,) = [r for r in records if r["name"] == "multiway-join"]
        assert {k: span["attrs"][k] for k in work} == work

    def test_stats_name_the_bound_scenario(self, multiway_service):
        service, _, _ = multiway_service
        assert service.stats()["multiway_scenario"] == "star3"

    def test_restarted_service_answers_warm_from_the_store(
        self, hq_ex_task, multiway_service, tmp_path
    ):
        _, scenario, _ = multiway_service
        root = str(tmp_path / "mw-restart")
        first = JoinService(
            hq_ex_task, root, workers=1, multiway=scenario
        )
        try:
            cold = first.execute(JoinRequest.from_payload(star3_payload()))
        finally:
            first.close()
        second = JoinService(
            hq_ex_task, root, workers=1, multiway=scenario
        )
        try:
            warm = second.execute(JoinRequest.from_payload(star3_payload()))
            # An execute replans the journaled requirement; the merged
            # journal equals the stored record, so nothing is written.
            second.execute(
                JoinRequest.from_payload(star3_payload(mode="execute"))
            )
            assert second.stats()["curve_store"]["exports"] == 0
        finally:
            second.close()
        assert warm["warm_planned"] is True
        assert warm["plan"] == cold["plan"]
        assert warm["predicted_good"] == cold["predicted_good"]


class TestMultiwayHTTP:
    @pytest.fixture(scope="class")
    def served(self, multiway_service):
        service, scenario, _ = multiway_service
        server = serve_async(service)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        yield base, scenario
        shutdown_async(server)

    def test_plan_round_trip(self, served):
        base, scenario = served
        status, reply = request_json(base, "join", star3_payload())
        assert status == 200
        assert reply["feasible"] is True
        assert reply["signature"] == scenario.graph.signature()

    @pytest.mark.parametrize("defect", sorted(MALFORMED_PAYLOADS))
    def test_malformed_graphs_get_400_never_500(self, served, defect):
        base, _ = served
        status, body = request_json(base, "join", MALFORMED_PAYLOADS[defect])
        assert status == 400, (defect, body)
        assert "error" in body

    def test_unknown_alias_gets_409(self, served):
        base, _ = served
        status, body = request_json(
            base,
            "join",
            star3_payload(
                relations=["ZZ", "EX", "MG"],
                edges=["ZZ.value=EX.value", "ZZ.value=MG.value"],
            ),
        )
        assert status == 409
        assert "unknown relation alias" in body["error"]

    def test_debug_requests_filter_on_identity(self, served, multiway_service):
        base, scenario = served
        service = multiway_service[0]
        status, _ = request_json(base, "join", star3_payload())
        assert status == 200
        for key, value in (
            ("signature", scenario.graph.signature()),
            ("task", service.task.name),
        ):
            query = urllib.parse.urlencode({key: value, "limit": 1000})
            status, body = request_json(base, f"debug/requests?{query}")
            assert status == 200
            expected = service.debug_requests(limit=1000, **{key: value})
            assert body["requests"] == expected
            assert {e[key] for e in body["requests"]} <= {value}

    def test_metrics_expose_planner_events(self, served):
        base, _ = served
        status, text = request_json(base, "metrics")
        assert status == 200
        assert "# TYPE repro_planner_events_total counter" in text


def _relation(name, attribute):
    return {
        "name": name,
        "attributes": ["Company", attribute],
        "thetas": [0.4],
        "access_paths": ["SC"],
    }


#: six graphs over the bound aliases, each with its own plan-cache key
DISTINCT_GRAPHS = [
    (("HQ", "EX", "MG"), ["HQ.Company=EX.Company", "HQ.Company=MG.Company"]),
    (("EX", "HQ", "MG"), ["EX.Company=HQ.Company", "EX.Company=MG.Company"]),
    (("MG", "HQ", "EX"), ["MG.Company=HQ.Company", "MG.Company=EX.Company"]),
    (("HQ", "EX"), ["HQ.Company=EX.Company"]),
    (("HQ", "MG"), ["HQ.Company=MG.Company"]),
    (("EX", "MG"), ["EX.Company=MG.Company"]),
]

ATTRIBUTES = {"HQ": "Location", "EX": "CEO", "MG": "MergedWith"}


class TestCurveStoreCounters:
    def test_concurrent_planner_builds_are_all_counted(
        self, hq_ex_task, tmp_path
    ):
        """Every planner the cache builds counts once as a hit or a miss.

        The curve-store tallies are bumped from worker threads by the
        optimizer factories and the warm-start path; all of them take
        the metrics lock, so a concurrent burst loses no increment.
        """
        scenario = build_multiway_testbed().scenario("star3")
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=2,
            multiway=scenario,
        )
        try:
            futures = [
                service.submit(
                    JoinRequest.from_payload(
                        star3_payload(
                            tau_good=10,
                            relations=[
                                _relation(name, ATTRIBUTES[name])
                                for name in names
                            ],
                            edges=edges,
                        )
                    )
                )
                for names, edges in DISTINCT_GRAPHS
            ]
            replies = [future.result(timeout=300) for future in futures]
            stats = service.stats()
        finally:
            service.close()
        assert len({reply["signature"] for reply in replies}) == len(
            DISTINCT_GRAPHS
        )
        builds = stats["plan_cache"]["optimizer_misses"]
        assert builds == len(DISTINCT_GRAPHS)
        curve_store = stats["curve_store"]
        assert curve_store["hits"] + curve_store["misses"] == builds
        assert curve_store["exports"] == len(DISTINCT_GRAPHS)


def _narrow_grid_payload(tau_good=TAU_GOOD):
    """star3 with every relation limited to θ=0.8 (8 candidates, not 64)."""
    wide = star3_payload(tau_good=tau_good)
    relations = [dict(relation, thetas=[0.8]) for relation in wide["relations"]]
    return dict(wide, relations=relations)


class TestPlanSpaceIdentity:
    """One graph signature with two theta grids is two plan spaces.

    The plan cache, the coalescer and the store's curve record used to
    key on the graph signature alone, so a narrow-grid request sent
    after a wide-grid one got the wide grid's cached plan back.
    """

    def test_narrow_grid_answers_like_a_fresh_service(
        self, hq_ex_task, tmp_path
    ):
        scenario = build_multiway_testbed().scenario("star3")
        coalesced_tau = TAU_GOOD + 1
        fresh = JoinService(
            hq_ex_task, str(tmp_path / "fresh"), workers=1, multiway=scenario
        )
        try:
            expected = {
                tau: fresh.execute(
                    JoinRequest.from_payload(_narrow_grid_payload(tau))
                )
                for tau in (TAU_GOOD, coalesced_tau)
            }
        finally:
            fresh.close()
        assert expected[TAU_GOOD]["candidates"] == 8
        assert "t=0.4" not in expected[TAU_GOOD]["plan"]

        root = str(tmp_path / "shared")
        service = JoinService(
            hq_ex_task, root, workers=2, multiway=scenario
        )
        try:
            service.execute(JoinRequest.from_payload(star3_payload()))
            direct = service.execute(
                JoinRequest.from_payload(_narrow_grid_payload())
            )
            wide = JoinRequest.from_payload(star3_payload(tau_good=coalesced_tau))
            narrow = JoinRequest.from_payload(_narrow_grid_payload(coalesced_tau))
            assert service.coalesce_key(wide) != service.coalesce_key(narrow)
            wide_future, _ = submit_coalesced(service, wide)
            narrow_future, _ = submit_coalesced(service, narrow)
            coalesced = narrow_future.result(timeout=300)
            wide_future.result(timeout=300)
        finally:
            service.close()
        assert direct == expected[TAU_GOOD]
        assert coalesced == expected[coalesced_tau]

        restarted = JoinService(
            hq_ex_task, root, workers=1, multiway=scenario
        )
        try:
            warm = restarted.execute(
                JoinRequest.from_payload(_narrow_grid_payload())
            )
        finally:
            restarted.close()
        assert warm.pop("warm_planned") is True
        assert warm == expected[TAU_GOOD]


class _JumpClock:
    """A clock that stands still until a test moves it."""

    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self) -> float:
        return self.now


class TestMultiwayDeadlines:
    """A star3 execute honours its deadline in planning and in the run."""

    def _expire_inside(self, hq_ex_task, tmp_path, monkeypatch, owner, name):
        """Run a star3 execute whose clock jumps 10 s inside owner.name."""
        clock = _JumpClock()
        original = getattr(owner, name)

        def jumping(*args, **kwargs):
            clock.now += 10.0
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, jumping)
        service = JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            clock=clock,
            multiway=build_multiway_testbed().scenario("star3"),
        )
        try:
            with pytest.raises(DeadlineExceeded) as caught:
                service.execute(
                    JoinRequest.from_payload(
                        star3_payload(mode="execute", deadline_ms=1000)
                    )
                )
            (event,) = service.debug_requests(outcome="deadline")
        finally:
            service.close()
        return caught.value, event

    def test_expiry_during_planning_is_an_optimize_phase_expiry(
        self, hq_ex_task, tmp_path, monkeypatch
    ):
        expired, event = self._expire_inside(
            hq_ex_task, tmp_path, monkeypatch, MultiwayPlanner, "optimize"
        )
        assert expired.phase == "optimize"
        assert event["phase"] == "optimize"

    def test_expiry_during_the_run_stops_the_executor(
        self, hq_ex_task, tmp_path, monkeypatch
    ):
        expired, event = self._expire_inside(
            hq_ex_task, tmp_path, monkeypatch, MultiwayIndependentJoin, "run"
        )
        assert expired.phase == "execute"
        assert event["phase"] == "execute"


class TestMultiwayUnderFaults:
    """The service's fault profile reaches a star3 execute as it reaches
    a binary one: both run in the environment the service hardens."""

    @staticmethod
    def _service(hq_ex_task, tmp_path, scenario, profile):
        return JoinService(
            hq_ex_task,
            str(tmp_path / "store"),
            workers=1,
            pilot_documents=60,
            multiway=scenario,
            fault_profile=profile,
        )

    def test_dead_databases_fail_star3_like_binary(
        self, hq_ex_task, tmp_path, multiway_service
    ):
        _, scenario, _ = multiway_service
        dead = FaultProfile(transient=1.0)
        with self._service(hq_ex_task, tmp_path, scenario, dead) as service:
            with pytest.raises(AccessPathUnavailable):
                service.execute(JoinRequest(tau_good=TAU_GOOD, tau_bad=1000))
            with pytest.raises(AccessPathUnavailable):
                service.execute(
                    JoinRequest.from_payload(star3_payload(mode="execute"))
                )
            (event,) = service.debug_requests(
                mode="execute", signature=scenario.graph.signature()
            )
        assert event["outcome"] == "error"

    def test_star3_faults_reach_the_resilience_metrics(
        self, hq_ex_task, tmp_path, multiway_service
    ):
        _, scenario, _ = multiway_service
        flaky = FaultProfile(transient=0.1)
        with self._service(hq_ex_task, tmp_path, scenario, flaky) as service:
            reply = service.execute(
                JoinRequest.from_payload(star3_payload(mode="execute"))
            )
            metrics = service.metrics
            assert metrics.value(
                "repro_faults_total", kind="TransientAccessError"
            ) > 0
            assert metrics.value("repro_retries_total") > 0
        assert reply["multiway"] is True
