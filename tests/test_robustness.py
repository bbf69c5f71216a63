"""Tests for the robustness subsystem: fault injection, retry/backoff,
circuit breakers, failure semantics in the retrieval stack, and graceful
degradation in the adaptive optimizer."""

import dataclasses

import pytest

from repro.core import QualityRequirement
from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.optimizer import AdaptiveJoinExecutor, enumerate_plans
from repro.retrieval import Query, ScanRetriever
from repro.retrieval.queries import QueryProbe
from repro.robustness import (
    AccessFailedError,
    AccessPathUnavailable,
    BreakerState,
    CircuitBreaker,
    FaultInjectingDatabase,
    FaultProfile,
    RateLimitError,
    ResilienceContext,
    RetryPolicy,
    TransientAccessError,
    harden,
    plan_uses_path,
    raw_database,
    split_path,
    surviving_plans,
)


class TestRetryPolicy:
    def test_delays_within_bounds(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=30.0, seed=7)
        delays = policy.delays("op")
        for attempt in range(1, 11):
            delay = next(delays)
            assert policy.base_delay <= delay <= policy.max_delay
            assert delay <= policy.envelope(attempt)

    def test_envelope_monotone_and_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=30.0)
        envelopes = [policy.envelope(k) for k in range(1, 10)]
        assert envelopes == sorted(envelopes)
        assert envelopes[-1] == policy.max_delay

    def test_same_key_replays_identically(self):
        policy = RetryPolicy(seed=3)
        first = [next(policy.delays("a")) for _ in range(1)]
        again = [next(policy.delays("a")) for _ in range(1)]
        assert first == again
        series = policy.delays("a")
        other = policy.delays("b")
        assert [next(series) for _ in range(5)] != [
            next(other) for _ in range(5)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=2.0, max_delay=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(retry_budget=-1)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.times_opened == 1

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_then_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # third rejection reaches the cooldown
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_recovers_after_successes(self):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=1, recovery_successes=2
        )
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_retrips(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.is_open
        assert breaker.times_opened == 2


class TestFaultProfile:
    def test_parse_none(self):
        assert FaultProfile.parse("none").disabled
        assert FaultProfile.parse("").disabled
        assert FaultProfile.parse("off").disabled

    def test_parse_bare_rate_means_transient(self):
        profile = FaultProfile.parse("0.1", seed=9)
        assert profile.transient == pytest.approx(0.1)
        assert profile.seed == 9
        assert not profile.disabled

    def test_parse_pairs(self):
        profile = FaultProfile.parse(
            "transient=0.1,timeout=0.05,rate_limit=0.02,break_search_after=7"
        )
        assert profile.transient == pytest.approx(0.1)
        assert profile.timeout == pytest.approx(0.05)
        assert profile.rate_limit == pytest.approx(0.02)
        assert profile.break_search_after == 7

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultProfile.parse("gremlins=0.5")

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(transient=1.5)
        with pytest.raises(ValueError):
            FaultProfile(break_search_after=-1)


class TestFaultInjectingDatabase:
    def test_same_seed_same_fault_sequence(self, mini_db1):
        profile = FaultProfile(transient=0.3, timeout=0.2, truncate=0.2, seed=4)
        outcomes = []
        for _ in range(2):
            wrapped = FaultInjectingDatabase(mini_db1, profile)
            trace = []
            for doc_id in mini_db1.scan_order()[:60]:
                try:
                    wrapped.get(doc_id)
                    trace.append("ok")
                except Exception as error:  # noqa: BLE001
                    trace.append(type(error).__name__)
            outcomes.append((trace, dict(wrapped.injected)))
        assert outcomes[0] == outcomes[1]

    def test_truncation_keeps_at_least_one_sentence(self, mini_db1):
        wrapped = FaultInjectingDatabase(
            mini_db1, FaultProfile(truncate=1.0)
        )
        doc_id = mini_db1.scan_order()[0]
        original = mini_db1.get(doc_id)
        truncated = wrapped.get(doc_id)
        assert 1 <= len(truncated.sentences) <= len(original.sentences)
        assert all(
            m.sentence_index < len(truncated.sentences)
            for m in truncated.mentions
        )
        assert wrapped.injected["truncated"] == 1

    def test_break_search_after_goes_hard_down(self, mini_db1):
        wrapped = FaultInjectingDatabase(
            mini_db1, FaultProfile(break_search_after=2)
        )
        tokens = ("anything",)
        wrapped.search(tokens)
        wrapped.search(tokens)
        with pytest.raises(TransientAccessError):
            wrapped.search(tokens)

    def test_metadata_passes_through(self, mini_db1):
        wrapped = FaultInjectingDatabase(mini_db1, FaultProfile(transient=0.5))
        assert wrapped.name == mini_db1.name
        assert len(wrapped) == len(mini_db1)
        assert wrapped.max_results == mini_db1.max_results
        assert wrapped.scan_order() == mini_db1.scan_order()
        assert raw_database(wrapped) is mini_db1

    def test_raw_database_unwraps_layers(self, mini_db1):
        once = FaultInjectingDatabase(mini_db1, FaultProfile())
        twice = FaultInjectingDatabase(once, FaultProfile())
        assert raw_database(twice) is mini_db1


class TestResilienceContext:
    def _flaky(self, failures, result=42):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientAccessError("op")
            return result

        return fn

    def test_retries_until_success(self):
        context = ResilienceContext(policy=RetryPolicy(max_attempts=4))
        assert context.call("db:fetch", self._flaky(2)) == 42
        assert context.retries == 2
        assert context.backoff_time > 0.0
        assert context.failed_operations == 0
        assert context.faults["TransientAccessError"] == 2

    def test_exhaustion_raises_access_failed(self):
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=2), failure_threshold=100
        )
        with pytest.raises(AccessFailedError):
            context.call("db:fetch", self._flaky(10))
        assert context.failed_operations == 1

    def test_zero_retry_budget_fails_fast(self):
        context = ResilienceContext(
            policy=RetryPolicy(retry_budget=0), failure_threshold=100
        )
        with pytest.raises(AccessFailedError):
            context.call("db:fetch", self._flaky(1))
        assert context.retries == 0

    def test_breaker_opens_and_rejects(self):
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=10), failure_threshold=3
        )
        with pytest.raises(AccessPathUnavailable):
            context.call("db:search", self._flaky(10))
        assert context.breaker("db:search").is_open
        with pytest.raises(AccessPathUnavailable):
            context.call("db:search", lambda: 1)
        report = context.report()
        assert report.breaker_opens == 1
        assert report.open_paths == ("db:search",)
        assert report.total_faults == 3

    def test_deadline_bounds_backoff(self):
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=10, deadline=0.5),
            failure_threshold=100,
        )
        with pytest.raises(AccessFailedError):
            context.call("db:fetch", self._flaky(10))
        assert context.backoff_time <= 0.5


class TestDegradationMapping:
    def test_access_path_round_trip(self):
        from repro.robustness import access_path

        path = access_path("nyt95", "search")
        assert path == "nyt95:search"
        assert split_path(path) == ("nyt95", "search")

    def test_search_down_kills_query_driven_plans(self):
        plans = enumerate_plans("E1", "E2")
        survivors = surviving_plans(plans, side=1, operation="search")
        assert survivors
        assert all(
            not plan_uses_path(plan, side=1, operation="search")
            for plan in survivors
        )
        # Scan-only IDJN plans never touch the search interface.
        assert any(plan.join.name == "IDJN" for plan in survivors)

    def test_fetch_down_kills_everything_on_that_side(self):
        plans = enumerate_plans("E1", "E2")
        assert surviving_plans(plans, side=2, operation="fetch") == []


class TestScanUnderFaults:
    def test_lost_documents_are_skipped_not_counted(self, mini_db1):
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=1, seed=1),
            failure_threshold=10**6,
        )
        wrapped = FaultInjectingDatabase(
            mini_db1, FaultProfile(transient=0.3, seed=5)
        )
        context.attach_injector(wrapped)
        scan = ScanRetriever(wrapped, resilience=context)
        retrieved = 0
        while scan.next_document() is not None:
            retrieved += 1
        assert context.documents_lost > 0
        assert retrieved == scan.counters.retrieved
        assert retrieved + context.documents_lost == len(mini_db1)

    def test_open_circuit_does_not_advance_cursor(self, mini_db1):
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=10), failure_threshold=2
        )
        wrapped = FaultInjectingDatabase(
            mini_db1, FaultProfile(transient=1.0)
        )
        scan = ScanRetriever(wrapped, resilience=context)
        with pytest.raises(AccessPathUnavailable):
            scan.next_document()
        assert scan.position == 0
        assert scan.counters.retrieved == 0


class TestProbeFailureSemantics:
    def test_failed_search_is_not_an_empty_result(self, mini_db1):
        """Satellite: a failed search must never masquerade as a query
        that matched nothing — it stays un-issued and uncounted."""
        context = ResilienceContext(
            policy=RetryPolicy(max_attempts=2), failure_threshold=10**6
        )
        wrapped = FaultInjectingDatabase(
            mini_db1, FaultProfile(rate_limit=1.0)
        )
        probe = QueryProbe(wrapped, resilience=context)
        query = Query.of("company")
        with pytest.raises(AccessFailedError):
            probe.issue(query)
        assert probe.queries_issued == 0
        assert not probe.already_issued(query)
        assert probe.documents_retrieved == 0
        assert context.faults["RateLimitError"] > 0

    def test_successful_search_counts_once(self, mini_db1, mini_profile1):
        probe = QueryProbe(mini_db1)
        value = next(iter(mini_profile1.good_frequency))
        probe.issue(Query.of(value))
        assert probe.queries_issued == 1
        assert probe.already_issued(Query.of(value))


def _idjn_scan_run(db1, db2, ex1, ex2, resilience=None, budget=60):
    inputs = JoinInputs(
        database1=db1, database2=db2, extractor1=ex1, extractor2=ex2
    )
    executor = IndependentJoin(
        inputs,
        ScanRetriever(db1, resilience=resilience),
        ScanRetriever(db2, resilience=resilience),
        resilience=resilience,
    )
    return executor.run(
        budgets=Budgets(max_documents1=budget, max_documents2=budget)
    )


class TestDeterminismAndOverhead:
    def _faulted_run(self, db1, db2, ex1, ex2, seed):
        profile = FaultProfile(
            transient=0.08, timeout=0.04, truncate=0.05, seed=seed
        )
        context = ResilienceContext(policy=RetryPolicy(seed=seed))
        wrapped1 = FaultInjectingDatabase(
            db1, dataclasses.replace(profile, seed=seed * 2)
        )
        wrapped2 = FaultInjectingDatabase(
            db2, dataclasses.replace(profile, seed=seed * 2 + 1)
        )
        context.attach_injector(wrapped1)
        context.attach_injector(wrapped2)
        return _idjn_scan_run(
            wrapped1, wrapped2, ex1, ex2, resilience=context
        )

    def test_same_fault_seed_byte_identical_reports(
        self, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        first = self._faulted_run(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2, seed=13
        )
        second = self._faulted_run(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2, seed=13
        )
        assert repr(first.report) == repr(second.report)
        assert first.report.resilience.total_faults > 0

    def test_different_seed_differs(
        self, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        first = self._faulted_run(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2, seed=13
        )
        second = self._faulted_run(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2, seed=14
        )
        assert (
            first.report.resilience.faults != second.report.resilience.faults
        )

    def test_disabled_faults_zero_overhead(
        self, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        """With no faults injected, a resilience-wired run must produce a
        report identical to the raw run, modulo the (empty) resilience
        attachment."""
        raw = _idjn_scan_run(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2
        )
        context = ResilienceContext()
        wired = _idjn_scan_run(
            mini_db1,
            mini_db2,
            mini_extractor1,
            mini_extractor2,
            resilience=context,
        )
        assert wired.report.resilience.total_faults == 0
        assert wired.report.resilience.retries == 0
        stripped = dataclasses.replace(wired.report, resilience=None)
        assert repr(stripped) == repr(raw.report)

    def test_harden_with_disabled_profile_leaves_databases_raw(
        self, hq_ex_task
    ):
        environment = hq_ex_task.environment()
        hardened = harden(environment, profile=FaultProfile())
        for side in (1, 2):
            assert hardened.database(side) is environment.database(side)
        assert hardened.resilience is not None


class TestHardenEveryRelation:
    """One hardening path: every bound database gets its own sub-seed."""

    @pytest.fixture(scope="class")
    def star3(self):
        from repro.experiments import build_multiway_testbed

        return build_multiway_testbed().scenario("star3")

    def test_sub_seeds_follow_the_sorted_relation_keys(self, hq_ex_task, star3):
        profile = FaultProfile(transient=0.1, seed=3)
        binary = harden(hq_ex_task.environment(), profile=profile)
        graph = harden(star3.environment(), profile=profile)
        # seed * n + position among the n sorted keys
        assert {
            side: binary.database(side).profile.seed for side in (1, 2)
        } == {1: 6, 2: 7}
        assert {
            alias: graph.database(alias).profile.seed
            for alias in star3.graph.names
        } == {"EX": 9, "HQ": 10, "MG": 11}
        for alias in star3.graph.names:
            assert raw_database(graph.database(alias)) is star3.database_of(
                alias
            )

    def test_nary_report_carries_the_context_report(self, star3):
        from repro.planner import MultiwayPlanner, bind_multiway_plan

        requirement = QualityRequirement(tau_good=40, tau_bad=250)
        planner = MultiwayPlanner(star3.graph, star3.catalog())
        chosen = planner.optimize(requirement).chosen
        environment = harden(
            star3.environment(), profile=FaultProfile(transient=0.1)
        )
        report = bind_multiway_plan(
            environment, star3.graph, chosen, model=planner.model
        ).run(requirement).report
        assert report.resilience == environment.resilience.report()
        assert report.resilience.total_faults > 0
        unhardened = bind_multiway_plan(
            star3.environment(), star3.graph, chosen, model=planner.model
        ).run(requirement).report
        assert unhardened.resilience is None


class TestAdaptiveUnderFaults:
    def _build(self, hq_ex_task, environment, **kwargs):
        defaults = dict(
            environment=environment,
            characterization1=hq_ex_task.characterization1,
            characterization2=hq_ex_task.characterization2,
            plans=enumerate_plans(
                hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
            ),
            pilot_documents=100,
            classifier_profile1=hq_ex_task.offline_classifier_profile1,
            classifier_profile2=hq_ex_task.offline_classifier_profile2,
            query_stats1=hq_ex_task.offline_query_stats1,
            query_stats2=hq_ex_task.offline_query_stats2,
            feasibility_margin=0.3,
        )
        defaults.update(kwargs)
        return AdaptiveJoinExecutor(**defaults)

    def test_meets_requirement_under_ten_percent_transients(self, hq_ex_task):
        environment = harden(
            hq_ex_task.environment(), profile=FaultProfile.parse("0.1")
        )
        adaptive = self._build(hq_ex_task, environment)
        requirement = QualityRequirement(tau_good=40, tau_bad=99999)
        result = adaptive.run(requirement)
        assert result.report is not None
        report = result.report
        assert report.check(requirement)
        assert report.resilience is not None
        assert report.resilience.total_faults > 0
        assert report.resilience.retries > 0
        assert report.resilience.backoff_time > 0.0

    def test_degrades_around_dead_search_interface(self, hq_ex_task):
        """A search service going hard down mid-execution opens the
        breaker; the optimizer re-plans without the dead path and still
        meets the contract."""
        environment = harden(
            hq_ex_task.environment(),
            profile=FaultProfile(break_search_after=1),
            failure_threshold=3,
        )
        adaptive = self._build(hq_ex_task, environment)
        requirement = QualityRequirement(tau_good=40, tau_bad=99999)
        result = adaptive.run(requirement)
        assert result.degraded_paths
        assert result.wasted_time >= 0.0
        report = result.report
        assert report.check(requirement)
        assert report.resilience.breaker_opens >= 1
        # The final plan must not touch any degraded path.
        names = {environment.database(side).name: side for side in (1, 2)}
        for path in result.degraded_paths:
            name, operation = split_path(path)
            assert not plan_uses_path(
                result.chosen.plan, side=names[name], operation=operation
            )


class TestCliRobustness:
    def test_handler_errors_become_one_line_failures(self, capsys):
        from repro.cli import main

        code = main(["figures", "--figure", "9", "--step", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert captured.err.count("\n") == 1

    def test_default_flags_leave_environment_untouched(self):
        import argparse

        from repro.cli import _maybe_harden

        args = argparse.Namespace(
            fault_profile="none", fault_seed=0, retry_budget=None
        )
        sentinel = object()
        assert _maybe_harden(sentinel, args) is sentinel
