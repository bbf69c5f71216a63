"""End-to-end tests of the observability subsystem (DESIGN §6.3).

Covers the tracer (nesting, exports, schema conformance), the metrics
registry (render format, totals, merge), drift telemetry, the
zero-overhead disabled path (byte-identical executions), executor/optimizer
instrumentation, and the CLI flags.
"""

from __future__ import annotations

import json

import pytest

from validate_events import validate_file, validate_span

from repro.core import QualityRequirement
from repro.experiments import build_multiway_testbed
from repro.multiway import MultiwayIndependentJoin, MultiwaySide
from repro.joins import (
    Budgets,
    IndependentJoin,
    JoinInputs,
    OuterInnerJoin,
    ZigZagJoin,
)
from repro.observability import (
    NULL_OBSERVABILITY,
    DriftTracker,
    MetricsRegistry,
    ObservabilityContext,
    SpanKind,
    Tracer,
    ensure_observability,
)
from repro.observability.metrics import _format_labels
from repro.observability.tracer import NULL_SPAN
from repro.optimizer import (
    AdaptiveJoinExecutor,
    JoinOptimizer,
    enumerate_plans,
)
from repro.retrieval import (
    AQGRetriever,
    FilteredScanRetriever,
    ScanRetriever,
    learn_queries,
)


def totals(registry: MetricsRegistry) -> dict:
    """Flat ``name{labels} -> value`` map of a registry's instruments."""
    flat = {}
    for name, kind, labels, instrument in registry.families():
        if kind == "histogram":
            flat[f"{name}_sum{_format_labels(labels)}"] = instrument.total
            flat[f"{name}_count{_format_labels(labels)}"] = float(
                instrument.count
            )
        else:
            flat[f"{name}{_format_labels(labels)}"] = instrument.value
    return flat


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span(SpanKind.OPTIMIZE, "outer") as outer:
            with tracer.span(SpanKind.PLAN_CURVE, "inner") as inner:
                pass
        records = {r["name"]: r for r in tracer.records}
        assert records["inner"]["parent"] == outer.span_id
        assert records["outer"]["parent"] is None
        assert inner.span_id != outer.span_id
        # inner closes first, so it is recorded first
        assert [r["name"] for r in tracer.records] == ["inner", "outer"]

    def test_set_attaches_attributes_chainably(self):
        tracer = Tracer()
        with tracer.span(SpanKind.MLE_REFIT, "e", side=1) as span:
            assert span.set(tuples=3) is span
        (record,) = tracer.records
        assert record["attrs"] == {"side": 1, "tuples": 3}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span(SpanKind.OPTIMIZE, "boom"):
                raise ValueError("x")
        (record,) = tracer.records
        assert record["attrs"]["error"] == "ValueError"

    def test_events_are_instant_and_nested(self):
        tracer = Tracer()
        with tracer.span(SpanKind.PILOT, "round") as span:
            tracer.event(SpanKind.DRIFT_SNAPSHOT, "snap", refit=1)
        event = tracer.records[0]
        assert event["type"] == "event"
        assert event["dur_us"] == 0.0
        assert event["parent"] == span.span_id

    def test_non_json_attrs_are_stringified(self):
        tracer = Tracer()
        with tracer.span(SpanKind.OPTIMIZE, "o", obj=object(), ok=1.5):
            pass
        attrs = tracer.records[0]["attrs"]
        assert isinstance(attrs["obj"], str)
        assert attrs["ok"] == 1.5

    def test_exports_jsonl_and_chrome(self, tmp_path):
        tracer = Tracer()
        with tracer.span(SpanKind.OPTIMIZE, "o", plans=2):
            tracer.event(SpanKind.BREAKER_TRANSITION, "db", state="open")
        jsonl = tracer.export_jsonl(str(tmp_path / "t.jsonl"))
        assert validate_file(jsonl) == []
        chrome = tracer.export_chrome(str(tmp_path / "t.chrome.json"))
        payload = json.loads(open(chrome).read())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases == {"X", "i"}
        for event in payload["traceEvents"]:
            if event["ph"] == "X":
                assert "dur" in event
            else:
                assert event["s"] == "t"

    def test_schema_rejects_malformed_records(self):
        assert validate_span({"type": "span"})  # missing fields
        good = {
            "type": "span",
            "kind": "adaptive.pilot",
            "name": "r",
            "ts_us": 0.0,
            "dur_us": 1.0,
            "pid": 1,
            "tid": 0,
            "id": 1,
            "parent": None,
            "attrs": {},
        }
        assert validate_span(good) == []
        assert validate_span({**good, "kind": "bogus.kind"})
        assert validate_span({**good, "attrs": {"x": [1]}})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        registry.counter("repro_queries_issued_total", database="db1").inc()
        registry.counter("repro_queries_issued_total", database="db1").inc(2)
        registry.gauge("repro_join_tuples", label="good").set(7)
        registry.histogram("repro_latency_seconds", buckets=(0.1, 1.0)).observe(
            0.05
        )
        text = registry.render()
        assert "# TYPE repro_queries_issued_total counter" in text
        assert 'repro_queries_issued_total{database="db1"} 3' in text
        assert 'repro_join_tuples{label="good"} 7' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x")

    def test_merge_adds_counters_overwrites_gauges(self):
        parent = MetricsRegistry()
        parent.counter("repro_c").inc(1)
        parent.gauge("repro_g").set(1)
        child = MetricsRegistry()
        child.counter("repro_c").inc(4)
        child.gauge("repro_g").set(9)
        child.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        parent.merge(child.export_state())
        assert parent.value("repro_c") == 5
        assert parent.value("repro_g") == 9
        assert totals(parent)["repro_h_count"] == 1.0

    def test_render_is_deterministic(self):
        def build(order):
            registry = MetricsRegistry()
            for side in order:
                registry.counter("repro_d", side=side).inc(side)
            return registry.render()

        assert build([2, 1]) == build([1, 2])


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------


class TestDrift:
    def test_record_and_errors(self):
        tracker = DriftTracker()
        snap = tracker.record(
            label="pilot-round-1",
            plan="ZGJN",
            documents_processed=(10, 20),
            observed_good=50,
            observed_bad=10,
            predicted_good=60,
            predicted_bad=5,
            curve=((0.0, 1.0), (0.0, 60.0), (0.0, 5.0)),
        )
        assert snap.refit == 1
        assert snap.good_error == pytest.approx(0.2)
        assert snap.bad_error == pytest.approx(-0.5)
        assert snap.curve_good == (0.0, 60.0)

    def test_zero_zero_is_zero_error(self):
        tracker = DriftTracker()
        snap = tracker.record(
            label="x",
            plan="",
            documents_processed=(0, 0),
            observed_good=0,
            observed_bad=0,
            predicted_good=0,
            predicted_bad=0,
        )
        assert snap.good_error == 0.0
        assert snap.bad_error == 0.0

    def test_context_mirrors_drift_into_trace_and_metrics(self):
        context = ObservabilityContext()
        context.record_drift(
            label="milestone-40",
            plan="OIJN",
            documents_processed=(4, 4),
            observed_good=10,
            observed_bad=2,
            predicted_good=12,
            predicted_bad=2,
        )
        kinds = [r["kind"] for r in context.tracer.records]
        assert kinds == [SpanKind.DRIFT_SNAPSHOT]
        # a snapshot is not a refit: the driver counts refits itself
        assert context.metrics.value("repro_mle_refits_total") == 0
        (snapshot,) = context.drift.snapshots
        assert snapshot.to_dict()["label"] == "milestone-40"


# ---------------------------------------------------------------------------
# disabled path
# ---------------------------------------------------------------------------


class TestDisabledPath:
    def test_ensure_observability_defaults_to_shared_null(self):
        assert ensure_observability(None) is NULL_OBSERVABILITY
        live = ObservabilityContext()
        assert ensure_observability(live) is live

    def test_null_context_allocates_nothing(self):
        span = NULL_OBSERVABILITY.span(SpanKind.PILOT, "r", big=object())
        assert span is NULL_SPAN
        NULL_OBSERVABILITY.event(SpanKind.DRIFT_SNAPSHOT, "x")
        NULL_OBSERVABILITY.counter("repro_c").inc()
        NULL_OBSERVABILITY.record_drift()
        assert NULL_OBSERVABILITY.tracer.records == []
        assert NULL_OBSERVABILITY.drift.snapshots == ()
        assert NULL_OBSERVABILITY.metrics.render() == ""

    def _scan_run(self, task, observability):
        inputs = task.inputs()
        executor = IndependentJoin(
            inputs,
            ScanRetriever(inputs.database1, observability=observability),
            ScanRetriever(inputs.database2, observability=observability),
            observability=observability,
        )
        return executor.run(
            budgets=Budgets(max_documents1=80, max_documents2=80)
        )

    def test_instrumented_run_is_byte_identical(self, hq_ex_task):
        plain = self._scan_run(hq_ex_task, None)
        traced = self._scan_run(hq_ex_task, ObservabilityContext())
        assert traced.report.composition == plain.report.composition
        assert traced.report.time == plain.report.time
        assert (
            traced.report.documents_processed
            == plain.report.documents_processed
        )
        assert traced.report.queries_issued == plain.report.queries_issued
        for side in (1, 2):
            assert (
                traced.state.relation(side).tuples
                == plain.state.relation(side).tuples
            )

    def test_optimizer_results_identical_with_observability(self, hq_ex_task):
        requirement = QualityRequirement(tau_good=40, tau_bad=10**6)
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        plain = JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)
        traced = JoinOptimizer(
            hq_ex_task.catalog(),
            costs=hq_ex_task.costs,
            observability=ObservabilityContext(),
        )
        result_plain = plain.optimize(plans, requirement)
        result_traced = traced.optimize(plans, requirement)
        assert result_traced.chosen.plan == result_plain.chosen.plan
        assert (
            result_traced.chosen.predicted_time
            == result_plain.chosen.predicted_time
        )


# ---------------------------------------------------------------------------
# instrumentation coverage
# ---------------------------------------------------------------------------


class TestInstrumentation:
    @pytest.mark.parametrize("algorithm", ["idjn", "oijn", "zgjn"])
    def test_binary_executor_counts_instead_of_spanning(
        self, hq_ex_task, algorithm
    ):
        observability = ObservabilityContext()
        inputs = hq_ex_task.inputs()
        if algorithm == "idjn":
            executor = IndependentJoin(
                inputs,
                ScanRetriever(inputs.database1, observability=observability),
                ScanRetriever(inputs.database2, observability=observability),
                observability=observability,
            )
        elif algorithm == "oijn":
            executor = OuterInnerJoin(
                inputs,
                ScanRetriever(inputs.database1, observability=observability),
                observability=observability,
            )
        else:
            executor = ZigZagJoin(
                inputs,
                hq_ex_task.seed_queries,
                observability=observability,
            )
        first = executor.run(
            budgets=Budgets(max_documents1=15, max_documents2=15)
        )
        execution = executor.run(
            budgets=Budgets(max_documents1=30, max_documents2=30)
        )
        report = execution.report
        assert sum(report.documents_processed.values()) > sum(
            first.report.documents_processed.values()
        )
        # no span per round, document or keyword query
        assert observability.tracer.records == []
        # counted once per side per run, summed over the resumed runs
        metrics = observability.metrics
        for side in (1, 2):
            assert metrics.value(
                "repro_documents_processed_total",
                side=side,
                algorithm=algorithm,
            ) == report.documents_processed[side]
            assert metrics.value(
                "repro_tuples_extracted_total", side=side
            ) == report.tuples_extracted[side]
        work = executor.work_counters()
        for name in (
            "documents_retrieved", "documents_processed", "tuples_extracted"
        ):
            assert work[name] == sum(getattr(report, name).values())
        assert work["accesses"] >= work["documents_retrieved"] > 0

    @pytest.mark.parametrize("algorithm", ["oijn", "zgjn"])
    def test_query_probes_are_counted_not_spanned(self, hq_ex_task, algorithm):
        observability = ObservabilityContext()
        inputs = hq_ex_task.inputs()
        if algorithm == "oijn":
            outer = AQGRetriever(
                inputs.database1,
                hq_ex_task.learned_queries1,
                observability=observability,
            )
            executor = OuterInnerJoin(inputs, outer, observability=observability)
            probes = [outer.probe, executor.probe]
        else:
            executor = ZigZagJoin(
                inputs, hq_ex_task.seed_queries, observability=observability
            )
            probes = [executor.probe(1), executor.probe(2)]
        for documents in (15, 30):
            executor.run(
                budgets=Budgets(
                    max_documents1=documents, max_documents2=documents
                )
            )
        assert not [
            r for r in observability.tracer.records if r["kind"] == "query.issue"
        ]
        metrics = observability.metrics
        for database in {probe.database.name for probe in probes}:
            mine = [p for p in probes if p.database.name == database]
            issued = metrics.value("repro_queries_issued_total", database=database)
            assert issued == sum(p.queries_issued for p in mine) > 0
            for result, tally in (
                ("fresh", lambda p: p.documents_retrieved),
                ("duplicate", lambda p: p.duplicates),
            ):
                assert metrics.value(
                    "repro_probe_documents_total",
                    database=database,
                    result=result,
                ) == sum(tally(p) for p in mine)

    def test_multiway_executor_counts_instead_of_spanning(self):
        scenario = build_multiway_testbed().scenario("star3")
        environment = scenario.environment()
        observability = ObservabilityContext()
        sides = [
            MultiwaySide(
                environment.databases[alias],
                environment.extractor_at(alias, 0.4),
                FilteredScanRetriever(
                    environment.databases[alias],
                    environment.classifiers[alias],
                    observability=observability,
                ),
            )
            for alias in scenario.graph.names
        ]
        join = MultiwayIndependentJoin(
            sides, join_attribute="Company", observability=observability
        )
        first = join.run(QualityRequirement(tau_good=5, tau_bad=10**6))
        report = join.run(
            QualityRequirement(tau_good=40, tau_bad=10**6)
        ).report
        assert sum(report.documents_processed.values()) > sum(
            first.report.documents_processed.values()
        )
        # no span per round, document or database access
        assert observability.tracer.records == []
        # counted once per side per run, summed over the resumed runs
        metrics = observability.metrics
        for side in (1, 2, 3):
            assert metrics.value(
                "repro_documents_processed_total",
                side=side,
                algorithm="multiway",
            ) == report.documents_processed[side]
            assert metrics.value(
                "repro_tuples_extracted_total", side=side
            ) == report.tuples_extracted[side]
            # FS fetches every retrieved document once, rejects the rest
            counters = join.sides[side - 1].retriever.counters
            assert counters.accesses == report.documents_retrieved[side]
            assert counters.rejected == (
                report.documents_retrieved[side]
                - report.documents_processed[side]
            )
        work = join.work_counters()
        for name in (
            "documents_retrieved", "documents_processed", "tuples_extracted"
        ):
            assert work[name] == sum(getattr(report, name).values())
        assert work["accesses"] == work["documents_retrieved"]
        assert work["documents_rejected"] == (
            work["documents_retrieved"] - work["documents_processed"]
        )

    def test_multiway_aqg_side_counts_its_searches_and_fetches(self):
        scenario = build_multiway_testbed().scenario("star3")
        environment = scenario.environment()
        observability = ObservabilityContext()
        aqg_alias = scenario.graph.names[0]
        queries = learn_queries(
            scenario.testbed.training,
            scenario.relation_of(aqg_alias),
            max_queries=8,
        )
        sides = [
            MultiwaySide(
                environment.databases[alias],
                environment.extractor_at(alias, 0.4),
                AQGRetriever(
                    environment.databases[alias],
                    queries,
                    observability=observability,
                )
                if alias == aqg_alias
                else ScanRetriever(
                    environment.databases[alias],
                    observability=observability,
                ),
            )
            for alias in scenario.graph.names
        ]
        join = MultiwayIndependentJoin(
            sides, join_attribute="Company", observability=observability
        )
        report = join.run(QualityRequirement(tau_good=40, tau_bad=10**6)).report
        aqg = sides[0].retriever.counters
        assert report.queries_issued[1] > 0
        assert report.documents_retrieved[1] > 0
        # one search per issued query plus one fetch per fresh document
        assert aqg.accesses == (
            report.queries_issued[1] + report.documents_retrieved[1]
        )
        # counted once per run from the probe, not spanned per query
        assert observability.tracer.records == []
        database = sides[0].database.name
        metrics = observability.metrics
        assert metrics.value(
            "repro_queries_issued_total", database=database
        ) == report.queries_issued[1]
        assert metrics.value(
            "repro_probe_documents_total", database=database, result="fresh"
        ) == report.documents_retrieved[1]
        work = join.work_counters()
        assert work["accesses"] == sum(
            side.retriever.counters.accesses for side in sides
        )
        assert work["accesses"] >= work["documents_retrieved"] > 0

    def test_optimizer_emits_plan_evaluations(self, hq_ex_task):
        observability = ObservabilityContext()
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        optimizer = JoinOptimizer(
            hq_ex_task.catalog(),
            costs=hq_ex_task.costs,
            observability=observability,
        )
        optimizer.optimize(
            plans, QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        kinds = [r["kind"] for r in observability.tracer.records]
        assert kinds.count(SpanKind.OPTIMIZE) == 1
        flat = totals(observability.metrics)
        evaluated = sum(
            value
            for name, value in flat.items()
            if name.startswith("repro_plan_evaluations_total")
        )
        assert evaluated == len(plans)
        # catalog cache telemetry was scraped on the way out
        assert any(name.startswith("repro_cache_requests") for name in flat)

    def test_pruned_optimizer_publishes_pruning_counters(self, hq_ex_task):
        observability = ObservabilityContext()
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        optimizer = JoinOptimizer(
            hq_ex_task.catalog(),
            costs=hq_ex_task.costs,
            observability=observability,
        )
        optimizer.optimize(
            plans, QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        flat = totals(observability.metrics)
        pruned = sum(
            value
            for name, value in flat.items()
            if name.startswith("repro_plans_pruned_total")
        )
        assert pruned > 0
        # every plan is still accounted for, pruned or fully evaluated
        evaluated = sum(
            value
            for name, value in flat.items()
            if name.startswith("repro_plan_evaluations_total")
        )
        assert evaluated == len(plans)

    def test_adaptive_zgjn_drift_snapshot_per_refit(self, hq_ex_task):
        from repro.core.plan import JoinKind

        observability = ObservabilityContext()
        environment = hq_ex_task.environment()
        environment.observability = observability
        plans = [
            plan
            for plan in enumerate_plans(
                hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
            )
            if plan.join is JoinKind.ZGJN
        ]
        adaptive = AdaptiveJoinExecutor(
            environment=environment,
            characterization1=hq_ex_task.characterization1,
            characterization2=hq_ex_task.characterization2,
            plans=plans,
            pilot_documents=100,
            classifier_profile1=hq_ex_task.offline_classifier_profile1,
            classifier_profile2=hq_ex_task.offline_classifier_profile2,
            query_stats1=hq_ex_task.offline_query_stats1,
            query_stats2=hq_ex_task.offline_query_stats2,
        )
        result = adaptive.run(QualityRequirement(tau_good=40, tau_bad=10**6))
        assert result.chosen is not None
        assert result.chosen.plan.join is JoinKind.ZGJN
        snapshots = observability.drift.snapshots
        # one refit cycle per pilot round, each with >= 1 drift snapshot
        assert len(snapshots) >= result.rounds >= 1
        assert snapshots[0].plan.startswith("ZGJN")
        kinds = [r["kind"] for r in observability.tracer.records]
        # one refit counted per MLE fit of both sides (two spans)
        assert kinds.count(SpanKind.MLE_REFIT) % 2 == 0
        assert observability.metrics.value(
            "repro_mle_refits_total"
        ) == kinds.count(SpanKind.MLE_REFIT) // 2
        assert SpanKind.MLE_REFIT in kinds
        assert SpanKind.PILOT in kinds
        assert SpanKind.EXECUTE in kinds
        assert kinds.count(SpanKind.DRIFT_SNAPSHOT) == len(snapshots)
        # The driver's optimizer prunes, into the run's metrics.
        counters = totals(observability.metrics)
        assert any(
            name.startswith("repro_plans_pruned_total") for name in counters
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_optimize_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = main(
            [
                "optimize",
                "--tau-good",
                "20",
                "--tau-bad",
                "1000",
                "--scale",
                "0.3",
                "--trace",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Chosen:" in captured.out
        assert "Trace written" in captured.err
        assert validate_file(str(trace)) == []
        assert (tmp_path / "run.chrome.json").exists()
        text = metrics.read_text()
        assert "# TYPE repro_plan_evaluations_total counter" in text

    def test_flags_absent_means_no_observability(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "optimize",
                "--tau-good",
                "20",
                "--tau-bad",
                "1000",
                "--scale",
                "0.3",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Trace written" not in captured.err

    def test_log_level_silences_diagnostics(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "optimize",
                "--tau-good",
                "20",
                "--tau-bad",
                "1000",
                "--scale",
                "0.3",
                "--trace",
                str(tmp_path / "t.jsonl"),
                "--log-level",
                "error",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # the trace is still written, but the info-level notice is filtered
        assert (tmp_path / "t.jsonl").exists()
        assert "Trace written" not in captured.err
        assert "Chosen:" in captured.out
