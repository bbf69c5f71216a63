"""Live-introspection tests: wide events, the flight recorder, SLO burn
rates, the sampling profiler, phase timings, and the /v1/debug API.

The operational contracts:

* retention is tail-based — errors/504s/sheds always survive, slow
  requests survive once a latency baseline exists, and the boring
  majority is down-sampled deterministically;
* burn rates follow the SRE-workbook definition (bad fraction over
  error budget) and evaluate per window with a worst exemplar;
* everything here is read-only telemetry: responses on the disabled
  path stay byte-identical with the recorder running.
"""

import json
import pathlib
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from validate_events import validate_event, validate_file  # noqa: E402

from repro.observability.context import (
    NULL_OBSERVABILITY,
    ObservabilityContext,
)
from repro.observability.events import (
    WIDE_EVENT_SCHEMA,
    FlightRecorder,
    TailSampler,
    WideEvent,
    span_tree,
)
from repro.observability.metrics import MetricsRegistry, percentile
from repro.observability.profiler import SamplingProfiler
from repro.observability.slo import (
    SLOConfig,
    SLOObjective,
    SLOTracker,
    compliance,
)
from repro.observability.tracer import SpanKind, Tracer
from repro.robustness.deadline import Deadline


def _event(request_id=1, outcome="ok", total_seconds=0.01, **kwargs):
    defaults = dict(
        id=request_id,
        ts=1000.0,
        task="test-task",
        signature="sig",
        mode="execute",
        priority="normal",
        tau_good=40,
        tau_bad=1000,
        outcome=outcome,
        total_seconds=total_seconds,
    )
    defaults.update(kwargs)
    return WideEvent(**defaults)


class TestTailSampler:
    def test_failures_always_kept(self):
        sampler = TailSampler(sample_every=1000)
        for outcome in ("error", "deadline", "shed"):
            assert sampler.decide(_event(2, outcome=outcome)) == outcome

    def test_boring_downsampled_deterministically(self):
        sampler = TailSampler(sample_every=10, min_samples=10**9)
        kept = [
            i for i in range(1, 101) if sampler.decide(_event(i)) is not None
        ]
        assert kept == [1, 11, 21, 31, 41, 51, 61, 71, 81, 91]
        # the same ids decide the same way on a rerun
        again = TailSampler(sample_every=10, min_samples=10**9)
        assert kept == [
            i for i in range(1, 101) if again.decide(_event(i)) is not None
        ]

    def test_sample_every_one_keeps_everything(self):
        sampler = TailSampler(sample_every=1)
        assert all(
            sampler.decide(_event(i)) is not None for i in range(1, 20)
        )

    def test_slow_kept_only_after_baseline(self):
        sampler = TailSampler(sample_every=1000, min_samples=5)
        # cold: a huge latency is not "slow" yet (no baseline), and id 2
        # is not on the 1-in-1000 grid
        assert sampler.decide(_event(2, total_seconds=9.9)) is None
        for i in range(3, 9):
            sampler.decide(_event(i, total_seconds=0.01))
        decision = sampler.decide(_event(100, total_seconds=9.9))
        assert decision == "slow"
        assert sampler.decide(_event(102, total_seconds=0.001)) is None

    def test_window_excludes_current_request(self):
        # tail-based: the p99 baseline must not contain the request under
        # decision, or the first slow request could never exceed it
        sampler = TailSampler(sample_every=1000, min_samples=3)
        for i in range(3, 10):
            sampler.decide(_event(i, total_seconds=0.01))
        assert sampler.decide(_event(50, total_seconds=0.01)) == "slow"

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            TailSampler(sample_every=0)
        with pytest.raises(ValueError):
            TailSampler(slow_fraction=0.0)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4, sampler=TailSampler(1))
        for i in range(1, 11):
            recorder.record(_event(i))
        recent = recorder.recent(limit=100)
        assert [e["id"] for e in recent] == [10, 9, 8, 7]
        stats = recorder.stats()
        assert stats["events_total"] == 10
        assert stats["ring_size"] == 4

    def test_filters(self):
        recorder = FlightRecorder(capacity=16, sampler=TailSampler(1))
        recorder.record(_event(1, outcome="ok", phases={"pilot": 0.1}))
        recorder.record(_event(2, outcome="deadline", phase="execute"))
        recorder.record(_event(3, outcome="ok", mode="plan"))
        recorder.record(_event(4, outcome="ok", priority="high"))
        assert [
            e["id"] for e in recorder.recent(outcome="deadline")
        ] == [2]
        assert [e["id"] for e in recorder.recent(mode="plan")] == [3]
        assert [e["id"] for e in recorder.recent(priority="high")] == [4]
        # phase filter matches both measured and interrupted phases
        assert [e["id"] for e in recorder.recent(phase="pilot")] == [1]
        assert [e["id"] for e in recorder.recent(phase="execute")] == [2]
        assert [
            e["id"] for e in recorder.recent(since_id=2)
        ] == [4, 3]
        assert [e["id"] for e in recorder.recent(limit=2)] == [4, 3]

    def test_spans_only_for_kept_events(self):
        recorder = FlightRecorder(capacity=16, sampler=TailSampler(10))
        spans = [
            {"id": 1, "parent": None, "name": "root"},
            {"id": 2, "parent": 1, "name": "child"},
        ]
        recorder.record(_event(1), spans=spans)  # id 1: sampled -> kept
        recorder.record(_event(2), spans=spans)  # id 2: dropped
        kept = recorder.get(1)
        assert kept["keep"] == "sampled"
        assert len(kept["spans"]) == 1
        assert kept["spans"][0]["children"][0]["name"] == "child"
        dropped = recorder.get(2)
        assert dropped is not None and dropped["spans"] == []
        assert recorder.get(999) is None

    def test_spill_is_valid_jsonl(self, tmp_path):
        spill = tmp_path / "flight" / "spill.jsonl"
        recorder = FlightRecorder(
            capacity=4, sampler=TailSampler(10), spill_path=str(spill)
        )
        for i in range(1, 25):
            recorder.record(
                _event(i, outcome="error" if i % 7 == 0 else "ok")
            )
        lines = [
            json.loads(line)
            for line in spill.read_text().splitlines()
            if line.strip()
        ]
        # spilled = kept only, and it outlives the ring (capacity 4)
        assert len(lines) == recorder.stats()["kept_total"]
        assert len(lines) > 4
        assert all(e["keep"] is not None for e in lines)
        assert {e["id"] for e in lines} >= {7, 14, 21}  # errors survive
        assert validate_file(str(spill)) == []

    def test_spill_lines_carry_spans_and_the_validator_links_them(
        self, tmp_path
    ):
        spill = tmp_path / "spill.jsonl"
        recorder = FlightRecorder(
            capacity=4, sampler=TailSampler(1), spill_path=str(spill)
        )
        tracer = Tracer()
        with tracer.span(SpanKind.SERVICE_REQUEST, "join"):
            tracer.event(SpanKind.DRIFT_SNAPSHOT, "refit-1")
        recorder.record(_event(1), spans=tracer.records)
        recorder.record(_event(2))
        lines = [json.loads(line) for line in spill.read_text().splitlines()]
        assert [line["spans"] for line in lines] == [tracer.records, []]
        assert validate_file(str(spill)) == []
        # Span links are checked per event: a parent must be among the
        # event's own spans.
        orphan = dict(lines[1], spans=[dict(tracer.records[0], parent=99)])
        duplicate = dict(lines[0], id=3, spans=tracer.records * 2)
        spanless = {k: v for k, v in lines[0].items() if k != "spans"}
        spanless["id"] = 4
        spill.write_text(
            "".join(
                json.dumps(e) + "\n"
                for e in (orphan, duplicate, spanless)
            )
        )
        errors = validate_file(str(spill))
        assert any("parent 99 references no record" in e for e in errors)
        assert any("duplicate id" in e for e in errors)
        assert any("has no spans" in e for e in errors)

    def test_event_dict_matches_committed_schema(self):
        payload = _event(3).to_dict()
        assert payload["schema"] == WIDE_EVENT_SCHEMA
        payload["keep"] = "sampled"
        assert validate_event(payload) == []

    def test_concurrent_recording(self):
        recorder = FlightRecorder(capacity=256, sampler=TailSampler(1))

        def hammer(base):
            for i in range(50):
                recorder.record(_event(base + i))

        threads = [
            threading.Thread(target=hammer, args=(1 + 50 * t,))
            for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert recorder.stats()["events_total"] == 200
        assert len(recorder.recent(limit=500)) == 200


class TestSpanTree:
    def test_nests_by_parent(self):
        records = [
            {"id": 1, "parent": None, "name": "a"},
            {"id": 2, "parent": 1, "name": "b"},
            {"id": 3, "parent": 2, "name": "c"},
            {"id": 4, "parent": 1, "name": "d"},
        ]
        roots = span_tree(records)
        assert len(roots) == 1
        assert [c["name"] for c in roots[0]["children"]] == ["b", "d"]
        assert roots[0]["children"][0]["children"][0]["name"] == "c"

    def test_orphans_become_roots(self):
        roots = span_tree([{"id": 5, "parent": 99, "name": "orphan"}])
        assert [r["name"] for r in roots] == ["orphan"]


class TestSLOConfig:
    def test_parses_default_spec(self):
        config = SLOConfig.parse("p99=2s,availability=99.5")
        assert [o.describe() for o in config.objectives] == [
            "p99<=2s",
            "availability>=99.5%",
        ]
        assert config.objectives[0].threshold == 2.0
        assert config.objectives[1].budget == pytest.approx(0.005)

    def test_duration_suffixes(self):
        assert SLOConfig.parse("p50=250ms").objectives[0].threshold == 0.25
        assert SLOConfig.parse("p50=2m").objectives[0].threshold == 120.0
        assert SLOConfig.parse("p50=3").objectives[0].threshold == 3.0

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "p99",
            "p0=1s",
            "p100=1s",
            "p99=-2s",
            "availability=0",
            "availability=100",
            "latency=2s",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ValueError):
            SLOConfig.parse(spec)


class TestBurnRates:
    def test_burn_rate_definition(self):
        objective = SLOObjective("latency", 0.9, threshold=1.0)
        # 2 bad out of 10 with a 10% budget -> burn rate 2.0
        observations = [(3.0, True, 0), (2.0, True, 1)] + [
            (0.1, True, i) for i in range(2, 10)
        ]
        entry = compliance(observations, objective)
        assert entry["bad"] == 2
        assert entry["burn_rate"] == pytest.approx(2.0)
        assert entry["worst_exemplar"]["id"] == 0

    def test_unavailable_counts_against_latency(self):
        objective = SLOObjective("latency", 0.5, threshold=10.0)
        entry = compliance([(0.001, False, "x")], objective)
        assert entry["bad"] == 1
        assert entry["worst_exemplar"]["available"] is False

    def test_unavailable_beats_slow_as_worst(self):
        objective = SLOObjective("latency", 0.5, threshold=0.1)
        entry = compliance(
            [(9.0, True, "slow"), (0.2, False, "failed")], objective
        )
        assert entry["worst_exemplar"]["id"] == "failed"

    def test_empty_window_burns_nothing(self):
        objective = SLOObjective("availability", 0.995)
        entry = compliance([], objective)
        assert entry["burn_rate"] == 0.0
        assert entry["worst_exemplar"] is None

    def test_tracker_windows_age_out(self):
        now = [1000.0]
        tracker = SLOTracker(
            SLOConfig.parse("availability=90"),
            windows=(10.0, 100.0),
            clock=lambda: now[0],
        )
        tracker.observe(0.01, False, request_id=1)  # bad, at t=1000
        now[0] = 1050.0
        for i in range(2, 11):
            tracker.observe(0.01, True, request_id=i)
        snapshot = tracker.snapshot()
        short, long = snapshot["objectives"][0]["windows"]
        # 10s window: only the 9 good requests; 100s window sees the failure
        assert short["bad"] == 0 and short["burn_rate"] == 0.0
        assert long["bad"] == 1
        assert long["burn_rate"] == pytest.approx((1 / 10) / 0.1)
        assert long["worst_exemplar"]["id"] == 1
        assert snapshot["healthy"] is False
        worst = tracker.worst_burn_rates()
        assert worst["availability>=90%"] == pytest.approx(1.0)

    def test_healthy_when_within_budget(self):
        tracker = SLOTracker(
            SLOConfig.parse("p99=2s"), clock=lambda: 1000.0
        )
        for i in range(50):
            tracker.observe(0.01, True, request_id=i)
        assert tracker.snapshot()["healthy"] is True


class TestSamplingProfiler:
    def test_captures_a_live_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(100))

        thread = threading.Thread(target=spin, name="profiled-spinner")
        thread.start()
        try:
            result = SamplingProfiler(interval=0.002).sample_for(0.05)
        finally:
            stop.set()
            thread.join()
        assert result.samples >= 1
        spinner = [s for s in result.stacks if s.startswith("profiled-spinner")]
        assert spinner, result.stacks
        assert any("spin" in stack for stack in spinner)

    def test_render_format(self):
        from repro.observability.profiler import ProfileResult

        result = ProfileResult({"t;a.py:f": 3, "t;b.py:g": 5}, 8, 0.1)
        assert result.render() == "t;b.py:g 5\nt;a.py:f 3\n"
        assert result.to_dict()["samples"] == 8

    def test_always_takes_one_sample(self):
        result = SamplingProfiler(interval=0.001).sample_for(0.0)
        assert result.samples >= 1

    def test_excludes_calling_thread(self):
        result = SamplingProfiler(interval=0.001).sample_for(0.0)
        me = threading.current_thread().name
        assert not any(s.startswith(me + ";") for s in result.stacks)


class TestPhaseTimings:
    def test_accumulates_across_entries(self):
        context = ObservabilityContext()
        with context.phase("pilot"):
            pass
        first = context.phases["pilot"]
        with context.phase("pilot"):
            pass
        assert context.phases["pilot"] > first
        assert set(context.phases) == {"pilot"}

    def test_records_even_when_body_raises(self):
        context = ObservabilityContext()
        with pytest.raises(RuntimeError):
            with context.phase("execute"):
                raise RuntimeError("deadline")
        assert context.phases["execute"] >= 0.0

    def test_null_context_is_a_noop(self):
        with NULL_OBSERVABILITY.phase("pilot"):
            pass
        assert NULL_OBSERVABILITY.phases == {}


class TestDeadlineSpent:
    def test_spent_complements_remaining(self):
        now = [100.0]
        deadline = Deadline.after(2.0, clock=lambda: now[0])
        now[0] = 100.5
        assert deadline.spent() == pytest.approx(0.5)
        assert deadline.spent() + deadline.remaining() == pytest.approx(2.0)

    def test_spent_exceeds_budget_after_expiry(self):
        now = [100.0]
        deadline = Deadline.after(1.0, clock=lambda: now[0])
        now[0] = 103.0
        assert deadline.expired
        assert deadline.spent() == pytest.approx(3.0)

    def test_unbudgeted_deadline_spends_nothing(self):
        assert Deadline(expires_at=float("inf")).spent() is None


class TestMetricsConformance:
    """Satellite: histogram fork-merge and percentile edge cases."""

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""

    def test_help_and_type_lines(self):
        registry = MetricsRegistry()
        registry.describe("repro_requests_total", "Requests handled.")
        registry.counter("repro_requests_total", status="ok").inc()
        registry.counter("repro_undocumented_total").inc()
        text = registry.render()
        assert "# HELP repro_requests_total Requests handled.\n" in text
        assert "# TYPE repro_requests_total counter\n" in text
        # undocumented families still get a HELP line (derived)
        assert "# HELP repro_undocumented_total repro undocumented total" in text
        assert text.index("# HELP repro_requests_total") < text.index(
            "repro_requests_total{"
        )

    def test_histogram_renders_cumulative_inf_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_seconds", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        assert 'repro_seconds_bucket{le="+Inf"} 3' in text
        assert 'repro_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_seconds_bucket{le="1.0"} 2' in text
        assert "repro_seconds_count 3" in text

    def test_single_observation_percentiles(self):
        assert percentile([42.0], 0.0) == 42.0
        assert percentile([42.0], 0.5) == 42.0
        assert percentile([42.0], 1.0) == 42.0

    def test_percentile_empty_and_invalid(self):
        assert percentile([], 0.99) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_merge_disjoint_label_sets(self):
        parent = MetricsRegistry()
        parent.counter("repro_total", side="1").inc(2)
        child = MetricsRegistry()
        child.counter("repro_total", side="2").inc(3)
        parent.merge(child.export_state())
        assert parent.value("repro_total", side="1") == 2
        assert parent.value("repro_total", side="2") == 3

    def test_exemplars_survive_fork_merge(self):
        child = MetricsRegistry()
        child.histogram("repro_latency", buckets=(1.0,)).observe(
            0.7, exemplar="child-9"
        )
        parent = MetricsRegistry()
        histogram = parent.histogram("repro_latency", buckets=(1.0,))
        histogram.observe(0.5, exemplar="parent-1")
        parent.merge(child.export_state())
        # child exemplar wins (more recent), counts add
        assert histogram.exemplars[0] == ("child-9", 0.7)
        assert histogram.count == 2

    def test_merge_without_child_exemplar_keeps_parent(self):
        parent = MetricsRegistry()
        histogram = parent.histogram("repro_latency", buckets=(1.0,))
        histogram.observe(0.5, exemplar="parent-1")
        child = MetricsRegistry()
        child.histogram("repro_latency", buckets=(1.0,)).observe(0.6)
        parent.merge(child.export_state())
        assert histogram.exemplars[0] == ("parent-1", 0.5)
        assert histogram.counts[0] == 2

    def test_drop_removes_family(self):
        registry = MetricsRegistry()
        registry.gauge("repro_build_info", version="1").set(1)
        registry.drop("repro_build_info")
        assert "repro_build_info" not in registry.render()
        # the family can re-register with fresh labels
        registry.gauge("repro_build_info", version="2").set(1)
        assert 'version="2"' in registry.render()
        assert 'version="1"' not in registry.render()
