"""Chaos/load harness tests.

The harness itself must be trustworthy before its numbers are: every
request ends in exactly one outcome bucket, the emitted payload is
schema-stable JSON, the chaos clock is deterministic and monotone, and a
seeded chaos run against a real in-process service finishes with a
recovered store and zero invariant violations.
"""

import json

import pytest

from repro.service.loadtest import (
    DEFAULT_CHAOS_FAULTS,
    OUTCOMES,
    ChaosClock,
    LoadTestConfig,
    _bench_payload,
    _request_payload,
    _Sample,
    run_local_loadtest,
)


class TestLoadTestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LoadTestConfig(requests=0)
        with pytest.raises(ValueError):
            LoadTestConfig(concurrency=0)
        with pytest.raises(ValueError):
            LoadTestConfig(plan_fraction=1.5)

    def test_to_dict_is_json_ready(self):
        config = LoadTestConfig(requests=3, chaos=True, deadline_ms=250.0)
        round_tripped = json.loads(json.dumps(config.to_dict()))
        assert round_tripped["requests"] == 3
        assert round_tripped["chaos"] is True
        assert round_tripped["deadline_ms"] == 250.0


class TestChaosClock:
    def test_never_goes_backwards(self):
        base = iter(float(i) for i in range(10_000)).__next__
        clock = ChaosClock(base=base, jump_rate=0.5, max_jump=10.0, seed=7)
        readings = [clock() for _ in range(200)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))
        assert clock.jumps > 0, "jump_rate=0.5 over 200 draws must jump"

    def test_same_seed_replays_the_same_jumps(self):
        def frozen() -> float:
            return 1000.0

        first = ChaosClock(base=frozen, jump_rate=0.3, seed=11)
        second = ChaosClock(base=frozen, jump_rate=0.3, seed=11)
        assert [first() for _ in range(50)] == [second() for _ in range(50)]

    def test_different_seeds_diverge(self):
        def frozen() -> float:
            return 1000.0

        first = ChaosClock(base=frozen, jump_rate=0.3, seed=1)
        second = ChaosClock(base=frozen, jump_rate=0.3, seed=2)
        assert [first() for _ in range(50)] != [second() for _ in range(50)]


class TestRequestMix:
    def test_payloads_are_deterministic_and_well_formed(self):
        config = LoadTestConfig(requests=40, deadline_ms=500.0, seed=3)
        payloads = [_request_payload(config, i) for i in range(40)]
        assert payloads == [_request_payload(config, i) for i in range(40)]
        modes = {p["mode"] for p in payloads}
        priorities = {p["priority"] for p in payloads}
        assert modes <= {"plan", "execute"} and len(modes) == 2
        assert priorities <= {"high", "normal", "low"}
        assert all(p["deadline_ms"] == 500.0 for p in payloads)

    def test_plan_fraction_extremes(self):
        all_plan = LoadTestConfig(requests=10, plan_fraction=1.0)
        assert all(
            _request_payload(all_plan, i)["mode"] == "plan" for i in range(10)
        )
        all_execute = LoadTestConfig(requests=10, plan_fraction=0.0)
        assert all(
            _request_payload(all_execute, i)["mode"] == "execute"
            for i in range(10)
        )


class TestBenchPayload:
    def test_tallies_and_rates(self):
        config = LoadTestConfig(requests=4)
        samples = [
            _Sample("ok", 0.1),
            _Sample("shed", 0.01),
            _Sample("degraded", 0.02),
            _Sample("ok", 0.3),
        ]
        payload = _bench_payload("local", config, samples, 2.0, None)
        assert payload["schema"] == "bench-service/1"
        assert sum(payload["outcomes"].values()) == len(samples)
        assert set(payload["outcomes"]) == set(OUTCOMES)
        assert payload["outcomes"]["ok"] == 2
        assert payload["shed_rate"] == pytest.approx(0.25)
        assert payload["degrade_rate"] == pytest.approx(0.25)
        assert payload["throughput_rps"] == pytest.approx(2.0)
        # nearest-rank: p50 of 4 samples is the 2nd smallest
        assert payload["latency_seconds"]["p50"] == pytest.approx(0.02)
        assert payload["latency_seconds"]["max"] == pytest.approx(0.3)
        json.dumps(payload)  # JSON-serialisable end to end


class TestLocalChaosRun:
    def test_seeded_chaos_run_is_clean(self, hq_ex_task, tmp_path):
        """The acceptance bar from the issue: a seeded chaos run finishes
        with every request accounted for, the store recovered from a torn
        journal, and zero invariant violations."""
        config = LoadTestConfig(
            requests=8,
            concurrency=4,
            workers=2,
            queue_limit=8,
            pilot_documents=60,
            chaos=True,
            chaos_seed=5,
            seed=5,
            timeout=120.0,
        )
        payload = run_local_loadtest(
            hq_ex_task, str(tmp_path / "store"), config
        )
        assert payload["mode"] == "local"
        assert payload["requests"] == config.requests
        assert sum(payload["outcomes"].values()) == config.requests
        # Chaos must not invent failure modes the ladder doesn't have:
        # nothing hangs (timeout) and nothing escapes classification.
        assert payload["outcomes"]["timeout"] == 0
        assert payload["outcomes"]["error"] == 0
        assert payload["store"]["generation"] > 0
        recovery = payload["recovery"]
        assert recovery is not None
        assert recovery["violations"] == []
        assert recovery["recovered_generation"] >= 0
        facts = recovery["recovery_facts"]
        assert facts["torn_records_dropped"] + facts["shards"] >= 0
        if recovery["journal_tear"] is not None:
            # A mid-record tear was injected; recovery must have dropped
            # the torn tail rather than serving it.
            assert facts["torn_records_dropped"] >= 0
        # No HTTP option given: no front end is booted.
        assert "idle_connections" not in payload
        assert "coalescing" not in payload
        json.dumps(payload)

    def test_chaos_defaults_to_the_standard_fault_profile(self):
        assert "transient" in DEFAULT_CHAOS_FAULTS
        config = LoadTestConfig(chaos=True)
        assert config.fault_profile == ""


class TestSLOReport:
    def _samples(self):
        return [
            _Sample("ok", 0.1, priority="high", index=0, finished=0.5),
            _Sample("ok", 3.0, priority="normal", index=1, finished=0.8),
            _Sample("shed", 0.01, priority="low", index=2, finished=1.8),
            _Sample("ok", 0.2, priority="normal", index=3, finished=1.9),
        ]

    def test_slo_section_scores_per_priority(self):
        config = LoadTestConfig(requests=4, slo="p50=2s,availability=75")
        payload = _bench_payload("local", config, self._samples(), 2.0, None)
        slo = payload["slo"]
        assert slo["spec"] == "p50=2s,availability=75"
        latency, availability = slo["overall"]
        # 2 bad for latency (the 3s request and the shed), 1 for
        # availability (the shed)
        assert latency["bad"] == 2
        assert availability["bad"] == 1
        assert availability["worst_exemplar"]["id"] == 2
        assert set(slo["priorities"]) == {"high", "normal", "low"}
        normal = slo["priorities"]["normal"]
        assert normal["requests"] == 2
        assert {"run", "last_half"} == set(normal["windows"])
        # the slow normal request finished in the first half; last_half
        # only sees the fast one
        run_latency = normal["windows"]["run"][0]
        half_latency = normal["windows"]["last_half"][0]
        assert run_latency["bad"] == 1
        assert half_latency["bad"] == 0
        json.dumps(payload)

    def test_healthy_flag_follows_overall_burn(self):
        config = LoadTestConfig(requests=4, slo="availability=50")
        samples = [
            _Sample("ok", 0.1, priority="normal", index=i, finished=0.1)
            for i in range(4)
        ]
        payload = _bench_payload("local", config, samples, 1.0, None)
        assert payload["slo"]["healthy"] is True
        samples[0].outcome = "error"
        samples[1].outcome = "error"
        samples[2].outcome = "error"
        payload = _bench_payload("local", config, samples, 1.0, None)
        assert payload["slo"]["healthy"] is False

    def test_empty_spec_disables_the_section(self):
        config = LoadTestConfig(requests=4, slo="")
        payload = _bench_payload("local", config, self._samples(), 2.0, None)
        assert "slo" not in payload


class TestLocalFrontEndSections:
    def test_local_run_measures_idle_connections_and_coalescing(
        self, hq_ex_task, tmp_path
    ):
        """Local mode boots an HTTP front end over its own service: every
        parked keep-alive connection verifies live through the HTTP mix
        at no thread cost, and duplicate bursts resolve from a single
        computation with answers byte-identical to a lone request."""
        config = LoadTestConfig(
            requests=10,
            concurrency=4,
            workers=2,
            queue_limit=8,
            pilot_documents=60,
            plan_fraction=1.0,
            seed=3,
            timeout=120.0,
            idle_connections=60,
            duplicate_burst=5,
            burst_rounds=2,
        )
        payload = run_local_loadtest(
            hq_ex_task, str(tmp_path / "store"), config
        )
        assert sum(payload["outcomes"].values()) == config.requests
        assert payload["config"]["idle_connections"] == 60

        idle = payload["idle_connections"]
        assert idle["target"] == idle["opened"] == 60
        assert idle["live_at_open"] == 60, (
            "every parked connection must verify live"
        )
        assert idle["live_after_mix"] == 60
        # Parked connections cost a socket each, not a thread.
        assert idle["thread_cost"] <= 2

        coalescing = payload["coalescing"]
        assert coalescing["requests"] == 10
        assert coalescing["computations"] == config.burst_rounds, (
            "one optimizer computation per burst round"
        )
        assert coalescing["hit_rate"] >= 0.8, coalescing
        assert coalescing["byte_identical"] is True, coalescing
        for entry in coalescing["rounds_detail"]:
            assert entry["ok"] == config.duplicate_burst
            assert entry["distinct_answers"] == 1
        json.dumps(payload)
