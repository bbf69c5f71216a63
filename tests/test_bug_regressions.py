"""Pinned regressions for the latent bugs the validation harness exposed.

Each test fails on the pre-fix code.  The bugs were found by the
deterministic JSON-surface fuzzer and the runtime invariant layer
(`repro.validation`); see DESIGN.md §6.5 for the full inventory.
"""

import json

import pytest

from repro.estimation.mle import EstimatedParameters
from repro.robustness.breaker import CircuitBreaker
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointManager,
    restore_execution,
)
from repro.estimation import estimated_side_statistics
from repro.robustness.faults import SWALLOWED_EXCEPTIONS, FaultProfile
from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.retrieval import ScanRetriever
from repro.service import (
    JoinRequest,
    StatisticsStore,
    StoreError,
    WarmStartPolicy,
    corpus_fingerprint,
)
from repro.service.shards import SHARD_DIR, SNAPSHOT_SUFFIX, side_shard, task_shard
from repro.service.store import STORE_VERSION, _parameters_from_dict


def _parameters_dict(**overrides):
    data = {
        "relation": "HQ",
        "n_good_values": 120.0,
        "n_bad_values": 30.0,
        "beta_good": 1.1,
        "beta_bad": 0.9,
        "n_good_docs": 200.0,
        "n_bad_docs": 50.0,
        "k_max_good": 12,
        "k_max_bad": 6,
        "log_likelihood": -512.5,
        "good_occurrence_share": 0.7,
    }
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not ...}


def _store_file(sides=None, tasks=None):
    return {
        "sides": sides if sides is not None else {},
        "tasks": tasks if tasks is not None else {},
    }


def _side_record(**overrides):
    record = {
        "fingerprint": "ab" * 16,
        "database": "nyt96",
        "extractor": "HQ",
        "theta": 0.4,
        "documents_processed": 90,
        "distinct_values": 40,
        "created_at": 100.0,
        "parameters": _parameters_dict(),
    }
    record.update(overrides)
    return record


def _task_record(**overrides):
    record = {
        "fingerprints": ["ab" * 16, "cd" * 16],
        "pilot_snapshot": {"version": 1, "algorithm": "X"},
        "pilot_documents": 90,
        "rounds": 2,
        "created_at": 100.0,
    }
    record.update(overrides)
    return record


class TestRequestPayloadOverflow:
    """json.loads accepts ``Infinity``; int(inf) raised OverflowError
    straight through the HTTP surface before the fix."""

    def test_infinite_tau_is_a_value_error(self):
        payload = json.loads('{"tau_good": Infinity, "tau_bad": 5}')
        with pytest.raises(ValueError, match="integer tau_good"):
            JoinRequest.from_payload(payload)

    def test_nan_tau_is_a_value_error(self):
        payload = json.loads('{"tau_good": NaN, "tau_bad": 5}')
        with pytest.raises(ValueError):
            JoinRequest.from_payload(payload)


class TestCheckpointRestoreErrors:
    """Malformed snapshots raised raw KeyError/TypeError before the fix;
    the contract is CheckpointError, nothing else."""

    def _executor(self, mini_db1, mini_db2, mini_extractor1, mini_extractor2):
        inputs = JoinInputs(
            database1=mini_db1,
            database2=mini_db2,
            extractor1=mini_extractor1,
            extractor2=mini_extractor2,
        )
        return IndependentJoin(
            inputs, ScanRetriever(mini_db1), ScanRetriever(mini_db2)
        )

    @pytest.mark.parametrize(
        "snapshot",
        [
            "junk",
            [],
            {"version": -1},
            {"version": CHECKPOINT_VERSION},  # everything else missing
            {
                "version": CHECKPOINT_VERSION,
                "algorithm": "IndependentJoin",
                "processed": "junk",
            },
            {
                "version": CHECKPOINT_VERSION,
                "algorithm": "IndependentJoin",
                "processed": {"1": 0, "2": 0},
                "time": None,
            },
            {
                "version": CHECKPOINT_VERSION,
                "algorithm": "IndependentJoin",
                "processed": {"1": 0, "2": 0},
                "time": {
                    "retrieval": 0.0,
                    "extraction": 0.0,
                    "filtering": 0.0,
                    "querying": 0.0,
                },
                "left": [{"relation": "HQ"}],  # tuple fields missing
            },
        ],
    )
    def test_malformed_snapshot_raises_checkpoint_error(
        self, snapshot, mini_db1, mini_db2, mini_extractor1, mini_extractor2
    ):
        executor = self._executor(
            mini_db1, mini_db2, mini_extractor1, mini_extractor2
        )
        with pytest.raises(CheckpointError):
            restore_execution(executor, snapshot)


class TestStoredParameterValidation:
    """`_parameters_from_dict` trusted the stored dict wholesale before
    the fix — missing keys became TypeError, Infinity round-tripped into
    the models."""

    def test_valid_dict_converts(self):
        parameters = _parameters_from_dict(_parameters_dict())
        assert isinstance(parameters, EstimatedParameters)
        assert parameters.k_max_good == 12

    def test_unknown_field_rejected(self):
        with pytest.raises(StoreError, match="unknown"):
            _parameters_from_dict(_parameters_dict(surprise=1.0))

    def test_missing_field_rejected(self):
        with pytest.raises(StoreError, match="missing"):
            _parameters_from_dict(_parameters_dict(beta_good=...))

    def test_non_finite_value_rejected(self):
        with pytest.raises(StoreError, match="finite"):
            _parameters_from_dict(_parameters_dict(n_good_docs=float("inf")))

    def test_bool_value_rejected(self):
        with pytest.raises(StoreError):
            _parameters_from_dict(_parameters_dict(n_good_values=True))

    def test_non_numeric_value_rejected(self):
        with pytest.raises(StoreError):
            _parameters_from_dict(_parameters_dict(beta_bad="junk"))

    def test_non_string_relation_rejected(self):
        with pytest.raises(StoreError, match="relation"):
            _parameters_from_dict(_parameters_dict(relation=7))

    def test_fractional_k_max_rejected_integral_coerced(self):
        with pytest.raises(StoreError):
            _parameters_from_dict(_parameters_dict(k_max_good=2.5))
        parameters = _parameters_from_dict(_parameters_dict(k_max_good=2.0))
        assert parameters.k_max_good == 2


class TestStoreLoadCoherence:
    """Schema-valid but incoherent records (wrong key, malformed
    fingerprint, bool-as-int) survived load before the fix."""

    def _load(self, tmp_path, payload):
        """Write each record into the snapshot of the shard it belongs
        in, then open a store over the shards."""
        shards = {}
        for kind, shard_of in (("sides", side_shard), ("tasks", task_shard)):
            for name, record in payload[kind].items():
                shard = shards.setdefault(
                    shard_of(record),
                    {"version": STORE_VERSION, "generation": 1, "sides": {},
                     "tasks": {}, "curves": {}},
                )
                shard[kind][name] = record
        directory = tmp_path / SHARD_DIR
        directory.mkdir()
        for key, shard in shards.items():
            (directory / f"{key}{SNAPSHOT_SUFFIX}").write_text(json.dumps(shard))
        return StatisticsStore(str(tmp_path))

    def test_valid_records_survive(self, tmp_path):
        store = self._load(
            tmp_path,
            _store_file(
                sides={"nyt96/HQ@0.4": _side_record()},
                tasks={"sig": _task_record()},
            ),
        )
        assert set(store.sides) == {"nyt96/HQ@0.4"}
        assert set(store.tasks) == {"sig"}

    def test_bool_as_int_task_field_dropped(self, tmp_path):
        store = self._load(
            tmp_path, _store_file(tasks={"sig": _task_record(rounds=True)})
        )
        assert store.tasks == {}

    def test_key_field_mismatch_dropped(self, tmp_path):
        record = _side_record(theta=float("inf"))
        store = self._load(
            tmp_path, _store_file(sides={"nyt96/HQ@0.4": record})
        )
        assert store.sides == {}

    def test_wrong_database_key_dropped(self, tmp_path):
        record = _side_record(database="other")
        store = self._load(
            tmp_path, _store_file(sides={"nyt96/HQ@0.4": record})
        )
        assert store.sides == {}

    def test_malformed_fingerprint_dropped(self, tmp_path):
        store = self._load(
            tmp_path,
            _store_file(sides={"nyt96/HQ@0.4": _side_record(fingerprint="junk")}),
        )
        assert store.sides == {}

    def test_malformed_task_fingerprints_dropped(self, tmp_path):
        store = self._load(
            tmp_path,
            _store_file(tasks={"sig": _task_record(fingerprints=["ab" * 16, 3])}),
        )
        assert store.tasks == {}

    def test_non_finite_parameters_dropped(self, tmp_path):
        record = _side_record(
            parameters=_parameters_dict(log_likelihood=float("-inf"))
        )
        store = self._load(
            tmp_path, _store_file(sides={"nyt96/HQ@0.4": record})
        )
        assert store.sides == {}


class TestSideStatisticsFloors:
    """Stored document-class counts beyond the database size (or below
    zero) crashed SideStatistics construction before the fix."""

    def _parameters(self, n_good_docs, n_bad_docs):
        return EstimatedParameters(
            relation="HQ",
            n_good_values=50.0,
            n_bad_values=10.0,
            beta_good=1.0,
            beta_bad=1.0,
            n_good_docs=n_good_docs,
            n_bad_docs=n_bad_docs,
            k_max_good=5,
            k_max_bad=5,
            log_likelihood=-1.0,
        )

    def test_oversized_counts_clamped(self, mini_db1, mini_char1):
        side = estimated_side_statistics(
            self._parameters(1e9, 1e9), mini_db1, mini_char1, theta=0.4
        )
        assert side.n_good_docs == len(mini_db1)
        assert side.n_bad_docs == 0
        assert side.n_good_docs + side.n_bad_docs <= side.n_documents

    def test_negative_counts_floored(self, mini_db1, mini_char1):
        side = estimated_side_statistics(
            self._parameters(-5.0, -3.0), mini_db1, mini_char1, theta=0.4
        )
        assert side.n_good_docs == 0
        assert side.n_bad_docs == 0


class TestClockInjection:
    """Stores, warm-start gates, and checkpoint pruning take an injected
    clock; no inline time.time() decides retention."""

    def test_record_side_uses_injected_clock(self, tmp_path, mini_db1):
        import types

        store = StatisticsStore(str(tmp_path), clock=lambda: 12345.0)
        parameters = _parameters_from_dict(_parameters_dict())
        key = store.record_side(
            mini_db1,
            "HQ",
            0.4,
            types.SimpleNamespace(parameters=parameters),
            documents_processed=80,
            distinct_values=30,
        )
        assert store.sides[key]["created_at"] == 12345.0

    def test_warm_start_freshness_follows_clock(
        self, tmp_path, mini_db1, mini_db2
    ):
        now = [1000.0]
        store = StatisticsStore(str(tmp_path), clock=lambda: now[0])
        store.tasks["sig"] = _task_record(
            fingerprints=[
                corpus_fingerprint(mini_db1),
                corpus_fingerprint(mini_db2),
            ],
            pilot_documents=100,
            created_at=1000.0,
        )
        policy = WarmStartPolicy(min_documents=50, max_age=100.0)
        databases = (mini_db1, mini_db2)
        assert store.warm_start_for("sig", databases, policy) is not None
        now[0] = 1000.0 + 500.0
        assert store.warm_start_for("sig", databases, policy) is None

    def test_checkpoint_prune_follows_clock(self, tmp_path):
        import os

        now = [0.0]
        manager = CheckpointManager(
            str(tmp_path), max_age=10.0, clock=lambda: now[0]
        )
        victim = tmp_path / f"run{CheckpointManager.SUFFIX}"
        victim.write_text("{}")
        now[0] = os.stat(victim).st_mtime + 5.0
        assert manager.prune() == []
        now[0] = os.stat(victim).st_mtime + 100.0
        assert manager.prune() == [str(victim)]


class TestSwallowedEventObservability:
    """Silently-ignored events are counted, not dropped."""

    def test_breaker_counts_ignored_successes(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.is_open
        breaker.record_success()
        assert breaker.is_open  # a stray success must not close it
        assert breaker.ignored_successes == 1

    def test_open_breaker_success_emits_metric(self):
        from repro.observability import ObservabilityContext
        from repro.robustness.context import ResilienceContext

        context = ResilienceContext(failure_threshold=1)
        context.observability = ObservabilityContext()
        breaker = context.breaker("db:search")

        def succeed_after_trip():
            breaker.record_failure()  # trips OPEN mid-flight
            return 42

        assert context.call("db:search", succeed_after_trip) == 42
        assert breaker.ignored_successes == 1
        rendered = context.observability.metrics.render()
        assert "repro_swallowed_events_total" in rendered
        assert "breaker_open_success" in rendered

    def test_fault_profile_parse_counts_fallthrough(self):
        key = "fault_profile_not_bare_rate"
        before = SWALLOWED_EXCEPTIONS[key]
        profile = FaultProfile.parse("transient=0.1")
        assert profile.transient == 0.1
        assert SWALLOWED_EXCEPTIONS[key] == before + 1
        FaultProfile.parse("0.25")  # bare rate: no exception swallowed
        assert SWALLOWED_EXCEPTIONS[key] == before + 1

    def test_service_metrics_expose_swallowed_exceptions(
        self, hq_ex_task, tmp_path
    ):
        from repro.service import JoinService

        FaultProfile.parse("transient=0.05")  # ensure a non-zero counter
        service = JoinService(hq_ex_task, str(tmp_path), workers=1)
        try:
            rendered = service.render_metrics()
        finally:
            service.close()
        assert "repro_swallowed_exceptions" in rendered
        assert "fault_profile_not_bare_rate" in rendered
