"""Tests for the deterministic JSON-surface fuzzer.

The fuzzer is both a test subject (its mutation engine must be
deterministic and structurally complete) and a test: every surface it
drives must degrade without raising anything outside its contract.
"""

import json
import random

from repro.validation.fuzz import (
    _journal_line,
    _load_shards,
    _paths,
    _store_payload,
    mutate,
    run_fuzz,
)


class TestMutationEngine:
    PAYLOAD = {"a": 1, "b": {"c": [1, 2, {"d": "x"}]}, "e": [True]}

    def test_paths_cover_every_node(self):
        paths = _paths(self.PAYLOAD)
        assert ("a",) in paths
        assert ("b", "c", 2, "d") in paths
        assert ("e", 0) in paths

    def test_mutate_deterministic_per_seed(self):
        seq1 = [
            mutate(self.PAYLOAD, random.Random("t|1")) for _ in range(20)
        ]
        seq2 = [
            mutate(self.PAYLOAD, random.Random("t|1")) for _ in range(20)
        ]
        assert repr(seq1) == repr(seq2)

    def test_mutate_never_touches_original(self):
        original = {"a": 1, "b": {"c": [1, 2]}}
        rng = random.Random(0)
        for _ in range(50):
            mutate(original, rng)
        assert original == {"a": 1, "b": {"c": [1, 2]}}

    def test_mutate_produces_changed_payloads(self):
        rng = random.Random(7)
        changed = sum(
            mutate(self.PAYLOAD, rng) != self.PAYLOAD for _ in range(30)
        )
        # str(value) on a str is the only identity mutation; most differ.
        assert changed >= 20

    def test_empty_payload_degrades_to_junk(self):
        assert mutate({}, random.Random(0)) == "junk"


class TestRunFuzz:
    def test_all_surfaces_survive(self):
        summary = run_fuzz(seed=11, trials=30)
        assert summary["failures_total"] == 0, summary["targets"]
        assert summary["trials_total"] == sum(
            t["trials"] for t in summary["targets"]
        )
        assert {t["target"] for t in summary["targets"]} == {
            "store-payload",
            "store-raw-text",
            "join-request",
            "planner-graph",
            "planner-graph-defects",
            "checkpoint-snapshot",
        }
        mutated = {t["target"]: t for t in summary["targets"]}
        assert mutated["planner-graph"]["trials"] == 30
        # The defect corpus is fixed-size, independent of the trial knob.
        assert mutated["planner-graph-defects"]["trials"] >= 10

    def test_distinct_seed_distinct_corpus_still_survives(self):
        summary = run_fuzz(seed=97, trials=15)
        assert summary["failures_total"] == 0, summary["targets"]


class TestStoreTargets:
    """The store targets corrupt files the store really reads: their
    valid payload loads every record kind through either file."""

    def test_valid_snapshot_and_journal_load_every_record(self):
        payload = _store_payload()
        for store in (
            _load_shards(json.dumps(payload), None),
            _load_shards(None, _journal_line(payload)),
        ):
            assert store.sides == payload["sides"]
            assert store.tasks == payload["tasks"]
            assert store.curves == payload["curves"]
            assert store.generation == payload["generation"]
