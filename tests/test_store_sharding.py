"""Crash-safety tests for the sharded, journaled statistics store.

The central property, checked exhaustively: for a journal truncated at
*every* byte offset (simulating a crash at any instant during an
append), recovery yields exactly the state of the last fully-committed
journal record — no partial records, no schema violations, and a
generation counter that never moves backwards.
"""

import dataclasses
import json

import pytest

from repro.estimation.mle import EstimatedParameters
from repro.service import StatisticsStore
from repro.service.shards import (
    JOURNAL_SUFFIX,
    decode_journal_record,
    encode_journal_record,
    side_shard,
    task_shard,
    tear_journal,
)
from repro.service.store import STORE_VERSION
from repro.validation.invariants import (
    InvariantChecker,
    active_checker,
    install_checker,
)

#: well-formed 32-hex-char fingerprints with distinct shard prefixes
FP_A = "ab" + "0" * 30
FP_B = "cd" + "1" * 30


def _parameters() -> dict:
    return dataclasses.asdict(
        EstimatedParameters(
            relation="person",
            n_good_values=10.0,
            n_bad_values=5.0,
            beta_good=1.1,
            beta_bad=1.3,
            n_good_docs=30.0,
            n_bad_docs=20.0,
            k_max_good=3,
            k_max_bad=2,
            log_likelihood=-12.5,
        )
    )


def _side_record(
    fingerprint: str,
    database: str = "db1",
    extractor: str = "ex",
    theta: float = 0.4,
    documents: int = 60,
) -> dict:
    return {
        "fingerprint": fingerprint,
        "database": database,
        "extractor": extractor,
        "theta": theta,
        "documents_processed": documents,
        "distinct_values": 15,
        "created_at": 100.0,
        "parameters": _parameters(),
    }


def _task_record(*fingerprints: str) -> dict:
    return {
        "fingerprints": list(fingerprints),
        "pilot_snapshot": {"round": 1},
        "pilot_documents": 60,
        "rounds": 2,
        "created_at": 100.0,
    }


def _side_key(record: dict) -> str:
    return StatisticsStore.side_key(
        record["database"], record["extractor"], record["theta"]
    )


def _put_side(store: StatisticsStore, record: dict) -> str:
    key = _side_key(record)
    store.sides[key] = record
    store.generation += 1
    return key


def _collecting_checker() -> InvariantChecker:
    return InvariantChecker(enabled=True, raise_on_violation=False)


class TestShardedRoundTrip:
    def test_round_trip_preserves_records_and_generation(self, tmp_path):
        store = StatisticsStore(str(tmp_path / "s"))
        _put_side(store, _side_record(FP_A))
        _put_side(store, _side_record(FP_B, database="db2"))
        store.tasks["sig"] = _task_record(FP_A, FP_B)
        store.generation += 1
        store.save()
        reloaded = StatisticsStore(str(store.root))
        assert reloaded.sides == store.sides
        assert reloaded.tasks == store.tasks
        assert reloaded.generation == store.generation
        assert reloaded.recovery["torn_records_dropped"] == 0
        assert reloaded.recovery["invalid_records_dropped"] == 0
        assert reloaded.summary()["path"] == str(store.shard_dir)

    def test_records_land_in_fingerprint_shards(self, tmp_path):
        store = StatisticsStore(str(tmp_path / "s"))
        record_a = _side_record(FP_A)
        record_b = _side_record(FP_B, database="db2")
        assert side_shard(record_a) == "ab"
        assert side_shard(record_b) == "cd"
        _put_side(store, record_a)
        _put_side(store, record_b)
        store.save()
        names = {p.name for p in store.shard_dir.iterdir()}
        assert "ab.journal" in names and "cd.journal" in names

    def test_clean_shards_are_not_rewritten(self, tmp_path):
        """Independent tenants don't contend: saving a change to one
        corpus never touches another corpus's shard files."""
        store = StatisticsStore(str(tmp_path / "s"))
        record_a = _side_record(FP_A)
        _put_side(store, record_a)
        _put_side(store, _side_record(FP_B, database="db2"))
        store.save()
        other = store.shard_dir / f"cd{JOURNAL_SUFFIX}"
        before = other.stat().st_size
        updated = dict(record_a, documents_processed=61)
        _put_side(store, updated)
        store.save()
        assert other.stat().st_size == before
        mine = store.shard_dir / f"ab{JOURNAL_SUFFIX}"
        records = [
            decode_journal_record(line)
            for line in mine.read_bytes().splitlines()
        ]
        assert len(records) == 2 and all(records)

    def test_vanished_shard_files_are_removed(self, tmp_path):
        store = StatisticsStore(str(tmp_path / "s"))
        record = _side_record(FP_A)
        key = _put_side(store, record)
        store.save()
        assert (store.shard_dir / f"ab{JOURNAL_SUFFIX}").exists()
        del store.sides[key]
        store.generation += 1
        store.save()
        assert not (store.shard_dir / f"ab{JOURNAL_SUFFIX}").exists()
        assert StatisticsStore(str(store.root)).sides == {}

    def test_compaction_folds_journal_into_snapshot(self, tmp_path):
        store = StatisticsStore(str(tmp_path / "s"), compact_every=2)
        record = _side_record(FP_A)
        _put_side(store, record)
        store.save()
        _put_side(store, dict(record, documents_processed=61))
        store.save()  # second journal record triggers compaction
        journal = store.shard_dir / f"ab{JOURNAL_SUFFIX}"
        snapshot = store.shard_dir / "ab.json"
        assert journal.stat().st_size == 0
        payload = json.loads(snapshot.read_text())
        assert payload["version"] == STORE_VERSION
        reloaded = StatisticsStore(str(store.root))
        assert reloaded.sides == store.sides
        assert reloaded.generation == store.generation

    def test_misplaced_record_is_dropped(self, tmp_path):
        """A record found in a shard its fingerprint doesn't hash to is
        corruption evidence and must not be served."""
        store = StatisticsStore(str(tmp_path / "s"))
        _put_side(store, _side_record(FP_A))
        store.save()
        journal = store.shard_dir / f"cd{JOURNAL_SUFFIX}"
        record = _side_record(FP_A, documents=99)
        journal.write_bytes(
            encode_journal_record(7, {_side_key(record): record}, {}, {})
        )
        reloaded = StatisticsStore(str(store.root))
        assert reloaded.recovery["invalid_records_dropped"] == 1
        assert reloaded.sides[_side_key(record)]["documents_processed"] == 60


class TestJournalTruncation:
    def _journal_with_generations(self, root) -> tuple:
        """A store whose 'ab' shard journal holds 3 committed records."""
        store = StatisticsStore(str(root))
        record = _side_record(FP_A)
        expected = []
        for documents in (60, 61, 62):
            _put_side(store, dict(record, documents_processed=documents))
            store.save()
            expected.append(
                (store.generation, dict(store.sides), dict(store.tasks))
            )
        journal = store.shard_dir / f"ab{JOURNAL_SUFFIX}"
        return journal, store.root, expected

    def test_truncation_at_every_byte_recovers_last_committed(
        self, tmp_path
    ):
        journal, root, expected = self._journal_with_generations(
            tmp_path / "s"
        )
        raw = journal.read_bytes()
        lines = raw.splitlines(keepends=True)
        assert len(lines) == 3
        boundaries = []
        offset = 0
        for line in lines:
            offset += len(line)
            boundaries.append(offset)
        previous = active_checker()
        checker = _collecting_checker()
        install_checker(checker)
        try:
            for cut in range(len(raw) + 1):
                journal.write_bytes(raw[:cut])
                # A record is committed once its JSON *body* is on disk;
                # the trailing newline is outside the checksummed body,
                # so a cut at boundary-1 still recovers the record.
                committed = sum(1 for b in boundaries if b - 1 <= cut)
                store = StatisticsStore(str(root))
                if committed == 0:
                    assert store.sides == {} and store.generation == 0
                else:
                    generation, sides, tasks = expected[committed - 1]
                    assert store.generation == generation, f"cut={cut}"
                    assert store.sides == sides, f"cut={cut}"
                    assert store.tasks == tasks, f"cut={cut}"
                torn = store.recovery["torn_records_dropped"]
                clean = {0}.union(boundaries).union(b - 1 for b in boundaries)
                assert torn == (0 if cut in clean else 1), f"cut={cut}"
        finally:
            install_checker(previous)
        assert checker.violations == []
        assert checker.checks_run > 0

    def test_corrupted_middle_record_ends_the_trusted_prefix(self, tmp_path):
        journal, root, expected = self._journal_with_generations(
            tmp_path / "s"
        )
        lines = journal.read_bytes().splitlines(keepends=True)
        corrupted = lines[1].replace(b'"generation"', b'"generatioX"')
        journal.write_bytes(lines[0] + corrupted + lines[2])
        store = StatisticsStore(str(root))
        # Record 3 parses fine, but everything after a torn/corrupt write
        # is untrustworthy: recovery stops at record 1.
        generation, sides, tasks = expected[0]
        assert store.generation == generation
        assert store.sides == sides
        assert store.recovery["torn_records_dropped"] == 1

    def test_tear_journal_helper_drops_exactly_the_last_record(
        self, tmp_path
    ):
        journal, root, expected = self._journal_with_generations(
            tmp_path / "s"
        )
        facts = tear_journal(str(root), seed=3)
        assert facts is not None
        assert facts["path"] == str(journal)
        assert facts["truncated_to"] < facts["original_size"]
        store = StatisticsStore(str(root))
        generation, sides, tasks = expected[1]
        assert store.generation == generation
        assert store.sides == sides

    @pytest.mark.parametrize("tail", ["torn", "unterminated"])
    def test_save_after_recovery_survives_the_next_restart(
        self, tmp_path, tail
    ):
        """A save after recovering from a damaged journal tail must not
        land behind the damaged bytes, where the next recovery stops."""
        journal, root, _ = self._journal_with_generations(tmp_path / "s")
        raw = journal.read_bytes()
        damaged = raw[:-10] if tail == "torn" else raw[:-1]
        journal.write_bytes(damaged)
        store = StatisticsStore(str(root))
        assert journal.read_bytes() == damaged, "loading never writes"
        key = _put_side(store, _side_record(FP_A, documents=99))
        store.save()
        reloaded = StatisticsStore(str(root))
        assert reloaded.generation == store.generation
        assert reloaded.sides[key]["documents_processed"] == 99
        assert reloaded.recovery["torn_records_dropped"] == 0

    def test_tear_journal_on_empty_store_is_a_noop(self, tmp_path):
        assert tear_journal(str(tmp_path / "nothing")) is None


class TestJournalCodec:
    def test_round_trip(self):
        line = encode_journal_record(
            5, {"k": {"v": 1}}, {"t": {"w": 2.5}}, {"c": {"x": []}}
        )
        assert decode_journal_record(line.rstrip(b"\n")) == {
            "generation": 5,
            "sides": {"k": {"v": 1}},
            "tasks": {"t": {"w": 2.5}},
            "curves": {"c": {"x": []}},
        }

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda raw: raw[:-2],  # truncated
            lambda raw: raw.replace(b'"crc"', b'"crx"'),  # key renamed
            lambda raw: raw.replace(b'"generation":5', b'"generation":6'),
            lambda raw: b"not json at all",
            lambda raw: b"[1, 2, 3]",  # wrong shape
        ],
    )
    def test_any_corruption_fails_the_crc(self, mutate):
        raw = encode_journal_record(5, {"k": {"v": 1}}, {}, {}).rstrip(b"\n")
        assert decode_journal_record(mutate(raw)) is None

    def test_task_shard_is_stable_and_prefix_sized(self):
        record = _task_record(FP_A, FP_B)
        assert task_shard(record) == task_shard(dict(record))
        assert len(task_shard(record)) == 2
