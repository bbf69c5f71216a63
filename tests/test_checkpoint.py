"""Checkpoint/resume tests: an interrupted execution restored into a
fresh executor must finish with exactly the report of the uninterrupted
run."""

import json
import time

import pytest

from repro.joins import (
    Budgets,
    IndependentJoin,
    JoinInputs,
    OuterInnerJoin,
    ZigZagJoin,
)
from repro.retrieval import Query, ScanRetriever
from repro.robustness import (
    CheckpointError,
    CheckpointManager,
    checkpoint_execution,
    load_checkpoint,
    restore_execution,
    save_checkpoint,
)


@pytest.fixture
def inputs(mini_db1, mini_db2, mini_extractor1, mini_extractor2):
    return JoinInputs(
        database1=mini_db1,
        database2=mini_db2,
        extractor1=mini_extractor1,
        extractor2=mini_extractor2,
    )


@pytest.fixture
def seeds(mini_profile1):
    return [
        Query.of(v) for v, _ in mini_profile1.good_frequency.most_common(3)
    ]


def _idjn(inputs):
    return IndependentJoin(
        inputs,
        ScanRetriever(inputs.database1),
        ScanRetriever(inputs.database2),
    )


def _oijn(inputs):
    return OuterInnerJoin(
        inputs, outer_retriever=ScanRetriever(inputs.database1), outer=1
    )


def _zgjn(inputs, seeds):
    return ZigZagJoin(inputs, seed_queries=seeds)


def _assert_same_outcome(resumed, uninterrupted):
    left, right = resumed.report, uninterrupted.report
    assert left.composition == right.composition
    assert left.documents_processed == right.documents_processed
    assert left.documents_retrieved == right.documents_retrieved
    assert left.queries_issued == right.queries_issued
    assert left.time.total == pytest.approx(right.time.total)
    assert left.exhausted == right.exhausted
    assert repr(resumed.state.composition) == repr(
        uninterrupted.state.composition
    )


class TestIndependentJoinCheckpoint:
    def test_round_trip_matches_uninterrupted_run(self, inputs):
        baseline = _idjn(inputs).run()

        interrupted = _idjn(inputs)
        interrupted.run(budgets=Budgets(max_documents1=40, max_documents2=40))
        snapshot = checkpoint_execution(interrupted)

        fresh = _idjn(inputs)
        restore_execution(fresh, snapshot)
        resumed = fresh.run()
        _assert_same_outcome(resumed, baseline)

    def test_snapshot_is_json_serializable(self, inputs, tmp_path):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=25, max_documents2=25))
        path = tmp_path / "idjn.json"
        save_checkpoint(executor, str(path))

        fresh = _idjn(inputs)
        load_checkpoint(fresh, str(path))
        assert fresh.session.processed[1] == 25
        assert fresh.session.time.total == pytest.approx(
            executor.session.time.total
        )


    def test_observation_order_survives_a_sorted_json_round_trip(
        self, inputs
    ):
        # Stores write sorted JSON keys; the MLE sums observations in
        # insertion order, so a restored pilot must keep that order.
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=40, max_documents2=40))
        stored = json.loads(
            json.dumps(checkpoint_execution(executor), sort_keys=True)
        )
        fresh = _idjn(inputs)
        restore_execution(fresh, stored)
        for side in (1, 2):
            live = executor.session.collector.side(side)
            restored = fresh.session.collector.side(side)
            assert live.sample_frequency  # the order check is not vacuous
            for name in (
                "sample_frequency",
                "tuples_per_document",
                "value_confidences",
            ):
                assert list(getattr(restored, name).items()) == list(
                    getattr(live, name).items()
                )

    def test_restores_object_shaped_tallies_of_older_snapshots(
        self, inputs
    ):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=25, max_documents2=25))
        snapshot = checkpoint_execution(executor)
        for observations in snapshot["observations"].values():
            for name in (
                "sample_frequency",
                "tuples_per_document",
                "value_confidences",
            ):
                observations[name] = {
                    str(key): value for key, value in observations[name]
                }
        fresh = _idjn(inputs)
        restore_execution(fresh, snapshot)
        for side in (1, 2):
            live = executor.session.collector.side(side)
            restored = fresh.session.collector.side(side)
            assert restored.sample_frequency == live.sample_frequency
            assert restored.tuples_per_document == live.tuples_per_document
            assert restored.value_confidences == live.value_confidences


class TestOuterInnerJoinCheckpoint:
    def test_round_trip_matches_uninterrupted_run(self, inputs):
        baseline = _oijn(inputs).run()

        interrupted = _oijn(inputs)
        interrupted.run(budgets=Budgets(max_documents1=30))
        snapshot = checkpoint_execution(interrupted)

        fresh = _oijn(inputs)
        restore_execution(fresh, snapshot)
        resumed = fresh.run()
        _assert_same_outcome(resumed, baseline)


class TestZigZagJoinCheckpoint:
    def test_round_trip_matches_uninterrupted_run(self, inputs, seeds):
        baseline = _zgjn(inputs, seeds).run()

        interrupted = _zgjn(inputs, seeds)
        interrupted.run(budgets=Budgets(max_queries1=2, max_queries2=2))
        snapshot = checkpoint_execution(interrupted)

        fresh = _zgjn(inputs, seeds)
        restore_execution(fresh, snapshot)
        resumed = fresh.run()
        _assert_same_outcome(resumed, baseline)


class TestCheckpointValidation:
    def test_rejects_wrong_algorithm(self, inputs, seeds):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=5, max_documents2=5))
        snapshot = checkpoint_execution(executor)
        with pytest.raises(CheckpointError):
            restore_execution(_zgjn(inputs, seeds), snapshot)

    def test_rejects_started_target(self, inputs):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=5, max_documents2=5))
        snapshot = checkpoint_execution(executor)
        target = _idjn(inputs)
        target.run(budgets=Budgets(max_documents1=1, max_documents2=1))
        with pytest.raises(CheckpointError):
            restore_execution(target, snapshot)

    def test_rejects_unknown_version(self, inputs):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=5, max_documents2=5))
        snapshot = checkpoint_execution(executor)
        snapshot["version"] = 99
        with pytest.raises(CheckpointError):
            restore_execution(_idjn(inputs), snapshot)


class TestCheckpointManager:
    def _partial(self, inputs):
        executor = _idjn(inputs)
        executor.run(budgets=Budgets(max_documents1=40, max_documents2=40))
        return executor

    def test_save_load_round_trip(self, inputs, tmp_path):
        baseline = _idjn(inputs).run()
        manager = CheckpointManager(str(tmp_path))
        path = manager.save(self._partial(inputs), "idjn")
        assert path.endswith(CheckpointManager.SUFFIX)

        fresh = _idjn(inputs)
        manager.load(fresh, "idjn")
        resumed = fresh.run()
        _assert_same_outcome(resumed, baseline)

    def test_list_reports_managed_checkpoints(self, inputs, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        executor = self._partial(inputs)
        manager.save(executor, "first")
        manager.save(executor, "second")
        infos = manager.list()
        assert [info.name for info in infos] == ["first", "second"]
        assert all(info.size > 0 for info in infos)

    def test_prune_by_count_keeps_newest(self, inputs, tmp_path):
        manager = CheckpointManager(str(tmp_path), max_count=2)
        executor = self._partial(inputs)
        for name in ("a", "b", "c"):
            manager.save(executor, name)  # save() prunes as it goes
        assert [info.name for info in manager.list()] == ["b", "c"]

    def test_prune_by_age(self, inputs, tmp_path):
        manager = CheckpointManager(str(tmp_path), max_age=60.0)
        executor = self._partial(inputs)
        path = manager.save(executor, "old")
        removed = manager.prune(now=time.time() + 3600.0)
        assert removed == [path]
        assert manager.list() == []

    def test_unbounded_manager_prunes_nothing(self, inputs, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        manager.save(self._partial(inputs), "kept")
        assert manager.prune(now=time.time() + 10**9) == []
        assert len(manager.list()) == 1

    def test_validates_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), max_count=-1)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), max_age=-1.0)
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), grace=-1.0)

    def test_save_snapshot_round_trips_without_an_executor(
        self, inputs, tmp_path
    ):
        baseline = _idjn(inputs).run()
        manager = CheckpointManager(str(tmp_path))
        snapshot = checkpoint_execution(self._partial(inputs))
        path = manager.save_snapshot(snapshot, "detached")
        assert path == manager.path_of("detached")

        fresh = _idjn(inputs)
        manager.load(fresh, "detached")
        _assert_same_outcome(fresh.run(), baseline)

    def test_grace_window_protects_fresh_checkpoints_from_count_prune(
        self, inputs, tmp_path
    ):
        """Regression: a startup prune racing a concurrent writer must not
        collect the checkpoint the writer just replaced.  Entries younger
        than the grace window survive even past max_count; the bound is
        enforced once they age out."""
        manager = CheckpointManager(
            str(tmp_path), max_count=1, grace=3600.0
        )
        executor = self._partial(inputs)
        for name in ("a", "b", "c"):
            manager.save(executor, name)
        # All three are seconds old — well inside the grace window.
        assert manager.prune(now=time.time()) == []
        assert len(manager.list()) == 3
        # Once the window has passed, max_count applies again.
        removed = manager.prune(now=time.time() + 7200.0)
        assert len(removed) == 2
        assert [info.name for info in manager.list()] == ["c"]

    def test_grace_window_protects_fresh_checkpoints_from_age_prune(
        self, inputs, tmp_path
    ):
        manager = CheckpointManager(
            str(tmp_path), max_age=60.0, grace=3600.0
        )
        path = manager.save(self._partial(inputs), "young")
        # Past max_age but still inside grace: protected.
        assert manager.prune(now=time.time() + 120.0) == []
        # Past both: collected.
        assert manager.prune(now=time.time() + 7200.0) == [path]

    def test_default_grace_is_zero_and_prunes_immediately(
        self, inputs, tmp_path
    ):
        manager = CheckpointManager(str(tmp_path), max_count=1)
        executor = self._partial(inputs)
        manager.save(executor, "a")
        manager.save(executor, "b")  # save() prunes as it goes
        assert [info.name for info in manager.list()] == ["b"]
