"""Exactness and persistence tests for the bound-based pruning layer.

The pruning contract (DESIGN §6.7) is absolute: pruning may only change
*how much work* the optimizer does, never *what it answers*.  These tests
pin that contract on the seeded testbed grid — the pruned optimizer must
choose the identical plan at the identical operating point as the
unpruned per-plan bisection (:class:`BisectionJoinOptimizer`), every
fully-evaluated plan must match byte-for-byte,
and every pruned-away plan must be provably irrelevant in the reference
(infeasible, or strictly slower than the chosen plan).  The underlying
bound kernels carry their own dominance property tests, and the persisted
answer journal must round-trip through the statistics store without
perturbing a single float.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import QualityRequirement
from repro.experiments import quality_frontier
from repro.models.distributions import (
    issue_probability_ceiling,
    probability_none_extracted,
)
from repro.optimizer import JoinOptimizer, enumerate_plans
from repro.optimizer.bounds import BOUND_SLACK, PlanBounds
from repro.service.shards import decode_journal_record, encode_journal_record
from repro.service.store import StatisticsStore
from repro.validation.differential import BisectionJoinOptimizer
from repro.validation.invariants import (
    InvariantChecker,
    active_checker,
    install_checker,
)

#: the seeded validation grid: dense enough to exercise tier-A prunes,
#: τb-infeasible prunes, and dominance prunes at the session scale
GRID = [
    QualityRequirement(tau_good=good, tau_bad=bad)
    for good in (2, 10, 26, 50, 90, 140)
    for bad in (100, 100000)
]


@pytest.fixture(scope="module")
def plan_space(hq_ex_task):
    return enumerate_plans(
        hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
    )


def _optimizer(task) -> JoinOptimizer:
    return JoinOptimizer(task.catalog(), costs=task.costs)


def _sweep(optimizer, plans):
    """One optimizer answering every requirement of the grid in turn."""
    return [optimizer.optimize(plans, requirement) for requirement in GRID]


@pytest.fixture(scope="module")
def reference(hq_ex_task, plan_space):
    """Unpruned grid results from the per-plan bisection."""
    return _sweep(
        BisectionJoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs),
        plan_space,
    )


def assert_equivalent(pruned_results, reference_results) -> None:
    """The full exactness contract, per requirement."""
    assert len(pruned_results) == len(reference_results)
    for fast, slow in zip(pruned_results, reference_results):
        if slow.chosen is None:
            assert fast.chosen is None, fast.requirement
            chosen_time = None
        else:
            assert fast.chosen is not None, fast.requirement
            assert fast.chosen.plan == slow.chosen.plan
            assert fast.chosen.effort_fraction == slow.chosen.effort_fraction
            assert (
                fast.chosen.prediction.n_good == slow.chosen.prediction.n_good
            )
            chosen_time = slow.chosen.predicted_time
        for a, b in zip(fast.evaluations, slow.evaluations):
            assert a.plan == b.plan
            if a.pruned:
                # Exactness: a pruned plan must be irrelevant — the
                # reference shows it infeasible or strictly slower.
                assert (not b.feasible) or (
                    chosen_time is not None
                    and b.predicted_time > chosen_time
                ), a.plan
                continue
            assert a.feasible == b.feasible, a.plan
            if not a.feasible:
                continue
            assert a.effort_fraction == b.effort_fraction, a.plan
            assert a.prediction.n_good == b.prediction.n_good, a.plan
            assert a.prediction.n_bad == b.prediction.n_bad, a.plan
            assert a.prediction.total_time == b.prediction.total_time, a.plan


# ---------------------------------------------------------------------------
# exactness on the seeded grid
# ---------------------------------------------------------------------------


class TestPrunedExactness:
    def test_seeded_grid_identical(self, hq_ex_task, plan_space, reference):
        optimizer = _optimizer(hq_ex_task)
        results = _sweep(optimizer, plan_space)
        assert_equivalent(results, reference)
        # The sweep must actually have pruned something, or the test
        # proves nothing about the pruning layer.
        assert optimizer.pruning.plans_pruned > 0

    def test_fresh_optimizer_per_requirement_identical(
        self, hq_ex_task, plan_space, reference
    ):
        """No answer depends on probes an earlier requirement memoized."""
        results = [
            _optimizer(hq_ex_task).optimize(plan_space, requirement)
            for requirement in GRID
        ]
        assert_equivalent(results, reference)

    def test_loosened_bounds_identical(
        self, hq_ex_task, plan_space, reference
    ):
        """Looser (still sound) bounds prune less but answer the same."""
        optimizer = _optimizer(hq_ex_task)
        for plan in plan_space:
            bounds = optimizer.plan_bounds(plan)
            if bounds is None:
                continue
            optimizer._bounds_cache[plan] = PlanBounds(
                plan,
                good_upper=bounds.good_upper * 10.0 + 1.0,
                bad_upper=bounds.bad_upper * 10.0 + 1.0,
            )
        results = _sweep(optimizer, plan_space)
        assert_equivalent(results, reference)

    def test_tightened_bounds_identical(
        self, hq_ex_task, plan_space, reference
    ):
        """The tightest sound bound — the actual full-effort prediction —
        prunes the most aggressively and still answers the same."""
        optimizer = _optimizer(hq_ex_task)
        tightened = _optimizer(hq_ex_task)
        for plan in plan_space:
            prediction = optimizer.predict_full_effort(plan)
            if prediction is None:
                continue
            tightened._bounds_cache[plan] = PlanBounds(
                plan,
                good_upper=prediction.n_good,
                bad_upper=prediction.n_bad,
            )
        results = _sweep(tightened, plan_space)
        assert_equivalent(results, reference)


# ---------------------------------------------------------------------------
# bound soundness (property tests)
# ---------------------------------------------------------------------------


class TestBoundSoundness:
    def test_issue_ceiling_dominates_every_effort(self):
        """The full-retrieval point caps Pr{extracted} at any draw count."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            population = int(rng.integers(1, 300))
            draws = int(rng.integers(0, population + 1))
            good = int(rng.integers(0, min(population, 30) + 1))
            bad = int(rng.integers(0, min(population, 30) + 1))
            tp = float(rng.uniform(0.0, 1.0))
            fp = float(rng.uniform(0.0, 1.0))
            none_good = probability_none_extracted(
                population, draws, good, tp
            )
            none_bad = probability_none_extracted(population, draws, bad, fp)
            extracted = 1.0 - none_good * none_bad
            ceiling = float(issue_probability_ceiling(good, bad, tp, fp))
            assert extracted <= ceiling + 1e-12, (
                population, draws, good, bad, tp, fp,
            )

    def test_tier_a_bound_caps_full_effort_prediction(
        self, hq_ex_task, plan_space
    ):
        optimizer = _optimizer(hq_ex_task)
        bounded = 0
        for plan in plan_space:
            bounds = optimizer.plan_bounds(plan)
            prediction = optimizer.predict_full_effort(plan)
            if bounds is None or prediction is None:
                continue
            bounded += 1
            assert bounds.good_upper * BOUND_SLACK >= prediction.n_good, plan
            assert bounds.bad_upper * BOUND_SLACK >= prediction.n_bad, plan
        assert bounded > 0


# ---------------------------------------------------------------------------
# persisted answer journal: store round-trip and invalidation
# ---------------------------------------------------------------------------


SIGNATURE = "hq-ex/test-signature"
#: an answer journal as the service persists it: ``"τg|τb"`` -> facts
ANSWERS = {
    "40|1000000": {
        "candidates": 64,
        "feasible": 2,
        "plan": "IDJN θ1=0.4 θ2=0.4 X1=AQG X2=AQG",
        "predicted_good": 59.97,
        "predicted_bad": 33.616,
        "predicted_time": 603.745,
        "effort_fraction": 0.15625,
    },
    "600|15": {"candidates": 64, "feasible": 0, "plan": None},
}


class TestCurvePersistence:
    def _databases(self, task):
        return (task.database1, task.database2)

    def test_record_curves_does_not_bump_generation(
        self, tmp_path, hq_ex_task
    ):
        store = StatisticsStore(str(tmp_path))
        before = store.generation
        store.record_curves(
            SIGNATURE, self._databases(hq_ex_task), before, ANSWERS
        )
        assert store.generation == before

    def test_generation_invalidation(self, tmp_path, hq_ex_task):
        store = StatisticsStore(str(tmp_path))
        databases = self._databases(hq_ex_task)
        store.record_curves(SIGNATURE, databases, store.generation, ANSWERS)
        stale = store.generation + 1
        assert store.curves_for(SIGNATURE, databases, stale) is None
        # The stale record is dropped, not retried on the next lookup.
        assert store.curves_for(
            SIGNATURE, databases, store.generation
        ) is None

    def test_fingerprint_invalidation(self, tmp_path, hq_ex_task):
        store = StatisticsStore(str(tmp_path))
        databases = self._databases(hq_ex_task)
        store.record_curves(SIGNATURE, databases, store.generation, ANSWERS)
        swapped = (databases[1], databases[0])
        assert store.curves_for(
            SIGNATURE, swapped, store.generation
        ) is None

    def test_sharded_store_round_trips_curves(self, tmp_path, hq_ex_task):
        databases = self._databases(hq_ex_task)
        store = StatisticsStore(str(tmp_path))
        store.record_curves(SIGNATURE, databases, store.generation, ANSWERS)
        generation = store.generation
        store.save()

        reloaded = StatisticsStore(str(tmp_path))
        assert reloaded.generation == 0
        record = reloaded.curves_for(SIGNATURE, databases, generation)
        assert record is not None
        assert record["plans"] == ANSWERS


# ---------------------------------------------------------------------------
# journal record shape
# ---------------------------------------------------------------------------


class TestJournalCurveRecords:
    def test_pre_curve_record_is_rejected(self):
        """Only the four-part body is a journal record: a CRC-valid line
        without ``curves`` is not replayed."""
        import json
        import zlib

        body = {"generation": 3, "sides": {"s": {"x": 1}}, "tasks": {}}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        record = dict(body, crc=zlib.crc32(canonical.encode("utf-8")))
        line = json.dumps(record, sort_keys=True).encode("utf-8")
        assert decode_journal_record(line) is None

    def test_curve_record_round_trips(self):
        curves = {SIGNATURE: {"generation": 0, "plans": {}}}
        line = encode_journal_record(4, {}, {}, curves=curves)
        body = decode_journal_record(line.rstrip(b"\n"))
        assert body == {
            "generation": 4,
            "sides": {},
            "tasks": {},
            "curves": curves,
        }

    def test_curve_record_with_non_dict_curves_rejected(self):
        import json
        import zlib

        body = {"generation": 1, "sides": {}, "tasks": {}, "curves": []}
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        record = dict(body, crc=zlib.crc32(canonical) & 0xFFFFFFFF)
        line = json.dumps(record, sort_keys=True).encode("utf-8")
        assert decode_journal_record(line) is None


# ---------------------------------------------------------------------------
# frontier identity
# ---------------------------------------------------------------------------


class TestFrontierIdentity:
    def test_frontier_prune_matches_unpruned(
        self, hq_ex_task, plan_space, monkeypatch
    ):
        catalog = hq_ex_task.catalog()
        build = catalog.side_builder1

        def silent_at_08(theta):
            # Side 1's extractor emits no good tuple at θ=0.8, so every
            # plan with that knob has a zero good-tuple ceiling.
            side = build(theta)
            return dataclasses.replace(side, tp=0.0) if theta == 0.8 else side

        silent = dataclasses.replace(catalog, side_builder1=silent_at_08)
        bounds = JoinOptimizer(silent).plan_bounds
        zero_ceiling = {
            plan for plan in plan_space if bounds(plan).good_upper <= 0.0
        }
        assert len(zero_ceiling) == len(plan_space) // 2
        built = []
        cached_predictor = JoinOptimizer._cached_predictor

        def recording(self, plan):
            built.append(plan)
            return cached_predictor(self, plan)

        monkeypatch.setattr(JoinOptimizer, "_cached_predictor", recording)
        for case in (catalog, silent):
            built.clear()
            pruned = quality_frontier(case, plan_space, costs=hq_ex_task.costs)
            skipped = set(plan_space) - set(built)
            # Unknown bounds skip no plan: the frontier over the whole space.
            with monkeypatch.context() as unknown:
                unknown.setattr(
                    JoinOptimizer, "plan_bounds", lambda self, plan: None
                )
                built.clear()
                unpruned = quality_frontier(
                    case, plan_space, costs=hq_ex_task.costs
                )
            assert set(built) == set(plan_space)
            assert skipped == (zero_ceiling if case is silent else set())
            assert len(pruned) == len(unpruned)
            for a, b in zip(pruned, unpruned):
                assert a.plan == b.plan
                assert a.effort_fraction == b.effort_fraction
                assert a.n_good == b.n_good
                assert a.n_bad == b.n_bad
                assert a.time == b.time


# ---------------------------------------------------------------------------
# the descent's monotonicity guard
# ---------------------------------------------------------------------------


class TestMonotonicityGuard:
    def test_guard_trip_is_reported_to_the_checker(
        self, hq_ex_task, plan_space, monkeypatch
    ):
        predictor = JoinOptimizer._predictor

        def non_monotone(self, plan):
            predict, max_effort = predictor(self, plan)

            def shrinking_bad(effort):
                # Bad tuples that fall as effort grows break the contract.
                prediction = predict(effort)
                composition = prediction.composition
                return dataclasses.replace(
                    prediction,
                    composition=dataclasses.replace(
                        composition,
                        bad_bad=composition.bad_bad
                        + 1e9 * (1.0 - effort / max_effort),
                    ),
                )

            return shrinking_bad, max_effort

        monkeypatch.setattr(JoinOptimizer, "_predictor", non_monotone)
        plan = plan_space[0]
        requirement = QualityRequirement(tau_good=10, tau_bad=10**12)
        checker = InvariantChecker(enabled=True, raise_on_violation=False)
        previous = install_checker(checker)
        try:
            optimizer = _optimizer(hq_ex_task)
            result = optimizer.optimize([plan], requirement)
        finally:
            install_checker(previous)
        assert result.evaluations[0].prediction is not None
        assert optimizer.pruning.monotonicity_fallbacks == 1
        assert [v.where for v in checker.violations] == [
            f"optimizer.descent[{plan.describe()}]"
        ]
        assert "not non-decreasing" in checker.violations[0].message
        # A disabled checker records nothing and the descent still answers.
        quiet = _optimizer(hq_ex_task).optimize([plan], requirement)
        assert quiet.evaluations[0].effort_fraction == (
            result.evaluations[0].effort_fraction
        )
        assert active_checker().violations == []
