"""The binary executors on the one join state, at testbed scale 0.3.

IDJN, OIJN and ZGJN keep a two-relation
:class:`~repro.core.join_state.TreeJoinState`.  These tests pin what that
state change must keep:

* each run's report is immutable history: a resumed executor does not
  rewrite the good/bad counts of its earlier reports;
* the label-free :class:`~repro.optimizer.adaptive.PosteriorQuality`,
  which sums p1·p2 per join value, equals the sum over materialized join
  results, and gives the same estimate after a checkpoint restore as
  the uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.core import QualityRequirement, compose_join
from repro.core.plan import RetrievalKind
from repro.joins import UNLIMITED, Budgets, IndependentJoin, OuterInnerJoin
from repro.optimizer.adaptive import PosteriorQuality, TuplePosterior
from repro.robustness.checkpoint import checkpoint_execution, restore_execution

SC = RetrievalKind.SCAN
FS = RetrievalKind.FILTERED_SCAN


@pytest.fixture(scope="module")
def small_task():
    from repro.experiments import TestbedConfig, build_testbed

    return build_testbed(TestbedConfig(scale=0.3)).task()


def idjn_scan(task, estimator=None) -> IndependentJoin:
    bound = task.environment()
    return IndependentJoin(
        task.inputs(),
        retriever1=bound.retriever(1, SC),
        retriever2=bound.retriever(2, SC),
        costs=bound.cost_model(),
        estimator=estimator,
    )


def oijn_fs(task, estimator=None) -> OuterInnerJoin:
    bound = task.environment()
    return OuterInnerJoin(
        task.inputs(),
        outer_retriever=bound.retriever(1, FS),
        outer=1,
        costs=bound.cost_model(),
        estimator=estimator,
    )


def posterior(task) -> PosteriorQuality:
    return PosteriorQuality(
        side1=TuplePosterior(task.characterization1.confidences, 0.6, theta=0.4),
        side2=TuplePosterior(task.characterization2.confidences, 0.6, theta=0.4),
    )


class TestResumedReports:
    def test_first_report_survives_a_resume(self, small_task):
        executor = idjn_scan(small_task)
        first = executor.run(QualityRequirement(tau_good=10, tau_bad=10**9))
        assert (first.report.composition.n_good, first.report.composition.n_bad) == (
            10,
            4,
        )
        second = executor.run(QualityRequirement(tau_good=60, tau_bad=10**9))
        assert (first.report.composition.n_good, first.report.composition.n_bad) == (
            10,
            4,
        )
        assert second.report.composition.n_good >= 60
        state = second.state
        assert second.report.composition == compose_join(
            state.relation(1), state.relation(2), "Company"
        )
        assert second.report.composition.n_good == state.composition.n_good
        assert second.report.composition.n_bad == state.composition.n_bad


def materialized_estimate(estimator: PosteriorQuality, state):
    good = total = 0.0
    for joined in state.iter_results():
        left, right = joined.parts
        good += estimator.side1(left.confidence) * estimator.side2(right.confidence)
        total += 1
    return good, total - good


CASES = {
    "idjn": (idjn_scan, Budgets(max_documents1=60, max_documents2=60)),
    "oijn": (oijn_fs, Budgets(max_documents1=25, max_documents2=40)),
}
LONGER = {
    "idjn": Budgets(max_documents1=110, max_documents2=110),
    "oijn": Budgets(max_documents1=45, max_documents2=80),
}


@pytest.mark.parametrize("case", sorted(CASES))
class TestPosteriorQuality:
    def test_equals_the_sum_over_materialized_results(self, small_task, case):
        build, budgets = CASES[case]
        estimator = posterior(small_task)
        execution = build(small_task, estimator).run(UNLIMITED, budgets)
        state = execution.state
        assert state.composition.n_good > 0 and state.composition.n_bad > 0
        estimated = estimator.estimate(state)
        assert estimated == pytest.approx(
            materialized_estimate(estimator, state), rel=1e-9
        )
        assert sum(estimated) == pytest.approx(state.composition.n_total)

    def test_checkpoint_restore_gives_the_uninterrupted_estimate(
        self, small_task, case
    ):
        build, budgets = CASES[case]
        uninterrupted = posterior(small_task)
        executor = build(small_task, uninterrupted)
        executor.run(UNLIMITED, budgets)
        snapshot = checkpoint_execution(executor)
        final = executor.run(UNLIMITED, LONGER[case])

        restored = posterior(small_task)
        resumed = build(small_task, restored)
        restore_execution(resumed, snapshot)
        assert restored.estimate(resumed.session.state) == pytest.approx(
            materialized_estimate(restored, resumed.session.state), rel=1e-9
        )
        again = resumed.run(UNLIMITED, LONGER[case])
        assert again.report.composition == final.report.composition
        assert restored.estimate(again.state) == pytest.approx(
            uninterrupted.estimate(final.state), rel=1e-9
        )
