"""Tests for plan enumeration, evaluation, choice, and binding."""

import pytest

from repro.core import (
    ExtractorConfig,
    JoinKind,
    QualityRequirement,
    RetrievalKind,
    idjn_plan,
    oijn_plan,
    zgjn_plan,
)
from repro.joins import Budgets
from repro.optimizer import (
    JoinOptimizer,
    bind_plan,
    budgets_from_evaluation,
    enumerate_plans,
)
from repro.joins.idjn import IndependentJoin
from repro.joins.oijn import OuterInnerJoin
from repro.joins.zgjn import ZigZagJoin
from repro.validation.differential import BisectionJoinOptimizer


class TestEnumeration:
    def test_full_space_size(self):
        plans = enumerate_plans("e1", "e2")
        # 4 θ-combos × (9 IDJN + 6 OIJN + 1 ZGJN) = 64
        assert len(plans) == 64

    def test_subsets(self):
        plans = enumerate_plans("e1", "e2")
        # Per θ-combo: 9 IDJN, 6 OIJN (either side outer), 1 ZGJN.
        counts = {kind: 0 for kind in JoinKind}
        for plan in plans:
            counts[plan.join] += 1
        assert counts == {JoinKind.IDJN: 36, JoinKind.OIJN: 24, JoinKind.ZGJN: 4}

    def test_single_theta(self):
        plans = enumerate_plans("e1", "e2", thetas1=(0.4,), thetas2=(0.4,))
        assert len(plans) == 16

    def test_all_plans_valid_and_unique(self):
        plans = enumerate_plans("e1", "e2")
        assert len(set(plans)) == len(plans)


@pytest.fixture(scope="module")
def optimizer(hq_ex_task):
    return JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)


def evaluate(optimizer, plan, requirement):
    """One plan's assessment, as the optimizer reports it among candidates."""
    return optimizer.optimize([plan], requirement).evaluations[0]


@pytest.fixture(scope="module")
def plans(hq_ex_task):
    return enumerate_plans(
        hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
    )


class TestEvaluation:
    def test_trivial_requirement_feasible(self, optimizer, plans, hq_ex_task):
        requirement = QualityRequirement(1, 10**9)
        result = optimizer.optimize(plans, requirement)
        assert result.chosen is not None
        # Most of the space meets it; the pruned result marks dominated
        # plans instead of assessing them, so count on the unpruned one.
        unpruned = BisectionJoinOptimizer(
            hq_ex_task.catalog(), costs=hq_ex_task.costs
        ).optimize(plans, requirement)
        assert unpruned.chosen == result.chosen
        assert len(unpruned.feasible) > len(plans) // 2

    def test_impossible_requirement_infeasible(self, optimizer, plans):
        result = optimizer.optimize(plans, QualityRequirement(10**9, 10**9))
        assert result.chosen is None
        assert not result.feasible

    def test_chosen_is_fastest_feasible(self, optimizer, plans):
        result = optimizer.optimize(plans, QualityRequirement(50, 10**6))
        assert result.chosen is not None
        for evaluation in result.feasible:
            assert result.chosen.predicted_time <= evaluation.predicted_time

    def test_effort_grows_with_requirement(self, optimizer, hq_ex_task):
        plan = idjn_plan(
            ExtractorConfig(hq_ex_task.extractor1.name, 0.4),
            ExtractorConfig(hq_ex_task.extractor2.name, 0.4),
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
        )
        small = evaluate(optimizer, plan, QualityRequirement(10, 10**9))
        large = evaluate(optimizer, plan, QualityRequirement(500, 10**9))
        assert small.feasible and large.feasible
        assert small.effort_fraction < large.effort_fraction
        assert small.predicted_time < large.predicted_time

    def test_bad_bound_rejects_dirty_plans(self, optimizer, hq_ex_task):
        plan = idjn_plan(
            ExtractorConfig(hq_ex_task.extractor1.name, 0.4),
            ExtractorConfig(hq_ex_task.extractor2.name, 0.4),
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
        )
        tolerant = evaluate(optimizer, plan, QualityRequirement(100, 10**9))
        strict = evaluate(optimizer, plan, QualityRequirement(100, 1))
        assert tolerant.feasible
        assert not strict.feasible

    def test_high_theta_cleaner_but_smaller(self, optimizer, hq_ex_task):
        """θ=0.8 plans should predict fewer bad tuples at matched τg."""
        def plan_at(theta):
            return idjn_plan(
                ExtractorConfig(hq_ex_task.extractor1.name, theta),
                ExtractorConfig(hq_ex_task.extractor2.name, theta),
                RetrievalKind.SCAN,
                RetrievalKind.SCAN,
            )

        requirement = QualityRequirement(50, 10**9)
        low = evaluate(optimizer, plan_at(0.4), requirement)
        high = evaluate(optimizer, plan_at(0.8), requirement)
        assert low.feasible and high.feasible
        ratio_low = low.prediction.n_bad / max(low.prediction.n_good, 1)
        ratio_high = high.prediction.n_bad / max(high.prediction.n_good, 1)
        assert ratio_high < ratio_low

    def test_feasibility_margin_overprovisions(self, hq_ex_task, plans):
        base = JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)
        cautious = JoinOptimizer(
            hq_ex_task.catalog(), costs=hq_ex_task.costs, feasibility_margin=0.5
        )
        requirement = QualityRequirement(100, 10**9)
        res_base = base.optimize(plans, requirement)
        res_cautious = cautious.optimize(plans, requirement)
        assert res_base.chosen is not None and res_cautious.chosen is not None
        assert (
            res_cautious.chosen.prediction.n_good
            >= res_base.chosen.prediction.n_good
        )

    def test_invalid_margin(self, hq_ex_task):
        with pytest.raises(ValueError):
            JoinOptimizer(hq_ex_task.catalog(), feasibility_margin=-0.1)


class TestBinder:
    def _configs(self, task):
        return (
            ExtractorConfig(task.extractor1.name, 0.4),
            ExtractorConfig(task.extractor2.name, 0.8),
        )

    def test_binds_idjn(self, hq_ex_task):
        e1, e2 = self._configs(hq_ex_task)
        plan = idjn_plan(e1, e2, RetrievalKind.FILTERED_SCAN, RetrievalKind.AQG)
        executor = bind_plan(hq_ex_task.environment(), plan)
        assert isinstance(executor, IndependentJoin)
        # θ configuration applied per side
        assert executor.inputs.extractor1.theta == 0.4
        assert executor.inputs.extractor2.theta == 0.8

    def test_binds_oijn(self, hq_ex_task):
        e1, e2 = self._configs(hq_ex_task)
        plan = oijn_plan(e1, e2, RetrievalKind.SCAN, outer=2)
        executor = bind_plan(hq_ex_task.environment(), plan)
        assert isinstance(executor, OuterInnerJoin)
        assert executor.outer == 2

    def test_binds_zgjn(self, hq_ex_task):
        e1, e2 = self._configs(hq_ex_task)
        executor = bind_plan(hq_ex_task.environment(), zgjn_plan(e1, e2))
        assert isinstance(executor, ZigZagJoin)

    def test_bound_plan_runs(self, hq_ex_task):
        e1, e2 = self._configs(hq_ex_task)
        plan = idjn_plan(e1, e2, RetrievalKind.SCAN, RetrievalKind.SCAN)
        executor = bind_plan(hq_ex_task.environment(), plan)
        execution = executor.run(
            budgets=Budgets(max_documents1=20, max_documents2=20)
        )
        assert execution.report.documents_processed[1] == 20

    def test_budgets_from_evaluation(self, optimizer, hq_ex_task):
        e1 = ExtractorConfig(hq_ex_task.extractor1.name, 0.4)
        e2 = ExtractorConfig(hq_ex_task.extractor2.name, 0.4)
        plan = idjn_plan(e1, e2, RetrievalKind.SCAN, RetrievalKind.AQG)
        evaluation = evaluate(optimizer, plan, QualityRequirement(50, 10**9))
        budgets = budgets_from_evaluation(plan, evaluation, slack=2.0)
        assert budgets.max_retrieved1 is not None
        assert budgets.max_queries2 is not None
        assert budgets.max_retrieved1 >= evaluation.prediction.events[1].retrieved

    def test_budgets_infeasible_plan_unbounded(self, optimizer, hq_ex_task):
        e1 = ExtractorConfig(hq_ex_task.extractor1.name, 0.4)
        e2 = ExtractorConfig(hq_ex_task.extractor2.name, 0.4)
        plan = idjn_plan(e1, e2, RetrievalKind.SCAN, RetrievalKind.SCAN)
        evaluation = evaluate(optimizer, plan, QualityRequirement(10**9, 0))
        budgets = budgets_from_evaluation(plan, evaluation)
        assert budgets.max_retrieved1 is None

    def test_invalid_slack(self, optimizer, hq_ex_task):
        e1 = ExtractorConfig(hq_ex_task.extractor1.name, 0.4)
        e2 = ExtractorConfig(hq_ex_task.extractor2.name, 0.4)
        plan = idjn_plan(e1, e2, RetrievalKind.SCAN, RetrievalKind.SCAN)
        evaluation = evaluate(optimizer, plan, QualityRequirement(5, 10**9))
        with pytest.raises(ValueError):
            budgets_from_evaluation(plan, evaluation, slack=0.5)


class TestTimeBudgetedOptimization:
    def test_respects_budget(self, optimizer, plans):
        result = optimizer.optimize_within_time(plans, time_budget=1500)
        assert result.chosen is not None
        assert result.chosen.prediction.total_time <= 1500 + 1e-6

    def test_larger_budget_never_worse(self, optimizer, plans):
        small = optimizer.optimize_within_time(plans, 800, precision_weight=0.3)
        large = optimizer.optimize_within_time(plans, 4000, precision_weight=0.3)
        assert (
            large.chosen.prediction.n_good >= small.chosen.prediction.n_good
        )

    def test_precision_weight_changes_choice_quality(self, optimizer, plans):
        precise = optimizer.optimize_within_time(
            plans, 2000, precision_weight=0.95
        )
        recallful = optimizer.optimize_within_time(
            plans, 2000, precision_weight=0.05
        )
        p = precise.chosen.prediction
        r = recallful.chosen.prediction
        precision_of = lambda x: x.n_good / max(x.n_good + x.n_bad, 1)
        assert precision_of(p) >= precision_of(r)
        assert r.n_good >= p.n_good

    def test_tiny_budget_not_won_by_empty_plan(self, optimizer, plans):
        result = optimizer.optimize_within_time(plans, time_budget=300)
        if result.chosen is not None:
            assert result.chosen.prediction.n_good > 0

    def test_invalid_parameters(self, optimizer, plans):
        with pytest.raises(ValueError):
            optimizer.optimize_within_time(plans, time_budget=0)
        with pytest.raises(ValueError):
            optimizer.optimize_within_time(plans, 100, precision_weight=1.5)


class TestOptimizerAgainstReality:
    """The Table II headline: chosen plans should actually satisfy the
    requirement and be within a small factor of the actually-fastest."""

    @pytest.mark.parametrize("tau_good,tau_bad", [(20, 10**6), (200, 10**6)])
    def test_chosen_plan_actually_meets(
        self, optimizer, plans, hq_ex_task, tau_good, tau_bad
    ):
        requirement = QualityRequirement(tau_good, tau_bad)
        cautious = JoinOptimizer(
            hq_ex_task.catalog(),
            costs=hq_ex_task.costs,
            feasibility_margin=0.25,
        )
        result = cautious.optimize(plans, requirement)
        assert result.chosen is not None
        executor = bind_plan(
            hq_ex_task.environment(
                result.chosen.plan.extractor1.theta,
                result.chosen.plan.extractor2.theta,
            ),
            result.chosen.plan,
        )
        execution = executor.run(requirement=requirement)
        assert execution.report.composition.n_good >= tau_good
