"""Cross-module integration scenarios exercised through the public API."""

import pytest

from repro.core import (
    ExtractorConfig,
    QualityRequirement,
    RetrievalKind,
    idjn_plan,
)
from repro.estimation import (
    ObservationContext,
    estimate_overlap,
    estimate_side,
    estimated_side_statistics,
)
from repro.joins import Budgets, IndependentJoin
from repro.optimizer import (
    JoinOptimizer,
    bind_plan,
    budgets_from_evaluation,
    enumerate_plans,
)
from repro.retrieval import ScanRetriever
from repro.textdb import load_database, profile_database, save_database


class TestContractLifecycle:
    """State a contract → optimize → bind → execute → verify."""

    @pytest.mark.parametrize("tau_good", [15, 120])
    def test_full_lifecycle(self, hq_ex_task, tau_good):
        requirement = QualityRequirement(tau_good=tau_good, tau_bad=10**6)
        plans = enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )
        optimizer = JoinOptimizer(
            hq_ex_task.catalog(),
            costs=hq_ex_task.costs,
            feasibility_margin=0.25,
        )
        result = optimizer.optimize(plans, requirement)
        chosen = result.chosen
        assert chosen is not None
        executor = bind_plan(
            hq_ex_task.environment(
                chosen.plan.extractor1.theta, chosen.plan.extractor2.theta
            ),
            chosen.plan,
        )
        execution = executor.run(
            requirement=requirement,
            budgets=budgets_from_evaluation(chosen.plan, chosen, slack=3.0),
        )
        assert execution.report.check(requirement)

    def test_execution_time_close_to_prediction(self, hq_ex_task):
        """Predicted simulated time tracks actual for the chosen plan."""
        requirement = QualityRequirement(tau_good=60, tau_bad=10**6)
        plan = idjn_plan(
            ExtractorConfig(hq_ex_task.extractor1.name, 0.4),
            ExtractorConfig(hq_ex_task.extractor2.name, 0.4),
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
        )
        optimizer = JoinOptimizer(hq_ex_task.catalog(), costs=hq_ex_task.costs)
        evaluation = optimizer.optimize([plan], requirement).evaluations[0]
        executor = bind_plan(hq_ex_task.environment(0.4, 0.4), plan)
        execution = executor.run(requirement=requirement)
        assert execution.report.time.total == pytest.approx(
            evaluation.predicted_time, rel=0.6
        )


class TestPersistenceRoundTripPipeline:
    def test_saved_database_reproduces_experiments(self, hq_ex_task, tmp_path):
        """A saved+reloaded corpus yields identical executions."""
        path = tmp_path / "nyt96.jsonl"
        save_database(hq_ex_task.database1, path)
        reloaded = load_database(path)

        def run(database):
            from repro.joins import JoinInputs

            inputs = JoinInputs(
                database1=database,
                database2=hq_ex_task.database2,
                extractor1=hq_ex_task.extractor1.with_theta(0.4),
                extractor2=hq_ex_task.extractor2.with_theta(0.4),
            )
            return IndependentJoin(
                inputs,
                ScanRetriever(database),
                ScanRetriever(hq_ex_task.database2),
            ).run(budgets=Budgets(max_documents1=80, max_documents2=80))

        original = run(hq_ex_task.database1).report
        restored = run(reloaded).report
        assert restored.composition.n_good == original.composition.n_good
        assert restored.composition.n_bad == original.composition.n_bad
        assert restored.time.total == original.time.total


class TestEstimationPluggedIntoModels:
    def test_estimated_statistics_feed_models(self, hq_ex_task):
        """Synthetic SideStatistics from estimation flow through a model."""
        from repro.models import IDJNModel, JoinStatistics

        inputs = hq_ex_task.inputs(0.4, 0.4)
        pilot = IndependentJoin(
            inputs,
            ScanRetriever(hq_ex_task.database1),
            ScanRetriever(hq_ex_task.database2),
        ).run(budgets=Budgets(max_documents1=120, max_documents2=120))
        estimates = []
        for side, database, char in (
            (1, hq_ex_task.database1, hq_ex_task.characterization1),
            (2, hq_ex_task.database2, hq_ex_task.characterization2),
        ):
            observations = pilot.observations.side(side)
            context = ObservationContext(
                database_size=len(database),
                coverage=observations.documents_processed / len(database),
                tp=char.tp_at(0.4),
                fp=char.fp_at(0.4),
                theta=0.4,
            )
            estimates.append(
                estimate_side(
                    observations, context, reference=char.confidences
                )
            )
        overlap = estimate_overlap(
            estimates[0],
            estimates[1],
            pilot.observations.side(1),
            pilot.observations.side(2),
        )
        sides = [
            estimated_side_statistics(estimate.parameters, database, char, 0.4)
            for estimate, database, char in zip(
                estimates,
                (hq_ex_task.database1, hq_ex_task.database2),
                (hq_ex_task.characterization1, hq_ex_task.characterization2),
            )
        ]
        statistics = JoinStatistics(side1=sides[0], side2=sides[1])
        model = IDJNModel(
            statistics,
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
            per_value=False,
            overlap=overlap,
        )
        prediction = model.predict(
            sides[0].n_documents // 2, sides[1].n_documents // 2
        )
        # Order-of-magnitude agreement with the ground-truth prediction.
        from repro.experiments.figures import task_statistics
        from repro.models import IDJNModel as TruthModel

        truth = TruthModel(
            task_statistics(hq_ex_task, 0.4, 0.4),
            RetrievalKind.SCAN,
            RetrievalKind.SCAN,
        ).predict(
            len(hq_ex_task.database1) // 2, len(hq_ex_task.database2) // 2
        )
        assert prediction.n_good > 0
        assert truth.n_good / 8 <= prediction.n_good <= truth.n_good * 8


class TestAlternateTask:
    def test_mg_ex_task_runs(self, testbed):
        """The non-default task (MG from wsj ⋈ EX from nyt95) works."""
        task = testbed.task(
            relation1="MG", relation2="EX", database1="wsj", database2="nyt95"
        )
        requirement = QualityRequirement(tau_good=10, tau_bad=10**6)
        plans = enumerate_plans(
            task.extractor1.name, task.extractor2.name, thetas1=(0.4,),
            thetas2=(0.4,),
        )
        optimizer = JoinOptimizer(
            task.catalog(), costs=task.costs, feasibility_margin=0.25
        )
        result = optimizer.optimize(plans, requirement)
        assert result.chosen is not None
        executor = bind_plan(task.environment(0.4, 0.4), result.chosen.plan)
        execution = executor.run(requirement=requirement)
        assert execution.report.composition.n_good >= 10

    def test_profiles_consistent_across_hosted_relations(self, testbed):
        """wsj hosts EX and MG; profiles are per-task and disjoint in docs."""
        wsj = testbed.databases["wsj"]
        ex_profile = profile_database(wsj, "EX")
        mg_profile = profile_database(wsj, "MG")
        assert ex_profile.n_good_docs > 0
        assert mg_profile.n_good_docs > 0
        assert (
            ex_profile.n_good_docs
            + ex_profile.n_bad_docs
            + mg_profile.n_good_docs
            + mg_profile.n_bad_docs
            <= len(wsj)
        )
