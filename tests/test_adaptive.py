"""End-to-end tests of the adaptive optimizer (Section VI pipeline)."""

import pytest

from repro.core import QualityRequirement
from repro.optimizer import (
    AdaptiveJoinExecutor,
    PosteriorQuality,
    TuplePosterior,
    enumerate_plans,
)


@pytest.fixture(scope="module")
def adaptive_factory(hq_ex_task):
    plans = enumerate_plans(
        hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
    )

    def build(**kwargs):
        defaults = dict(
            environment=hq_ex_task.environment(),
            characterization1=hq_ex_task.characterization1,
            characterization2=hq_ex_task.characterization2,
            plans=plans,
            pilot_documents=100,
            classifier_profile1=hq_ex_task.offline_classifier_profile1,
            classifier_profile2=hq_ex_task.offline_classifier_profile2,
            query_stats1=hq_ex_task.offline_query_stats1,
            query_stats2=hq_ex_task.offline_query_stats2,
        )
        defaults.update(kwargs)
        return AdaptiveJoinExecutor(**defaults)

    return build


class TestTuplePosterior:
    def test_without_reference_uses_share(self):
        posterior = TuplePosterior(None, good_share=0.7)
        assert posterior(0.2) == pytest.approx(0.7)
        assert posterior(0.9) == pytest.approx(0.7)

    def test_with_reference_high_scores_more_likely_good(self, hq_ex_task):
        reference = hq_ex_task.characterization1.confidences
        posterior = TuplePosterior(reference, good_share=0.6)
        assert posterior(0.9) > posterior(0.45)

    def test_direct_lookup_is_the_reference_bin(self, hq_ex_task):
        reference = hq_ex_task.characterization1.confidences
        for theta in (0.0, 0.4, 0.8):
            posterior = TuplePosterior(reference, good_share=0.6, theta=theta)
            for confidence in (-0.5, 0.0, 0.05, 0.4, 0.4999, 0.5, 0.99, 1.0, 7.0):
                index = reference.bin_of(confidence)
                assert posterior(confidence) == posterior._by_bin[index]

    def test_share_clamped(self):
        posterior = TuplePosterior(None, good_share=0.0)
        assert 0.0 < posterior(0.5) < 1.0


class TestPosteriorQuality:
    def test_estimates_track_reality(self, hq_ex_task):
        """Running IDJN with the posterior estimator: the estimate should be
        within a modest factor of the true composition (it sees no labels)."""
        from repro.joins import Budgets, IndependentJoin
        from repro.retrieval import ScanRetriever

        estimator = PosteriorQuality(
            side1=TuplePosterior(
                hq_ex_task.characterization1.confidences, 0.6, theta=0.4
            ),
            side2=TuplePosterior(
                hq_ex_task.characterization2.confidences, 0.6, theta=0.4
            ),
        )
        inputs = hq_ex_task.inputs()
        execution = IndependentJoin(
            inputs,
            ScanRetriever(inputs.database1),
            ScanRetriever(inputs.database2),
            estimator=estimator,
        ).run(budgets=Budgets(max_documents1=250, max_documents2=250))
        est_good, est_bad = estimator.estimate(execution.state)
        actual = execution.report.composition
        assert est_good == pytest.approx(actual.n_good, rel=0.4)
        assert est_good + est_bad == pytest.approx(actual.n_total)


class TestAdaptiveExecutor:
    def test_meets_requirement_without_labels(self, adaptive_factory):
        requirement = QualityRequirement(tau_good=60, tau_bad=10**6)
        result = adaptive_factory().run(requirement)
        assert result.chosen is not None
        assert result.report is not None
        assert result.report.composition.n_good >= 60

    def test_impossible_requirement_returns_no_plan(self, adaptive_factory):
        result = adaptive_factory(cross_validate=False).run(
            QualityRequirement(tau_good=10**8, tau_bad=10**8)
        )
        assert result.chosen is None
        assert result.report is None
        assert result.pilot is not None

    def test_rounds_bounded(self, adaptive_factory):
        result = adaptive_factory(max_rounds=2).run(
            QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        assert 1 <= result.rounds <= 2

    def test_no_cross_validation_single_round(self, adaptive_factory):
        result = adaptive_factory(cross_validate=False).run(
            QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        assert result.rounds == 1

    def test_total_time_includes_pilot(self, adaptive_factory):
        result = adaptive_factory(cross_validate=False).run(
            QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        assert result.total_time > result.report.time.total

    def test_estimates_exposed(self, adaptive_factory):
        result = adaptive_factory(cross_validate=False).run(
            QualityRequirement(tau_good=40, tau_bad=10**6)
        )
        estimate1, estimate2 = result.estimates
        assert estimate1.parameters.n_good_values > 0
        assert estimate2.parameters.n_good_values > 0

    def test_pilot_documents_validated(self, adaptive_factory):
        with pytest.raises(ValueError):
            adaptive_factory(pilot_documents=0)

    def test_reoptimization_points_validated(self, adaptive_factory):
        with pytest.raises(ValueError):
            adaptive_factory(reoptimization_points=(0.0,))
        with pytest.raises(ValueError):
            adaptive_factory(reoptimization_points=(1.2,))

    def test_midflight_reoptimization_still_meets(self, adaptive_factory):
        result = adaptive_factory(
            cross_validate=False,
            feasibility_margin=0.3,
            reoptimization_points=(0.4, 0.7),
        ).run(QualityRequirement(tau_good=80, tau_bad=10**6))
        assert result.report is not None
        assert result.report.composition.n_good >= 80
        assert result.plan_switches >= 0  # switching is possible, not forced

    def test_switch_carries_tuples_forward(self, hq_ex_task):
        """When a mid-flight switch happens, prior base tuples survive."""
        from repro.optimizer.adaptive import AdaptiveJoinExecutor

        # Force a switch by restricting the plan space after the first
        # milestone would prefer a different family: run with a tiny
        # milestone so the second optimization sees fresh statistics.
        plans = enumerate_plans(
            hq_ex_task.extractor1.name,
            hq_ex_task.extractor2.name,
            thetas1=(0.4,),
            thetas2=(0.4,),
        )
        executor = AdaptiveJoinExecutor(
            environment=hq_ex_task.environment(),
            characterization1=hq_ex_task.characterization1,
            characterization2=hq_ex_task.characterization2,
            plans=plans,
            pilot_documents=60,
            classifier_profile1=hq_ex_task.offline_classifier_profile1,
            classifier_profile2=hq_ex_task.offline_classifier_profile2,
            query_stats1=hq_ex_task.offline_query_stats1,
            query_stats2=hq_ex_task.offline_query_stats2,
            cross_validate=False,
            feasibility_margin=0.3,
            reoptimization_points=(0.25, 0.5, 0.75),
        )
        result = executor.run(QualityRequirement(tau_good=120, tau_bad=10**6))
        assert result.report is not None
        # Whether or not a switch occurred, the accumulated result set is
        # consistent and the contract's good bound is met.
        assert result.report.composition.n_good >= 120
