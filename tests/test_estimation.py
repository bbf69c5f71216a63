"""Tests for power-law fitting and MLE parameter estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation import (
    ObservationContext,
    PowerLawModel,
    class_seen_probability,
    estimate_overlap,
    estimate_parameters,
    estimate_side,
    estimated_side_statistics,
    fit_power_law,
)
from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.retrieval import ScanRetriever


class TestPowerLawModel:
    def test_pmf_normalized(self):
        law = PowerLawModel(beta=1.2, k_max=50)
        assert law.pmf().sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        pmf = PowerLawModel(beta=1.0, k_max=20).pmf()
        assert all(a >= b for a, b in zip(pmf, pmf[1:]))

    def test_probability_out_of_support(self):
        law = PowerLawModel(beta=1.0, k_max=5)
        assert law.probability(0) == 0.0
        assert law.probability(6) == 0.0

    def test_expected_histogram_total(self):
        law = PowerLawModel(beta=1.1, k_max=30)
        hist = law.expected_histogram(47)
        assert hist.n_values == 47

    def test_expected_histogram_empty(self):
        law = PowerLawModel(beta=1.0, k_max=10)
        assert law.expected_histogram(0).n_values == 0

    @given(st.floats(0.1, 3.0), st.integers(2, 200))
    @settings(max_examples=50, deadline=None)
    def test_mean_within_support(self, beta, k_max):
        law = PowerLawModel(beta=beta, k_max=k_max)
        assert 1.0 <= law.mean() <= k_max


class TestFitPowerLaw:
    def test_recovers_beta_from_exact_histogram(self):
        truth = PowerLawModel(beta=1.4, k_max=60)
        histogram = {
            k + 1: float(p * 100000)
            for k, p in enumerate(truth.pmf())
            if p * 100000 >= 1
        }
        fitted = fit_power_law(histogram, k_max=60)
        assert fitted.beta == pytest.approx(1.4, abs=0.1)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law({})

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law({0: 5})

    @given(st.floats(0.3, 2.2))
    @settings(max_examples=20, deadline=None)
    def test_recovery_property(self, beta):
        truth = PowerLawModel(beta=beta, k_max=40)
        histogram = {
            k + 1: float(p * 50000)
            for k, p in enumerate(truth.pmf())
            if p * 50000 >= 0.5
        }
        fitted = fit_power_law(histogram, k_max=40)
        assert fitted.beta == pytest.approx(beta, abs=0.25)


@pytest.fixture(scope="module")
def pilot_run(mini_db1, mini_db2, mini_extractor1, mini_extractor2):
    inputs = JoinInputs(
        database1=mini_db1,
        database2=mini_db2,
        extractor1=mini_extractor1,
        extractor2=mini_extractor2,
    )
    return IndependentJoin(
        inputs, ScanRetriever(mini_db1), ScanRetriever(mini_db2)
    ).run(budgets=Budgets(max_documents1=160, max_documents2=160))


@pytest.fixture(scope="module")
def context1(mini_db1, mini_char1, pilot_run):
    observations = pilot_run.observations.side(1)
    return ObservationContext(
        database_size=len(mini_db1),
        coverage=observations.documents_processed / len(mini_db1),
        tp=mini_char1.tp_at(0.4),
        fp=mini_char1.fp_at(0.4),
        theta=0.4,
    )


class TestObservationContext:
    def test_observation_probabilities(self):
        ctx = ObservationContext(database_size=100, coverage=0.5, tp=0.8, fp=0.4)
        assert ctx.p_obs_good == pytest.approx(0.4)
        assert ctx.p_obs_bad == pytest.approx(0.2)

    def test_coverage_bounds(self):
        with pytest.raises(ValueError):
            ObservationContext(database_size=10, coverage=0.0, tp=1, fp=1)
        with pytest.raises(ValueError):
            ObservationContext(database_size=10, coverage=1.5, tp=1, fp=1)


class TestEstimateParameters:
    def test_confidence_path_recovers_structure(
        self, pilot_run, context1, mini_char1, mini_profile1
    ):
        observations = pilot_run.observations.side(1)
        estimate = estimate_parameters(
            observations, context1, reference=mini_char1.confidences
        )
        true_good = mini_profile1.good_histogram().n_values
        true_bad = mini_profile1.bad_histogram().n_values
        assert estimate.n_good_values == pytest.approx(true_good, rel=0.6)
        assert estimate.n_bad_values == pytest.approx(true_bad, rel=0.8)
        # Good-occurrence share: 180 good docs vs 70 bad → well above half.
        true_share = mini_profile1.n_good_occurrences / (
            mini_profile1.n_good_occurrences + mini_profile1.n_bad_occurrences
        )
        assert estimate.good_occurrence_share == pytest.approx(true_share, abs=0.2)

    def test_document_class_estimates_reasonable(
        self, pilot_run, context1, mini_char1, mini_profile1
    ):
        observations = pilot_run.observations.side(1)
        estimate = estimate_parameters(
            observations, context1, reference=mini_char1.confidences
        )
        assert estimate.n_good_docs == pytest.approx(
            mini_profile1.n_good_docs, rel=0.8
        )
        assert 0 < estimate.n_good_docs <= len(pilot_run.state.relation(1).schema.attributes) * 10**6

    def test_blind_fallback_runs(self, pilot_run, context1):
        observations = pilot_run.observations.side(1)
        estimate = estimate_parameters(observations, context1, reference=None)
        assert estimate.n_good_values > 0
        assert estimate.n_bad_values >= 0

    def test_histograms_materialize(self, pilot_run, context1, mini_char1):
        observations = pilot_run.observations.side(1)
        estimate = estimate_parameters(
            observations, context1, reference=mini_char1.confidences
        )
        hist = estimate.good_histogram()
        assert hist.n_values == round(estimate.n_good_values)

    def test_empty_observations_degrade_to_priors(self, context1):
        from repro.estimation.mle import (
            PRIOR_BETA,
            PRIOR_OCCURRENCE_SHARE,
        )
        from repro.joins.stats_collector import RelationObservations

        estimate = estimate_parameters(RelationObservations("HQ"), context1)
        assert estimate.n_good_values == 0.0
        assert estimate.n_bad_values == 0.0
        assert estimate.n_good_docs == 0.0
        assert estimate.n_bad_docs == 0.0
        assert estimate.beta_good == PRIOR_BETA
        assert estimate.beta_bad == PRIOR_BETA
        assert estimate.good_occurrence_share == PRIOR_OCCURRENCE_SHARE
        assert estimate.k_max_good == 1 and estimate.k_max_bad == 1
        assert estimate.log_likelihood == 0.0
        # The prior estimate materializes empty histograms, not NaNs.
        assert estimate.good_histogram().n_values == 0
        assert estimate.bad_histogram().n_values == 0


class TestEstimatorEdgeCases:
    """Degenerate pilot samples must degrade, never NaN or crash."""

    @staticmethod
    def _context():
        return ObservationContext(
            database_size=500, coverage=0.3, tp=0.8, fp=0.4, theta=0.4
        )

    @staticmethod
    def _observations(documents):
        from repro.core.types import ExtractedTuple
        from repro.joins.stats_collector import RelationObservations

        observations = RelationObservations("HQ")
        for i, values in enumerate(documents):
            observations.record_document(
                ExtractedTuple(
                    relation="HQ",
                    values=(value,),
                    document_id=i,
                    confidence=confidence,
                    is_good=confidence >= 0.5,
                )
                for value, confidence in values
            )
        return observations

    def _assert_sane(self, estimate):
        import math

        for name in (
            "n_good_values",
            "n_bad_values",
            "n_good_docs",
            "n_bad_docs",
            "beta_good",
            "beta_bad",
            "log_likelihood",
            "good_occurrence_share",
        ):
            value = float(getattr(estimate, name))
            assert math.isfinite(value), name
        assert estimate.n_good_values >= 0 and estimate.n_bad_values >= 0
        assert 0.0 <= estimate.good_occurrence_share <= 1.0
        assert estimate.k_max_good >= 1 and estimate.k_max_bad >= 1

    def test_all_duplicate_sample(self):
        # Every document yields the same single value: |S| = 1, the
        # frequency histogram has one bucket at the sample-size cap.
        documents = [[("Acme", 0.9)] for _ in range(30)]
        estimate = estimate_parameters(
            self._observations(documents), self._context()
        )
        self._assert_sane(estimate)
        # One distinct value observed; the blind confidence split may put
        # it in either class, but the total population must reflect it.
        assert estimate.n_good_values + estimate.n_bad_values > 0

    def test_single_class_sample(self):
        # All confidences above θ: the bad class is empty, its fit must
        # degrade to zero values instead of dividing by an empty sample.
        documents = [
            [(f"V{i % 7}", 0.95)] for i in range(40)
        ]
        estimate = estimate_parameters(
            self._observations(documents), self._context()
        )
        self._assert_sane(estimate)
        assert estimate.n_good_values > 0

    def test_single_document_sample(self):
        estimate = estimate_parameters(
            self._observations([[("Solo", 0.7), ("Other", 0.3)]]),
            self._context(),
        )
        self._assert_sane(estimate)

    def test_all_unproductive_sample(self):
        # Documents processed but zero tuples extracted: distinct from an
        # empty pilot — the denominator exists, the numerators are zero.
        estimate = estimate_parameters(
            self._observations([[] for _ in range(25)]), self._context()
        )
        self._assert_sane(estimate)
        assert estimate.n_good_values == 0.0
        assert estimate.n_bad_values == 0.0


class TestEstimateSide:
    def test_produces_model_ready_statistics(
        self, pilot_run, context1, mini_char1, mini_db1
    ):
        estimate = estimate_side(
            pilot_run.observations.side(1),
            context1,
            reference=mini_char1.confidences,
        )
        side = estimated_side_statistics(
            estimate.parameters, mini_db1, mini_char1, context1.theta
        )
        assert side.n_documents == len(mini_db1)
        assert side.top_k == mini_db1.max_results
        assert side.good_frequency  # synthetic values materialized
        assert side.tp == context1.tp

    def test_posteriors_available(self, pilot_run, context1, mini_char1):
        estimate = estimate_side(
            pilot_run.observations.side(1),
            context1,
            reference=mini_char1.confidences,
        )
        assert estimate.posterior
        assert all(0.0 <= p <= 1.0 for p in estimate.posterior.values())

    def test_seen_probabilities(self, pilot_run, context1, mini_char1):
        estimate = estimate_side(
            pilot_run.observations.side(1),
            context1,
            reference=mini_char1.confidences,
        )
        assert 0.0 < estimate.p_seen_good <= 1.0
        assert 0.0 < estimate.p_seen_bad <= 1.0


class TestEstimateOverlap:
    def test_overlap_scaled_up_from_observed(
        self,
        pilot_run,
        context1,
        mini_char1,
        mini_char2,
        mini_db1,
        mini_db2,
        mini_profile1,
        mini_profile2,
    ):
        obs1 = pilot_run.observations.side(1)
        obs2 = pilot_run.observations.side(2)
        ctx2 = ObservationContext(
            database_size=len(mini_db2),
            coverage=obs2.documents_processed / len(mini_db2),
            tp=mini_char2.tp_at(0.4),
            fp=mini_char2.fp_at(0.4),
            theta=0.4,
        )
        est1 = estimate_side(obs1, context1, reference=mini_char1.confidences)
        est2 = estimate_side(obs2, ctx2, reference=mini_char2.confidences)
        overlap = estimate_overlap(est1, est2, obs1, obs2)
        true_gg = len(
            mini_profile1.good_values & mini_profile2.good_values
        )
        assert overlap.n_gg > 0
        # Overlap recovery is the roughest estimate in the pipeline (it
        # compounds two per-side observation models); require the right
        # order of magnitude.
        assert true_gg / 2.5 <= overlap.n_gg <= true_gg * 2.5

    def test_class_seen_probability_monotone_in_rate(self):
        law = PowerLawModel(beta=1.0, k_max=20)
        assert class_seen_probability(law, 0.8) > class_seen_probability(law, 0.1)
