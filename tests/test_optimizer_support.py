"""Tests for optimizer support pieces: catalog, predictions, environments."""

import pytest

from repro.core import RetrievalKind
from repro.joins import CostModel, SideCosts
from repro.models import QualityPrediction, charge_events
from repro.models.retrieval_models import EffortEvents
from repro.models.scheme import CompositionEstimate
from repro.core.quality import TimeBreakdown
from repro.optimizer import ExecutionEnvironment, StatisticsCatalog


class TestStatisticsCatalog:
    def test_from_profiles_builds_per_theta(self, hq_ex_task):
        catalog = hq_ex_task.catalog()
        stats_low = catalog.at(0.4, 0.4)
        stats_high = catalog.at(0.8, 0.8)
        assert stats_low.side1.tp > stats_high.side1.tp
        assert stats_low.side1.fp > stats_high.side1.fp
        # Frequencies are θ-independent (they describe the corpus).
        assert stats_low.side1.good_frequency == stats_high.side1.good_frequency

    def test_caching(self, hq_ex_task):
        catalog = hq_ex_task.catalog()
        assert catalog.at(0.4, 0.8) is catalog.at(0.4, 0.8)
        assert catalog.at(0.4, 0.8) is not catalog.at(0.8, 0.4)

    def test_carries_strategy_parameters(self, hq_ex_task):
        catalog = hq_ex_task.catalog()
        stats = catalog.at(0.4, 0.4)
        assert stats.classifier1 is not None
        assert stats.queries1

    def test_per_value_flag(self, hq_ex_task):
        assert hq_ex_task.catalog().per_value


class TestChargeEvents:
    def test_per_side_costs_applied(self):
        events = {
            1: EffortEvents(retrieved=10, processed=10, filtered=0, queries=0),
            2: EffortEvents(retrieved=0, processed=0, filtered=0, queries=5),
        }
        costs = CostModel(
            side1=SideCosts(t_retrieve=1, t_extract=2),
            side2=SideCosts(t_query=3),
        )
        time = charge_events(events, costs)
        assert time.retrieval == 10
        assert time.extraction == 20
        assert time.querying == 15
        assert time.total == 45


class TestQualityPrediction:
    def _prediction(self, good, bad, time_total):
        return QualityPrediction(
            composition=CompositionEstimate(
                good=good, good_bad=bad, bad_good=0.0, bad_bad=0.0
            ),
            time=TimeBreakdown(retrieval=time_total),
            efforts={1: 1.0, 2: 1.0},
            events={},
        )

    def test_meets(self):
        prediction = self._prediction(10, 5, 100)
        assert prediction.meets(10, 5)
        assert not prediction.meets(11, 5)
        assert not prediction.meets(10, 4)

    def test_accessors(self):
        prediction = self._prediction(10, 5, 100)
        assert prediction.n_good == 10
        assert prediction.n_bad == 5
        assert prediction.total_time == 100


class TestExecutionEnvironment:
    def test_retriever_construction(self, hq_ex_task):
        environment = hq_ex_task.environment()
        scan = environment.retriever(1, RetrievalKind.SCAN)
        assert scan.database is hq_ex_task.database1
        fs = environment.retriever(2, RetrievalKind.FILTERED_SCAN)
        assert fs.filters_documents
        aqg = environment.retriever(1, RetrievalKind.AQG)
        assert not aqg.exhausted

    def test_join_driven_not_a_standalone_retriever(self, hq_ex_task):
        environment = hq_ex_task.environment()
        with pytest.raises(ValueError):
            environment.retriever(1, RetrievalKind.JOIN_DRIVEN)

    def test_missing_classifier_raises(self, hq_ex_task):
        environment = hq_ex_task.environment()
        del environment.classifiers[1]
        with pytest.raises(ValueError):
            environment.retriever(1, RetrievalKind.FILTERED_SCAN)

    def test_extractor_at_theta(self, hq_ex_task):
        environment = hq_ex_task.environment()
        extractor = environment.extractor_at(1, 0.75)
        assert extractor.theta == 0.75
        # The bound base extractor keeps its θ.
        assert environment.extractors[1].theta == 0.4
        assert environment.extractor_at(1, 0.4).theta == 0.4
