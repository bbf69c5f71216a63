"""Tests for join support machinery: costs, observation collection, budgets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelationSchema
from repro.core.quality import TimeBreakdown
from repro.core.types import ExtractedTuple
from repro.joins import Budgets, CostModel, SideCosts
from repro.joins.stats_collector import (
    ObservationCollector,
    RelationObservations,
)


def tup(value, conf=0.8, good=True, doc=0):
    return ExtractedTuple(
        relation="HQ",
        values=(value, "x"),
        document_id=doc,
        confidence=conf,
        is_good=good,
    )


class TestSideCosts:
    def test_charge_components(self):
        costs = SideCosts(t_retrieve=1, t_extract=4, t_filter=0.5, t_query=2)
        time = TimeBreakdown()
        total = costs.charge(time, retrieved=10, processed=5, filtered=10, queries=3)
        assert time.retrieval == 10
        assert time.extraction == 20
        assert time.filtering == 5
        assert time.querying == 6
        assert time.total == 41 == total

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SideCosts(t_retrieve=-1)

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 40)] * 4), min_size=1, max_size=20
        ),
        st.tuples(*[st.floats(0, 10, allow_nan=False)] * 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_charge_in_place_is_adding_a_breakdown_bit_for_bit(
        self, batches, rates
    ):
        costs = SideCosts(*rates)
        added, charged = TimeBreakdown(), TimeBreakdown()
        for retrieved, processed, filtered, queries in batches:
            batch = TimeBreakdown(
                retrieval=retrieved * costs.t_retrieve,
                extraction=processed * costs.t_extract,
                filtering=filtered * costs.t_filter,
                querying=queries * costs.t_query,
            )
            added.add(batch)
            total = costs.charge(
                charged,
                retrieved=retrieved,
                processed=processed,
                filtered=filtered,
                queries=queries,
            )
            assert total == batch.total
        assert charged == added

    @given(
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_charge_linear(self, retrieved, processed, filtered, queries):
        costs = SideCosts()

        def charged(**events):
            return costs.charge(TimeBreakdown(), **events)

        single = charged(retrieved=1) * retrieved
        single += charged(processed=1) * processed
        single += charged(filtered=1) * filtered
        single += charged(queries=1) * queries
        batch = charged(
            retrieved=retrieved,
            processed=processed,
            filtered=filtered,
            queries=queries,
        )
        assert batch == pytest.approx(single)


class TestCostModel:
    def test_side_lookup(self):
        model = CostModel(
            side1=SideCosts(t_retrieve=1), side2=SideCosts(t_retrieve=2)
        )
        assert model.side(1).t_retrieve == 1
        assert model.side(2).t_retrieve == 2

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            CostModel().side(3)


class TestBudgets:
    def test_defaults_unlimited(self):
        budgets = Budgets()
        for side in (1, 2):
            assert budgets.max_documents(side) is None
            assert budgets.max_queries(side) is None
            assert budgets.max_retrieved(side) is None

    def test_per_side_lookup(self):
        budgets = Budgets(
            max_documents1=5,
            max_documents2=7,
            max_queries1=1,
            max_retrieved2=9,
        )
        assert budgets.max_documents(1) == 5
        assert budgets.max_documents(2) == 7
        assert budgets.max_queries(1) == 1
        assert budgets.max_queries(2) is None
        assert budgets.max_retrieved(2) == 9


class TestRelationObservations:
    def test_record_document_counts(self):
        obs = RelationObservations("HQ")
        obs.record_document([tup("a"), tup("b")])
        obs.record_document([])
        obs.record_document([tup("a")])
        assert obs.documents_processed == 3
        assert obs.productive_documents == 2
        assert obs.sample_frequency["a"] == 2
        assert obs.sample_frequency["b"] == 1
        assert obs.distinct_values == 2
        assert obs.total_value_occurrences == 3

    def test_value_counted_once_per_document(self):
        obs = RelationObservations("HQ")
        obs.record_document([tup("a", conf=0.5), tup("a", conf=0.9)])
        assert obs.sample_frequency["a"] == 1
        # The kept confidence is the strongest occurrence in the document.
        assert obs.value_confidences["a"] == [0.9]

    def test_yield_histogram(self):
        obs = RelationObservations("HQ")
        obs.record_document([tup("a")])
        obs.record_document([tup("a"), tup("b"), tup("c")])
        assert obs.tuples_per_document == {1: 1, 3: 1}

    def test_attribute_index(self):
        obs = RelationObservations("HQ", attribute_index=1)
        obs.record_document([tup("a")])
        assert "x" in obs.sample_frequency


class TestObservationCollector:
    def test_routes_by_side(self):
        collector = ObservationCollector("HQ", "EX")
        collector.record(1, [tup("a")])
        collector.record(2, [])
        assert collector.side(1).documents_processed == 1
        assert collector.side(2).documents_processed == 1
        assert collector.side(1).relation == "HQ"
        assert collector.side(2).relation == "EX"
