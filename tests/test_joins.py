"""Tests for the three join algorithms (IDJN, OIJN, ZGJN)."""

import pytest

from repro.core import QualityRequirement, compose_join
from repro.joins import (
    ActualQuality,
    Budgets,
    CostModel,
    IndependentJoin,
    JoinInputs,
    OuterInnerJoin,
    SideCosts,
    ZigZagJoin,
)
from repro.retrieval import Query, ScanRetriever


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


class TestIndependentJoin:
    def test_full_scan_matches_offline_join(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run()
        state = execution.state
        offline = compose_join(state.relation(1), state.relation(2), "Company")
        assert state.composition.n_good == offline.n_good
        assert state.composition.n_bad == offline.n_bad
        assert execution.report.exhausted

    def test_processes_all_documents_at_exhaustion(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run()
        assert execution.report.documents_processed[1] == len(inputs.database1)
        assert execution.report.documents_processed[2] == len(inputs.database2)

    def test_document_budgets_respected(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(budgets=Budgets(max_documents1=30, max_documents2=40))
        assert execution.report.documents_processed[1] == 30
        assert execution.report.documents_processed[2] == 40

    def test_retrieved_budget_respected(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(budgets=Budgets(max_retrieved1=25, max_retrieved2=25))
        assert execution.report.documents_retrieved[1] == 25
        assert execution.report.documents_retrieved[2] == 25

    def test_quality_requirement_stops_early(self, inputs):
        requirement = QualityRequirement(tau_good=10, tau_bad=10**6)
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(requirement)
        assert execution.report.composition.n_good >= 10
        assert execution.report.documents_processed[1] < len(inputs.database1)
        assert execution.report.satisfied

    def test_bad_bound_stops_execution(self, inputs):
        requirement = QualityRequirement(tau_good=10**6, tau_bad=5)
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(requirement)
        assert execution.report.composition.n_bad >= 6
        assert not execution.report.satisfied

    def test_time_accounting_exact_for_scan(self, inputs):
        costs = CostModel(
            side1=SideCosts(t_retrieve=1.0, t_extract=4.0),
            side2=SideCosts(t_retrieve=2.0, t_extract=3.0),
        )
        execution = IndependentJoin(
            inputs,
            ScanRetriever(inputs.database1),
            ScanRetriever(inputs.database2),
            costs=costs,
        ).run(budgets=Budgets(max_documents1=10, max_documents2=10))
        assert execution.report.time.total == pytest.approx(
            10 * (1 + 4) + 10 * (2 + 3)
        )

    def test_rectangle_rates(self, inputs):
        requirement = QualityRequirement(tau_good=20, tau_bad=10**6)
        execution = IndependentJoin(
            inputs,
            ScanRetriever(inputs.database1),
            ScanRetriever(inputs.database2),
            rates=(2, 1),
        ).run(requirement)
        p1 = execution.report.documents_processed[1]
        p2 = execution.report.documents_processed[2]
        # Side 1 advances twice as fast while both sides are open.
        assert p1 == pytest.approx(2 * p2, abs=2)

    def test_resumable(self, inputs):
        join = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        )
        first = join.run(budgets=Budgets(max_documents1=10, max_documents2=10))
        assert first.report.documents_processed[1] == 10
        second = join.run(budgets=Budgets(max_documents1=25, max_documents2=25))
        # The session continued: budgets are absolute totals.
        assert second.report.documents_processed[1] == 25
        assert second.state is first.state
        assert second.report.time.total > first.report.time.total

    def test_retriever_database_validated(self, inputs):
        with pytest.raises(ValueError):
            IndependentJoin(
                inputs,
                ScanRetriever(inputs.database2),
                ScanRetriever(inputs.database2),
            )

    def test_observations_collected(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(budgets=Budgets(max_documents1=50, max_documents2=50))
        side = execution.observations.side(1)
        assert side.documents_processed == 50
        assert side.distinct_values > 0
        assert side.value_confidences


class TestOuterInnerJoin:
    def test_probes_inner_for_outer_values(self, inputs):
        execution = OuterInnerJoin(
            inputs, ScanRetriever(inputs.database1), outer=1
        ).run(budgets=Budgets(max_documents1=60))
        report = execution.report
        assert report.queries_issued[2] > 0
        assert report.documents_processed[2] > 0
        # Every inner document was retrieved by a query for an outer join
        # value, so it must contain at least one such value token.
        outer_values = {t.value_of(0) for t in execution.state.relation(1)}
        for tup in execution.state.relation(2):
            doc = inputs.database2.get(tup.document_id)
            assert doc.token_set() & outer_values

    def test_outer_side_two(self, inputs):
        execution = OuterInnerJoin(
            inputs, ScanRetriever(inputs.database2), outer=2
        ).run(budgets=Budgets(max_documents2=60))
        assert execution.report.queries_issued[1] > 0

    def test_queries_deduplicated(self, inputs):
        execution = OuterInnerJoin(
            inputs, ScanRetriever(inputs.database1), outer=1
        ).run(budgets=Budgets(max_documents1=120))
        outer_values = {t.value_of(0) for t in execution.state.relation(1)}
        assert execution.report.queries_issued[2] <= len(outer_values)

    def test_inner_query_budget(self, inputs):
        execution = OuterInnerJoin(
            inputs, ScanRetriever(inputs.database1), outer=1
        ).run(budgets=Budgets(max_documents1=120, max_queries2=5))
        assert execution.report.queries_issued[2] <= 5

    def test_invalid_outer(self, inputs):
        with pytest.raises(ValueError):
            OuterInnerJoin(inputs, ScanRetriever(inputs.database1), outer=3)

    def test_outer_retriever_database_checked(self, inputs):
        with pytest.raises(ValueError):
            OuterInnerJoin(inputs, ScanRetriever(inputs.database2), outer=1)

    def test_time_includes_query_costs(self, inputs):
        costs = CostModel(side2=SideCosts(t_query=10.0))
        execution = OuterInnerJoin(
            inputs, ScanRetriever(inputs.database1), costs=costs, outer=1
        ).run(budgets=Budgets(max_documents1=40))
        queries = execution.report.queries_issued[2]
        assert execution.report.time.querying == pytest.approx(10.0 * queries)

    def test_resumable(self, inputs):
        join = OuterInnerJoin(inputs, ScanRetriever(inputs.database1), outer=1)
        first = join.run(budgets=Budgets(max_documents1=15))
        second = join.run(budgets=Budgets(max_documents1=40))
        assert second.report.documents_processed[join.outer] == 40
        assert second.state is first.state


class TestZigZagJoin:
    def test_runs_from_seeds(self, inputs, seeds):
        execution = ZigZagJoin(inputs, seeds).run(
            budgets=Budgets(max_queries1=10, max_queries2=10)
        )
        report = execution.report
        assert report.queries_issued[1] >= 1
        assert report.documents_processed[1] > 0

    def test_needs_seeds(self, inputs):
        with pytest.raises(ValueError):
            ZigZagJoin(inputs, [])

    def test_alternates_between_databases(self, inputs, seeds):
        execution = ZigZagJoin(inputs, seeds).run(
            budgets=Budgets(max_queries1=20, max_queries2=20)
        )
        assert execution.report.documents_processed[1] > 0
        assert execution.report.documents_processed[2] > 0

    def test_reachability_bounded_by_interface(self, inputs, seeds):
        """ZGJN cannot reach every document: the top-k interface caps it."""
        execution = ZigZagJoin(inputs, seeds).run()
        report = execution.report
        assert report.documents_processed[1] < len(inputs.database1)

    def test_quality_stop(self, inputs, seeds):
        execution = ZigZagJoin(inputs, seeds).run(
            QualityRequirement(tau_good=5, tau_bad=10**6)
        )
        assert execution.report.composition.n_good >= 5

    def test_query_budgets(self, inputs, seeds):
        execution = ZigZagJoin(inputs, seeds).run(
            budgets=Budgets(max_queries1=3, max_queries2=2)
        )
        assert execution.report.queries_issued[1] <= 3
        assert execution.report.queries_issued[2] <= 2

    def test_resumable(self, inputs, seeds):
        join = ZigZagJoin(inputs, seeds)
        first = join.run(budgets=Budgets(max_queries1=2, max_queries2=2))
        second = join.run(budgets=Budgets(max_queries1=8, max_queries2=8))
        assert second.report.queries_issued[1] >= first.report.queries_issued[1]
        assert second.report.documents_processed[1] >= (
            first.report.documents_processed[1]
        )
        assert second.state is first.state

    def test_incremental_state_consistent(self, inputs, seeds):
        execution = ZigZagJoin(inputs, seeds).run(
            budgets=Budgets(max_queries1=15, max_queries2=15)
        )
        state = execution.state
        offline = compose_join(state.relation(1), state.relation(2), "Company")
        assert state.composition.n_good == offline.n_good
        assert state.composition.n_bad == offline.n_bad


class TestActualQuality:
    def test_reads_ground_truth(self, inputs):
        execution = IndependentJoin(
            inputs, ScanRetriever(inputs.database1), ScanRetriever(inputs.database2)
        ).run(budgets=Budgets(max_documents1=50, max_documents2=50))
        good, bad = ActualQuality().estimate(execution.state)
        assert good == execution.report.composition.n_good
        assert bad == execution.report.composition.n_bad
