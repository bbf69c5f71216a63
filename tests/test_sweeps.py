"""Tests for the quality/time frontier sweep."""

import pytest

from repro.experiments import format_frontier, quality_frontier
from repro.optimizer import enumerate_plans


@pytest.fixture(scope="module")
def frontier(hq_ex_task):
    plans = enumerate_plans(
        hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
    )
    return quality_frontier(
        hq_ex_task.catalog(), plans, costs=hq_ex_task.costs
    )


class TestQualityFrontier:
    def test_non_empty(self, frontier):
        assert len(frontier) >= 5

    def test_sorted_by_time(self, frontier):
        times = [point.time for point in frontier]
        assert times == sorted(times)

    def test_good_strictly_increasing(self, frontier):
        goods = [point.n_good for point in frontier]
        assert all(a < b for a, b in zip(goods, goods[1:]))

    def test_no_dominated_points(self, frontier):
        for i, a in enumerate(frontier):
            for b in frontier[i + 1 :]:
                # b is later (slower); it must deliver strictly more good.
                assert b.n_good > a.n_good

    def test_spans_plan_families(self, frontier):
        """A healthy frontier is not owned by a single plan family."""
        families = {point.plan.join for point in frontier}
        assert len(families) >= 2

    def test_precision_defined(self, frontier):
        for point in frontier:
            assert 0.0 <= point.precision <= 1.0

    def test_formatting(self, frontier):
        text = format_frontier(frontier[:3], "Frontier")
        assert "Frontier" in text
        assert "precision" in text


class TestDistinctResults:
    def test_join_state_distinct(self, hq_ex_task):
        from repro.joins import Budgets, IndependentJoin
        from repro.retrieval import ScanRetriever

        inputs = hq_ex_task.inputs()
        execution = IndependentJoin(
            inputs,
            ScanRetriever(inputs.database1),
            ScanRetriever(inputs.database2),
        ).run(budgets=Budgets(max_documents1=150, max_documents2=150))
        state = execution.state
        distinct = state.distinct_results()
        assert len(distinct) <= len(state.results)
        assert len({d.values for d in distinct}) == len(distinct)

    def test_distinct_prefers_good_derivation(self):
        from repro.core import JoinState, RelationSchema
        from repro.core.types import ExtractedTuple

        HQ = RelationSchema("HQ", ("Company", "Location"))
        EX = RelationSchema("EX", ("Company", "CEO"))

        def tup(rel, values, good, doc):
            return ExtractedTuple(rel, tuple(values), doc, 1.0, good)

        state = JoinState(HQ, EX)
        state.add(1, [tup("HQ", ("a", "x"), False, 1),
                      tup("HQ", ("a", "x"), True, 2)])
        state.add(2, [tup("EX", ("a", "p"), True, 1)])
        [distinct] = state.distinct_results()
        assert distinct.is_good  # the all-good derivation wins
