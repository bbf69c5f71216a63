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
