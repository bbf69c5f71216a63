"""Tests for the experiment harness: testbed, figure runners, Table II."""

import pathlib

import pytest

from repro.core import JoinKind, QualityRequirement
from repro.experiments import (
    TABLE2_REQUIREMENTS,
    TestbedConfig,
    build_testbed,
    build_trajectories,
    format_accuracy_rows,
    format_documents_rows,
    format_table2_rows,
    record_trajectory,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_table2,
    time_to_meet,
)
from repro.optimizer import enumerate_plans
from repro.validation.differential import BisectionJoinOptimizer

#: the committed Table II that ``benchmarks/bench_table2_optimizer.py``
#: writes and ``repro table2 --scale 0.6`` prints row for row
TABLE2_RESULTS = (
    pathlib.Path(__file__).parents[1]
    / "benchmarks"
    / "results"
    / "table2_optimizer.txt"
)


class TestTestbed:
    def test_memoized(self, testbed):
        assert build_testbed(TestbedConfig(scale=0.6)) is testbed

    def test_three_relations(self, testbed):
        assert set(testbed.extractors) == {"HQ", "EX", "MG"}

    def test_three_eval_databases(self, testbed):
        assert set(testbed.databases) == {"nyt96", "nyt95", "wsj"}

    def test_knob_curves_sane(self, testbed):
        for relation, char in testbed.characterizations.items():
            assert char.tp_at(0.0) == pytest.approx(1.0)
            assert char.tp_at(0.4) > char.fp_at(0.4), relation

    def test_default_task_is_hq_ex(self, hq_ex_task):
        assert hq_ex_task.relation1 == "HQ"
        assert hq_ex_task.relation2 == "EX"
        assert hq_ex_task.database1.name == "nyt96"
        assert hq_ex_task.database2.name == "nyt95"

    def test_alternate_task(self, testbed):
        task = testbed.task(relation1="MG", relation2="EX", database1="wsj",
                            database2="nyt95")
        assert task.relation1 == "MG"
        assert task.profile1.n_good_docs > 0

    def test_seed_queries_present(self, hq_ex_task):
        assert len(hq_ex_task.seed_queries) == 3


class TestFigureRunners:
    def test_figure9_shape(self, hq_ex_task):
        rows = run_figure9(hq_ex_task, percents=(25, 100))
        assert len(rows) == 2
        # Quality grows with coverage, estimates track actuals.
        assert rows[1].actual_good > rows[0].actual_good
        assert rows[1].estimated_good > rows[0].estimated_good
        assert rows[1].estimated_good == pytest.approx(
            rows[1].actual_good, rel=0.35
        )
        assert rows[1].estimated_time == pytest.approx(rows[1].actual_time)

    def test_figure10_shape(self, hq_ex_task):
        rows = run_figure10(hq_ex_task, percents=(25, 100))
        assert rows[1].estimated_good == pytest.approx(
            rows[1].actual_good, rel=0.5
        )
        assert rows[1].estimated_time == pytest.approx(
            rows[1].actual_time, rel=0.25
        )

    def test_figure11_shape(self, hq_ex_task):
        rows = run_figure11(hq_ex_task, percents=(30, 100))
        # ZGJN: trend agreement within a factor (paper reports the same
        # systematic deviation for this model).
        for row in rows:
            assert row.actual_good / 4 <= row.estimated_good <= row.actual_good * 4
        assert rows[1].actual_good >= rows[0].actual_good

    def test_figure12_shape(self, hq_ex_task):
        rows = run_figure12(hq_ex_task, percents=(30, 100))
        for row in rows:
            assert row.estimated_docs2 == pytest.approx(
                row.actual_docs2, rel=1.0
            )
        assert rows[1].actual_docs2 >= rows[0].actual_docs2

    def test_formatting(self, hq_ex_task):
        rows = run_figure9(hq_ex_task, percents=(50,))
        text = format_accuracy_rows(rows, "Figure 9")
        assert "Figure 9" in text and "est good" in text
        doc_rows = run_figure12(hq_ex_task, percents=(50,))
        assert "est |Dr1|" in format_documents_rows(doc_rows, "Figure 12")


class TestTable2:
    @pytest.fixture(scope="class")
    def small_plan_space(self, hq_ex_task):
        return enumerate_plans(
            hq_ex_task.extractor1.name,
            hq_ex_task.extractor2.name,
            thetas1=(0.4,),
            thetas2=(0.4,),
        )

    @pytest.fixture(scope="class")
    def trajectories(self, hq_ex_task, small_plan_space):
        return build_trajectories(hq_ex_task, small_plan_space)

    @pytest.fixture(scope="class")
    def full_plan_space(self, hq_ex_task):
        return enumerate_plans(
            hq_ex_task.extractor1.name, hq_ex_task.extractor2.name
        )

    @pytest.fixture(scope="class")
    def full_trajectories(self, hq_ex_task, full_plan_space):
        return build_trajectories(hq_ex_task, full_plan_space)

    def test_trajectory_monotone(self, hq_ex_task, small_plan_space):
        trajectory = record_trajectory(hq_ex_task, small_plan_space[0])
        # An exhaustive run ends by exhaustion, below no cap.
        assert trajectory.end is not None
        points = [*trajectory.points, trajectory.end]
        goods = [point.composition.n_good for point in points]
        bads = [point.composition.n_bad for point in points]
        times = [sum(point.time) for point in points]
        assert goods == sorted(goods)
        assert bads == sorted(bads)
        assert times == sorted(times)

    def test_time_to_meet(self, hq_ex_task, small_plan_space, trajectories):
        trajectory = next(iter(trajectories.values()))
        final_good = trajectory.end.composition.n_good
        requirement = QualityRequirement(max(final_good // 2, 1), 10**9)
        time = time_to_meet(trajectory, requirement)
        assert time is not None
        assert 0 < time <= sum(trajectory.end.time)

    def test_unreachable_requirement(self, trajectories):
        trajectory = next(iter(trajectories.values()))
        assert time_to_meet(trajectory, QualityRequirement(10**9, 10**9)) is None

    def test_rows_structure(self, hq_ex_task, small_plan_space, trajectories):
        rows = run_table2(
            hq_ex_task,
            requirements=((5, 1000), (50, 10000)),
            plans=small_plan_space,
            trajectories=trajectories,
        )
        assert len(rows) == 2
        for row in rows:
            assert row.n_candidates > 0
            assert row.chosen is not None
            # Chosen plan must actually meet the requirement...
            assert row.chosen_time is not None
            # ...and be within a small factor of the actually-fastest.
            if row.n_faster:
                assert row.faster_range[0] > 0.15

    def test_zgjn_not_chosen(self, hq_ex_task, small_plan_space, trajectories):
        """The paper's headline negative result."""
        rows = run_table2(
            hq_ex_task,
            requirements=((5, 1000), (20, 2000), (100, 10**5)),
            plans=small_plan_space,
            trajectories=trajectories,
        )
        assert all(
            row.chosen is None or row.chosen.join is not JoinKind.ZGJN
            for row in rows
        )

    def test_eliminated_plans_much_slower(
        self, hq_ex_task, small_plan_space, trajectories
    ):
        rows = run_table2(
            hq_ex_task,
            requirements=((20, 10**5),),
            plans=small_plan_space,
            trajectories=trajectories,
        )
        [row] = rows
        assert row.n_slower > 0
        assert row.slower_range[1] > 1.5

    def test_formatting(self, hq_ex_task, small_plan_space, trajectories):
        rows = run_table2(
            hq_ex_task,
            requirements=((5, 1000),),
            plans=small_plan_space,
            trajectories=trajectories,
        )
        text = format_table2_rows(rows, "Table II")
        assert "tau_g" in text and "chosen plan" in text

    def test_table2_independent_of_evaluation_path(
        self, hq_ex_task, full_plan_space, full_trajectories
    ):
        """The pruned descent and the unpruned per-plan bisection print
        the same Table II over the whole grid and plan space."""
        pruned = run_table2(
            hq_ex_task, plans=full_plan_space, trajectories=full_trajectories
        )
        unpruned = run_table2(
            hq_ex_task,
            plans=full_plan_space,
            trajectories=full_trajectories,
            optimizer=BisectionJoinOptimizer(
                hq_ex_task.catalog(),
                costs=hq_ex_task.costs,
                feasibility_margin=0.15,
            ),
        )
        assert len(pruned) == len(TABLE2_REQUIREMENTS)
        assert format_table2_rows(pruned, "Table II") == format_table2_rows(
            unpruned, "Table II"
        )

    def test_table2_matches_the_committed_results(
        self, hq_ex_task, full_plan_space, full_trajectories
    ):
        """Every row of the committed Table II, reproduced exactly."""
        committed = TABLE2_RESULTS.read_text().splitlines()
        rows = run_table2(
            hq_ex_task, plans=full_plan_space, trajectories=full_trajectories
        )
        reproduced = format_table2_rows(rows, committed[0]).splitlines()
        assert len(reproduced) == len(committed)
        for line, expected in zip(reproduced, committed):
            assert line == expected

    def test_requirement_grid_covers_paper_range(self):
        taus = [tg for tg, _ in TABLE2_REQUIREMENTS]
        assert min(taus) == 1
        assert max(taus) >= 1024
