"""Runner for Table II: optimizer choices across (τg, τb) requirements.

For every requirement level the paper reports: which plan the optimizer
chose, how many candidate plans *actually* meet the requirement, how many
of those are faster/slower than the chosen plan, and the relative-time
ranges of both groups.

Actual per-plan behaviour comes from one recorded exhaustive run per
plan (:meth:`~repro.joins.base.JoinAlgorithm.record`): a requirement's
run stops at the first recorded stopping check that meets τg or exceeds
τb (:meth:`~repro.joins.trajectory.Trajectory.serve`), and the plan's
actual time is that run's time when it met the requirement.  Both quality
counts only grow as a run goes on, so one trajectory serves every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.plan import JoinPlanSpec
from ..core.preferences import QualityRequirement
from ..joins.base import Budgets
from ..joins.trajectory import Trajectory
from ..optimizer.binder import bind_plan
from ..optimizer.enumerator import enumerate_plans
from ..optimizer.optimizer import JoinOptimizer
from .testbed import JoinTask

#: no caps on either side: a Table II run goes to exhaustion
UNCAPPED = Budgets().per_side()


def record_trajectory(task: JoinTask, plan: JoinPlanSpec) -> Trajectory:
    """Run *plan* to exhaustion and return its recorded run."""
    executor = bind_plan(
        task.environment(plan.extractor1.theta, plan.extractor2.theta), plan
    )
    executor.record()
    executor.run()
    return executor.trajectory(UNCAPPED)


def time_to_meet(
    trajectory: Trajectory, requirement: QualityRequirement
) -> Optional[float]:
    """The time a run of *trajectory*'s plan takes to meet (τg, τb), or
    None when it stops without meeting it."""
    report, _ = trajectory.serve(requirement, UNCAPPED)
    return report.time.total if report.satisfied else None


@dataclass(frozen=True)
class Table2Row:
    """One Table II line."""

    tau_good: int
    tau_bad: int
    n_candidates: int
    chosen: Optional[JoinPlanSpec]
    chosen_time: Optional[float]
    n_faster: int
    n_slower: int
    faster_range: Tuple[float, float]
    slower_range: Tuple[float, float]

    def describe_chosen(self) -> str:
        return self.chosen.describe() if self.chosen else "(none)"


#: The (τg, τb) grid of Table II.
TABLE2_REQUIREMENTS: Tuple[Tuple[int, int], ...] = (
    (1, 20), (2, 30), (2, 50), (4, 20), (4, 40), (8, 40), (8, 80),
    (16, 50), (16, 80), (16, 160), (32, 84), (32, 160), (32, 320),
    (64, 320), (64, 640), (128, 640), (128, 1280), (256, 1280),
    (256, 2560), (512, 1024), (512, 2560), (512, 5120),
    (1024, 5120), (1024, 10240), (2048, 10240), (2048, 20480),
    (4096, 20480), (4096, 40960),
)


def run_table2(
    task: JoinTask,
    requirements: Sequence[Tuple[int, int]] = TABLE2_REQUIREMENTS,
    plans: Optional[Sequence[JoinPlanSpec]] = None,
    optimizer: Optional[JoinOptimizer] = None,
    trajectories: Optional[Dict[JoinPlanSpec, Trajectory]] = None,
) -> List[Table2Row]:
    """Reproduce Table II over a requirement grid.

    Pass precomputed ``trajectories`` to amortize plan executions across
    calls (benchmarks sweep requirement subsets).
    """
    if plans is None:
        plans = enumerate_plans(
            task.extractor1.name, task.extractor2.name
        )
    if optimizer is None:
        optimizer = JoinOptimizer(
            task.catalog(), costs=task.costs, feasibility_margin=0.15
        )
    if trajectories is None:
        trajectories = build_trajectories(task, plans)
    rows: List[Table2Row] = []
    for tau_good, tau_bad in requirements:
        requirement = QualityRequirement(tau_good=tau_good, tau_bad=tau_bad)
        result = optimizer.optimize(list(plans), requirement)
        chosen_plan = result.chosen.plan if result.chosen else None
        actual_times = {
            plan: time_to_meet(trajectory, requirement)
            for plan, trajectory in trajectories.items()
        }
        feasible = {
            plan: time for plan, time in actual_times.items() if time is not None
        }
        chosen_time = (
            feasible.get(chosen_plan) if chosen_plan is not None else None
        )
        faster: List[float] = []
        slower: List[float] = []
        if chosen_time is not None:
            for plan, time in feasible.items():
                if plan == chosen_plan:
                    continue
                (faster if time < chosen_time else slower).append(
                    time / chosen_time
                )
        rows.append(
            Table2Row(
                tau_good=tau_good,
                tau_bad=tau_bad,
                n_candidates=len(feasible),
                chosen=chosen_plan,
                chosen_time=chosen_time,
                n_faster=len(faster),
                n_slower=len(slower),
                faster_range=(
                    (min(faster), max(faster)) if faster else (0.0, 0.0)
                ),
                slower_range=(
                    (min(slower), max(slower)) if slower else (0.0, 0.0)
                ),
            )
        )
    return rows


def build_trajectories(
    task: JoinTask, plans: Sequence[JoinPlanSpec]
) -> Dict[JoinPlanSpec, Trajectory]:
    """Recorded exhaustive runs of every plan (reusable across Table II
    rows)."""
    return {plan: record_trajectory(task, plan) for plan in plans}
