"""Plan-space sweeps: the quality/time frontier.

The optimizer answers point queries ("fastest plan for (τg, τb)"); this
module answers the exploratory question — *what is achievable at all?* —
by sweeping every plan across its effort axis and keeping the Pareto
frontier over (execution time ↓, good tuples ↑).  Each frontier point
records the plan, the operating point, and the predicted composition, so a
user can read off the achievable good-tuple count at any time budget (or
vice versa) before committing to a contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.plan import JoinPlanSpec
from ..joins.costs import CostModel
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.tracer import SpanKind
from ..optimizer.catalog import StatisticsCatalog
from ..optimizer.optimizer import JoinOptimizer


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal operating point of the plan space."""

    plan: JoinPlanSpec
    effort_fraction: float
    n_good: float
    n_bad: float
    time: float

    @property
    def precision(self) -> float:
        total = self.n_good + self.n_bad
        return self.n_good / total if total > 0 else 1.0


def _frontier_candidates(
    optimizer: JoinOptimizer,
    plan: JoinPlanSpec,
    effort_fractions: Sequence[float],
) -> List[FrontierPoint]:
    """One plan's sweep: a candidate point per productive effort level."""
    try:
        predictor, max_effort = optimizer._cached_predictor(plan)
    except ValueError:
        return []  # plan lacks offline parameters (no queries/classifier)
    candidates: List[FrontierPoint] = []
    for fraction in effort_fractions:
        prediction = predictor(fraction * max_effort)
        if prediction.n_good <= 0:
            continue
        candidates.append(
            FrontierPoint(
                plan=plan,
                effort_fraction=fraction,
                n_good=prediction.n_good,
                n_bad=prediction.n_bad,
                time=prediction.total_time,
            )
        )
    return candidates


def quality_frontier(
    catalog: StatisticsCatalog,
    plans: Sequence[JoinPlanSpec],
    costs: Optional[CostModel] = None,
    effort_fractions: Sequence[float] = (
        0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8, 1.0,
    ),
    observability: Optional[ObservabilityContext] = None,
) -> List[FrontierPoint]:
    """Pareto frontier over (time ↓, good ↑) across plans × efforts.

    Points are returned sorted by time; by construction their good-tuple
    counts are strictly increasing along the list.

    Plans whose guaranteed good-tuple ceiling is zero are skipped before
    any model is built: the frontier only keeps points with
    ``n_good > 0``, so such plans cannot contribute and the result is
    identical to the sweep over every plan.
    """
    obs = ensure_observability(observability)
    optimizer = JoinOptimizer(catalog, costs=costs, observability=observability)
    before = optimizer.pruning.as_dict()
    survivors = []
    for plan in plans:
        bounds = optimizer.plan_bounds(plan)
        if bounds is not None and bounds.good_upper <= 0.0:
            optimizer.pruning.infeasible_bound += 1
            continue
        survivors.append(plan)
    optimizer._publish_pruning(before)
    candidates: List[FrontierPoint] = []
    for plan in survivors:
        with obs.span(SpanKind.EXPERIMENT, "frontier", plan=plan.describe()):
            candidates.extend(
                _frontier_candidates(optimizer, plan, effort_fractions)
            )
    candidates.sort(key=lambda point: (point.time, -point.n_good))
    frontier: List[FrontierPoint] = []
    best_good = 0.0
    for point in candidates:
        if point.n_good > best_good:
            frontier.append(point)
            best_good = point.n_good
    return frontier


def format_frontier(points: Sequence[FrontierPoint], title: str) -> str:
    """Render a frontier as the harness's standard ASCII table."""
    from .reporting import format_table

    body = format_table(
        ["time", "good", "bad", "precision", "effort", "plan"],
        [
            (
                f"{p.time:.0f}",
                f"{p.n_good:.0f}",
                f"{p.n_bad:.0f}",
                f"{p.precision:.2f}",
                f"{p.effort_fraction:.2f}",
                p.plan.describe(),
            )
            for p in points
        ],
    )
    return f"{title}\n{body}"
