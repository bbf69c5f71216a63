"""Plan effort curves for drift telemetry.

A plan's effort→(n_good, n_bad, time) curve does not depend on any
requirement.  :class:`PlanEvaluationEngine` samples it once per plan on
the dyadic grid ``j/2^m`` (m at most :attr:`PlanEvaluationEngine.CURVE_M`
and never past the plan's bisection budget) so drift snapshots can record
the shape the optimizer believed.  Requirements are answered elsewhere:
:meth:`~repro.optimizer.optimizer.JoinOptimizer.optimize` runs the
bound-pruned descent, which probes the same memoized predictor.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.plan import JoinPlanSpec
from ..observability.tracer import SpanKind
from ..validation.invariants import active_checker


@dataclass(frozen=True)
class PlanCurve:
    """One plan's effort curve sampled on the dyadic fraction grid."""

    #: effort fractions j / 2**m, j = 0..2**m (m from ``CURVE_M``)
    fractions: np.ndarray
    n_good: np.ndarray
    n_bad: np.ndarray
    time: np.ndarray


class PlanEvaluationEngine:
    """Requirement-independent effort curves, built on first use.

    Owned by a :class:`~repro.optimizer.optimizer.JoinOptimizer`; curve
    probes go through the optimizer's memoized predictor, so every effort
    the curve touches is also a warm cache entry for the descent and for
    ``optimize_within_time``'s budget bisection.  The engine holds its
    optimizer weakly, so a retired optimizer and everything it built are
    freed by reference counting, without waiting for a full collection.
    """

    #: cap on the curve grid exponent: each grid point costs a model
    #: prediction (the high-effort ones are the most expensive), and a
    #: drift snapshot needs the curve's shape, not its fine detail
    CURVE_M = 4

    def __init__(self, optimizer) -> None:
        self._optimizer = weakref.proxy(optimizer)
        self._curves: Dict[JoinPlanSpec, PlanCurve] = {}

    def cached_curve(self, plan: JoinPlanSpec) -> Optional[PlanCurve]:
        """The plan's curve if one was already built, else None (no probes)."""
        return self._curves.get(plan)

    def curve(self, plan: JoinPlanSpec) -> PlanCurve:
        """The plan's curve, built on first use (may raise ValueError)."""
        if plan not in self._curves:
            predictor, max_effort = self._optimizer._cached_predictor(plan)
            grid_m = min(
                self._optimizer._bisection_steps(max_effort), self.CURVE_M
            )
            size = 1 << grid_m
            with self._optimizer.observability.span(
                SpanKind.PLAN_CURVE,
                f"curve.{plan.join.value.lower()}",
                plan=plan.describe(),
                grid_points=size + 1,
            ):
                fractions = np.arange(size + 1) / size
                predictions = [
                    predictor(float(fraction) * max_effort)
                    for fraction in fractions
                ]
            curve = PlanCurve(
                fractions=fractions,
                n_good=np.array([p.n_good for p in predictions]),
                n_bad=np.array([p.n_bad for p in predictions]),
                time=np.array([p.total_time for p in predictions]),
            )
            checker = active_checker()
            if checker.enabled:
                checker.check_curve(
                    f"engine.curve[{plan.describe()}]",
                    curve.n_good,
                    curve.n_bad,
                    curve.time,
                )
            self._curves[plan] = curve
        return self._curves[plan]
