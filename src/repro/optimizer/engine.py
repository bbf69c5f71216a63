"""Shared-curve plan evaluation: one effort curve per plan.

The optimizer's inner loop bisects every plan's effort axis once per
requirement.  But a plan's effort→(n_good, n_bad, time) curve does not
depend on the requirement at all — only *where on the curve* the answer
lies does.  :class:`PlanEvaluationEngine` therefore precomputes each
plan's curve once, on the dyadic grid ``j/2^m`` (m bounded by the
optimizer's effort resolution and the :attr:`PlanEvaluationEngine.CURVE_M`
cost cap), and answers any requirement with a ``searchsorted`` over the
curve plus — when the bisection budget exceeds the grid resolution — a
float refinement inside the located bracket.

**Byte-for-byte equivalence with bisection.**  The per-requirement
bisection on ``[0, 1]`` (kept as the reference in
:mod:`repro.validation.differential`) probes midpoints ``(lo + hi) / 2``
starting from the exact floats 0.0 and 1.0, so its first ``m`` probe
points are exactly the dyadic grid fractions ``j/2^m`` — which float64
represents exactly, and which the grid computes with the same ``fraction * max_effort`` product.  Locating
the transition index on a monotone curve is therefore *identical* to
running those ``m`` bisection steps, and the remaining ``steps - m``
iterations run the original float bisection inside the bracket.  A
determinism test asserts the equality; if a curve ever turns out
non-monotone (a model-contract violation), the engine falls back to index
bisection over the stored curve, which replicates the reference probe
sequence regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.plan import JoinPlanSpec
from ..observability.tracer import SpanKind
from ..validation.invariants import active_checker


@dataclass(frozen=True)
class PlanCurve:
    """One plan's effort curve sampled on the dyadic fraction grid."""

    plan: JoinPlanSpec
    max_effort: float
    #: grid resolution: fractions are j / 2**grid_m, j = 0..2**grid_m
    grid_m: int
    fractions: np.ndarray
    n_good: np.ndarray
    n_bad: np.ndarray
    time: np.ndarray
    #: whether n_good is non-decreasing along the grid (the model
    #: contract); when False the engine bisects indices instead of
    #: searchsorting values
    monotone: bool

    @property
    def grid_size(self) -> int:
        return 1 << self.grid_m


class PlanEvaluationEngine:
    """Requirement-independent curves shared across all requirements.

    Owned by a :class:`~repro.optimizer.optimizer.JoinOptimizer`; curve
    probes go through the optimizer's memoized predictor, so every effort
    the curve touches is also a warm cache entry for later refinements and
    for ``optimize_within_time``'s budget bisection.
    """

    #: default cap on the curve grid exponent.  The equivalence argument
    #: in the module docstring holds for *any* exponent ≤ the bisection
    #: budget, so the cap is purely a cost knob: eager grid points cost a
    #: model prediction each (the high-effort ones are the most expensive)
    #: while refinement probes below the grid are memoized and shared
    #: across requirements, so a small grid wins once transitions cluster
    #: on a stretch of the effort axis.
    CURVE_M = 4

    def __init__(self, optimizer, curve_m: Optional[int] = None) -> None:
        self._optimizer = optimizer
        self._curve_m = self.CURVE_M if curve_m is None else curve_m
        self._curves: Dict[JoinPlanSpec, PlanCurve] = {}

    def _grid_m(self, max_effort: float) -> int:
        """Grid exponent: effort-resolution sized, never past the budget."""
        steps = self._optimizer._bisection_steps(max_effort)
        resolution_m = max(1, self._optimizer.effort_resolution.bit_length() - 1)
        return min(steps, resolution_m, max(1, self._curve_m))

    def cached_curve(self, plan: JoinPlanSpec) -> Optional[PlanCurve]:
        """The plan's curve if one was already built, else None (no probes)."""
        return self._curves.get(plan)

    def curve(self, plan: JoinPlanSpec) -> PlanCurve:
        """The plan's curve, built on first use (may raise ValueError)."""
        if plan not in self._curves:
            predictor, max_effort = self._optimizer._cached_predictor(plan)
            grid_m = self._grid_m(max_effort)
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
            n_good = np.array([p.n_good for p in predictions])
            curve = PlanCurve(
                plan=plan,
                max_effort=max_effort,
                grid_m=grid_m,
                fractions=fractions,
                n_good=n_good,
                n_bad=np.array([p.n_bad for p in predictions]),
                time=np.array([p.total_time for p in predictions]),
                monotone=bool(np.all(np.diff(n_good) >= 0)),
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

    def minimal_fraction(
        self, plan: JoinPlanSpec, tau_good: float
    ) -> Optional[float]:
        """Smallest effort fraction reaching *tau_good*, or None.

        Result is identical to the per-requirement bisection
        (:func:`repro.validation.differential.reference_minimal_fraction`)
        run against the plan's memoized predictor.
        """
        predictor, max_effort = self._optimizer._cached_predictor(plan)
        if max_effort <= 0:
            return None
        if plan not in self._curves:
            # Feasibility check before paying for the curve: a plan that
            # cannot reach the target at full effort needs one (memoized)
            # probe, exactly like the reference bisection's first test, and
            # the probe doubles as the curve's last grid point if a later
            # requirement does build it.
            if predictor(max_effort).n_good < tau_good:
                return None
        curve = self.curve(plan)
        if curve.n_good[-1] < tau_good:
            return None
        steps = self._optimizer._bisection_steps(max_effort)
        grid_steps = min(steps, curve.grid_m)
        size = curve.grid_size
        width = 1 << (curve.grid_m - grid_steps)
        if curve.monotone:
            transition = int(
                np.searchsorted(curve.n_good, tau_good, side="left")
            )
            # Bisection's bracket after grid_steps iterations is the
            # width-aligned interval (hi - width, hi] containing the
            # transition; a predicate true everywhere still leaves
            # hi = width (lo = 0 is never probed).
            transition = max(min(transition, size), 1)
            hi_index = -(-transition // width) * width
            checker = active_checker()
            if checker.enabled:
                checker.check_bracket(
                    f"engine.minimal_fraction[{plan.describe()}]",
                    curve.n_good,
                    tau_good,
                    hi_index,
                    width,
                )
        else:
            lo_index, hi_index = 0, size
            for _ in range(grid_steps):
                mid_index = (lo_index + hi_index) // 2
                if curve.n_good[mid_index] >= tau_good:
                    hi_index = mid_index
                else:
                    lo_index = mid_index
        if steps <= curve.grid_m:
            return hi_index / size
        lo = (hi_index - width) / size
        hi = hi_index / size
        for _ in range(steps - curve.grid_m):
            mid = (lo + hi) / 2.0
            if predictor(mid * max_effort).n_good >= tau_good:
                hi = mid
            else:
                lo = mid
        return hi

