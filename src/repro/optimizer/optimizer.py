"""The quality-aware join optimizer (Section VI, "Putting It All Together").

Given (τg, τb), the optimizer evaluates every candidate plan with the
Section V models and picks the feasible plan with the minimum predicted
execution time.  Per plan it must also choose the *operating point* — how
many documents to retrieve / queries to issue.  Exhaustively plugging in
every (|Dr1|, |Dr2|) is wasteful, so:

* IDJN follows the paper's square-traversal heuristic: minimize the sum of
  documents retrieved conditioned on their product by keeping the two
  sides' progress balanced — both sides advance along a common fraction t
  of their effort axes, and t is found by bisection on the (monotone)
  predicted good-tuple count;
* OIJN bisects its single effort axis (outer documents);
* ZGJN bisects its query budget.

A plan is *feasible* if some operating point satisfies both bounds:
predicted good and bad tuples are both monotone in effort, so the minimal
t reaching τg is the cheapest candidate — if it violates τb, no later
point can repair it and the plan is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.plan import JoinKind, JoinPlanSpec
from ..core.preferences import QualityRequirement
from ..joins.costs import CostModel
from ..models.idjn_model import IDJNModel
from ..models.oijn_model import OIJNModel
from ..models.predictions import QualityPrediction
from ..models.zgjn_model import ZGJNModel
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.tracer import SpanKind
from ..validation.invariants import active_checker
from .bounds import PlanBounds, plan_bounds
from .catalog import StatisticsCatalog
from .engine import PlanEvaluationEngine


@dataclass(frozen=True)
class PlanEvaluation:
    """One candidate plan's assessment against a requirement."""

    plan: JoinPlanSpec
    feasible: bool
    prediction: Optional[QualityPrediction]
    #: the chosen operating point, as a fraction of the plan's effort axis
    effort_fraction: float = 0.0
    #: True when the pruning layer discarded the plan mid-descent — either
    #: provably unable to meet τb or provably slower than a feasible
    #: competitor — without computing its full prediction.  Pruned
    #: evaluations are never feasible and never chosen; on the unpruned
    #: reference the same plan is either infeasible or strictly slower
    #: than the chosen one (asserted by the equivalence tests).
    pruned: bool = False

    @property
    def predicted_time(self) -> float:
        if self.prediction is None:
            return float("inf")
        return self.prediction.total_time


class PruningTallies:
    """Plain-int pruning/reuse tallies (zero observability coupling).

    Scraped into ``repro_plans_pruned_total`` counters after each pruned
    optimization when observability is on.
    """

    __slots__ = (
        "infeasible_bound",
        "infeasible_tau_bad",
        "dominated",
        "descent_probes",
        "monotonicity_fallbacks",
    )

    def __init__(self) -> None:
        self.infeasible_bound = 0
        self.infeasible_tau_bad = 0
        self.dominated = 0
        self.descent_probes = 0
        self.monotonicity_fallbacks = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def plans_pruned(self) -> int:
        return self.infeasible_bound + self.infeasible_tau_bad + self.dominated


class _PlanRuntime:
    """Requirement-independent descent context for one plan.

    Built once per plan and shared by every requirement in a sweep, so
    the per-requirement hot loop never re-hashes the plan dataclass:
    bounds, predictor, bisection budget, and the float-keyed probe-triple
    cache all live here behind an ``id()`` lookup.
    """

    __slots__ = (
        "plan",
        "bounds",
        "predictor",
        "max_effort",
        "steps",
        "memo",
        "triples",
        "error",
        "non_monotone",
    )

    def __init__(self, plan: JoinPlanSpec, bounds) -> None:
        self.plan = plan
        self.bounds = bounds
        self.predictor: Optional[Callable[[float], QualityPrediction]] = None
        self.max_effort = 0.0
        self.steps = 0
        self.memo: Dict[float, QualityPrediction] = {}
        #: effort -> (n_good, n_bad, time); every probe this optimizer has
        #: answered — the descent's fast path
        self.triples: Dict[float, Tuple[float, float, float]] = {}
        self.error = False
        #: mirror of the optimizer's non-monotone registry so the hot
        #: loop reads a slot instead of hashing the plan into a set
        self.non_monotone = False


class _DescentState:
    """One plan's bisection bracket during a pruned optimization."""

    __slots__ = (
        "index",
        "runtime",
        "steps_left",
        "lo",
        "hi",
        "lo_vals",
        "hi_vals",
        "guard_failed",
    )

    def __init__(
        self, index: int, runtime: _PlanRuntime, guard_failed: bool
    ) -> None:
        self.index = index
        self.runtime = runtime
        self.steps_left = runtime.steps
        self.lo = 0.0
        self.hi = 1.0
        #: (n_good, n_bad, time) at the probed bracket ends; ``lo_vals`` is
        #: None until the descent first probes a failing midpoint (the
        #: reference bisection never probes effort 0)
        self.lo_vals: Optional[Tuple[float, float, float]] = None
        self.hi_vals: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.guard_failed = guard_failed


@dataclass(frozen=True)
class OptimizationResult:
    """The chosen plan plus the full candidate assessment (Table II data)."""

    requirement: QualityRequirement
    chosen: Optional[PlanEvaluation]
    evaluations: Tuple[PlanEvaluation, ...]

    @property
    def feasible(self) -> Tuple[PlanEvaluation, ...]:
        return tuple(e for e in self.evaluations if e.feasible)


class JoinOptimizer:
    """Evaluates candidate plans with the analytical models."""

    #: bisection resolution floor: at least 64 cells per effort axis, one
    #: per unit of effort on longer axes (capped at 2**16 cells)
    EFFORT_RESOLUTION = 64

    def __init__(
        self,
        catalog: StatisticsCatalog,
        costs: Optional[CostModel] = None,
        feasibility_margin: float = 0.0,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        self.catalog = catalog
        self.costs = costs or CostModel()
        #: tracing/metrics context; defaults to the no-op context
        self.observability = ensure_observability(observability)
        if feasibility_margin < 0.0:
            raise ValueError("feasibility_margin must be non-negative")
        #: Overprovisioning factor on τg: the optimizer plans for
        #: ``τg · (1 + margin)`` good tuples.  The analytical models can
        #: overestimate a plan's asymptotic reach by 5-15% (the paper
        #: reports the same tendency), so a small margin keeps near-ceiling
        #: requirements from being assigned plans that just miss them.
        #: 0.0 reproduces the paper's optimizer exactly.
        self.feasibility_margin = feasibility_margin
        # Models are requirement-independent; cache them per plan so that
        # sweeping many (τg, τb) levels re-uses every constructed model,
        # and memoize predictions per (plan, effort) since bisection from
        # different requirements frequently probes the same efforts.
        self._predictors: Dict[
            JoinPlanSpec, Tuple[Callable[[float], QualityPrediction], float]
        ] = {}
        self._prediction_memo: Dict[
            JoinPlanSpec, Dict[float, QualityPrediction]
        ] = {}
        # Constructed analytical models per plan, kept so telemetry can
        # scrape their passive cache tallies (OIJN issue-probability LRU).
        self._models: Dict[JoinPlanSpec, object] = {}
        #: drift telemetry's effort curves (``curve_points``) only
        self._engine = PlanEvaluationEngine(self)
        self.pruning = PruningTallies()
        self._bounds_cache: Dict[JoinPlanSpec, Optional[PlanBounds]] = {}
        #: plans whose observed probes violated the monotone-curve model
        #: contract; they are never pruned again (deterministic fallback)
        self._non_monotone: set = set()
        #: per-plan descent runtimes, keyed by ``id(plan)`` so the sweep
        #: hot loop never re-hashes plan dataclasses (identity is
        #: re-checked against the held reference before reuse)
        self._runtimes: Dict[int, _PlanRuntime] = {}

    # -- per-plan models ---------------------------------------------------------

    def _cached_predictor(
        self, plan: JoinPlanSpec
    ) -> Tuple[Callable[[float], QualityPrediction], float]:
        if plan not in self._predictors:
            raw, max_effort = self._predictor(plan)
            memo = self._prediction_memo.setdefault(plan, {})

            def memoized(
                effort: float,
                _raw: Callable[[float], QualityPrediction] = raw,
                _memo: Dict[float, QualityPrediction] = memo,
            ) -> QualityPrediction:
                # Keyed on the exact effort: every probe the bisection,
                # grid, or sweeps produce is a dyadic fraction of
                # max_effort, so keys are reproducible floats — rounding
                # (the old key) made distinct efforts on large axes
                # collide and return a neighbouring point's prediction.
                # One dict per plan keeps the hot path from re-hashing
                # the whole plan dataclass on every probe.
                found = _memo.get(effort)
                if found is None:
                    found = _raw(effort)
                    _memo[effort] = found
                return found

            self._predictors[plan] = (memoized, max_effort)
        return self._predictors[plan]

    def _predictor(
        self, plan: JoinPlanSpec
    ) -> Tuple[Callable[[float], QualityPrediction], float]:
        statistics = self.catalog.at(plan.extractor1.theta, plan.extractor2.theta)
        per_value = self.catalog.per_value
        overlap = self.catalog.overlap
        if plan.join is JoinKind.IDJN:
            model = IDJNModel(
                statistics,
                plan.retrieval1,
                plan.retrieval2,
                costs=self.costs,
                per_value=per_value,
                overlap=overlap,
            )
            self._models[plan] = model
            max1, max2 = model.max_effort(1), model.max_effort(2)

            def predict(effort: float) -> QualityPrediction:
                t = effort / max(max1, max2, 1)
                return model.predict(t * max1, t * max2)

            return predict, float(max(max1, max2))
        if plan.join is JoinKind.OIJN:
            model = OIJNModel(
                statistics,
                plan.outer_retrieval,
                outer=plan.outer,
                costs=self.costs,
                per_value=per_value,
                overlap=overlap,
            )
            self._models[plan] = model
            return model.predict, float(model.max_effort)
        model = ZGJNModel(
            statistics,
            costs=self.costs,
            per_value=per_value,
            overlap=overlap,
        )
        self._models[plan] = model
        return model.predict, float(model.max_queries_from_r1())

    def _bisection_steps(self, max_effort: float) -> int:
        steps = 1
        while (1 << steps) < max(self.EFFORT_RESOLUTION, int(max_effort)):
            steps += 1
        return min(steps, 16)

    # -- bound-based pruning (tier A + descent tier B) ---------------------------

    def plan_bounds(self, plan: JoinPlanSpec) -> Optional[PlanBounds]:
        """Guaranteed quality ceilings for the plan (cached; None = unknown)."""
        if plan not in self._bounds_cache:
            self._bounds_cache[plan] = plan_bounds(self.catalog, plan)
        return self._bounds_cache[plan]

    def predict_full_effort(
        self, plan: JoinPlanSpec
    ) -> Optional[QualityPrediction]:
        """The plan's prediction at maximum effort (None when unbuildable).

        This is the point the tier-A bounds cap, so ``bound / actual`` here
        is the q-error the bound-tightness report measures.
        """
        runtime = self._runtime(plan)
        if not self._activate(runtime):
            return None
        return runtime.predictor(runtime.max_effort)

    def _runtime(self, plan: JoinPlanSpec) -> _PlanRuntime:
        """The plan's descent runtime, bounds computed, predictor lazy."""
        runtime = self._runtimes.get(id(plan))
        if runtime is None or runtime.plan is not plan:
            runtime = _PlanRuntime(plan, self.plan_bounds(plan))
            runtime.non_monotone = plan in self._non_monotone
            self._runtimes[id(plan)] = runtime
        return runtime

    def _activate(self, runtime: _PlanRuntime) -> bool:
        """Attach the model predictor on first use; False when unusable."""
        if runtime.predictor is not None:
            return True
        if runtime.error:
            return False
        try:
            predictor, max_effort = self._cached_predictor(runtime.plan)
        except ValueError:
            runtime.error = True
            return False
        if max_effort <= 0:
            runtime.error = True
            return False
        runtime.predictor = predictor
        runtime.max_effort = float(max_effort)
        runtime.steps = self._bisection_steps(max_effort)
        runtime.memo = self._prediction_memo[runtime.plan]
        return True

    def _probe(
        self, runtime: _PlanRuntime, fraction: float
    ) -> Tuple[float, float, float]:
        """(n_good, n_bad, time) at a fraction of the plan's effort axis.

        Resolution order: this optimizer's own probe triples (free), the
        exact-effort prediction memo, then one raw prediction.  Effort
        keys are the same ``fraction * max_effort`` floats the reference
        bisection produces, so every answer is byte-identical to a fresh
        probe.
        """
        effort = fraction * runtime.max_effort
        triple = runtime.triples.get(effort)
        if triple is not None:
            return triple
        prediction = runtime.memo.get(effort)
        if prediction is None:
            prediction = runtime.predictor(effort)
            self.pruning.descent_probes += 1
        triple = (prediction.n_good, prediction.n_bad, prediction.total_time)
        runtime.triples[effort] = triple
        return triple

    def _evaluate_plans(
        self,
        plans: Sequence[JoinPlanSpec],
        requirement: QualityRequirement,
    ) -> List[PlanEvaluation]:
        """Joint bisection descent over all plans with pruning between levels.

        Every plan runs the *identical* bisection the per-requirement
        reference in :mod:`repro.validation.differential` runs — same
        midpoint sequence, same floats — so any plan that survives to the
        end produces a byte-identical evaluation.  Between bisection
        levels, plans that are provably worthless are dropped:

        * **tier A** (before any probe): the plan's guaranteed good-tuple
          ceiling cannot reach the target — reported exactly like the
          unpruned infeasible case (no prediction, ``pruned`` unset);
        * **τb**: the bracket's low end already produces more than τb bad
          tuples; since the final operating point lies above it and n_bad
          is non-decreasing in effort, the plan can never be feasible;
        * **dominance**: the bracket's low-end time already exceeds the
          best *certain* feasible competitor's high-end time, so the
          plan's final time is strictly worse than some feasible plan's.

        Monotonicity of (n_good, n_bad, time) in effort is the model
        contract the τb/dominance rules lean on; a guard cross-checks
        every probed bracket and permanently exempts any violating plan
        from pruning (it then completes its full descent).  With an
        enabled :class:`~repro.validation.invariants.InvariantChecker`
        active, each trip is also recorded as a violation naming the plan
        (``--selfcheck`` raises on it).
        """
        tally = self.pruning
        target_good = requirement.tau_good * (1.0 + self.feasibility_margin)
        tau_bad = requirement.tau_bad
        evaluations: List[Optional[PlanEvaluation]] = [None] * len(plans)
        alive: List[_DescentState] = []
        for index, plan in enumerate(plans):
            runtime = self._runtime(plan)
            bounds = runtime.bounds
            if bounds is not None and bounds.cannot_reach(target_good):
                tally.infeasible_bound += 1
                evaluations[index] = PlanEvaluation(
                    plan=plan, feasible=False, prediction=None
                )
                continue
            if not self._activate(runtime):
                evaluations[index] = PlanEvaluation(
                    plan=plan, feasible=False, prediction=None
                )
                continue
            state = _DescentState(index, runtime, runtime.non_monotone)
            root = self._probe(runtime, 1.0)
            if root[0] < target_good:
                evaluations[index] = PlanEvaluation(
                    plan=plan, feasible=False, prediction=None
                )
                continue
            state.hi_vals = root
            alive.append(state)

        best_time = float("inf")
        while alive:
            # Cheapest certain completion time: finished feasible plans'
            # exact times plus the bracket ceilings of plans whose bracket
            # already guarantees feasibility (n_bad at hi within τb).
            threshold = best_time
            for state in alive:
                if not state.guard_failed and state.hi_vals[1] <= tau_bad:
                    threshold = min(threshold, state.hi_vals[2])
            survivors: List[_DescentState] = []
            for state in alive:
                runtime = state.runtime
                lo_vals = state.lo_vals
                if not state.guard_failed and lo_vals is not None:
                    if lo_vals[1] > tau_bad:
                        tally.infeasible_tau_bad += 1
                        evaluations[state.index] = PlanEvaluation(
                            plan=runtime.plan,
                            feasible=False,
                            prediction=None,
                            pruned=True,
                        )
                        continue
                    if lo_vals[2] > threshold:
                        tally.dominated += 1
                        evaluations[state.index] = PlanEvaluation(
                            plan=runtime.plan,
                            feasible=False,
                            prediction=None,
                            pruned=True,
                        )
                        continue
                if state.steps_left <= 0:
                    prediction = runtime.predictor(
                        state.hi * runtime.max_effort
                    )
                    feasible = prediction.meets(
                        requirement.tau_good, requirement.tau_bad
                    )
                    evaluations[state.index] = PlanEvaluation(
                        plan=runtime.plan,
                        feasible=feasible,
                        prediction=prediction,
                        effort_fraction=state.hi,
                    )
                    if feasible and prediction.total_time < best_time:
                        best_time = prediction.total_time
                    continue
                mid = (state.lo + state.hi) / 2.0
                probed = self._probe(runtime, mid)
                if not state.guard_failed:
                    above = state.hi_vals
                    monotone = (
                        probed[0] <= above[0]
                        and probed[1] <= above[1]
                        and probed[2] <= above[2]
                        and (
                            lo_vals is None
                            or (
                                lo_vals[0] <= probed[0]
                                and lo_vals[1] <= probed[1]
                                and lo_vals[2] <= probed[2]
                            )
                        )
                    )
                    if not monotone:
                        state.guard_failed = True
                        runtime.non_monotone = True
                        tally.monotonicity_fallbacks += 1
                        self._non_monotone.add(runtime.plan)
                        checker = active_checker()
                        if checker.enabled:
                            checker.violation(
                                f"optimizer.descent[{runtime.plan.describe()}]",
                                "(n_good, n_bad, time) is not non-decreasing "
                                f"in effort: {lo_vals} at {state.lo!r}, "
                                f"{probed} at {mid!r}, {above} at "
                                f"{state.hi!r}",
                            )
                if probed[0] >= target_good:
                    state.hi, state.hi_vals = mid, probed
                else:
                    state.lo, state.lo_vals = mid, probed
                state.steps_left -= 1
                survivors.append(state)
            alive = survivors
        return list(evaluations)

    def _publish_pruning(self, before: Dict[str, int]) -> None:
        """Increment the pruning counters by this optimization's deltas."""
        observability = self.observability
        if not observability.enabled:
            return
        after = self.pruning.as_dict()
        metrics = observability.metrics
        for reason in ("infeasible_bound", "infeasible_tau_bad", "dominated"):
            delta = after[reason] - before.get(reason, 0)
            if delta:
                metrics.counter(
                    "repro_plans_pruned_total", reason=reason
                ).inc(delta)

    # -- full optimization -------------------------------------------------------

    def optimize(
        self,
        plans: Sequence[JoinPlanSpec],
        requirement: QualityRequirement,
    ) -> OptimizationResult:
        """Assess all candidates; choose the fastest feasible one.

        Candidates run the bound-pruned lockstep descent
        (:meth:`_evaluate_plans`): provably-dominated or
        provably-τb-infeasible plans come back with ``pruned=True``
        instead of a full prediction.  Sweeping many requirements through
        one optimizer shares its bounds, models and memoized probes.
        """
        observability = self.observability
        with observability.span(
            SpanKind.OPTIMIZE,
            "optimize",
            plans=len(plans),
            tau_good=requirement.tau_good,
            tau_bad=requirement.tau_bad,
        ) as span:
            before = self.pruning.as_dict()
            evaluations = self._evaluate_plans(list(plans), requirement)
            self._publish_pruning(before)
            feasible = [e for e in evaluations if e.feasible]
            if observability.enabled:
                # One batched inc per label value, not one label-key
                # resolution per evaluation: sweeps call optimize() once
                # per tau and the per-call lookup cost dominates the
                # enabled-path overhead.
                infeasible = len(evaluations) - len(feasible)
                if feasible:
                    observability.metrics.counter(
                        "repro_plan_evaluations_total", feasible=True
                    ).inc(len(feasible))
                if infeasible:
                    observability.metrics.counter(
                        "repro_plan_evaluations_total", feasible=False
                    ).inc(infeasible)
            chosen = (
                min(feasible, key=lambda e: e.predicted_time)
                if feasible
                else None
            )
            span.set(
                feasible=len(feasible),
                chosen=chosen.plan.describe() if chosen is not None else None,
            )
        self.scrape_cache_metrics()
        return OptimizationResult(
            requirement=requirement,
            chosen=chosen,
            evaluations=tuple(evaluations),
        )

    # -- telemetry helpers -------------------------------------------------------

    def scrape_cache_metrics(self) -> None:
        """Publish the passive cache tallies as gauges.

        The caches themselves count hits/misses with plain ints (zero
        behavioural coupling); this scrape turns the current totals into
        ``repro_cache_requests{cache,result}`` gauges.  No-op when
        observability is disabled.
        """
        observability = self.observability
        if not observability.enabled:
            return
        metrics = observability.metrics
        metrics.gauge(
            "repro_cache_requests", cache="catalog_side", result="hit"
        ).set(self.catalog.cache_hits)
        metrics.gauge(
            "repro_cache_requests", cache="catalog_side", result="miss"
        ).set(self.catalog.cache_misses)
        hits = misses = 0
        for model in self._models.values():
            hits += getattr(model, "_issue_cache_hits", 0)
            misses += getattr(model, "_issue_cache_misses", 0)
        metrics.gauge(
            "repro_cache_requests", cache="oijn_issue", result="hit"
        ).set(hits)
        metrics.gauge(
            "repro_cache_requests", cache="oijn_issue", result="miss"
        ).set(misses)

    def curve_points(
        self, plan: JoinPlanSpec
    ) -> Optional[
        Tuple[Tuple[float, ...], Tuple[float, ...], Tuple[float, ...]]
    ]:
        """The plan's predicted effort curve (fractions, good, bad).

        Built on first use (the descent never samples a grid curve, and
        drift telemetry still wants the chosen plan's shape); None when
        the plan's models cannot be built — drift snapshots attach it so
        a refit records the shape the optimizer believed, not just the
        point estimate.
        """
        try:
            curve = self._engine.curve(plan)
        except ValueError:
            return None
        return (
            tuple(float(x) for x in curve.fractions),
            tuple(float(x) for x in curve.n_good),
            tuple(float(x) for x in curve.n_bad),
        )

    # -- alternate preference model: time-budgeted quality ------------------------

    def optimize_within_time(
        self,
        plans: Sequence[JoinPlanSpec],
        time_budget: float,
        precision_weight: float = 0.5,
        reference_good: Optional[float] = None,
    ) -> OptimizationResult:
        """Maximize ``w·precision + (1-w)·recall`` within a time budget.

        The paper's Section III-C names this cost function as one of the
        higher-level preferences that map onto the (τg, τb) machinery.
        Each plan is pushed to the largest effort whose predicted time fits
        the budget; recall is measured against ``reference_good`` — by
        default the largest predicted good-tuple count any candidate can
        reach at full effort (the reachable ceiling of the plan space).
        """
        if time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if not 0.0 <= precision_weight <= 1.0:
            raise ValueError("precision_weight must be within [0, 1]")
        if reference_good is None:
            reference_good = 0.0
            for plan in plans:
                try:
                    predictor, max_effort = self._cached_predictor(plan)
                except ValueError:
                    continue
                reference_good = max(
                    reference_good, predictor(max_effort).n_good
                )
        reference_good = max(reference_good, 1.0)

        def score(prediction: QualityPrediction) -> float:
            total = prediction.n_good + prediction.n_bad
            if total <= 0:
                # An empty result has vacuous precision; rank it last so a
                # too-small budget never "wins" with zero output.
                return 0.0
            precision = prediction.n_good / total
            recall = min(prediction.n_good / reference_good, 1.0)
            return (
                precision_weight * precision
                + (1.0 - precision_weight) * recall
            )

        evaluations: List[PlanEvaluation] = []
        for plan in plans:
            try:
                predictor, max_effort = self._cached_predictor(plan)
            except ValueError:
                evaluations.append(
                    PlanEvaluation(plan=plan, feasible=False, prediction=None)
                )
                continue
            if predictor(0.0).total_time > time_budget:
                evaluations.append(
                    PlanEvaluation(plan=plan, feasible=False, prediction=None)
                )
                continue
            # Largest effort fraction fitting the budget (predicted time is
            # monotone non-decreasing in effort for every model).
            lo, hi = 0.0, 1.0
            if predictor(max_effort).total_time <= time_budget:
                lo = 1.0
            else:
                for _ in range(self._bisection_steps(max_effort)):
                    mid = (lo + hi) / 2.0
                    if predictor(mid * max_effort).total_time <= time_budget:
                        lo = mid
                    else:
                        hi = mid
            prediction = predictor(lo * max_effort)
            evaluations.append(
                PlanEvaluation(
                    plan=plan,
                    feasible=True,
                    prediction=prediction,
                    effort_fraction=lo,
                )
            )
        feasible = [e for e in evaluations if e.feasible]
        chosen = (
            max(feasible, key=lambda e: score(e.prediction))
            if feasible
            else None
        )
        return OptimizationResult(
            requirement=QualityRequirement(tau_good=0, tau_bad=2**62),
            chosen=chosen,
            evaluations=tuple(evaluations),
        )

