"""End-to-end adaptive, quality-aware join optimization (Section VI).

The optimizer "begins with an initial choice of execution strategy; as the
initial strategy progresses, [it] derives the necessary parameters and
determines a desirable execution strategy for τg and τb, while checking
for robustness using cross-validation."  Concretely:

1. **Pilot**: run a short IDJN/Scan prefix on both databases — the
   cheapest way to obtain unbiased sample frequencies s(a) and confidence
   observations on each side.
2. **Estimate**: fit each side's database statistics by MLE
   (:mod:`repro.estimation`) and derive the join-overlap classes.
3. **Optimize**: evaluate every candidate plan with the Section V models
   over the *estimated* statistics and pick the fastest feasible plan.
4. **Cross-validate**: re-estimate on two random halves of the observed
   values; if the halves disagree with the full fit about the best plan,
   the statistics are not yet trustworthy — extend the pilot and repeat
   (up to ``max_rounds``).
5. **Execute** the chosen plan, stopping on *estimated* join quality (the
   per-value good posteriors from the confidence split — never ground
   truth), with the evaluation's predicted operating point as a budget
   safety net.

The pilot's observations (and its extracted tuples, when the chosen plan
is scan-compatible) are not discarded: pilot time is accounted into the
final report, matching the paper's cost accounting for adaptive runs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.plan import JoinPlanSpec, RetrievalKind
from ..core.preferences import QualityRequirement
from ..core.join_state import TreeJoinState
from ..extraction.characterization import KnobCharacterization
from ..estimation.mle import EstimatedParameters, ObservationContext
from ..estimation.online import (
    SideEstimate,
    estimate_overlap,
    estimate_side,
    estimated_catalog,
)
from ..core.quality import ExecutionReport
from ..joins.base import Budgets, JoinAlgorithm, JoinExecution, JoinInputs
from ..joins.idjn import IndependentJoin
from ..joins.stats_collector import ObservationCollector, RelationObservations
from ..joins.trajectory import Trajectory, publish_join_gauges, serve_or_record
from ..models.parameters import ValueOverlapModel
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.tracer import SpanKind
from ..robustness.checkpoint import checkpoint_execution, restore_execution
from ..robustness.context import AccessPathUnavailable
from ..robustness.deadline import Deadline, DeadlineExceeded
from ..robustness.degradation import plans_without
from .binder import ExecutionEnvironment, bind_plan, budgets_from_evaluation
from .optimizer import JoinOptimizer, OptimizationResult, PlanEvaluation


class TuplePosterior:
    """Per-occurrence good probability from an extractor confidence score.

    With a class-conditional confidence reference and a fitted good-share
    λ, the posterior of a score in bin b is ``λ·Pg(b) / (λ·Pg(b) +
    (1-λ)·Pb(b))`` — calibrated occurrence-level classification with no
    labels.  Without a reference, every occurrence falls back to λ.
    """

    def __init__(
        self,
        reference: Optional[object],
        good_share: float,
        theta: float = 0.0,
    ) -> None:
        self.good_share = min(max(good_share, 1e-6), 1.0 - 1e-6)
        #: the posterior of each confidence bin, or None without a reference
        self._by_bin: Optional[List[float]] = None
        self._n_bins = 0
        if reference is not None:
            good = reference.good_at(theta)
            bad = reference.bad_at(theta)
            lam = self.good_share
            self._by_bin = [
                (lam * g) / max(lam * g + (1.0 - lam) * b, 1e-12)
                for g, b in zip(good, bad)
            ]
            self._n_bins = reference.n_bins

    def __call__(self, confidence: float) -> float:
        by_bin = self._by_bin
        if by_bin is None:
            return self.good_share
        # The reference's bin_of, inline: this runs once per extracted tuple.
        index = int(confidence * self._n_bins)
        return by_bin[min(max(index, 0), self._n_bins - 1)]


class PosteriorQuality:
    """Join-quality estimator from per-tuple confidence posteriors.

    A join tuple is good iff both constituent occurrences are good; the
    estimator scores each result ``p1(t1) · p2(t2)`` from the sides'
    occurrence-level posteriors — never touching ground-truth labels.
    That sum factors per join value v: with ``W_side[v]`` the sum of a
    side's posteriors on v, a new tuple t of one side adds
    ``p(t) · W_other[v]``.  So each extracted tuple is scored once, and
    no join result is materialized.  The bad estimate is the join's
    result count less the good estimate.  A fresh estimator (after a
    checkpoint restore) catches up from the state on its first call.
    """

    def __init__(
        self,
        side1: TuplePosterior,
        side2: TuplePosterior,
    ) -> None:
        self.side1 = side1
        self.side2 = side2
        #: per side: tuples of its relation scored so far
        self._cursors = [0, 0]
        #: per side: join value -> sum of its tuples' posteriors
        self._weights: List[Dict[str, float]] = [{}, {}]
        self._good = 0.0

    def estimate(self, state: TreeJoinState) -> Tuple[float, float]:
        good = self._good
        join_indexes = state.join_indexes
        for side, posterior in ((1, self.side1), (2, self.side2)):
            fresh = state.relation(side).since(self._cursors[side - 1])
            self._cursors[side - 1] += len(fresh)
            own = self._weights[side - 1]
            other = self._weights[2 - side]
            index = join_indexes[side - 1]
            for tup in fresh:
                value = tup.values[index]
                p = posterior(tup.confidence)
                good += p * other.get(value, 0.0)
                own[value] = own.get(value, 0.0) + p
        self._good = good
        return good, state.composition.n_total - good


#: one refit of a pilot: both sides' estimates and the overlap classes
Refit = Tuple[SideEstimate, SideEstimate, ValueOverlapModel]


class PilotMemo(NamedTuple):
    """A generation's stored pilot, restored whole, and its refit.

    Memoized on the binary plan space of the generation's plan-cache key
    by the first run that restores it (see :meth:`AdaptiveJoinExecutor.run`)
    and read by later fully-warm runs instead of restoring the snapshot
    again.  Read-only: no run resumes, extends or mutates it, and it holds
    no per-request object (the report carries no resilience report, and
    no retriever is kept).
    """

    execution: JoinExecution
    refit: Refit


@dataclass(frozen=True)
class PilotWarmStart:
    """Prior pilot state from an earlier run over the *same* corpus.

    ``snapshot`` is a :func:`~repro.robustness.checkpoint.checkpoint_execution`
    dict of the earlier run's final pilot executor (an IDJN Scan/Scan at the
    pilot θ); ``documents`` its per-side pilot size after any
    cross-validation doubling; ``rounds`` how many estimate→optimize rounds
    it took to converge.  Restoring the snapshot replays those documents'
    observations without touching the databases — the scan order is
    deterministic, so for an unchanged corpus the restored pilot is exactly
    what re-running it would observe.  Persistence and freshness checking
    (corpus fingerprints, sample-count confidence) live in
    :mod:`repro.service.store`; the driver trusts what it is handed.
    """

    snapshot: Dict[str, Any]
    documents: int
    rounds: int = 1
    #: the statistics this pilot was fitted into (side-1 parameters,
    #: side-2 parameters, overlap classes), and the serving layer's
    #: :class:`~repro.service.plancache.PlanCache` with the key and factory
    #: of the binary plan space built on them.  A run that restores the
    #: pilot whole answers its first round through that space, memoizes
    #: the restored pilot with its refit there (:class:`PilotMemo`), and
    #: executes through the space's recorded runs
    #: (:class:`~repro.joins.trajectory.Trajectory`, DESIGN §6.4)
    statistics: Optional[
        Tuple[EstimatedParameters, EstimatedParameters, ValueOverlapModel]
    ] = None
    plan_cache: Any = None
    plan_key: Any = None
    plan_factory: Optional[Callable[[], Any]] = None


@dataclass
class AdaptiveResult:
    """Everything an adaptive run produced."""

    requirement: QualityRequirement
    chosen: Optional[PlanEvaluation]
    optimization: Optional[OptimizationResult]
    #: the chosen plan's execution report; None when no plan was feasible.
    #: Only the report: an execute served from a recorded run
    #: (DESIGN §6.4) has no join state of its own
    report: Optional[ExecutionReport]
    pilot: JoinExecution
    estimates: Tuple[SideEstimate, SideEstimate]
    #: the overlap classes the final pilot refit derived with
    #: :attr:`estimates` (what the service's statistics store persists)
    overlap: ValueOverlapModel
    rounds: int
    #: number of mid-flight plan switches (0 without reoptimization points)
    plan_switches: int = 0
    #: access paths whose circuit breaker opened mid-run, in the order the
    #: optimizer degraded around them (empty = no degradation happened)
    degraded_paths: Tuple[str, ...] = ()
    #: simulated seconds spent inside executors that later hit a dead
    #: access path; carried into the final report's time (accounted, not
    #: dropped), surfaced here so degraded runs can be audited
    wasted_time: float = 0.0
    #: whether the pilot was warm-started from stored prior state
    warm_started: bool = False
    #: documents the pilot actually pulled from the databases *this run*
    #: (restored documents are excluded) — the number a warm start saves
    pilot_fresh_documents: int = 0
    #: final per-side pilot size (after any cross-validation doubling)
    pilot_size: int = 0
    #: checkpoint of the final pilot executor, captured when the driver
    #: was built with ``snapshot_pilot=True`` so callers (the service's
    #: statistics store) can warm-start later runs
    pilot_snapshot: Optional[Dict[str, Any]] = None
    #: work totals of the execution :attr:`report` describes
    #: (:meth:`~repro.joins.base.JoinAlgorithm.work_counters`, or a
    #: recorded point's); empty when no plan ran.  Pilot work is not in
    #: them: its fresh documents are :attr:`pilot_fresh_documents`
    work: Dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        time = self.pilot.report.time.total
        if self.report is not None:
            time += self.report.time.total
        return time


class AdaptiveJoinExecutor:
    """Pilot → estimate → optimize → cross-validate → execute."""

    def __init__(
        self,
        environment: ExecutionEnvironment,
        characterization1: KnobCharacterization,
        characterization2: KnobCharacterization,
        plans: Sequence[JoinPlanSpec],
        pilot_theta: float = 0.4,
        pilot_documents: int = 100,
        max_rounds: int = 3,
        cross_validate: bool = True,
        classifier_profile1=None,
        classifier_profile2=None,
        query_stats1=(),
        query_stats2=(),
        feasibility_margin: float = 0.15,
        reoptimization_points: Sequence[float] = (),
        warm_start: Optional[PilotWarmStart] = None,
        snapshot_pilot: bool = False,
    ) -> None:
        if pilot_documents <= 0:
            raise ValueError("pilot_documents must be positive")
        self.environment = environment
        #: shared tracing/metrics/drift context, taken from the environment
        #: so executors, optimizers, and the driver report into one place
        self.observability = ensure_observability(environment.observability)
        self.characterizations = {1: characterization1, 2: characterization2}
        self.plans = list(plans)
        self.pilot_theta = pilot_theta
        self.pilot_documents = pilot_documents
        self.max_rounds = max_rounds
        self.cross_validate = cross_validate
        #: Offline (label-free) retrieval-strategy parameters: classifier
        #: rates from the training corpus, query precision from training
        #: with observable target hit counts (Section VI: these are
        #: "easily estimated in a pre-execution, offline step").
        self.classifier_profiles = {1: classifier_profile1, 2: classifier_profile2}
        self.query_stats = {1: tuple(query_stats1), 2: tuple(query_stats2)}
        self.feasibility_margin = feasibility_margin
        #: Mid-flight re-optimization milestones as fractions of the good
        #: target, e.g. (0.3, 0.6): after reaching each milestone the
        #: optimizer re-estimates from everything observed so far and may
        #: switch plans, carrying the produced tuples forward ("build on
        #: the current execution with a different join execution plan").
        points = tuple(sorted(reoptimization_points))
        if any(not 0.0 < point < 1.0 for point in points):
            raise ValueError("reoptimization points must lie in (0, 1)")
        self.reoptimization_points = points
        #: how many opened access paths the executor will degrade around
        #: before giving up and propagating :class:`AccessPathUnavailable`
        self.max_degradations = 4
        #: prior pilot state to resume from instead of scanning afresh
        self.warm_start = warm_start
        #: capture the final pilot executor's checkpoint on the result
        self.snapshot_pilot = snapshot_pilot
        #: live documents pulled during pilots this run (restored excluded)
        self._pilot_fresh_documents = 0

    # -- deadlines -------------------------------------------------------------

    def _deadline(self) -> Optional[Deadline]:
        """The request deadline riding on the environment's resilience
        context (installed by the serving layer), or None."""
        resilience = self.environment.resilience
        if resilience is None:
            return None
        return getattr(resilience, "deadline", None)

    def _check_deadline(self, where: str) -> None:
        """Phase-boundary deadline check (CPU-bound phases issue no
        database accesses, so the per-access check never fires there)."""
        deadline = self._deadline()
        if deadline is not None:
            deadline.check(where)

    def _attach_partial(
        self,
        error: DeadlineExceeded,
        phase: str,
        executor: JoinAlgorithm,
        plan: Optional[str] = None,
    ) -> None:
        """Describe the interrupted executor on the unwinding exception.

        Captures a resumable checkpoint when the executor's shape
        supports one; checkpoint failure must never mask the deadline
        error itself.
        """
        snapshot: Optional[Dict[str, Any]] = None
        try:
            snapshot = checkpoint_execution(executor)
        except Exception:  # noqa: BLE001 — best-effort capture only
            snapshot = None
        session = executor.session
        self._attach_progress(
            error,
            phase,
            session.state,
            session.collector,
            session.time.total,
            snapshot,
            plan,
        )

    @staticmethod
    def _attach_progress(
        error: DeadlineExceeded,
        phase: str,
        state: TreeJoinState,
        observations: ObservationCollector,
        seconds: float,
        checkpoint: Optional[Dict[str, Any]],
        plan: Optional[str] = None,
    ) -> None:
        """Describe a join's progress and its checkpoint on *error*."""
        composition = state.composition
        error.attach(
            phase,
            plan=plan,
            good=composition.n_good,
            bad=composition.n_bad,
            results=composition.n_total,
            documents_processed={
                str(side): observations.side(side).documents_processed
                for side in (1, 2)
            },
            simulated_time=round(seconds, 6),
            checkpoint=checkpoint,
        )

    # -- pilot ----------------------------------------------------------------

    def _pilot_executor(self) -> IndependentJoin:
        env = self.environment
        inputs = JoinInputs(
            database1=env.database(1),
            database2=env.database(2),
            extractor1=env.extractor_at(1, self.pilot_theta),
            extractor2=env.extractor_at(2, self.pilot_theta),
            join_attribute=env.join_attribute,
        )
        return IndependentJoin(
            inputs,
            retriever1=env.retriever(1, RetrievalKind.SCAN),
            retriever2=env.retriever(2, RetrievalKind.SCAN),
            costs=env.cost_model(),
            resilience=env.resilience,
            observability=env.observability,
        )

    def _run_pilot(
        self, documents: int, executor: Optional[IndependentJoin] = None
    ) -> Tuple[JoinExecution, IndependentJoin]:
        """Run (or resume) a pilot to *documents* processed per side.

        Budgets are absolute session totals, so resuming a restored
        executor whose session already covers *documents* touches no
        database at all — that boundary case is exactly a fully-warm
        start.  Fresh documents pulled live are tallied separately from
        whatever a warm start restored.
        """
        pilot = executor if executor is not None else self._pilot_executor()
        before = sum(
            pilot.session.collector.side(side).documents_processed
            for side in (1, 2)
        )
        try:
            with self.observability.phase("pilot"), self.observability.span(
                SpanKind.PILOT, "pilot", documents=documents, resumed=before > 0
            ):
                execution = pilot.run(
                    budgets=Budgets(
                        max_documents1=documents, max_documents2=documents
                    )
                )
        except DeadlineExceeded as expired:
            after = sum(
                pilot.session.collector.side(side).documents_processed
                for side in (1, 2)
            )
            self._pilot_fresh_documents += after - before
            self._attach_partial(expired, "pilot", pilot)
            raise
        after = sum(
            pilot.session.collector.side(side).documents_processed
            for side in (1, 2)
        )
        self._pilot_fresh_documents += after - before
        return execution, pilot

    def _warm_pilot(
        self, warm: PilotWarmStart
    ) -> Tuple[JoinExecution, IndependentJoin, int]:
        """Restore the stored pilot and top it up to the configured size.

        The snapshot carries retriever positions, so when this run's
        ``pilot_documents`` exceeds the stored size the scan resumes
        *after* the stored prefix — the fresh accesses and the restored
        observations never overlap, and the merged result equals a cold
        pilot of the larger size document-for-document.
        """
        executor = self._pilot_executor()
        restore_execution(executor, warm.snapshot)
        documents = max(self.pilot_documents, warm.documents)
        execution, executor = self._run_pilot(documents, executor=executor)
        return execution, executor, documents

    # -- estimation -------------------------------------------------------------

    def _fit(
        self, side: int, observations: RelationObservations
    ) -> SideEstimate:
        """Fit one side by MLE from *observations* taken at the pilot θ.

        The one fit of the driver: pilot refits, cross-validation halves
        and milestone re-estimates all come through here.
        """
        database = self.environment.database(side)
        char = self.characterizations[side]
        context = ObservationContext(
            database_size=len(database),
            coverage=min(
                max(observations.documents_processed / len(database), 1e-6),
                1.0,
            ),
            tp=char.tp_at(self.pilot_theta),
            fp=char.fp_at(self.pilot_theta),
            theta=self.pilot_theta,
        )
        return estimate_side(observations, context, reference=char.confidences)

    def _estimate_sides(
        self, observations: Sequence[RelationObservations]
    ) -> Tuple[SideEstimate, SideEstimate]:
        """Fit both sides, traced and counted as one MLE refit."""
        estimates = []
        for side, side_observations in zip((1, 2), observations):
            with self.observability.phase("estimate"), self.observability.span(
                SpanKind.MLE_REFIT,
                f"mle.side{side}",
                side=side,
                documents=side_observations.documents_processed,
                distinct_values=side_observations.distinct_values,
            ):
                estimates.append(self._fit(side, side_observations))
        self.observability.counter("repro_mle_refits_total").inc()
        return estimates[0], estimates[1]

    def _refit(self, pilot: JoinExecution) -> Refit:
        """Fit both sides of *pilot* and derive their overlap classes."""
        sides = (pilot.observations.side(1), pilot.observations.side(2))
        estimate1, estimate2 = self._estimate_sides(sides)
        return estimate1, estimate2, estimate_overlap(
            estimate1, estimate2, *sides
        )

    def _optimizer(
        self,
        estimates: Tuple[SideEstimate, SideEstimate],
        overlap: ValueOverlapModel,
        observability: Optional[ObservabilityContext] = None,
    ) -> JoinOptimizer:
        """A pruned optimizer over the catalog of *estimates*.

        Cross-validation leaves *observability* unset: its optimizers are
        probes, not the run's plan choice, and stay out of its telemetry.
        """
        sides = (1, 2)
        catalog = estimated_catalog(
            tuple(estimate.parameters for estimate in estimates),
            overlap,
            databases=tuple(self.environment.database(s) for s in sides),
            characterizations=tuple(self.characterizations[s] for s in sides),
            classifiers=tuple(self.classifier_profiles[s] for s in sides),
            queries=tuple(self.query_stats[s] for s in sides),
        )
        return JoinOptimizer(
            catalog,
            costs=self.environment.cost_model(),
            feasibility_margin=self.feasibility_margin,
            observability=observability,
        )

    # -- cross-validation ---------------------------------------------------------

    @staticmethod
    def _halve(
        observations: RelationObservations, parity: int
    ) -> RelationObservations:
        """One value-hash half of the observations (counts rescaled ×2
        downstream by doubling estimated populations).

        The split uses a *stable* hash: Python's built-in ``hash`` is
        salted per process, which would make cross-validation outcomes
        nondeterministic across runs.
        """
        import zlib

        half = RelationObservations(
            relation=observations.relation,
            attribute_index=observations.attribute_index,
        )
        half.documents_processed = observations.documents_processed
        half.productive_documents = observations.productive_documents
        half.unproductive_documents = observations.unproductive_documents
        half.tuples_per_document.update(observations.tuples_per_document)
        for value, count in observations.sample_frequency.items():
            if zlib.crc32(value.encode()) % 2 == parity:
                half.sample_frequency[value] = count
                if value in observations.value_confidences:
                    half.value_confidences[value] = list(
                        observations.value_confidences[value]
                    )
        return half

    def _stable_choice(
        self,
        pilot: JoinExecution,
        requirement: QualityRequirement,
        chosen_plan: JoinPlanSpec,
    ) -> bool:
        """Do value-split halves agree with the full fit's plan choice?"""
        with self.observability.phase("crossvalidate"), self.observability.span(
            SpanKind.CROSS_VALIDATE,
            "crossvalidate",
            plan=chosen_plan.describe(),
        ) as span:
            stable = self._stable_choice_inner(requirement, chosen_plan, pilot)
            span.set(stable=stable)
        return stable

    def _stable_choice_inner(
        self,
        requirement: QualityRequirement,
        chosen_plan: JoinPlanSpec,
        pilot: JoinExecution,
    ) -> bool:
        for parity in (0, 1):
            halves = []
            for side in (1, 2):
                half = self._halve(pilot.observations.side(side), parity)
                if not half.sample_frequency:
                    return False
                halves.append(half)
            # Rebuild estimates from the halves, doubling populations.
            estimates = []
            for side, half in zip((1, 2), halves):
                estimate = self._fit(side, half)
                doubled = dataclasses.replace(
                    estimate.parameters,
                    n_good_values=estimate.parameters.n_good_values * 2,
                    n_bad_values=estimate.parameters.n_bad_values * 2,
                )
                estimates.append(
                    dataclasses.replace(estimate, parameters=doubled)
                )
            optimizer = self._optimizer(
                estimates, estimate_overlap(*estimates, *halves)
            )
            result = optimizer.optimize(self.plans, requirement)
            if result.chosen is None or result.chosen.plan != chosen_plan:
                return False
        return True

    # -- drift telemetry --------------------------------------------------------

    def _record_drift(
        self,
        label: str,
        curve_points: Callable[[JoinPlanSpec], Any],
        chosen: Optional[PlanEvaluation],
        execution: JoinExecution,
    ) -> None:
        """Snapshot predicted vs. observed join quality at one MLE refit.

        Observed counts come from the oracle composition of the live state
        (telemetry only — the estimators never read labels); predictions
        from the chosen evaluation's operating point, plus the engine's
        effort curve when one was built, through *curve_points* of the
        optimizer or plan space that chose.
        """
        observability = self.observability
        if not observability.enabled:
            return
        composition = execution.state.composition
        documents = tuple(
            execution.observations.side(side).documents_processed
            for side in (1, 2)
        )
        if chosen is not None and chosen.prediction is not None:
            observability.record_drift(
                label=label,
                plan=chosen.plan.describe(),
                documents_processed=documents,
                observed_good=composition.n_good,
                observed_bad=composition.n_bad,
                predicted_good=chosen.prediction.n_good,
                predicted_bad=chosen.prediction.n_bad,
                predicted_time=chosen.predicted_time,
                effort_fraction=chosen.effort_fraction,
                curve=curve_points(chosen.plan),
            )
        else:
            observability.record_drift(
                label=label,
                plan="",
                documents_processed=documents,
                observed_good=composition.n_good,
                observed_bad=composition.n_bad,
                predicted_good=0.0,
                predicted_bad=0.0,
            )

    def _restored_whole(self, warm: Optional[PilotWarmStart]) -> bool:
        """Is this run's pilot the warm start's, with no fresh document?"""
        return (
            warm is not None
            and warm.documents >= self.pilot_documents
            and self._pilot_fresh_documents == 0
        )

    def _pilot_memo(self, warm: Optional[PilotWarmStart]) -> Optional[PilotMemo]:
        """The restored pilot and refit memoized on the warm start's plan
        space, when this run would restore that pilot whole.

        Both are pure functions of the stored pilot, which changes only
        with the store generation keying the space; :meth:`run` fills the
        memo.  Nothing downstream mutates the pilot, a SideEstimate or the
        overlap classes.
        """
        if (
            warm is None
            or warm.plan_cache is None
            or warm.documents < self.pilot_documents
        ):
            return None
        space = warm.plan_cache.space_for(warm.plan_key)
        return space.pilot if space is not None else None

    # -- the driver -----------------------------------------------------------------

    def run(self, requirement: QualityRequirement) -> AdaptiveResult:
        self._pilot_fresh_documents = 0
        warm = self.warm_start
        memo = self._pilot_memo(warm)
        pilot_executor: Optional[IndependentJoin] = None
        if memo is not None:
            # The generation's pilot as an earlier run restored it: no
            # restore, no pilot run, only the gauges that run would set.
            pilot = memo.execution
            documents = warm.documents
            rounds = max(warm.rounds - 1, 0)
            if self.observability.enabled:
                publish_join_gauges(
                    self.observability.metrics,
                    pilot.state.composition,
                    pilot.report.time.total,
                    [
                        pilot.observations.side(side).productive_fraction
                        for side in (1, 2)
                    ],
                )
        elif warm is not None:
            pilot, pilot_executor, documents = self._warm_pilot(warm)
            # Resume the round count where the stored run converged, so a
            # run that stopped on max_rounds does not restart its
            # cross-validation doubling from scratch.
            rounds = max(warm.rounds - 1, 0)
        else:
            documents = self.pilot_documents
            pilot, pilot_executor = self._run_pilot(documents)
            rounds = 0
        optimization: Optional[OptimizationResult] = None
        # Only the first round of a pilot restored whole may share.
        shared = self._restored_whole(warm) and warm.plan_cache is not None
        #: the shared space's recorded runs, while the last round shared
        trajectories: Optional[Dict[JoinPlanSpec, Trajectory]] = None
        while True:
            rounds += 1
            try:
                # Estimation/optimization are CPU-bound (no database
                # accesses), so expiry during them surfaces here at the
                # round boundary with the pilot's state attached.
                self._check_deadline("adaptive.optimize")
            except DeadlineExceeded as expired:
                if pilot_executor is None:
                    # A restored pilot's checkpoint is the stored snapshot.
                    self._attach_progress(
                        expired,
                        "optimize",
                        pilot.state,
                        pilot.observations,
                        pilot.report.time.total,
                        warm.snapshot,
                    )
                else:
                    self._attach_partial(expired, "optimize", pilot_executor)
                raise
            if shared and memo is not None:
                refit = memo.refit
            else:
                refit = self._refit(pilot)
            estimate1, estimate2, overlap = refit
            statistics = (estimate1.parameters, estimate2.parameters, overlap)
            curve_points: Callable[[JoinPlanSpec], Any]
            # Share only when the refit reproduces the stored statistics
            # exactly: then the shared space sees this run's catalog.
            if shared and statistics == warm.statistics:
                with self.observability.phase(
                    "optimize"
                ), self.observability.span(
                    SpanKind.OPTIMIZE,
                    "optimize",
                    plans=len(self.plans),
                    tau_good=requirement.tau_good,
                    tau_bad=requirement.tau_bad,
                    shared=True,
                ):
                    space, optimization, _ = warm.plan_cache.optimize(
                        warm.plan_key, requirement, warm.plan_factory
                    )
                trajectories = space.trajectories
                # Its cross-validation is of the stored pilot: the space's.
                verdicts = space.verdicts
                if space.pilot is None:
                    # A racing fill stores an equal pilot and refit.
                    space.pilot = PilotMemo(
                        JoinExecution(
                            state=pilot.state,
                            report=dataclasses.replace(
                                pilot.report, resilience=None
                            ),
                            observations=pilot.observations,
                        ),
                        refit,
                    )
                curve_points = functools.partial(
                    warm.plan_cache.curve_points,
                    warm.plan_key,
                    factory=warm.plan_factory,
                )
            else:
                trajectories, verdicts = None, {}
                optimizer = self._optimizer(
                    (estimate1, estimate2),
                    overlap,
                    observability=self.environment.observability,
                )
                with self.observability.phase("optimize"):
                    optimization = optimizer.optimize(self.plans, requirement)
                curve_points = optimizer.curve_points
            shared = False
            self._record_drift(
                f"pilot-round-{rounds}", curve_points, optimization.chosen, pilot
            )
            if optimization.chosen is None:
                break
            if not self.cross_validate or rounds >= self.max_rounds:
                break
            stable = verdicts.get(requirement)
            if stable is None:
                stable = verdicts[requirement] = self._stable_choice(
                    pilot, requirement, optimization.chosen.plan
                )
            if stable:
                break
            documents *= 2
            pilot, pilot_executor = self._run_pilot(documents)
        if not self.snapshot_pilot:
            pilot_snapshot = None
        elif self._restored_whole(warm):
            pilot_snapshot = warm.snapshot  # a checkpoint would equal it
        else:
            pilot_snapshot = checkpoint_execution(pilot_executor)
        if optimization is None or optimization.chosen is None:
            return AdaptiveResult(
                requirement=requirement,
                chosen=None,
                optimization=optimization,
                report=None,
                pilot=pilot,
                estimates=(estimate1, estimate2),
                overlap=overlap,
                rounds=rounds,
                warm_started=warm is not None,
                pilot_fresh_documents=self._pilot_fresh_documents,
                pilot_size=documents,
                pilot_snapshot=pilot_snapshot,
            )
        chosen = optimization.chosen
        # Drive the estimated-quality stopping condition to the same
        # overprovisioned target the optimizer planned for; posteriors are
        # noisy and an exactly-τg stop routinely lands just short.
        target_good = int(
            math.ceil(requirement.tau_good * (1.0 + self.feasibility_margin))
        )
        resilience = self.environment.resilience
        # Milestones re-plan mid-run and injected faults change what a
        # run sees: neither run is a prefix of the recorded one.
        if (
            trajectories is not None
            and not self.reoptimization_points
            and not (resilience is not None and resilience.injects_faults)
        ):
            report, work = self._serve_or_record(
                trajectories, requirement, target_good, chosen, (estimate1, estimate2)
            )
            switches, degraded, wasted = 0, [], 0.0
        else:
            report, work, chosen, switches, degraded, wasted = self._execute(
                requirement, target_good, chosen, (estimate1, estimate2), pilot
            )
        return AdaptiveResult(
            requirement=requirement,
            chosen=chosen,
            optimization=optimization,
            report=report,
            pilot=pilot,
            estimates=(estimate1, estimate2),
            overlap=overlap,
            rounds=rounds,
            plan_switches=switches,
            degraded_paths=tuple(degraded),
            wasted_time=wasted,
            warm_started=warm is not None,
            pilot_fresh_documents=self._pilot_fresh_documents,
            pilot_size=documents,
            pilot_snapshot=pilot_snapshot,
            work=work,
        )

    # -- execution (with optional mid-flight re-optimization) -------------------

    def _build_executor(self, plan, estimates):
        estimate1, estimate2 = estimates
        estimator = PosteriorQuality(
            side1=TuplePosterior(
                self.characterizations[1].confidences,
                estimate1.parameters.good_occurrence_share,
                theta=plan.extractor1.theta,
            ),
            side2=TuplePosterior(
                self.characterizations[2].confidences,
                estimate2.parameters.good_occurrence_share,
                theta=plan.extractor2.theta,
            ),
        )
        return bind_plan(self.environment, plan, estimator=estimator)

    def _reestimate_with_execution(self, pilot, execution):
        """Re-fit the statistics from pilot + execution observations."""
        merged = []
        for side in (1, 2):
            combined = RelationObservations(
                relation=pilot.observations.side(side).relation,
                attribute_index=pilot.observations.side(side).attribute_index,
            )
            for source in (pilot, execution):
                observations = source.observations.side(side)
                combined.documents_processed += observations.documents_processed
                combined.productive_documents += observations.productive_documents
                combined.unproductive_documents += (
                    observations.unproductive_documents
                )
                combined.tuples_per_document.update(
                    observations.tuples_per_document
                )
                combined.sample_frequency.update(observations.sample_frequency)
                for value, confs in observations.value_confidences.items():
                    combined.value_confidences.setdefault(value, []).extend(
                        confs
                    )
            merged.append(combined)
        return self._estimate_sides(merged)

    def _reoptimize(self, plans, requirement, estimates, pilot):
        """Optimize *plans* under the current estimates.

        Returns ``(result, optimizer)`` — the optimizer is kept so drift
        telemetry can attach the chosen plan's predicted effort curve.
        """
        observations = pilot.observations
        overlap = estimate_overlap(
            *estimates, observations.side(1), observations.side(2)
        )
        optimizer = self._optimizer(
            estimates, overlap, observability=self.environment.observability
        )
        with self.observability.phase("optimize"), self.observability.span(
            SpanKind.REOPTIMIZE, "reoptimize", plans=len(plans)
        ):
            result = optimizer.optimize(plans, requirement)
        return result, optimizer

    def _carry_over(self, old_executor, chosen, estimates):
        """Bind *chosen* and move the old executor's tuples and time into it.

        This is the Section VI "build on the current execution" option:
        nothing already extracted is re-paid, and the old executor's
        simulated time flows into the new session so the final report
        accounts for every second spent.
        """
        old_state = old_executor.session.state
        old_time = old_executor.session.time
        executor = self._build_executor(chosen.plan, estimates)
        for side in (1, 2):
            executor.session.state.add(side, old_state.relation(side).tuples)
        executor.session.time.add(old_time)
        return executor

    @staticmethod
    def _budgets(chosen: PlanEvaluation) -> Budgets:
        """The executor's safety budgets at *chosen*'s operating point."""
        return budgets_from_evaluation(chosen.plan, chosen, slack=3.0)

    def _serve_or_record(
        self,
        trajectories: Dict[JoinPlanSpec, Trajectory],
        requirement: QualityRequirement,
        target_good: int,
        chosen: PlanEvaluation,
        estimates,
    ) -> Tuple[ExecutionReport, Dict[str, float]]:
        """The report and work of a fresh run of *chosen* to *target_good*,
        served or recorded (DESIGN §6.4).  It has no degradation: with no
        injected fault no breaker opens."""
        plan = chosen.plan
        budgets = self._budgets(chosen)
        stop = QualityRequirement(tau_good=target_good, tau_bad=requirement.tau_bad)

        def run(executor: JoinAlgorithm) -> JoinExecution:
            try:
                return executor.run(requirement=stop, budgets=budgets)
            except DeadlineExceeded as expired:
                self._attach_partial(
                    expired, "execute", executor, plan=plan.describe()
                )
                raise

        observability = self.observability
        with observability.phase("execute"), observability.span(
            SpanKind.EXECUTE,
            f"execute.{plan.join.value.lower()}",
            plan=plan.describe(),
            milestone=target_good,
        ):
            return serve_or_record(
                trajectories,
                plan,
                stop,
                budgets.per_side(),
                functools.partial(self._build_executor, plan, estimates),
                run,
                self.environment.resilience,
                observability,
            )

    def _execute(self, requirement, target_good, chosen, estimates, pilot):
        """Run the chosen plan, optionally re-optimizing at milestones.

        Returns (final report, its work counters, final evaluation, number
        of plan switches, degraded access paths, wasted time).  On a switch, the
        produced base tuples are carried into the new plan's executor —
        the Section VI "build on the current execution" option.

        When a circuit breaker opens (an executor raises
        :class:`AccessPathUnavailable`), the optimizer *degrades*: it
        drops every plan that needs the dead path, re-optimizes over the
        survivors, and resumes from the tuples already produced.  The time
        spent inside the failed executor is carried into the replacement
        (and reported as ``wasted_time``), so degradation never makes a
        run look cheaper than it was.
        """
        executor = self._build_executor(chosen.plan, estimates)
        switches = 0
        degraded: List[str] = []
        wasted = 0.0
        plans = list(self.plans)
        milestones = [
            max(1, int(math.ceil(point * target_good)))
            for point in self.reoptimization_points
        ] + [target_good]
        execution = None
        index = 0
        while index < len(milestones):
            milestone = milestones[index]
            partial = QualityRequirement(
                tau_good=milestone, tau_bad=requirement.tau_bad
            )
            try:
                with self.observability.phase(
                    "execute"
                ), self.observability.span(
                    SpanKind.EXECUTE,
                    f"execute.{chosen.plan.join.value.lower()}",
                    plan=chosen.plan.describe(),
                    milestone=milestone,
                ):
                    execution = executor.run(
                        requirement=partial, budgets=self._budgets(chosen)
                    )
            except DeadlineExceeded as expired:
                self._attach_partial(
                    expired, "execute", executor, plan=chosen.plan.describe()
                )
                raise
            except AccessPathUnavailable as failure:
                if len(degraded) >= self.max_degradations:
                    raise
                plans = plans_without(
                    plans,
                    [failure.path],
                    [self.environment.database(side).name for side in (1, 2)],
                )
                result = None
                if plans:
                    result, _ = self._reoptimize(
                        plans, requirement, estimates, pilot
                    )
                if result is None or result.chosen is None:
                    raise
                degraded.append(failure.path)
                wasted += executor.session.time.total
                chosen = result.chosen
                executor = self._carry_over(executor, chosen, estimates)
                continue  # retry the same milestone on the new plan
            index += 1
            if milestone >= target_good:
                break
            # Re-estimate from everything observed, re-optimize the rest.
            new_estimates = self._reestimate_with_execution(pilot, execution)
            result, optimizer = self._reoptimize(
                plans, requirement, new_estimates, pilot
            )
            self._record_drift(
                f"milestone-{milestone}",
                optimizer.curve_points,
                result.chosen,
                execution,
            )
            if result.chosen is None or result.chosen.plan == chosen.plan:
                continue
            # Switch: bind the new plan and carry the produced tuples over.
            switches += 1
            chosen = result.chosen
            estimates = new_estimates
            executor = self._carry_over(executor, chosen, estimates)
        return (
            execution.report,
            executor.work_counters(),
            chosen,
            switches,
            degraded,
            wasted,
        )
