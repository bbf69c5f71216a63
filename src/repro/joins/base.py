"""Shared machinery of the join algorithms (Section IV).

All three algorithms (IDJN, OIJN, ZGJN):

* maintain a ripple-style incremental :class:`~repro.core.relation.JoinState`;
* stop when the *estimated* number of good join tuples reaches τg or the
  estimated bad tuples exceed τb (Figures 3, 5, 7) — estimates come from a
  pluggable :class:`QualityEstimator`, since the algorithms have no a-priori
  knowledge of tuple correctness;
* account simulated time through :class:`~repro.joins.costs.CostModel`;
* feed an :class:`~repro.joins.stats_collector.ObservationCollector` so the
  optimizer can refine parameter estimates mid-flight (Section VI);
* count their work instead of spanning it: no span per round, document
  or keyword query; processed documents, held tuples and each query
  probe's queries and documents added to the metrics once per run, and
  session totals from ``work_counters()``.

Executors also accept per-side *budgets* (maximum documents to process or
queries to issue).  Budgets are how the analytical-model validation sweeps
(Figures 9–12) drive executions to a prescribed depth, and how the
optimizer enacts its chosen (|Dr1|, |Dr2|, |Qs|) operating point.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
)

from ..core.preferences import QualityRequirement
from ..core.quality import ExecutionReport, TimeBreakdown
from ..core.relation import JoinComposition, JoinState
from ..core.types import ExtractedTuple
from ..extraction.base import Extractor
from ..observability.context import ObservabilityContext, ensure_observability
from ..retrieval.queries import (
    ProbeTally,
    QueryProbe,
    probe_tally,
    publish_probe_work,
)
from ..robustness.context import ResilienceContext
from ..textdb.database import TextDatabase
from ..validation.invariants import active_checker
from .costs import CostModel
from .stats_collector import ObservationCollector


class QualityEstimator(Protocol):
    """Estimates the good/bad composition of the join produced so far."""

    def estimate(self, state: JoinState) -> Tuple[float, float]:
        """Return (estimated #good, estimated #bad) for ``state``."""


class ActualQuality:
    """Oracle estimator: reads the ground-truth composition.

    Used by the model-accuracy experiments (which need executions to run
    to a prescribed document budget regardless of quality) and by tests.
    The optimizer uses a model-driven estimator instead.
    """

    def estimate(self, state: JoinState) -> Tuple[float, float]:
        comp = state.composition
        return float(comp.n_good), float(comp.n_bad)


@dataclass(frozen=True)
class JoinInputs:
    """Everything a join execution binds to: data, extractors, attribute."""

    database1: TextDatabase
    database2: TextDatabase
    extractor1: Extractor
    extractor2: Extractor
    join_attribute: Optional[str] = None

    def database(self, side: int) -> TextDatabase:
        return self.database1 if side == 1 else self.database2

    def extractor(self, side: int) -> Extractor:
        return self.extractor1 if side == 1 else self.extractor2


@dataclass(frozen=True)
class Budgets:
    """Optional per-side execution caps.

    ``max_documents`` caps *processed* documents per side; ``max_retrieved``
    caps *retrieved* documents (the distinction matters for Filtered Scan,
    which retrieves more than it processes); ``max_queries`` caps issued
    queries.  ``None`` means unlimited (run until the quality requirement
    or exhaustion stops the join).
    """

    max_documents1: Optional[int] = None
    max_documents2: Optional[int] = None
    max_queries1: Optional[int] = None
    max_queries2: Optional[int] = None
    max_retrieved1: Optional[int] = None
    max_retrieved2: Optional[int] = None

    def max_documents(self, side: int) -> Optional[int]:
        return self.max_documents1 if side == 1 else self.max_documents2

    def max_queries(self, side: int) -> Optional[int]:
        return self.max_queries1 if side == 1 else self.max_queries2

    def max_retrieved(self, side: int) -> Optional[int]:
        return self.max_retrieved1 if side == 1 else self.max_retrieved2


UNLIMITED = QualityRequirement(tau_good=2**62, tau_bad=2**62)


@dataclass
class JoinExecution:
    """A finished join run: result state plus its execution report."""

    state: JoinState
    report: ExecutionReport
    observations: ObservationCollector


@dataclass
class JoinSession:
    """The mutable progress of one executor, persisted across run() calls.

    Executors are *resumable*: each ``run()`` continues the same session
    until its own stopping condition, so an adaptive optimizer can execute
    in chunks, re-estimate between them, and either continue or abandon
    the plan — the Section VI behaviour ("the join optimizer may build on
    the current execution with a different join execution plan").
    """

    state: JoinState
    collector: ObservationCollector
    time: TimeBreakdown = field(default_factory=TimeBreakdown)
    processed: Dict[int, int] = field(default_factory=lambda: {1: 0, 2: 0})


class RunTally(NamedTuple):
    """An executor's counts at the start of a run, for its metric deltas."""

    #: per side: (documents processed, tuples held) by the session
    sides: Dict[int, Tuple[int, int]]
    #: per keyword-query probe (see :func:`~repro.retrieval.queries.probe_tally`)
    probes: ProbeTally


def publish_join_gauges(
    metrics: Any,
    composition: JoinComposition,
    seconds: float,
    collector: ObservationCollector,
) -> None:
    """Set the gauges a finished binary run leaves in *metrics*: its
    good/bad join tuples, simulated seconds and per-side productive
    fraction."""
    metrics.gauge("repro_join_tuples", label="good").set(composition.n_good)
    metrics.gauge("repro_join_tuples", label="bad").set(composition.n_bad)
    metrics.gauge("repro_simulated_seconds", component="total").set(seconds)
    for side in (1, 2):
        metrics.gauge("repro_productive_fraction", side=side).set(
            collector.side(side).productive_fraction
        )


class JoinAlgorithm(abc.ABC):
    """Base class for IDJN/OIJN/ZGJN executors."""

    def __init__(
        self,
        inputs: JoinInputs,
        costs: Optional[CostModel] = None,
        estimator: Optional[QualityEstimator] = None,
        resilience: Optional[ResilienceContext] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        self.inputs = inputs
        self.costs = costs or CostModel()
        self.estimator = estimator or ActualQuality()
        #: fault-handling context shared with this executor's retrievers
        #: and probes; None means the raw, always-succeeds access path
        self.resilience = resilience
        #: tracing/metrics context shared with this executor's retrievers
        #: and probes; defaults to the no-op context (zero overhead)
        self.observability = ensure_observability(observability)
        #: Optional hook called after each unit of work with the live
        #: (state, time).  Lets experiment harnesses record quality/time
        #: trajectories from a single exhaustive run instead of re-running
        #: a plan per requirement level.
        self.on_progress: Optional[Callable[[JoinState, TimeBreakdown], None]] = None
        self._session: Optional[JoinSession] = None

    @property
    def started(self) -> bool:
        """Whether any run() call has begun this executor's session."""
        return self._session is not None

    @property
    def session(self) -> JoinSession:
        """The live session (created on first access)."""
        if self._session is None:
            state = self._new_state()
            self._session = JoinSession(
                state=state, collector=self._new_collector(state)
            )
        return self._session

    def _report_progress(self, state: JoinState, time: TimeBreakdown) -> None:
        if self.on_progress is not None:
            self.on_progress(state, time)

    #: short label for metrics; concrete executors override
    algorithm = "join"

    def _held(self) -> Dict[int, Tuple[int, int]]:
        """Per side: (documents processed, tuples held) by the session."""
        session = self.session
        state = session.state
        return {
            1: (session.processed[1], len(state.left)),
            2: (session.processed[2], len(state.right)),
        }

    def _tally(self) -> RunTally:
        """The counts a run's metrics are deltas from, taken at its start."""
        return RunTally(self._held(), probe_tally(self._query_probes()))

    @abc.abstractmethod
    def _query_probes(self) -> Iterable[Optional[QueryProbe]]:
        """The keyword-query probes this executor searches through."""

    def _work(self, accesses: int, retrieved: int, rejected: int) -> Dict[str, float]:
        """Work totals for a wide event, from the executor's own access
        counts and the session's processed documents and held tuples."""
        held = self._held().values()
        return {
            "accesses": float(accesses),
            "documents_retrieved": float(retrieved),
            "documents_rejected": float(rejected),
            "documents_processed": float(sum(d for d, _ in held)),
            "tuples_extracted": float(sum(t for _, t in held)),
        }

    @abc.abstractmethod
    def work_counters(self) -> Dict[str, float]:
        """Work totals of this executor so far, for a wide event.

        Retrieved, processed and tuples equal the sums of the last
        :class:`ExecutionReport`; accesses and FS rejections come from
        the retrievers' and probes' counters.
        """

    @abc.abstractmethod
    def run(
        self,
        requirement: QualityRequirement = UNLIMITED,
        budgets: Budgets = Budgets(),
    ) -> JoinExecution:
        """Execute the join until the requirement, budgets, or exhaustion."""

    # -- helpers shared by the concrete algorithms ---------------------------

    def _new_state(self) -> JoinState:
        return JoinState(
            left_schema=self.inputs.extractor1.schema,
            right_schema=self.inputs.extractor2.schema,
            join_attribute=self.inputs.join_attribute,
        )

    def _new_collector(self, state: JoinState) -> ObservationCollector:
        return ObservationCollector(
            relation1=self.inputs.extractor1.relation,
            relation2=self.inputs.extractor2.relation,
            attribute_index1=state.left_index,
            attribute_index2=state.right_index,
        )

    @staticmethod
    def _should_stop(
        requirement: QualityRequirement, est_good: float, est_bad: float
    ) -> bool:
        """The Figures 3/5/7 stopping condition."""
        return requirement.good_met(est_good) or requirement.bad_exceeded(est_bad)

    def _finish(
        self,
        state: JoinState,
        time: TimeBreakdown,
        requirement: QualityRequirement,
        collector: ObservationCollector,
        documents_retrieved: Dict[int, int],
        documents_processed: Dict[int, int],
        documents_filtered: Dict[int, int],
        queries_issued: Dict[int, int],
        exhausted: bool,
        tally: RunTally,
    ) -> JoinExecution:
        """The run's report; *tally* is :meth:`_tally` at the run's start."""
        checker = active_checker()
        if checker.enabled:
            for side in (1, 2):
                obs = collector.side(side)
                checker.check_conservation(
                    f"join.{type(self).__name__}.side{side}",
                    obs.documents_processed,
                    obs.productive_documents,
                    obs.unproductive_documents,
                    sum(obs.tuples_per_document.values()),
                )
                checker.check_non_negative(
                    f"join.{type(self).__name__}.side{side}",
                    "documents_retrieved",
                    float(documents_retrieved.get(side, 0)),
                )
        observability = self.observability
        if observability.enabled:
            # The oracle composition is always maintained by JoinState, so
            # the good/bad gauges are available whenever labels exist in
            # the corpus (telemetry only — estimators never read them).
            comp = state.composition
            metrics = observability.metrics
            # Once per side per run, not once per document (DESIGN §6.3).
            for side, (documents, tuples) in self._held().items():
                processed = documents - tally.sides[side][0]
                if processed:
                    metrics.counter(
                        "repro_documents_processed_total",
                        side=side,
                        algorithm=self.algorithm,
                    ).inc(processed)
                extracted = tuples - tally.sides[side][1]
                if extracted:
                    metrics.counter(
                        "repro_tuples_extracted_total", side=side
                    ).inc(extracted)
            publish_probe_work(metrics, tally.probes)
            publish_join_gauges(metrics, comp, time.total, collector)
        report = ExecutionReport(
            composition=state.composition,
            # Snapshot: the session's time keeps accumulating across
            # resumed runs, but each report must be immutable history.
            time=TimeBreakdown(
                retrieval=time.retrieval,
                extraction=time.extraction,
                filtering=time.filtering,
                querying=time.querying,
            ),
            documents_retrieved=documents_retrieved,
            documents_processed=documents_processed,
            documents_filtered=documents_filtered,
            queries_issued=queries_issued,
            tuples_extracted={1: len(state.left), 2: len(state.right)},
            satisfied=(
                None
                if requirement is UNLIMITED
                else requirement.satisfied_by(
                    state.composition.n_good, state.composition.n_bad
                )
            ),
            exhausted=exhausted,
            resilience=(
                self.resilience.report() if self.resilience is not None else None
            ),
        )
        return JoinExecution(state=state, report=report, observations=collector)
