"""N-way Independent Join executor.

Generalizes IDJN (Figure 3) to n relations: every side retrieves documents
through its own strategy, extracted tuples ripple into the shared
:class:`~repro.multiway.state.TreeJoinState`, and execution stops when the
estimated quality meets the (τg, τb) contract, budgets bind, or every side
is exhausted.  Like the binary executors, it is resumable.

:class:`InterleavedNaryJoin` is the ZGJN-flavoured strategy (cf. Leapfrog
Triejoin): instead of advancing every side each round, it advances only
the side with the least accumulated simulated time, so all n relations
stay in lockstep on the time axis and no binary intermediate result is
ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.preferences import QualityRequirement
from ..core.quality import ExecutionReport, TimeBreakdown
from ..core.relation import JoinComposition
from ..extraction.base import Extractor
from ..joins.base import UNLIMITED
from ..joins.costs import SideCosts
from ..joins.stats_collector import RelationObservations
from ..observability.context import ObservabilityContext, ensure_observability
from ..observability.tracer import SpanKind
from ..retrieval.base import DocumentRetriever
from ..textdb.database import TextDatabase
from .state import TreeJoinState


class MultiQualityEstimator(Protocol):
    """Estimates good/bad counts of the accumulated n-way join."""

    def estimate(self, state: TreeJoinState) -> Tuple[float, float]: ...


class ActualMultiQuality:
    """Oracle estimator over the incrementally maintained composition."""

    def estimate(self, state: TreeJoinState) -> Tuple[float, float]:
        comp = state.composition
        return float(comp.n_good), float(comp.n_bad)


@dataclass(frozen=True)
class MultiwaySide:
    """One side of an n-way join: database, extractor, retriever, costs."""

    database: TextDatabase
    extractor: Extractor
    retriever: DocumentRetriever
    costs: SideCosts = field(default_factory=SideCosts)
    #: absolute cap on documents processed for this side (None = unlimited)
    max_documents: Optional[int] = None

    def __post_init__(self) -> None:
        if self.retriever.database is not self.database:
            raise ValueError("retriever must read from this side's database")


@dataclass
class MultiwayExecution:
    """Result of a multiway run."""

    state: TreeJoinState
    report: ExecutionReport
    observations: List[RelationObservations]


class MultiwayIndependentJoin:
    """Ripple-style n-way IDJN (resumable)."""

    algorithm = "multiway"

    def __init__(
        self,
        sides: Sequence[MultiwaySide],
        join_attribute: Optional[str] = None,
        estimator: Optional[MultiQualityEstimator] = None,
        state: Optional[TreeJoinState] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        """``state`` defaults to a star :class:`TreeJoinState` on
        ``join_attribute``; pass any tree state to run the same ripple
        executor over a chain or another join tree."""
        if len(sides) < 2:
            raise ValueError("a multiway join needs at least two sides")
        self.sides = list(sides)
        self.estimator = estimator or ActualMultiQuality()
        if state is None:
            state = TreeJoinState.star(
                [side.extractor.schema for side in sides],
                join_attribute=join_attribute,
            )
        elif state.arity != len(sides):
            raise ValueError("state arity must match the number of sides")
        self.state = state
        self.observations = [
            RelationObservations(
                relation=side.extractor.relation,
                attribute_index=state.join_indexes[i],
            )
            for i, side in enumerate(sides)
        ]
        self.time = TimeBreakdown()
        #: accumulated simulated seconds per side (1-based), for schedulers
        self.side_time: Dict[int, float] = {
            i + 1: 0.0 for i in range(len(sides))
        }
        self.observability = ensure_observability(observability)
        self.processed: Dict[int, int] = {i + 1: 0 for i in range(len(sides))}
        self.on_progress: Optional[
            Callable[[TreeJoinState, TimeBreakdown], None]
        ] = None

    def _side_open(self, index: int) -> bool:
        side = self.sides[index]
        if (
            side.max_documents is not None
            and self.processed[index + 1] >= side.max_documents
        ):
            return False
        return not side.retriever.exhausted

    def _step(self, index: int) -> None:
        side = self.sides[index]
        observability = self.observability
        before = side.retriever.counters.snapshot()
        with observability.span(
            SpanKind.DOCUMENT_RETRIEVAL,
            f"retrieve.side{index + 1}",
            side=index + 1,
            strategy=type(side.retriever).__name__,
        ) as span:
            doc = side.retriever.next_document()
            counters = side.retriever.counters
            delta_retrieved = counters.retrieved - before.retrieved
            span.set(
                retrieved=delta_retrieved,
                queries=counters.queries_issued - before.queries_issued,
            )
        retrieval_charge = side.costs.charge(
            retrieved=delta_retrieved,
            queries=counters.queries_issued - before.queries_issued,
            filtered=(
                delta_retrieved if side.retriever.filters_documents else 0
            ),
        )
        self.time.add(retrieval_charge)
        self.side_time[index + 1] += retrieval_charge.total
        if doc is None:
            return
        with observability.span(
            SpanKind.EXTRACTION,
            f"extract.side{index + 1}",
            side=index + 1,
            document=doc.doc_id,
        ) as span:
            tuples = side.extractor.extract(doc)
            span.set(tuples=len(tuples))
        processing_charge = side.costs.charge(processed=1)
        self.time.add(processing_charge)
        self.side_time[index + 1] += processing_charge.total
        self.processed[index + 1] += 1
        self.observations[index].record_document(tuples)
        self.state.add(index + 1, tuples)
        if observability.enabled:
            metrics = observability.metrics
            metrics.counter(
                "repro_documents_processed_total",
                side=index + 1,
                algorithm=self.algorithm,
            ).inc()
            if tuples:
                metrics.counter(
                    "repro_tuples_extracted_total", side=index + 1
                ).inc(len(tuples))

    def _round_sides(self, open_sides: List[int]) -> List[int]:
        """Which open sides advance this round (override to re-schedule)."""
        return open_sides

    def run(
        self, requirement: QualityRequirement = UNLIMITED
    ) -> MultiwayExecution:
        observability = self.observability
        rounds = 0
        while True:
            est_good, est_bad = self.estimator.estimate(self.state)
            if requirement.good_met(est_good) or requirement.bad_exceeded(
                est_bad
            ):
                break
            open_sides = [
                i for i in range(len(self.sides)) if self._side_open(i)
            ]
            if not open_sides:
                break
            rounds += 1
            with observability.span(
                SpanKind.JOIN_ROUND,
                f"{self.algorithm}.round.{rounds}",
                algorithm=self.algorithm,
                round=rounds,
                open_sides=len(open_sides),
            ):
                for index in self._round_sides(open_sides):
                    self._step(index)
            if self.on_progress is not None:
                self.on_progress(self.state, self.time)
        comp = self.state.composition
        if observability.enabled:
            metrics = observability.metrics
            metrics.gauge("repro_join_tuples", label="good").set(comp.n_good)
            metrics.gauge("repro_join_tuples", label="bad").set(comp.n_bad)
            metrics.gauge("repro_simulated_seconds", component="total").set(
                self.time.total
            )
            for i, observation in enumerate(self.observations):
                metrics.gauge(
                    "repro_productive_fraction", side=i + 1
                ).set(observation.productive_fraction)
        report = ExecutionReport(
            composition=JoinComposition(n_good=comp.n_good, n_good_bad=comp.n_bad),
            time=TimeBreakdown(
                retrieval=self.time.retrieval,
                extraction=self.time.extraction,
                filtering=self.time.filtering,
                querying=self.time.querying,
            ),
            documents_retrieved={
                i + 1: side.retriever.counters.retrieved
                for i, side in enumerate(self.sides)
            },
            documents_processed=dict(self.processed),
            queries_issued={
                i + 1: side.retriever.counters.queries_issued
                for i, side in enumerate(self.sides)
            },
            tuples_extracted={
                i + 1: len(self.state.relation(i + 1))
                for i in range(len(self.sides))
            },
            satisfied=(
                None
                if requirement is UNLIMITED
                else requirement.satisfied_by(comp.n_good, comp.n_bad)
            ),
            exhausted=all(side.retriever.exhausted for side in self.sides),
            observability=(
                observability.report() if observability.enabled else None
            ),
        )
        return MultiwayExecution(
            state=self.state, report=report, observations=self.observations
        )


class InterleavedNaryJoin(MultiwayIndependentJoin):
    """Fully-interleaved n-ary join: one side per round, time-balanced.

    Each round advances only the open side with the least accumulated
    simulated time (ties break on side order), so every relation's
    cursor moves in lockstep along the time axis — the scheduling
    analogue of Leapfrog Triejoin's iterator interleaving, under the
    same stop-as-soon-as-(τg, τb)-is-met contract as the ripple join.
    """

    algorithm = "interleaved"

    def _round_sides(self, open_sides: List[int]) -> List[int]:
        return [min(open_sides, key=lambda i: (self.side_time[i + 1], i))]
