"""The one executor skeleton of the join algorithms (Section IV).

IDJN, OIJN, ZGJN and the n-ary joins (:mod:`repro.multiway.executor`)
are subclasses of :class:`JoinAlgorithm`, and each keeps only its own
traversal order in ``run()``.  Everything else is here, once:

* the resumable :class:`JoinSession`: the incremental join state
  (:class:`~repro.core.join_state.TreeJoinState`, over two relations for
  a binary executor), per-side observations, simulated time and
  processed documents;
* the document step (:meth:`JoinAlgorithm._step`): pull one document
  from a side's retriever and extract it, charging tR/tQ/tF/tE through
  :class:`~repro.joins.costs.SideCosts`;
* the probe loop (:meth:`JoinAlgorithm._process_fetched`): charge one
  keyword query and extract the documents it fetched, within the side's
  document budget;
* the side-open checks (:meth:`JoinAlgorithm._side_open` for a
  retriever, :meth:`JoinAlgorithm._probe_open` for a query probe);
* the stopping condition of Figures 3, 5 and 7 (:meth:`JoinAlgorithm._stopped`):
  the *estimated* good tuples reach τg or the estimated bad tuples exceed
  τb.  Estimates come from a pluggable :class:`QualityEstimator`, since
  the algorithms have no a-priori knowledge of tuple correctness;
* the run epilogue (:meth:`JoinAlgorithm._finish`): invariant checks,
  metrics and the :class:`~repro.core.quality.ExecutionReport`, whose
  composition is a fresh value per run (a binary report's good x bad
  split is Equation 1 over the two relations, :func:`compose_join`);
* recording (:meth:`JoinAlgorithm.record`): a run that keeps a
  :class:`~repro.joins.trajectory.RunPoint` at every stopping check and
  at its end, so one run answers every requirement that stops on it
  (:mod:`repro.joins.trajectory`).  The report itself is built from the
  end point.

Executors count their work instead of spanning it: no span per round,
document or keyword query; processed documents, held tuples and each
query probe's queries and documents are added to the metrics once per
run, and session totals come from ``work_counters()``.

Binary executors also accept per-side *budgets* (maximum documents to
process or queries to issue).  Budgets are how the analytical-model
validation sweeps (Figures 9–12) drive executions to a prescribed depth,
and how the optimizer enacts its chosen (|Dr1|, |Dr2|, |Qs|) operating
point.  An n-ary side carries its own document cap.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..core.preferences import UNLIMITED, QualityRequirement
from ..core.quality import ExecutionReport, TimeBreakdown
from ..core.join_state import TreeJoinState
from ..core.relation import ExtractedRelation, compose_join
from ..core.types import ExtractedTuple
from ..extraction.base import Extractor
from ..observability.context import ObservabilityContext, ensure_observability
from ..retrieval.base import DocumentRetriever
from ..retrieval.queries import (
    ProbeTally,
    QueryProbe,
    probe_tally,
    publish_probe_work,
)
from ..robustness.context import ResilienceContext
from ..textdb.database import TextDatabase
from ..textdb.document import Document
from ..validation.invariants import active_checker
from .costs import CostModel, SideCosts
from .stats_collector import ObservationCollector
from .trajectory import (
    Caps,
    Composition,
    RunPoint,
    Trajectory,
    publish_join_gauges,
)


class QualityEstimator(Protocol):
    """Estimates the good/bad composition of the join produced so far."""

    def estimate(self, state: TreeJoinState) -> Tuple[float, float]:
        """Return (estimated #good, estimated #bad) for ``state``."""


class ActualQuality:
    """Oracle estimator: reads the ground-truth composition.

    Used by the model-accuracy experiments (which need executions to run
    to a prescribed document budget regardless of quality) and by tests.
    The optimizer uses a model-driven estimator instead.
    """

    def estimate(self, state: TreeJoinState) -> Tuple[float, float]:
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

    def caps(self, side: int) -> Caps:
        """*side*'s (documents, retrieved, queries) caps."""
        return (
            self.max_documents(side),
            self.max_retrieved(side),
            self.max_queries(side),
        )

    def per_side(self) -> Tuple[Caps, Caps]:
        """Both sides' caps, side 1 first (a trajectory's cap rule)."""
        return self.caps(1), self.caps(2)


@dataclass
class JoinExecution:
    """A finished join run: result state plus its execution report."""

    state: TreeJoinState
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

    state: TreeJoinState
    collector: ObservationCollector
    time: TimeBreakdown
    #: documents processed per side (1-based)
    processed: Dict[int, int]
    #: simulated seconds charged per side (the interleaved n-ary join
    #: advances the side with the least)
    side_time: Dict[int, float]


class RunTally(NamedTuple):
    """An executor's counts at the start of a run, for its metric deltas."""

    #: per side: (documents processed, tuples held) by the session
    sides: Dict[int, Tuple[int, int]]
    #: per keyword-query probe (see :func:`~repro.retrieval.queries.probe_tally`)
    probes: ProbeTally


class _Recording:
    """The points a recorded run kept (see :meth:`JoinAlgorithm.record`)."""

    def __init__(self) -> None:
        self.points: List[RunPoint] = []
        #: whether the latest stopping check stopped the run
        self.stopped = False
        self.end: Optional[RunPoint] = None


class JoinAlgorithm(abc.ABC):
    """Base class of every join executor, binary and n-ary.

    Sides are numbered 1 to n.  A side is *retrieval-driven* when it has a
    retriever in ``_retrievers`` (IDJN's sides, OIJN's outer side, every
    n-ary side) and *query-driven* when it has a probe in ``_probes``
    (OIJN's inner side, both ZGJN sides); a subclass fills both in.
    """

    #: short label for metrics; concrete executors override
    algorithm = "join"

    def __init__(
        self,
        extractors: Sequence[Extractor],
        costs: Sequence[SideCosts],
        estimator: Optional[QualityEstimator] = None,
        resilience: Optional[ResilienceContext] = None,
        observability: Optional[ObservabilityContext] = None,
    ) -> None:
        #: per side: the extractor and the per-event costs
        self._extractors = dict(enumerate(extractors, start=1))
        self._side_costs = dict(enumerate(costs, start=1))
        self._retrievers: Dict[int, DocumentRetriever] = {}
        self._probes: Dict[int, QueryProbe] = {}
        self.estimator = estimator or ActualQuality()
        #: fault-handling context shared with this executor's retrievers
        #: and probes; None means the raw, always-succeeds access path
        self.resilience = resilience
        #: tracing/metrics context shared with this executor's retrievers
        #: and probes; defaults to the no-op context (zero overhead)
        self.observability = ensure_observability(observability)
        self._session: Optional[JoinSession] = None
        self._recording: Optional[_Recording] = None

    @property
    def started(self) -> bool:
        """Whether any run() call has begun this executor's session."""
        return self._session is not None

    @property
    def session(self) -> JoinSession:
        """The live session (created on first access)."""
        if self._session is None:
            state = self._new_state()
            extractors = self._extractors
            self._session = JoinSession(
                state=state,
                collector=ObservationCollector(
                    *(extractor.relation for extractor in extractors.values()),
                    attribute_indexes=state.join_indexes,
                ),
                time=TimeBreakdown(),
                processed=dict.fromkeys(extractors, 0),
                side_time=dict.fromkeys(extractors, 0.0),
            )
        return self._session

    @abc.abstractmethod
    def _new_state(self) -> TreeJoinState:
        """The empty join state a new session starts from."""

    @abc.abstractmethod
    def run(self, requirement: QualityRequirement = UNLIMITED) -> JoinExecution:
        """Execute the join until the requirement, budgets, or exhaustion."""

    # -- the document step and the probe loop ---------------------------------

    def _step(self, side: int) -> Optional[List[ExtractedTuple]]:
        """Retrieve and process one document of retrieval-driven *side*.

        Charges what the retriever did (tR per retrieved document, tQ per
        query it issued, tF per document a Filtered Scan classified) and
        returns the document's tuples, or None when the retriever had no
        document left.
        """
        retriever = self._retrievers[side]
        counters = retriever.counters
        retrieved_before = counters.retrieved
        queries_before = counters.queries_issued
        doc = retriever.next_document()
        retrieved = counters.retrieved - retrieved_before
        session = self._session
        session.side_time[side] += self._side_costs[side].charge(
            session.time,
            retrieved=retrieved,
            queries=counters.queries_issued - queries_before,
            filtered=retrieved if retriever.filters_documents else 0,
        )
        if doc is None:
            return None
        return self._process(side, doc)

    def _process(self, side: int, doc: Document) -> List[ExtractedTuple]:
        """Extract one fetched document of *side* into the join (tE)."""
        tuples = self._extractors[side].extract(doc)
        session = self._session
        session.side_time[side] += self._side_costs[side].charge(
            session.time, processed=1
        )
        session.processed[side] += 1
        session.collector.record(side, tuples)
        session.state.add(side, tuples)
        return tuples

    def _process_fetched(
        self, side: int, documents: Sequence[Document], budgets: Budgets
    ) -> List[ExtractedTuple]:
        """Charge one query of *side* that fetched *documents* (tQ, tR),
        then process them in order while the side's document budget
        lasts; return their tuples."""
        session = self._session
        session.side_time[side] += self._side_costs[side].charge(
            session.time, queries=1, retrieved=len(documents)
        )
        cap = budgets.max_documents(side)
        processed = session.processed
        extracted: List[ExtractedTuple] = []
        for doc in documents:
            if cap is not None and processed[side] >= cap:
                break
            extracted.extend(self._process(side, doc))
        return extracted

    # -- side-open checks and the stopping condition --------------------------

    def _side_open(self, side: int, caps: Caps) -> bool:
        """Whether retrieval-driven *side* may fetch another document:
        under its (documents, retrieved, queries) *caps*, not exhausted."""
        max_documents, max_retrieved, max_queries = caps
        if max_documents is not None and self._session.processed[side] >= max_documents:
            return False
        retriever = self._retrievers[side]
        counters = retriever.counters
        if max_retrieved is not None and counters.retrieved >= max_retrieved:
            return False
        if max_queries is not None and counters.queries_issued >= max_queries:
            return False
        return not retriever.exhausted

    def _probe_open(self, side: int, budgets: Budgets) -> bool:
        """Whether query-driven *side* may issue another query: under its
        query and document budgets."""
        qcap = budgets.max_queries(side)
        if qcap is not None and self._probes[side].queries_issued >= qcap:
            return False
        dcap = budgets.max_documents(side)
        return dcap is None or self._session.processed[side] < dcap

    def _stopped(self, requirement: QualityRequirement) -> bool:
        """The Figures 3/5/7 stopping condition on the estimated quality."""
        est_good, est_bad = self.estimator.estimate(self._session.state)
        stopped = requirement.stops(est_good, est_bad)
        recording = self._recording
        if recording is not None:
            recording.points.append(self._point(est_good, est_bad))
            recording.stopped = stopped
        return stopped

    def _exhausted(self) -> bool:
        """Whether the join has nothing left to retrieve: every retriever
        is exhausted (ZGJN overrides this with its query queues)."""
        return all(retriever.exhausted for retriever in self._retrievers.values())

    # -- recording ------------------------------------------------------------

    def record(self) -> None:
        """Keep a :class:`RunPoint` at every stopping check of the next
        run and at its end; :meth:`trajectory` hands them out.  Only a
        fresh executor records: a trajectory starts from an empty join."""
        if self.started:
            raise RuntimeError("only a fresh executor records its run")
        self._recording = _Recording()

    def trajectory(self, caps: Sequence[Caps]) -> Trajectory:
        """The recorded run under *caps* (one per side): its points up to
        the first that reached a cap, and its end point when it ended by
        exhaustion below them."""
        recording = self._recording
        if recording is None or recording.end is None:
            raise RuntimeError("no recorded run has finished")
        points = []
        for point in recording.points:
            if not point.below(caps):
                break
            points.append(point)
        end = recording.end
        complete = (
            len(points) == len(recording.points)
            and not recording.stopped
            and end.below(caps)
        )
        return Trajectory(tuple(points), end if complete else None, self._composer())

    def _point(self, good: Optional[float], bad: Optional[float]) -> RunPoint:
        """The session's counts now, with the estimator's (*good*, *bad*)."""
        session = self.session
        state = session.state
        time = session.time
        access = []
        accesses = rejected = 0
        for side, retriever in self._retrievers.items():
            counters = retriever.counters
            access.append((side, counters.retrieved, counters.queries_issued))
            accesses += counters.accesses
            rejected += counters.rejected
        for side, probe in self._probes.items():
            access.append((side, probe.documents_retrieved, probe.queries_issued))
            accesses += probe.accesses
        collector = session.collector
        return RunPoint(
            good,
            bad,
            tuple(session.processed.values()),
            tuple([len(relation) for relation in state.relations]),
            tuple(
                [collector.side(side).productive_fraction for side in session.processed]
            ),
            tuple(access),
            accesses,
            rejected,
            (time.retrieval, time.extraction, time.filtering, time.querying),
            self._exhausted(),
            state.composition,
        )

    def _composer(self) -> Callable[[RunPoint], Composition]:
        """A point's report composition: the state's own, as it was then."""
        return _state_composition

    # -- work accounting and the run epilogue ---------------------------------

    def _held(self) -> Dict[int, Tuple[int, int]]:
        """Per side: (documents processed, tuples held) by the session."""
        session = self.session
        state = session.state
        return {
            side: (documents, len(state.relation(side)))
            for side, documents in session.processed.items()
        }

    def _query_probes(self) -> List[Optional[QueryProbe]]:
        """Every keyword-query probe this executor searches through."""
        return [
            retriever.probe for retriever in self._retrievers.values()
        ] + list(self._probes.values())

    def _tally(self) -> RunTally:
        """The counts a run's metrics are deltas from, taken at its start."""
        return RunTally(self._held(), probe_tally(self._query_probes()))

    def work_counters(self) -> Dict[str, float]:
        """Work totals of this executor so far, for a wide event.

        Retrieved, processed and tuples equal the sums of the last
        :class:`ExecutionReport`; accesses and FS rejections come from
        the retrievers' and probes' counters.
        """
        return self._point(None, None).work()

    def _finish(
        self, requirement: QualityRequirement, tally: RunTally
    ) -> JoinExecution:
        """The run's report, from its end point; *tally* is :meth:`_tally`
        at the run's start."""
        session = self._session
        state = session.state
        collector = session.collector
        point = self._point(None, None)
        if self._recording is not None:
            self._recording.end = point
        checker = active_checker()
        if checker.enabled:
            retrieved = {side: count for side, count, _ in point.access}
            for side in session.processed:
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
                    float(retrieved.get(side, 0)),
                )
        composition = self._composer()(point)
        report = point.report(
            composition,
            requirement,
            self.resilience.report() if self.resilience is not None else None,
        )
        observability = self.observability
        if observability.enabled:
            # The report's composition comes from ``_composer()``: the
            # state's own counts for an n-ary join, Equation 1 over the two
            # relations for a binary one. So the good/bad gauges are
            # available whenever labels exist in the corpus (telemetry only
            # — estimators never read them).
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
            publish_join_gauges(
                metrics, composition, report.time.total, point.productive
            )
        return JoinExecution(state=state, report=report, observations=collector)


def _state_composition(point: RunPoint) -> Composition:
    return point.composition


def _compose_prefix(
    left: ExtractedRelation,
    right: ExtractedRelation,
    attribute: str,
    point: RunPoint,
) -> Composition:
    """Equation 1 over the prefixes *point* held of a binary join."""
    return compose_join(left, right, attribute, point.tuples)


class BinaryJoin(JoinAlgorithm):
    """Base class of the two-relation executors IDJN, OIJN and ZGJN."""

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
        super().__init__(
            (inputs.extractor1, inputs.extractor2),
            (self.costs.side1, self.costs.side2),
            estimator,
            resilience,
            observability,
        )

    def _new_state(self) -> TreeJoinState:
        return TreeJoinState.star(
            (self.inputs.extractor1.schema, self.inputs.extractor2.schema),
            self.inputs.join_attribute,
        )

    def _composer(self) -> Callable[[RunPoint], Composition]:
        """A point's good x bad split, by Equation 1 over both relations'
        prefixes then (relations only grow)."""
        state = self.session.state
        return functools.partial(
            _compose_prefix,
            state.relation(1),
            state.relation(2),
            state.edges[0].left_attribute,
        )

    @abc.abstractmethod
    def run(
        self,
        requirement: QualityRequirement = UNLIMITED,
        budgets: Budgets = Budgets(),
    ) -> JoinExecution:
        """Execute the join until the requirement, budgets, or exhaustion."""
