"""Binding declarative plans to live executors.

The optimizer reasons over :class:`~repro.core.plan.JoinPlanSpec`
descriptors; this module turns a chosen descriptor into a runnable join
executor against concrete databases, extractors, classifiers, learned
queries, and seed queries.  Those live bindings are one
:class:`ExecutionEnvironment` keyed by relation, which the n-ary binder
(:func:`repro.planner.binder.bind_multiway_plan`) binds too.  It also
converts a plan evaluation's predicted operating point into executor
:class:`~repro.joins.base.Budgets` (with a slack factor — the
estimate-driven stopping condition does the fine-grained halt; budgets are
the safety net).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional, Sequence

from ..core.plan import JoinKind, JoinPlanSpec, RetrievalKind
from ..extraction.base import Extractor
from ..extraction.memo import ExtractionMemo
from ..joins.base import Budgets, JoinAlgorithm, JoinInputs, QualityEstimator
from ..joins.costs import CostModel, SideCosts
from ..joins.idjn import IndependentJoin
from ..joins.oijn import OuterInnerJoin
from ..joins.zgjn import ZigZagJoin
from ..observability.context import ObservabilityContext
from ..retrieval.aqg import AQGRetriever, LearnedQuery
from ..retrieval.base import DocumentRetriever
from ..retrieval.classifier import RuleClassifier
from ..retrieval.filtered_scan import FilteredScanRetriever
from ..retrieval.queries import Query
from ..retrieval.scan import ScanRetriever
from ..robustness.context import ResilienceContext
from ..textdb.database import TextDatabase
from .optimizer import PlanEvaluation


#: how an environment names a relation: the side number (1, 2) of a
#: binary task, the alias of a join graph's relation
RelationKey = Hashable


@dataclass
class ExecutionEnvironment:
    """Live bindings for every relation a plan can touch, keyed by relation.

    A binary task binds sides 1 and 2; a join graph binds its aliases.
    """

    databases: Mapping[RelationKey, TextDatabase]
    extractors: Mapping[RelationKey, Extractor]
    classifiers: Mapping[RelationKey, RuleClassifier] = field(default_factory=dict)
    learned_queries: Mapping[RelationKey, Sequence[LearnedQuery]] = field(
        default_factory=dict
    )
    costs: Mapping[RelationKey, SideCosts] = field(default_factory=dict)
    #: keyword seeds of a binary ZGJN
    seed_queries: Sequence[Query] = ()
    join_attribute: Optional[str] = None
    #: shared fault-handling context (installed by
    #: :func:`repro.robustness.environment.harden`); None = raw access
    resilience: Optional[ResilienceContext] = None
    #: shared tracing/metrics context; None = the no-op path
    observability: Optional[ObservabilityContext] = None

    def memoized(self, memo: ExtractionMemo) -> "ExecutionEnvironment":
        """A copy whose extractors and classifiers read and fill *memo*
        (bind before :func:`~repro.robustness.environment.harden` wraps
        the databases)."""
        return dataclasses.replace(
            self,
            extractors={
                key: memo.extractor(extractor, self.databases[key])
                for key, extractor in self.extractors.items()
            },
            classifiers={
                key: memo.classifier(classifier, self.databases[key])
                for key, classifier in self.classifiers.items()
            },
        )

    def database(self, key: RelationKey) -> TextDatabase:
        try:
            return self.databases[key]
        except KeyError:
            raise ValueError(f"no database bound for relation {key!r}") from None

    def extractor_at(self, key: RelationKey, theta: float) -> Extractor:
        try:
            base = self.extractors[key]
        except KeyError:
            raise ValueError(f"no extractor bound for relation {key!r}") from None
        return base.with_theta(theta)

    def side_costs(self, key: RelationKey) -> SideCosts:
        return self.costs.get(key, SideCosts())

    def cost_model(self) -> CostModel:
        """The binary executors' costs: sides 1 and 2."""
        return CostModel(self.side_costs(1), self.side_costs(2))

    def retriever(self, key: RelationKey, kind: RetrievalKind) -> DocumentRetriever:
        database = self.database(key)
        if kind is RetrievalKind.SCAN:
            return ScanRetriever(
                database,
                resilience=self.resilience,
                observability=self.observability,
            )
        if kind is RetrievalKind.FILTERED_SCAN:
            classifier = self.classifiers.get(key)
            if classifier is None:
                raise ValueError(f"no classifier bound for relation {key!r}")
            return FilteredScanRetriever(
                database,
                classifier,
                resilience=self.resilience,
                observability=self.observability,
            )
        if kind is RetrievalKind.AQG:
            queries = self.learned_queries.get(key) or ()
            if not queries:
                raise ValueError(f"no learned queries bound for relation {key!r}")
            return AQGRetriever(
                database,
                queries,
                resilience=self.resilience,
                observability=self.observability,
            )
        raise ValueError(f"{kind} is not an explicit retrieval strategy")


def bind_plan(
    environment: ExecutionEnvironment,
    plan: JoinPlanSpec,
    estimator: Optional[QualityEstimator] = None,
) -> JoinAlgorithm:
    """Build a single-use executor for *plan*."""
    inputs = JoinInputs(
        database1=environment.database(1),
        database2=environment.database(2),
        extractor1=environment.extractor_at(1, plan.extractor1.theta),
        extractor2=environment.extractor_at(2, plan.extractor2.theta),
        join_attribute=environment.join_attribute,
    )
    costs = environment.cost_model()
    if plan.join is JoinKind.IDJN:
        return IndependentJoin(
            inputs,
            retriever1=environment.retriever(1, plan.retrieval1),
            retriever2=environment.retriever(2, plan.retrieval2),
            costs=costs,
            estimator=estimator,
            resilience=environment.resilience,
            observability=environment.observability,
        )
    if plan.join is JoinKind.OIJN:
        return OuterInnerJoin(
            inputs,
            outer_retriever=environment.retriever(
                plan.outer, plan.outer_retrieval
            ),
            costs=costs,
            estimator=estimator,
            outer=plan.outer,
            resilience=environment.resilience,
            observability=environment.observability,
        )
    if not environment.seed_queries:
        raise ValueError("ZGJN needs seed queries in the environment")
    return ZigZagJoin(
        inputs,
        seed_queries=environment.seed_queries,
        costs=costs,
        estimator=estimator,
        resilience=environment.resilience,
        observability=environment.observability,
    )


def budgets_from_evaluation(
    plan: JoinPlanSpec, evaluation: PlanEvaluation, slack: float = 1.5
) -> Budgets:
    """Safety budgets from the evaluation's predicted operating point.

    The per-side effort axes of the models map onto executor caps:
    document-retrieval effort becomes ``max_retrieved`` (SC/FS) or
    ``max_queries`` (AQG); query-driven sides (OIJN inner, ZGJN) get query
    caps from the predicted query counts.
    """
    if evaluation.prediction is None:
        return Budgets()
    if slack < 1.0:
        raise ValueError("slack must be at least 1")

    def padded(value: float) -> int:
        return max(1, int(math.ceil(value * slack)))

    fields: Dict[str, int] = {}
    events = evaluation.prediction.events
    if plan.join is JoinKind.IDJN:
        for side, kind in ((1, plan.retrieval1), (2, plan.retrieval2)):
            if kind is RetrievalKind.AQG:
                fields[f"max_queries{side}"] = padded(events[side].queries)
            else:
                fields[f"max_retrieved{side}"] = padded(events[side].retrieved)
    elif plan.join is JoinKind.OIJN:
        outer, inner = plan.outer, 2 if plan.outer == 1 else 1
        if plan.outer_retrieval is RetrievalKind.AQG:
            fields[f"max_queries{outer}"] = padded(events[outer].queries)
        else:
            fields[f"max_retrieved{outer}"] = padded(events[outer].retrieved)
        fields[f"max_queries{inner}"] = padded(events[inner].queries)
    else:
        fields["max_queries1"] = padded(events[1].queries)
        fields["max_queries2"] = padded(events[2].queries)
    return Budgets(**fields)
