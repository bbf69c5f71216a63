"""Binding multiway plans to live n-ary executors.

The planner reasons over :class:`MultiwayPlan` descriptors; this module
turns a chosen plan into a runnable executor against concrete per-alias
databases, extractors, classifiers, and learned queries.  Every graph
binds to one :class:`TreeJoinState` over its edges.  The ``INTERLEAVED``
strategy binds to :class:`InterleavedNaryJoin`; ``PIPELINE`` runs the
ripple executor (the join tree is the planner's cost artifact — the
n-ary state makes the materialization order immaterial to the result,
which is exactly why the quality contract is order-independent).

Per-side document caps come from the model's predicted events at the
plan's operating point with a slack factor — the (τg, τb) stopping
condition does the fine-grained halt, the caps are the safety net, as in
``optimizer.binder.budgets_from_evaluation``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

from ..core.plan import RetrievalKind
from ..extraction.base import Extractor
from ..extraction.memo import ExtractionMemo
from ..joins.costs import SideCosts
from ..multiway.executor import (
    InterleavedNaryJoin,
    MultiQualityEstimator,
    MultiwayIndependentJoin,
    MultiwaySide,
)
from ..multiway.state import TreeEdge, TreeJoinState
from ..observability.context import ObservabilityContext
from ..retrieval.aqg import AQGRetriever, LearnedQuery
from ..retrieval.base import DocumentRetriever
from ..retrieval.classifier import RuleClassifier
from ..retrieval.filtered_scan import FilteredScanRetriever
from ..retrieval.scan import ScanRetriever
from ..robustness.context import ResilienceContext
from ..textdb.database import TextDatabase
from .graph import JoinGraph
from .model import GraphCompositionModel
from .plan import ExecutionStrategy, MultiwayPlan, PlannedEvaluation


@dataclass
class MultiwayEnvironment:
    """Live bindings for every relation alias of a join graph."""

    databases: Mapping[str, TextDatabase]
    extractors: Mapping[str, Extractor]
    classifiers: Mapping[str, RuleClassifier] = field(default_factory=dict)
    learned_queries: Mapping[str, Sequence[LearnedQuery]] = field(default_factory=dict)
    costs: Mapping[str, SideCosts] = field(default_factory=dict)
    resilience: Optional[ResilienceContext] = None
    observability: Optional[ObservabilityContext] = None

    def memoized(self, memo: ExtractionMemo) -> "MultiwayEnvironment":
        """A copy whose extractors and classifiers read and fill *memo*."""
        return dataclasses.replace(
            self,
            extractors={
                name: memo.extractor(extractor, self.databases[name])
                for name, extractor in self.extractors.items()
            },
            classifiers={
                name: memo.classifier(classifier, self.databases[name])
                for name, classifier in self.classifiers.items()
            },
        )

    def database(self, name: str) -> TextDatabase:
        try:
            return self.databases[name]
        except KeyError:
            raise ValueError(f"no database bound for relation {name!r}") from None

    def extractor_at(self, name: str, theta: float) -> Extractor:
        try:
            base = self.extractors[name]
        except KeyError:
            raise ValueError(f"no extractor bound for relation {name!r}") from None
        return base.with_theta(theta)

    def side_costs(self, name: str) -> SideCosts:
        return self.costs.get(name, SideCosts())

    def retriever(self, name: str, kind: RetrievalKind) -> DocumentRetriever:
        database = self.database(name)
        if kind is RetrievalKind.SCAN:
            return ScanRetriever(
                database,
                resilience=self.resilience,
                observability=self.observability,
            )
        if kind is RetrievalKind.FILTERED_SCAN:
            classifier = self.classifiers.get(name)
            if classifier is None:
                raise ValueError(f"no classifier bound for relation {name!r}")
            return FilteredScanRetriever(
                database,
                classifier,
                resilience=self.resilience,
                observability=self.observability,
            )
        if kind is RetrievalKind.AQG:
            queries = self.learned_queries.get(name) or ()
            if not queries:
                raise ValueError(f"no learned queries bound for relation {name!r}")
            return AQGRetriever(
                database,
                queries,
                resilience=self.resilience,
                observability=self.observability,
            )
        raise ValueError(f"{kind} is not an explicit retrieval strategy")


def bind_multiway_plan(
    environment: MultiwayEnvironment,
    graph: JoinGraph,
    evaluation: PlannedEvaluation,
    model: Optional[GraphCompositionModel] = None,
    estimator: Optional[MultiQualityEstimator] = None,
    slack: float = 1.5,
) -> MultiwayIndependentJoin:
    """Build a single-use n-ary executor for a planned evaluation."""
    if slack < 1.0:
        raise ValueError("slack must be at least 1")
    plan: MultiwayPlan = evaluation.plan
    extractors = [
        environment.extractor_at(name, plan.config_for(name).theta)
        for name in graph.names
    ]
    schemas = [extractor.schema for extractor in extractors]
    caps: Dict[str, Optional[int]] = {name: None for name in graph.names}
    if model is not None and evaluation.efforts:
        for name in graph.names:
            config = plan.config_for(name)
            events = model.retrieval_model(config).events(evaluation.efforts[name])
            caps[name] = max(1, int(math.ceil(events.processed * slack)))
    sides = [
        MultiwaySide(
            database=environment.database(name),
            extractor=extractor,
            retriever=environment.retriever(name, plan.config_for(name).retrieval),
            costs=environment.side_costs(name),
            max_documents=caps[name],
        )
        for name, extractor in zip(graph.names, extractors)
    ]
    index_of = {name: i for i, name in enumerate(graph.names)}
    state = TreeJoinState(
        schemas,
        [
            TreeEdge(
                left=index_of[edge.left],
                left_attribute=edge.left_attribute,
                right=index_of[edge.right],
                right_attribute=edge.right_attribute,
            )
            for edge in graph.edges
        ],
    )
    executor_type = (
        InterleavedNaryJoin
        if plan.strategy is ExecutionStrategy.INTERLEAVED
        else MultiwayIndependentJoin
    )
    return executor_type(
        sides,
        estimator=estimator,
        state=state,
        observability=environment.observability,
    )
