"""Binding multiway plans to live n-ary executors.

The planner reasons over :class:`MultiwayPlan` descriptors; this module
turns a chosen plan into a runnable executor against the per-alias
bindings of an :class:`~repro.optimizer.binder.ExecutionEnvironment`.
Every graph binds to one :class:`TreeJoinState` over its edges.  The ``INTERLEAVED``
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

import math
from typing import List, Optional, Tuple

from ..core.join_state import TreeEdge, TreeJoinState
from ..joins.base import QualityEstimator
from ..joins.trajectory import Caps
from ..multiway.executor import (
    InterleavedNaryJoin,
    MultiwayIndependentJoin,
    MultiwaySide,
)
from ..optimizer.binder import ExecutionEnvironment
from .graph import JoinGraph
from .model import GraphCompositionModel
from .plan import ExecutionStrategy, MultiwayPlan, PlannedEvaluation


def multiway_caps(
    graph: JoinGraph,
    evaluation: PlannedEvaluation,
    model: Optional[GraphCompositionModel] = None,
    slack: float = 1.5,
) -> Tuple[Caps, ...]:
    """Each side's (documents, retrieved, queries) caps, in graph order,
    for the executor :func:`bind_multiway_plan` binds: a document cap
    from the predicted events at the plan's operating point (none
    without a model)."""
    if slack < 1.0:
        raise ValueError("slack must be at least 1")
    plan: MultiwayPlan = evaluation.plan
    caps: List[Caps] = []
    for name in graph.names:
        documents: Optional[int] = None
        if model is not None and evaluation.efforts:
            config = plan.config_for(name)
            events = model.retrieval_model(config).events(evaluation.efforts[name])
            documents = max(1, int(math.ceil(events.processed * slack)))
        caps.append((documents, None, None))
    return tuple(caps)


def bind_multiway_plan(
    environment: ExecutionEnvironment,
    graph: JoinGraph,
    evaluation: PlannedEvaluation,
    model: Optional[GraphCompositionModel] = None,
    estimator: Optional[QualityEstimator] = None,
    slack: float = 1.5,
) -> MultiwayIndependentJoin:
    """Build a single-use n-ary executor for a planned evaluation."""
    caps = multiway_caps(graph, evaluation, model, slack)
    plan: MultiwayPlan = evaluation.plan
    extractors = [
        environment.extractor_at(name, plan.config_for(name).theta)
        for name in graph.names
    ]
    schemas = [extractor.schema for extractor in extractors]
    sides = [
        MultiwaySide(
            database=environment.database(name),
            extractor=extractor,
            retriever=environment.retriever(name, plan.config_for(name).retrieval),
            costs=environment.side_costs(name),
            max_documents=side_caps[0],
        )
        for name, extractor, side_caps in zip(graph.names, extractors, caps)
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
