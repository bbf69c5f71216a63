"""Core types: tuples, relations, the join state, plans, preferences.

This package implements the paper's Section III machinery — the vocabulary
every other subsystem (extraction, retrieval, joins, models, optimizer)
speaks.
"""

from .join_state import TreeEdge, TreeJoinState, TreeJoinTuple
from .plan import (
    ExtractorConfig,
    JoinKind,
    JoinPlanSpec,
    RetrievalKind,
    idjn_plan,
    oijn_plan,
    zgjn_plan,
)
from .preferences import (
    QualityRequirement,
    requirement_from_precision,
    requirement_from_recall,
)
from .quality import ExecutionReport, QualityMetrics, TimeBreakdown
from .relation import (
    ExtractedRelation,
    JoinComposition,
    compose_join,
)
from .types import (
    DocumentClass,
    ExtractedTuple,
    Fact,
    RelationSchema,
    TupleLabel,
)

__all__ = [
    "DocumentClass",
    "ExecutionReport",
    "ExtractedRelation",
    "ExtractedTuple",
    "ExtractorConfig",
    "Fact",
    "JoinComposition",
    "JoinKind",
    "JoinPlanSpec",
    "QualityMetrics",
    "QualityRequirement",
    "RelationSchema",
    "RetrievalKind",
    "TimeBreakdown",
    "TreeEdge",
    "TreeJoinState",
    "TreeJoinTuple",
    "TupleLabel",
    "compose_join",
    "idjn_plan",
    "oijn_plan",
    "requirement_from_precision",
    "requirement_from_recall",
    "zgjn_plan",
]
