"""N-ary join planning: join graphs, a Selinger-style DP enumerator,
and compositional quality/cost models for multiway IE joins.

The subsystem generalizes the binary optimizer to n relations: a
:class:`JoinGraph` describes the relations and (acyclic) join edges, a
:class:`PlannerCatalog` supplies per-relation statistics, the
:class:`GraphCompositionModel` extends the Section V estimators to
n-way plans through tree message passing, and the
:class:`MultiwayPlanner` searches theta/access-path assignments and
join orders under tier-A bound pruning — choosing between a pipelined
join tree and the fully-interleaved n-ary strategy.
"""

from .binder import bind_multiway_plan
from .catalog import PlannerCatalog, RelationEntry
from .enumerator import (
    EnumerationTallies,
    best_tree,
    count_subplans,
    naive_left_deep_tree,
)
from .graph import JoinEdge, JoinGraph, RelationNode
from .model import (
    DEFAULT_T_JOIN,
    GraphBounds,
    GraphCompositionModel,
    compose_factors,
    subset_attributes,
)
from .plan import (
    ExecutionStrategy,
    MultiwayPlan,
    PlannedEvaluation,
    PlanTree,
    RelationConfig,
)
from .planner import MultiwayPlanner, PlannerResult, PlannerTallies
from .profile import KeyProfile, profile_keys
from .simulate import SimulationSummary, simulate_composition

__all__ = [
    "DEFAULT_T_JOIN",
    "EnumerationTallies",
    "ExecutionStrategy",
    "GraphBounds",
    "GraphCompositionModel",
    "JoinEdge",
    "JoinGraph",
    "KeyProfile",
    "MultiwayPlan",
    "MultiwayPlanner",
    "PlanTree",
    "PlannedEvaluation",
    "PlannerCatalog",
    "PlannerResult",
    "PlannerTallies",
    "RelationConfig",
    "RelationEntry",
    "RelationNode",
    "SimulationSummary",
    "best_tree",
    "bind_multiway_plan",
    "compose_factors",
    "count_subplans",
    "naive_left_deep_tree",
    "profile_keys",
    "simulate_composition",
    "subset_attributes",
]
