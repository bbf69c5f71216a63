"""Quality-aware join optimization (Section VI).

Plan enumeration, model-driven plan evaluation against (τg, τb)
requirements, plan-to-executor binding, and the end-to-end adaptive
optimizer with on-the-fly parameter estimation.
"""

from .adaptive import (
    AdaptiveJoinExecutor,
    AdaptiveResult,
    PilotWarmStart,
    PosteriorQuality,
    TuplePosterior,
)
from .binder import (
    ExecutionEnvironment,
    bind_plan,
    budgets_from_evaluation,
)
from .catalog import StatisticsCatalog
from .enumerator import EXPLICIT_KINDS, enumerate_plans
from .optimizer import (
    JoinOptimizer,
    OptimizationResult,
    PlanEvaluation,
)

__all__ = [
    "EXPLICIT_KINDS",
    "AdaptiveJoinExecutor",
    "AdaptiveResult",
    "ExecutionEnvironment",
    "JoinOptimizer",
    "OptimizationResult",
    "PilotWarmStart",
    "PlanEvaluation",
    "PosteriorQuality",
    "TuplePosterior",
    "StatisticsCatalog",
    "bind_plan",
    "budgets_from_evaluation",
    "enumerate_plans",
]
