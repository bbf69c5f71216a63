"""Join algorithms over extracted relations: IDJN, OIJN, ZGJN (Section IV).

All executors, these three and the n-ary joins of :mod:`repro.multiway`,
are :class:`JoinAlgorithm` subclasses and share its ripple-join result
maintenance, estimate-driven stopping on (τg, τb), simulated-time
accounting, and online observation collection for the optimizer's
parameter estimation.
"""

from .base import (
    UNLIMITED,
    ActualQuality,
    Budgets,
    JoinAlgorithm,
    JoinExecution,
    JoinInputs,
    QualityEstimator,
)
from .costs import CostModel, SideCosts
from .idjn import IndependentJoin
from .oijn import OuterInnerJoin
from .stats_collector import ObservationCollector, RelationObservations
from .trajectory import RunPoint, Trajectory, keep_recorded
from .zgjn import ZigZagJoin

__all__ = [
    "UNLIMITED",
    "ActualQuality",
    "Budgets",
    "CostModel",
    "IndependentJoin",
    "JoinAlgorithm",
    "JoinExecution",
    "JoinInputs",
    "ObservationCollector",
    "OuterInnerJoin",
    "QualityEstimator",
    "RelationObservations",
    "RunPoint",
    "SideCosts",
    "Trajectory",
    "ZigZagJoin",
    "keep_recorded",
]
