"""Analytical output-quality and execution-time models (Section V).

One model class per join algorithm (IDJN, OIJN, ZGJN), built on shared
pieces: per-strategy retrieval models, the Section V-B composition scheme,
probability helpers, and the generating-function machinery used by the
zig-zag analysis.
"""

from .distributions import (
    expected_distinct_sampled,
    hypergeom_pmf,
    probability_none_extracted,
    thinned_hypergeom_mean,
    thinned_hypergeom_pmf,
)
from .generating import GeneratingFunction
from .idjn_model import IDJNModel
from .oijn_model import InnerReach, OIJNModel, best_outer
from .parameters import JoinStatistics, SideStatistics, ValueOverlapModel
from .predictions import QualityPrediction, charge_events
from .retrieval_models import (
    AQGModel,
    ClassMix,
    EffortEvents,
    FilteredScanModel,
    RetrievalModel,
    ScanModel,
    build_retrieval_model,
)
from .scheme import (
    CompositionEstimate,
    SideFactors,
    compose_aggregate,
    compose_per_value,
    occurrence_factors,
)
from .simulate import SimulatedOutcomes, simulate_idjn
from .uncertainty import (
    IntervalEstimate,
    SideVariances,
    compose_with_variance,
    occurrence_variances,
)
from .zgjn_model import ZGJNModel, ZGJNReach

__all__ = [
    "AQGModel",
    "ClassMix",
    "CompositionEstimate",
    "EffortEvents",
    "FilteredScanModel",
    "GeneratingFunction",
    "IDJNModel",
    "IntervalEstimate",
    "InnerReach",
    "JoinStatistics",
    "OIJNModel",
    "QualityPrediction",
    "RetrievalModel",
    "ScanModel",
    "SideFactors",
    "SideStatistics",
    "SideVariances",
    "SimulatedOutcomes",
    "ValueOverlapModel",
    "ZGJNModel",
    "ZGJNReach",
    "best_outer",
    "build_retrieval_model",
    "charge_events",
    "compose_aggregate",
    "compose_per_value",
    "compose_with_variance",
    "expected_distinct_sampled",
    "hypergeom_pmf",
    "occurrence_factors",
    "occurrence_variances",
    "probability_none_extracted",
    "simulate_idjn",
    "thinned_hypergeom_mean",
    "thinned_hypergeom_pmf",
]
