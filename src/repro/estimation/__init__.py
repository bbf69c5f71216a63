"""On-the-fly MLE parameter estimation (Section VI).

Recovers database-specific statistics — value populations, power-law
frequency exponents, document-class sizes, and join-overlap class sizes —
from the observations a running join collects, without any tuple
verification.
"""

from .mle import (
    EstimatedParameters,
    ObservationContext,
    estimate_parameters,
)
from .online import (
    SideEstimate,
    class_seen_probability,
    estimate_overlap,
    estimate_side,
    estimated_catalog,
    estimated_side_statistics,
)
from .powerlaw import PowerLawModel, fit_power_law

__all__ = [
    "EstimatedParameters",
    "ObservationContext",
    "PowerLawModel",
    "SideEstimate",
    "class_seen_probability",
    "estimate_overlap",
    "estimate_parameters",
    "estimate_side",
    "estimated_catalog",
    "estimated_side_statistics",
    "fit_power_law",
]
