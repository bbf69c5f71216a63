"""On-the-fly estimation during join execution (Section VI).

Bridges the raw execution observations to the model-facing parameter
containers.  Each side's :class:`~repro.estimation.mle.EstimatedParameters`
become synthetic :class:`~repro.models.parameters.SideStatistics`, and
with the overlap classes the optimizer's catalog
(:func:`estimated_catalog`, which the adaptive driver and the service
share).  The join-specific overlap-class sizes |Agg|, |Agb|, |Abg|, |Abb| are derived
"numerically from the estimated parameter values for each individual
relation" (the paper's phrasing) — here, by scaling the *observed* value
overlap up through each class's observation probability, using the
per-value good/bad posteriors from the confidence split.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..extraction.characterization import ConfidenceReference, KnobCharacterization
from ..joins.stats_collector import RelationObservations
from ..models.distributions import binom_pmf
from ..models.parameters import SideStatistics, ValueOverlapModel
from ..retrieval.classifier import ClassifierProfile
from ..retrieval.queries import QueryStats
from ..textdb.database import TextDatabase
from .mle import (
    EstimatedParameters,
    ObservationContext,
    estimate_parameters,
)
from .powerlaw import PowerLawModel

if TYPE_CHECKING:
    from ..optimizer.catalog import StatisticsCatalog


def class_seen_probability(law: PowerLawModel, p_obs: float) -> float:
    """Pr{a class value has been observed at least once}.

    The value's true frequency follows *law*; each occurrence is observed
    independently with probability *p_obs* (the scan-sampling channel).
    """
    g = law.support()
    prior = law.pmf()
    p_zero = float(prior @ binom_pmf(0, g, p_obs))
    return max(1.0 - p_zero, 1e-12)


@dataclass
class SideEstimate:
    """One side's estimation output: fitted parameters and posteriors."""

    parameters: EstimatedParameters
    context: ObservationContext
    posterior: Mapping[str, float]

    @property
    def p_seen_good(self) -> float:
        return class_seen_probability(
            self.parameters.good_power_law(), self.context.p_obs_good
        )

    @property
    def p_seen_bad(self) -> float:
        return class_seen_probability(
            self.parameters.bad_power_law(), self.context.p_obs_bad
        )


def estimate_side(
    observations: RelationObservations,
    context: ObservationContext,
    reference: Optional[ConfidenceReference] = None,
) -> SideEstimate:
    """Fit one side's parameters by MLE, with per-value good posteriors."""
    parameters = estimate_parameters(observations, context, reference=reference)
    posterior = _posteriors(observations, parameters, reference, context)
    return SideEstimate(
        parameters=parameters,
        context=context,
        posterior=posterior,
    )


def estimated_side_statistics(
    parameters: EstimatedParameters,
    database: TextDatabase,
    characterization: KnobCharacterization,
    theta: float,
) -> SideStatistics:
    """Synthetic SideStatistics from one side's estimated parameters at θ."""
    # Clamp the document classes consistently: the bad-class cap must use
    # the *clamped* good count, or an overshooting estimate (e.g. from a
    # persisted record) yields a negative |Db| and SideStatistics rejects
    # it.  The floor at 0 covers a persisted record's negative counts.
    n_good_docs = max(
        0, int(min(round(parameters.n_good_docs), len(database)))
    )
    n_bad_docs = max(
        0, int(min(round(parameters.n_bad_docs), len(database) - n_good_docs))
    )
    return SideStatistics.from_histograms(
        relation=parameters.relation,
        n_documents=len(database),
        n_good_docs=n_good_docs,
        n_bad_docs=n_bad_docs,
        good_histogram=parameters.good_histogram(),
        bad_histogram=parameters.bad_histogram(),
        tp=characterization.tp_at(theta),
        fp=characterization.fp_at(theta),
        top_k=database.max_results,
        value_prefix=f"{parameters.relation}:",
    )


def estimated_catalog(
    parameters: Tuple[EstimatedParameters, EstimatedParameters],
    overlap: ValueOverlapModel,
    databases: Tuple[TextDatabase, TextDatabase],
    characterizations: Tuple[KnobCharacterization, KnobCharacterization],
    classifiers: Tuple[Optional[ClassifierProfile], ...],
    queries: Tuple[Sequence[QueryStats], ...],
) -> "StatisticsCatalog":
    """The optimizer's catalog over both sides' estimated parameters.

    Each side's statistics are built per θ by
    :func:`estimated_side_statistics`; the overlap classes stand in for
    the per-value overlap that synthetic value names cannot give.
    """
    # Imported here: the optimizer package imports this module.
    from ..optimizer.catalog import StatisticsCatalog

    builders = [
        functools.partial(estimated_side_statistics, *side)
        for side in zip(parameters, databases, characterizations)
    ]
    return StatisticsCatalog(
        side_builder1=builders[0],
        side_builder2=builders[1],
        classifier1=classifiers[0],
        classifier2=classifiers[1],
        queries1=tuple(queries[0]),
        queries2=tuple(queries[1]),
        overlap=overlap,
        per_value=False,
    )


def _posteriors(
    observations: RelationObservations,
    parameters: EstimatedParameters,
    reference: Optional[ConfidenceReference],
    context: ObservationContext,
) -> Dict[str, float]:
    """Per-observed-value good posteriors (fallback: fitted share)."""
    share = parameters.good_occurrence_share
    if reference is None or not observations.value_confidences:
        return {v: share for v in observations.sample_frequency}
    log_pg = np.log(np.clip(reference.good_at(context.theta), 1e-12, None))
    log_pb = np.log(np.clip(reference.bad_at(context.theta), 1e-12, None))
    log_share = math.log(max(share, 1e-9))
    log_rest = math.log(max(1.0 - share, 1e-9))
    posterior: Dict[str, float] = {}
    for value, confidences in observations.value_confidences.items():
        indices = [reference.bin_of(c) for c in confidences]
        lg = log_share + float(np.sum(log_pg[indices]))
        lb = log_rest + float(np.sum(log_pb[indices]))
        m = max(lg, lb)
        posterior[value] = math.exp(lg - m) / (
            math.exp(lg - m) + math.exp(lb - m)
        )
    return posterior


def estimate_overlap(
    estimate1: SideEstimate,
    estimate2: SideEstimate,
    observations1: RelationObservations,
    observations2: RelationObservations,
) -> ValueOverlapModel:
    """Estimate |Agg|, |Agb|, |Abg|, |Abb| from the observed overlap.

    Each value observed on *both* sides contributes its posterior class
    mass (π₁π₂ to gg, π₁(1−π₂) to gb, ...), and each class total is scaled
    up by the probability that a value of that class pair is observed on
    both sides.  Results are capped by the estimated class populations.
    """
    shared = sorted(
        set(observations1.sample_frequency)
        & set(observations2.sample_frequency)
    )
    gg = gb = bg = bb = 0.0
    for value in shared:
        p1 = estimate1.posterior.get(value, 0.5)
        p2 = estimate2.posterior.get(value, 0.5)
        gg += p1 * p2
        gb += p1 * (1.0 - p2)
        bg += (1.0 - p1) * p2
        bb += (1.0 - p1) * (1.0 - p2)
    sg1, sb1 = estimate1.p_seen_good, estimate1.p_seen_bad
    sg2, sb2 = estimate2.p_seen_good, estimate2.p_seen_bad
    par1, par2 = estimate1.parameters, estimate2.parameters
    return ValueOverlapModel(
        n_gg=min(gg / (sg1 * sg2), par1.n_good_values, par2.n_good_values),
        n_gb=min(gb / (sg1 * sb2), par1.n_good_values, par2.n_bad_values),
        n_bg=min(bg / (sb1 * sg2), par1.n_bad_values, par2.n_good_values),
        n_bb=min(bb / (sb1 * sb2), par1.n_bad_values, par2.n_bad_values),
    )
