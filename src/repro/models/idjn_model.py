"""Analytical model of the Independent Join (Section V-C).

IDJN extracts the two relations independently, so each side's expected
occurrence factors depend only on its own retrieval model and extractor
operating point; the join composition is the Section V-B scheme applied to
the two factor sets, and execution time is the sum of both sides' billable
events:

    Time = Σ_i |Dr_i|·(tR + tE)  (+ |Dr_i|·tF for FS, + |Qs_i|·tQ for AQG).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..core.plan import RetrievalKind
from ..joins.costs import CostModel
from .kernels import compose_aggregate_arrays, composition_kernel, side_kernel
from .parameters import JoinStatistics, ValueOverlapModel
from .predictions import QualityPrediction, charge_events
from .retrieval_models import RetrievalModel, build_retrieval_model
from .scheme import CompositionEstimate, SideFactors, occurrence_factors
from .uncertainty import (
    IntervalEstimate,
    compose_with_variance,
    occurrence_variances,
)


class IDJNModel:
    """Predicts output quality and time of IDJN plans.

    ``per_value=True`` (default) composes over actual value identities —
    the ground-truth mode of the Figure 9 accuracy experiments.  With
    ``per_value=False`` the model runs in aggregate (estimated-statistics)
    mode: the overlap-class counts must then be supplied.
    """

    def __init__(
        self,
        statistics: JoinStatistics,
        retrieval1: RetrievalKind,
        retrieval2: RetrievalKind,
        costs: Optional[CostModel] = None,
        per_value: bool = True,
        overlap: Optional[ValueOverlapModel] = None,
    ) -> None:
        self.statistics = statistics
        self.costs = costs or CostModel()
        self.per_value = per_value
        self.models: Dict[int, RetrievalModel] = {
            i: build_retrieval_model(
                kind,
                statistics.side(i),
                classifier=statistics.classifier(i),
                queries=statistics.queries(i),
            )
            for i, kind in ((1, retrieval1), (2, retrieval2))
        }
        if per_value:
            self.overlap = None
        else:
            self.overlap = overlap or ValueOverlapModel.from_side_values(
                statistics.side1, statistics.side2
            )

    def max_effort(self, side: int) -> int:
        return self.models[side].max_effort

    def side_factors(self, side: int, effort: float) -> SideFactors:
        model = self.models[side]
        return occurrence_factors(
            self.statistics.side(side),
            rho_good=model.good_fraction_processed(effort),
            rho_bad=model.bad_fraction_processed(effort),
        )

    def _compose(self, effort1: float, effort2: float) -> CompositionEstimate:
        """Kernel composition: both sides' factors are coverage-separable."""
        side1, side2 = self.statistics.side1, self.statistics.side2
        rho = {}
        for index in (1, 2):
            model = self.models[index]
            effort = effort1 if index == 1 else effort2
            rho[index] = (
                model.good_fraction_processed(effort),
                model.bad_fraction_processed(effort),
            )
        if self.per_value:
            kernel = composition_kernel(side1, side2)
            return kernel.compose_coverage(
                rho[1][0], rho[1][1], rho[2][0], rho[2][1]
            )
        k1, k2 = side_kernel(side1), side_kernel(side2)
        return compose_aggregate_arrays(
            k1.good_factors(rho[1][0]),
            k1.bad_factors(rho[1][0], rho[1][1]),
            k2.good_factors(rho[2][0]),
            k2.bad_factors(rho[2][0], rho[2][1]),
            self.overlap,
        )

    def predict(self, effort1: float, effort2: float) -> QualityPrediction:
        """Expected join composition and time at the given efforts."""
        return self._prediction(
            effort1, effort2, self._compose(effort1, effort2)
        )

    def _prediction(
        self, effort1: float, effort2: float, composition: CompositionEstimate
    ) -> QualityPrediction:
        """Charge both sides' events to a composition at the efforts."""
        events = {
            1: self.models[1].events(effort1),
            2: self.models[2].events(effort2),
        }
        return QualityPrediction(
            composition=composition,
            time=charge_events(events, self.costs),
            efforts={1: effort1, 2: effort2},
            events=events,
        )

    def sweep(
        self, efforts: Sequence[Tuple[float, float]]
    ) -> Dict[Tuple[float, float], QualityPrediction]:
        """Predictions over a list of (effort1, effort2) operating points."""
        return {pair: self.predict(*pair) for pair in efforts}

    def predict_interval(
        self, effort1: float, effort2: float, z: float = 1.96
    ) -> Tuple[IntervalEstimate, IntervalEstimate]:
        """(good, bad) interval estimates at the given operating point.

        Normal-approximation confidence intervals from the per-value
        binomial variance model (:mod:`repro.models.uncertainty`); only
        meaningful in per-value mode, where value identities are known.
        """
        if not self.per_value:
            raise RuntimeError(
                "interval prediction needs per-value statistics"
            )
        pieces = []
        for side_index, effort in ((1, effort1), (2, effort2)):
            model = self.models[side_index]
            side = self.statistics.side(side_index)
            rho_good = model.good_fraction_processed(effort)
            rho_bad = model.bad_fraction_processed(effort)
            pieces.append(
                (
                    occurrence_factors(side, rho_good, rho_bad),
                    occurrence_variances(side, rho_good, rho_bad),
                )
            )
        (factors1, variances1), (factors2, variances2) = pieces
        return compose_with_variance(
            factors1, variances1, factors2, variances2, z=z
        )
