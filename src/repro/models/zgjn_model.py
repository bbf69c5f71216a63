"""Analytical model of the Zig-Zag Join (Section V-E).

ZGJN's behaviour is governed by the *zig-zag graph*: attribute values hit
documents of the opposite database (hit edges), documents generate
attribute values (generates edges).  The model describes both edge-degree
distributions with generating functions and chains the Newman/Strogatz/
Watts properties (Moments, Power, Composition — see
:mod:`repro.models.generating`) to predict, as a function of the number of
queries issued from R1 values:

    E[|Dr2|] = Q1 · μ(H1)                  documents retrieved from D2
    E[|Ar2|] = E[|Dr2|] · μ(Ga2)           R2 values generated from them
    E[|Dr1|] = E[|Ar2|] · μ(H2)            documents those values hit in D1
    E[|Ar1|] = E[|Dr1|] · μ(Ga1)           R1 values generated in turn

where H is the size-biased hit distribution (hits capped at the search
interface's top-k) and Ga the size-biased per-document yield distribution
after extraction thinning.  Every expectation is clipped at its reachable
ceiling (query-matchable documents, distinct values) — the model-level
counterpart of the search-interface limit of Figure 6(b).

The extracted-value totals are split into good/bad occurrences by each
side's occurrence shares, converted to document-coverage fractions, and
pushed through the Section V-B composition scheme.  ``include_stall=True``
(default) keeps zero-hit values in the hit distributions, modelling query
stalling; ``False`` reproduces the paper's "all queries match" assumption,
which it reports as a source of bad-tuple overestimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..joins.costs import CostModel
from .generating import GeneratingFunction
from .kernels import compose_aggregate_arrays, composition_kernel, side_kernel
from .parameters import JoinStatistics, SideStatistics, ValueOverlapModel
from .predictions import QualityPrediction, charge_events
from .retrieval_models import EffortEvents
from .scheme import CompositionEstimate, SideFactors, occurrence_factors


@dataclass(frozen=True)
class ZGJNReach:
    """Expected execution reach after q1 queries from R1 values."""

    queries_from_r1: float
    documents2: float
    values2: float
    documents1: float
    values1: float

    @property
    def queries_from_r2(self) -> float:
        """Queries issued against D1 (one per distinct R2 value used)."""
        return self.values2


def _hit_distribution_aggregate(
    own: SideStatistics,
    other: SideStatistics,
    overlap: "ValueOverlapModel",
    own_is_side1: bool,
    include_stall: bool,
) -> GeneratingFunction:
    """h0 when value identities don't align (estimated statistics).

    The overlap-class counts say how many of *own*'s values occur in the
    other relation at all; those shared values draw their hit counts from
    the other side's per-value frequency distribution (capped at top-k),
    and the rest stall with zero hits.
    """
    n_own = float(
        len(set(own.good_frequency) | set(own.bad_frequency))
    )
    if n_own <= 0:
        raise ValueError(f"side {own.relation} has no values")
    if own_is_side1:
        shared = overlap.n_gg + overlap.n_gb + overlap.n_bg + overlap.n_bb
    else:
        shared = overlap.n_gg + overlap.n_bg + overlap.n_gb + overlap.n_bb
    shared = min(shared, n_own)
    hit_histogram: Dict[int, float] = {}
    other_values = list(other.good_frequency.values()) + list(
        other.bad_frequency.values()
    )
    if not other_values:
        other_values = [0.0]
    for freq in other_values:
        k = int(min(round(freq), other.top_k))
        hit_histogram[k] = hit_histogram.get(k, 0.0) + 1.0
    total_other = sum(hit_histogram.values())
    histogram: Dict[int, float] = {
        k: shared * weight / total_other for k, weight in hit_histogram.items()
    }
    stall_mass = n_own - shared
    if include_stall and stall_mass > 0:
        histogram[0] = histogram.get(0, 0.0) + stall_mass
    if not any(k > 0 and v > 0 for k, v in histogram.items()):
        raise ValueError("every query stalls; no zig-zag execution possible")
    max_k = max(histogram)
    coeffs = [histogram.get(k, 0.0) for k in range(max_k + 1)]
    return GeneratingFunction(coeffs)


def _hit_distribution(
    own: SideStatistics, other: SideStatistics, include_stall: bool
) -> GeneratingFunction:
    """h0: capped hits on the *other* database per value of *own*.

    A value's query matches every document of the other database carrying
    an occurrence of it — ``H(q) = g(a) + b(a)`` there — truncated at the
    other interface's top-k.  Values absent from the other relation stall
    (zero hits); ``include_stall`` keeps or drops that mass.
    """
    histogram: Dict[int, float] = {}
    values = sorted(set(own.good_frequency) | set(own.bad_frequency))
    if not values:
        raise ValueError(f"side {own.relation} has no values")
    for value in values:
        hits = other.good_frequency.get(value, 0.0) + other.bad_frequency.get(
            value, 0.0
        )
        k = int(min(round(hits), other.top_k))
        if k == 0 and not include_stall:
            continue
        histogram[k] = histogram.get(k, 0.0) + 1.0
    if not histogram:
        raise ValueError("every query stalls; no zig-zag execution possible")
    max_k = max(histogram)
    coeffs = [histogram.get(k, 0.0) for k in range(max_k + 1)]
    return GeneratingFunction(coeffs)


def _yield_distribution(side: SideStatistics) -> GeneratingFunction:
    """ga0: extracted values per retrieved document, after thinning."""
    if side.values_per_document:
        base = GeneratingFunction.from_histogram(dict(side.values_per_document))
    else:
        total = side.total_good_occurrences + side.total_bad_occurrences
        non_empty = max(side.n_good_docs + side.n_bad_docs, 1)
        base = GeneratingFunction.degenerate(max(1, round(total / non_empty)))
    total_occ = side.total_good_occurrences + side.total_bad_occurrences
    if total_occ <= 0:
        return base.thinned(0.0)
    rate = (
        side.tp * side.total_good_occurrences
        + side.fp * side.total_bad_occurrences
    ) / total_occ
    return base.thinned(rate)


class ZGJNModel:
    """Predicts output quality and time of ZGJN plans."""

    def __init__(
        self,
        statistics: JoinStatistics,
        costs: Optional[CostModel] = None,
        per_value: bool = True,
        overlap: Optional[ValueOverlapModel] = None,
        include_stall: bool = True,
        dedup_correction: bool = True,
    ) -> None:
        self.statistics = statistics
        self.costs = costs or CostModel()
        self.per_value = per_value
        self.include_stall = include_stall
        #: the ceilings are effort-independent; computing them inside every
        #: reach() call was pure rework
        self._ceiling_cache: Dict[int, float] = {}
        #: The raw generating-function chain counts every hit, but the
        #: execution retrieves each document (and issues each value query)
        #: once; the occupancy correction N·(1 - e^(-raw/N)) accounts for
        #: collisions.  The paper omits it — one cause of the bad-tuple
        #: overestimation it reports; ``False`` reproduces that behaviour.
        self.dedup_correction = dedup_correction
        side1, side2 = statistics.side1, statistics.side2
        if per_value:
            self.overlap = None
            self.h0_1 = _hit_distribution(side1, side2, include_stall)
            self.h0_2 = _hit_distribution(side2, side1, include_stall)
        else:
            self.overlap = overlap or ValueOverlapModel.from_side_values(
                side1, side2
            )
            self.h0_1 = _hit_distribution_aggregate(
                side1, side2, self.overlap, True, include_stall
            )
            self.h0_2 = _hit_distribution_aggregate(
                side2, side1, self.overlap, False, include_stall
            )
        for label, h0 in (("R1", self.h0_1), ("R2", self.h0_2)):
            if h0.mean() <= 0:
                raise ValueError(
                    f"every query from {label} stalls (no shared join "
                    "values); no zig-zag execution is possible"
                )
        self.ga0_1 = _yield_distribution(side1)
        self.ga0_2 = _yield_distribution(side2)

    # -- reach ------------------------------------------------------------------

    def _distinct_values(self, side: SideStatistics) -> float:
        return float(len(set(side.good_frequency) | set(side.bad_frequency)))

    def _reachable_documents(self, side: SideStatistics) -> float:
        """Ceiling on documents of *side* that zig-zag queries can reach.

        A document is reachable only through queries for join values it
        contains, and a value is only ever queried if (a) it also occurs
        in the *other* relation and (b) the other side's extractor emits
        it at least once at its operating point.  The expected ceiling is
        an occupancy bound: Σ over shared values of
        ``p_queryable · min(hits, top_k)`` doc-slots thrown into the
        side's non-empty documents.  Without this correction the model
        predicts near-complete coverage and ZGJN looks far better than it
        is — the paper reports the matching overestimation.

        The ceiling is effort-independent, so it is computed once per side
        and cached.
        """
        key = 1 if side is self.statistics.side1 else 2
        if key not in self._ceiling_cache:
            self._ceiling_cache[key] = self._compute_reachable(side)
        return self._ceiling_cache[key]

    def _per_value_slots(
        self, side: SideStatistics, other: SideStatistics
    ) -> float:
        """Σ over shared values of ``p_queryable · min(hits, top_k)``."""
        values = sorted(set(side.good_frequency) | set(side.bad_frequency))
        g_other = np.array(
            [other.good_frequency.get(v, 0.0) for v in values]
        )
        b_other = np.array([other.bad_frequency.get(v, 0.0) for v in values])
        mask = (g_other != 0) | (b_other != 0)
        p_queryable = 1.0 - (1.0 - other.tp) ** g_other * (
            1.0 - other.fp
        ) ** b_other
        hits = np.array(
            [side.good_frequency.get(v, 0.0) for v in values]
        ) + np.array([side.bad_frequency.get(v, 0.0) for v in values])
        return float(
            np.sum((p_queryable * np.minimum(hits, side.top_k))[mask])
        )

    def _compute_reachable(self, side: SideStatistics) -> float:
        other = (
            self.statistics.side2
            if side is self.statistics.side1
            else self.statistics.side1
        )
        non_empty = float(side.n_good_docs + side.n_bad_docs)
        if non_empty <= 0:
            return 0.0
        if self.per_value:
            slots = self._per_value_slots(side, other)
        else:
            # Aggregate mode: class means in place of per-value identity.
            overlap = self.overlap
            shared = (
                overlap.n_gg + overlap.n_gb + overlap.n_bg + overlap.n_bb
            )
            own_values = list(side.good_frequency.values()) + list(
                side.bad_frequency.values()
            )
            other_values = list(other.good_frequency.values()) + list(
                other.bad_frequency.values()
            )
            if not own_values or not other_values:
                return 0.0
            mean_hits = sum(min(v, side.top_k) for v in own_values) / len(
                own_values
            )
            mean_other_freq = sum(other_values) / len(other_values)
            rate = (other.tp + other.fp) / 2.0
            p_queryable = 1.0 - (1.0 - rate) ** mean_other_freq
            shared = min(shared, float(len(own_values)))
            slots = shared * mean_hits * p_queryable
        return self._occupancy(slots, non_empty)

    def _occupancy(self, slots: float, non_empty: float) -> float:
        """Documents covered by *slots* doc-slots over *non_empty* ones."""
        if not self.dedup_correction:
            return min(slots, non_empty) if slots else non_empty
        return non_empty * (1.0 - math.exp(-slots / non_empty))

    def max_queries_from_r1(self) -> int:
        """The query budget axis: at most one query per distinct R1 value."""
        return int(self._distinct_values(self.statistics.side1))

    def reach(self, q1: float) -> ZGJNReach:
        """Chain the Moments/Power/Composition expectations, with ceilings."""
        side1, side2 = self.statistics.side1, self.statistics.side2
        return self._chain(
            q1,
            self._reachable_documents(side1),
            self._reachable_documents(side2),
        )

    def _chain(
        self, q1: float, reachable1: float, reachable2: float
    ) -> ZGJNReach:
        """:meth:`reach` given both sides' reachable-document ceilings."""
        if q1 < 0:
            raise ValueError("q1 must be non-negative")
        side1, side2 = self.statistics.side1, self.statistics.side2
        mu_h1 = self.h0_1.size_biased_mean()
        mu_h2 = self.h0_2.size_biased_mean()
        mu_ga1 = self.ga0_1.size_biased_mean()
        mu_ga2 = self.ga0_2.size_biased_mean()
        q1 = min(q1, self.max_queries_from_r1())

        def cap(raw: float, ceiling: float) -> float:
            if ceiling <= 0:
                return 0.0
            if not self.dedup_correction:
                return min(raw, ceiling)
            return ceiling * (1.0 - math.exp(-raw / ceiling))

        dr2 = cap(q1 * mu_h1, reachable2)
        ar2 = cap(dr2 * mu_ga2, self._distinct_values(side2))
        dr1 = cap(ar2 * mu_h2, reachable1)
        ar1 = cap(dr1 * mu_ga1, self._distinct_values(side1))
        return ZGJNReach(
            queries_from_r1=q1,
            documents2=dr2,
            values2=ar2,
            documents1=dr1,
            values1=ar1,
        )

    # -- composition --------------------------------------------------------------

    def _good_share(self, side: SideStatistics) -> float:
        """Good-document share among query-matchable documents."""
        good_docs = side.total_good_occurrences + sum(
            side.bad_in_good_frequency.values()
        )
        all_docs = side.total_good_occurrences + side.total_bad_occurrences
        if all_docs <= 0:
            return 0.0
        return good_docs / all_docs

    def _coverage_fractions(
        self, side_index: int, documents: float
    ) -> Tuple[float, float]:
        """(ρ_good, ρ_bad) given this side's retrieved-document count."""
        side = self.statistics.side(side_index)
        share = self._good_share(side)
        good_docs = documents * share
        bad_docs = documents * (1.0 - share)
        rho_good = min(good_docs / max(side.n_good_docs, 1), 1.0)
        rho_bad = min(bad_docs / max(side.n_bad_docs, 1), 1.0)
        return rho_good, rho_bad

    def side_factors(self, side_index: int, documents: float) -> SideFactors:
        """Occurrence factors given this side's retrieved-document count."""
        side = self.statistics.side(side_index)
        rho_good, rho_bad = self._coverage_fractions(side_index, documents)
        return occurrence_factors(side, rho_good=rho_good, rho_bad=rho_bad)

    def predict(self, q1: float) -> QualityPrediction:
        """Expected composition and time after q1 queries from R1 values."""
        reach = self.reach(q1)
        # ZGJN factors are coverage-separable, so composition reduces to
        # the precomputed kernel dot products (per-value mode) or the
        # factor-array moments (aggregate mode).
        rho1 = self._coverage_fractions(1, reach.documents1)
        rho2 = self._coverage_fractions(2, reach.documents2)
        side1, side2 = self.statistics.side1, self.statistics.side2
        if self.per_value:
            kernel = composition_kernel(side1, side2)
            composition = kernel.compose_coverage(
                rho1[0], rho1[1], rho2[0], rho2[1]
            )
        else:
            k1, k2 = side_kernel(side1), side_kernel(side2)
            composition = compose_aggregate_arrays(
                k1.good_factors(rho1[0]),
                k1.bad_factors(rho1[0], rho1[1]),
                k2.good_factors(rho2[0]),
                k2.bad_factors(rho2[0], rho2[1]),
                self.overlap,
            )
        return self._prediction(reach, composition)

    def _prediction(
        self, reach: ZGJNReach, composition: CompositionEstimate
    ) -> QualityPrediction:
        """Charge the zig-zag events of *reach* to a composition."""
        events = {
            1: EffortEvents(
                retrieved=reach.documents1,
                processed=reach.documents1,
                filtered=0.0,
                queries=reach.queries_from_r2,
            ),
            2: EffortEvents(
                retrieved=reach.documents2,
                processed=reach.documents2,
                filtered=0.0,
                queries=reach.queries_from_r1,
            ),
        }
        return QualityPrediction(
            composition=composition,
            time=charge_events(events, self.costs),
            efforts={1: reach.queries_from_r2, 2: reach.queries_from_r1},
            events=events,
        )
