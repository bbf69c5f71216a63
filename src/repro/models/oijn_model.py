"""Analytical model of the Outer/Inner Join (Section V-D).

The outer relation behaves exactly like a single IDJN side: its expected
occurrence factors follow from its retrieval model.  The inner relation is
reached through keyword probes on join values extracted from the outer
relation, so its analysis has three ingredients:

* **issuance** — the query ``[a]`` exists only once the outer execution has
  extracted at least one occurrence (good or bad) of ``a``; the model
  computes ``p_issue(a)`` from the outer side's sampling + thinning law;
* **own-query reach** — the query matches ``H(q) = g(a) + b(a)`` documents
  (every document carrying an occurrence of ``a``), of which the top-k
  interface returns ``min(H(q), k)`` in rank-random order, so each
  matching document is retrieved with probability ``min(H(q), k)/H(q)``
  (the hypergeometric sampling over ``Hg(q)`` of the paper, in
  expectation);
* **rest reach** — documents carrying ``a`` that the own query's top-k
  missed can still arrive via *other* values' queries; the model follows
  the paper in treating this as sampling the inner database's good (bad)
  documents at the execution's aggregate coverage.

Execution time charges the outer side's events plus, for the inner side,
``E[Qs]·tQ`` for the issued queries and ``E[|Dr|]·(tR + tE)`` for the
documents they retrieve.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.plan import RetrievalKind
from ..joins.costs import CostModel
from .distributions import NoneExtractedBatch
from .kernels import compose_aggregate_arrays, composition_kernel, side_kernel
from .parameters import JoinStatistics, SideStatistics, ValueOverlapModel
from .predictions import QualityPrediction, charge_events
from .retrieval_models import (
    ClassMix,
    EffortEvents,
    RetrievalModel,
    build_retrieval_model,
)
from .scheme import CompositionEstimate


def best_outer(
    statistics: JoinStatistics,
    outer_retrieval: RetrievalKind,
    tau_good: float,
    costs: Optional[CostModel] = None,
    per_value: bool = True,
    overlap: Optional[ValueOverlapModel] = None,
    steps: int = 12,
) -> Tuple[int, Dict[int, Optional[float]]]:
    """Which relation should play the outer role (Section IV-B).

    The paper notes its Section V analysis "can be used to identify which
    relation should serve as the outer relation in a join execution"; this
    helper does exactly that: for each outer choice, it finds (by bisection
    on the monotone predicted good count) the minimal outer effort whose
    prediction reaches *tau_good* and compares the predicted times.

    Returns ``(winning side, {side: predicted time or None})`` — None when
    that outer choice cannot reach the target at all; ties (including both
    unreachable) break toward side 1.
    """
    times: Dict[int, Optional[float]] = {}
    for outer in (1, 2):
        model = OIJNModel(
            statistics,
            outer_retrieval,
            outer=outer,
            costs=costs,
            per_value=per_value,
            overlap=overlap,
        )
        max_effort = float(model.max_effort)
        if model.predict(max_effort).n_good < tau_good:
            times[outer] = None
            continue
        lo, hi = 0.0, 1.0
        for _ in range(steps):
            mid = (lo + hi) / 2.0
            if model.predict(mid * max_effort).n_good >= tau_good:
                hi = mid
            else:
                lo = mid
        times[outer] = model.predict(hi * max_effort).total_time
    if times[1] is None and times[2] is None:
        return 1, times
    if times[1] is None:
        return 2, times
    if times[2] is None:
        return 1, times
    return (1 if times[1] <= times[2] else 2), times


@dataclass(frozen=True)
class InnerReach:
    """Aggregate inner-side expectations at one outer effort level."""

    queries: float
    good_docs: float
    bad_docs: float

    @property
    def documents(self) -> float:
        return self.good_docs + self.bad_docs


#: Bound on the class-mean issuance cache.  The previous implementation
#: kept exactly one entry, so bisection alternating between two mixes
#: recomputed the class means on every probe.
_ISSUE_CACHE_SIZE = 256


def _occurrence_arrays(
    side: SideStatistics, values: List[str]
) -> Tuple[NoneExtractedBatch, NoneExtractedBatch, NoneExtractedBatch]:
    """(good, bad-in-good, bad-in-bad) occurrence counts of *values* in *side*.

    Counts go through ``int(...)`` exactly as the scalar reference in
    :mod:`repro.validation.differential` converts them, and are wrapped as
    :class:`NoneExtractedBatch`, which reads the shared none-extracted
    tables at every effort probe.
    """
    occ_good = np.array(
        [int(side.good_frequency.get(v, 0)) for v in values], dtype=int
    )
    occ_bad_good = np.array(
        [int(side.bad_in_good_frequency.get(v, 0)) for v in values], dtype=int
    )
    occ_bad_bad = np.array(
        [int(side.bad_in_bad(v)) for v in values], dtype=int
    )
    return (
        NoneExtractedBatch(occ_good),
        NoneExtractedBatch(occ_bad_good),
        NoneExtractedBatch(occ_bad_bad),
    )


class _OuterVectors:
    """The OIJN arrays that depend on the outer side alone: the
    occurrence counts of its values in sorted order (per-value issuance)
    and the class-mean issuance inputs (aggregate mode).

    Built once per outer side by :func:`outer_vectors` and shared by every
    inner side it is paired with; it holds no side.
    """

    def __init__(self, outer_side: SideStatistics) -> None:
        values = sorted(
            set(outer_side.good_frequency) | set(outer_side.bad_frequency)
        )
        self.occ = _occurrence_arrays(outer_side, values)
        good_values = list(outer_side.good_frequency)
        bad_only = [
            v
            for v in outer_side.bad_frequency
            if v not in outer_side.good_frequency
        ]
        self.mean_good_occ = _occurrence_arrays(outer_side, good_values)
        self.mean_bad_occ = _occurrence_arrays(outer_side, bad_only)


def outer_vectors(outer_side: SideStatistics) -> _OuterVectors:
    """*outer_side*'s :class:`_OuterVectors`, built once and attached to it."""
    vectors = vars(outer_side).get("_oijn_outer")
    if vectors is None:
        vectors = _OuterVectors(outer_side)
        object.__setattr__(outer_side, "_oijn_outer", vectors)
    return vectors


class _OIJNVectors:
    """Effort-independent arrays behind the OIJN model's evaluation.

    Everything here is a pure function of the (outer side, inner side,
    overlap) triple: value orderings, occurrence counts (for issuance),
    own-query reach per inner value, and the alignment of the inner value
    union onto the side kernel's good/bad orderings.  :func:`oijn_vectors`
    builds one per triple and attaches it to the outer side, so the SC, FS
    and AQG plans over one catalog entry share it across all effort levels
    and requirements; the arrays of the outer side alone come from its
    :func:`outer_vectors`, shared by every inner side.  It holds neither
    side: a self-join side must still die by reference counting.
    """

    def __init__(
        self,
        outer_side: SideStatistics,
        inner_side: SideStatistics,
        inner: int,
        overlap: Optional[ValueOverlapModel],
    ) -> None:
        outer_only = outer_vectors(outer_side)
        self.outer_occ = outer_only.occ
        self.mean_good_occ = outer_only.mean_good_occ
        self.mean_bad_occ = outer_only.mean_bad_occ
        self.inner_values = sorted(
            set(inner_side.good_frequency) | set(inner_side.bad_frequency)
        )
        #: outer-side occurrences of the inner values (per-value issuance)
        self.inner_occ = _occurrence_arrays(outer_side, self.inner_values)
        self.is_good_inner = np.array(
            [v in inner_side.good_frequency for v in self.inner_values]
        )
        g = np.array(
            [inner_side.good_frequency.get(v, 0.0) for v in self.inner_values]
        )
        b = np.array(
            [inner_side.bad_frequency.get(v, 0.0) for v in self.inner_values]
        )
        bad_in_good = np.array(
            [
                inner_side.bad_in_good_frequency.get(v, 0.0)
                for v in self.inner_values
            ]
        )
        hits = g + b
        matched = hits > 0
        good_matches = g + bad_in_good
        safe_hits = np.where(matched, hits, 1.0)
        self.rate = np.where(
            matched, np.minimum(hits, inner_side.top_k) / safe_hits, 0.0
        )
        self.good_matches = np.where(matched, good_matches, 0.0)
        self.bad_matches = np.where(matched, hits - good_matches, 0.0)
        # alignment of the union ordering onto the inner kernel's orderings
        self.inner_kernel = side_kernel(inner_side)
        index_of = {value: i for i, value in enumerate(self.inner_values)}
        self.idx_good = np.array(
            [index_of[v] for v in self.inner_kernel.good_values], dtype=int
        )
        self.idx_bad = np.array(
            [index_of[v] for v in self.inner_kernel.bad_values], dtype=int
        )
        #: masks mirroring the scalar reference's factor-dict membership
        #: (it only records a non-zero factor; aggregate composition takes
        #: moments over the recorded entries)
        self.good_mask = self.inner_kernel.g != 0
        self.bad_mask = (self.inner_kernel.bg != 0) | (
            self.inner_kernel.bb != 0
        )
        # per-class overlap shares of the inner issuance (aggregate mode)
        if overlap is not None:
            population_good = max(len(inner_side.good_frequency), 1)
            population_bad = max(len(inner_side.bad_frequency), 1)
            if inner == 2:
                from_good_g, from_bad_g = overlap.n_gg, overlap.n_bg
                from_good_b, from_bad_b = overlap.n_gb, overlap.n_bb
            else:
                from_good_g, from_bad_g = overlap.n_gg, overlap.n_gb
                from_good_b, from_bad_b = overlap.n_bg, overlap.n_bb
            self.share_good_g = min(from_good_g / population_good, 1.0)
            self.share_bad_g = min(from_bad_g / population_good, 1.0)
            self.share_good_b = min(from_good_b / population_bad, 1.0)
            self.share_bad_b = min(from_bad_b / population_bad, 1.0)


def oijn_vectors(
    statistics: JoinStatistics,
    outer: int,
    overlap: Optional[ValueOverlapModel],
) -> _OIJNVectors:
    """The OIJN vectors of one side pair, built once and attached to the
    outer side.

    Keyed by the inner side's identity, the outer index and the overlap
    counts; each entry holds the inner side by weak reference only, to
    tell a reused id from the same side without keeping it (or, in a
    self-join, the outer side itself) alive.
    """
    inner = 2 if outer == 1 else 1
    outer_side = statistics.side(outer)
    inner_side = statistics.side(inner)
    pairs = vars(outer_side).get("_oijn_vectors")
    if pairs is None:
        pairs = {}
        object.__setattr__(outer_side, "_oijn_vectors", pairs)
    key = (id(inner_side), outer, overlap)
    entry = pairs.get(key)
    if entry is None or entry[0]() is not inner_side:
        entry = (
            weakref.ref(inner_side),
            _OIJNVectors(outer_side, inner_side, inner, overlap),
        )
        pairs[key] = entry
    return entry[1]


class OIJNModel:
    """Predicts output quality and time of OIJN plans.

    ``outer`` is the side index (1 or 2) playing the outer role, retrieved
    with ``outer_retrieval``; the other side is probed by query.

    The effort-independent arrays are the side pair's shared
    :class:`_OIJNVectors`, and every p_issue evaluation reads the
    process-wide none-extracted tables.  What stays per model are three
    bounded LRU caches keyed by the integer draws ``(good, bad)`` of an
    outer class mix: the class-mean issuance (aggregate mode, with the
    hit/miss tallies the optimizer scrapes), and the p_issue arrays of
    the inner and the outer values.  The plans that share the vectors
    probe different efforts and so seldom reach the same draws; these
    caches stay with the model.
    """

    def __init__(
        self,
        statistics: JoinStatistics,
        outer_retrieval: RetrievalKind,
        outer: int = 1,
        costs: Optional[CostModel] = None,
        per_value: bool = True,
        overlap: Optional[ValueOverlapModel] = None,
    ) -> None:
        if outer not in (1, 2):
            raise ValueError("outer must be 1 or 2")
        self.statistics = statistics
        self.outer = outer
        self.inner = 2 if outer == 1 else 1
        self.costs = costs or CostModel()
        self.per_value = per_value
        self.outer_model: RetrievalModel = build_retrieval_model(
            outer_retrieval,
            statistics.side(outer),
            classifier=statistics.classifier(outer),
            queries=statistics.queries(outer),
        )
        if per_value:
            self.overlap = None
        else:
            self.overlap = overlap or ValueOverlapModel.from_side_values(
                statistics.side1, statistics.side2
            )
        self._issue_cache: "OrderedDict[Tuple[int, int], Tuple[float, float]]" = (
            OrderedDict()
        )
        # Passive LRU hit/miss tallies, scraped into the metrics registry
        # by the optimizer when observability is on.
        self._issue_cache_hits = 0
        self._issue_cache_misses = 0
        # p_issue arrays per (draws_good, draws_bad): one prediction needs
        # the same batch for reach and for the inner factors, bisection
        # revisits operating points across requirements, and nearby effort
        # levels quantize to the same integer draws.
        self._inner_issue_cache: "OrderedDict[Tuple[int, int], np.ndarray]" = (
            OrderedDict()
        )
        self._outer_issue_cache: "OrderedDict[Tuple[int, int], np.ndarray]" = (
            OrderedDict()
        )
        self._vectors: Optional[_OIJNVectors] = None

    @property
    def max_effort(self) -> int:
        """Effort axis: documents retrieved (queries for AQG) on the outer side."""
        return self.outer_model.max_effort

    # -- issuance ---------------------------------------------------------------

    def _vec(self) -> _OIJNVectors:
        if self._vectors is None:
            self._vectors = oijn_vectors(
                self.statistics, self.outer, self.overlap
            )
        return self._vectors

    def _issue_batch(
        self,
        occurrences: Tuple[
            NoneExtractedBatch, NoneExtractedBatch, NoneExtractedBatch
        ],
        mix: ClassMix,
    ) -> np.ndarray:
        """p_issue(a) of every value of a batch: the outer execution
        extracted some occurrence of a (good or bad) at *mix*."""
        side = self.statistics.side(self.outer)
        occ_good, occ_bad_good, occ_bad_bad = occurrences
        draws_good = int(round(mix.good))
        draws_bad = int(round(mix.bad))
        p_missed = occ_good.evaluate(
            max(side.n_good_docs, 1), draws_good, side.tp
        )
        p_missed = p_missed * occ_bad_good.evaluate(
            max(side.n_good_docs, 1), draws_good, side.fp
        )
        p_missed = p_missed * occ_bad_bad.evaluate(
            max(side.n_bad_docs, 1), draws_bad, side.fp
        )
        return 1.0 - p_missed

    def _class_mean_issue(self, mix: ClassMix) -> Tuple[float, float]:
        """Mean issuance probability over the outer side's value classes."""
        vec = self._vec()
        mean_good = (
            float(np.mean(self._issue_batch(vec.mean_good_occ, mix)))
            if vec.mean_good_occ[0].occurrences.size
            else 0.0
        )
        mean_bad = (
            float(np.mean(self._issue_batch(vec.mean_bad_occ, mix)))
            if vec.mean_bad_occ[0].occurrences.size
            else 0.0
        )
        return mean_good, mean_bad

    def _mean_issue_cache(self, mix: ClassMix) -> Tuple[float, float]:
        """Bounded LRU over the class-mean issuance probabilities.

        Keyed on the integer draws :meth:`_issue_batch` reads, so every
        mix that rounds to the same draws hits, and bisection probes
        alternating between effort levels do not thrash.
        """
        key = (int(round(mix.good)), int(round(mix.bad)))
        cache = self._issue_cache
        found = cache.get(key)
        if found is not None:
            self._issue_cache_hits += 1
            cache.move_to_end(key)
            return found
        self._issue_cache_misses += 1
        result = self._class_mean_issue(mix)
        cache[key] = result
        if len(cache) > _ISSUE_CACHE_SIZE:
            cache.popitem(last=False)
        return result

    def _inner_issue_batch(self, mix: ClassMix) -> np.ndarray:
        """p_issue for every inner value (union ordering), one mix."""
        vec = self._vec()
        if self.per_value:
            key = (int(round(mix.good)), int(round(mix.bad)))
            cache = self._inner_issue_cache
            found = cache.get(key)
            if found is not None:
                cache.move_to_end(key)
                return found
            result = self._issue_batch(vec.inner_occ, mix)
            cache[key] = result
            if len(cache) > _ISSUE_CACHE_SIZE:
                cache.popitem(last=False)
            return result
        mean_good, mean_bad = self._mean_issue_cache(mix)
        p_good_class = min(
            vec.share_good_g * mean_good + vec.share_bad_g * mean_bad, 1.0
        )
        p_bad_class = min(
            vec.share_good_b * mean_good + vec.share_bad_b * mean_bad, 1.0
        )
        return np.where(vec.is_good_inner, p_good_class, p_bad_class)

    def _inner_reach_from_mix(self, mix: ClassMix) -> InnerReach:
        """Expected queries issued and inner documents retrieved at *mix*.

        Good-document coverage uses the Equation-2 overlap correction: the
        probability a good inner document escapes every issued query is the
        product of per-query misses.  Queries are counted over the *outer*
        side's values (each observed value spawns one query, whether or not
        it matches anything in the inner database); coverage is accumulated
        over the *inner* side's values (only they can be matched).
        """
        vec = self._vec()
        inner_side = self.statistics.side(self.inner)
        key = (int(round(mix.good)), int(round(mix.bad)))
        cache = self._outer_issue_cache
        outer_issue = cache.get(key)
        if outer_issue is None:
            outer_issue = self._issue_batch(vec.outer_occ, mix)
            cache[key] = outer_issue
            if len(cache) > _ISSUE_CACHE_SIZE:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        n_queries = float(outer_issue.sum())
        p_issue = self._inner_issue_batch(mix)
        n_good = max(inner_side.n_good_docs, 1)
        n_bad = max(inner_side.n_bad_docs, 1)
        p_good = np.minimum(
            p_issue * vec.rate * vec.good_matches / n_good, 1.0
        )
        p_bad = np.minimum(p_issue * vec.rate * vec.bad_matches / n_bad, 1.0)
        # Masked log1p instead of an errstate block: numpy 2 implements
        # errstate with ContextVar writes, measurable at this call rate.
        # Entries with p == 1 contribute -inf either way.
        log_miss_good = float(
            np.log1p(
                -p_good,
                where=p_good < 1.0,
                out=np.full_like(p_good, -np.inf),
            ).sum()
        )
        log_miss_bad = float(
            np.log1p(
                -p_bad,
                where=p_bad < 1.0,
                out=np.full_like(p_bad, -np.inf),
            ).sum()
        )
        good_docs = inner_side.n_good_docs * (1.0 - math.exp(log_miss_good))
        bad_docs = inner_side.n_bad_docs * (1.0 - math.exp(log_miss_bad))
        return InnerReach(
            queries=n_queries, good_docs=good_docs, bad_docs=bad_docs
        )

    # -- factors and prediction ----------------------------------------------------

    def _inner_factor_arrays(
        self, mix: ClassMix, reach: InnerReach
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expected inner occurrence factors, aligned to the inner kernel.

        An inner value's documents arrive through its own query (issued
        with p_issue, retrieved at the top-k rate) or through other
        values' queries at the execution's aggregate coverage.
        """
        vec = self._vec()
        inner_side = self.statistics.side(self.inner)
        rho_good_rest = min(
            reach.good_docs / max(inner_side.n_good_docs, 1), 1.0
        )
        rho_bad_rest = min(reach.bad_docs / max(inner_side.n_bad_docs, 1), 1.0)
        p_issue = self._inner_issue_batch(mix)
        own = p_issue * vec.rate
        cov_good = own + (1.0 - own) * rho_good_rest
        cov_bad = own + (1.0 - own) * rho_bad_rest
        kernel = vec.inner_kernel
        good = inner_side.tp * kernel.g * cov_good[vec.idx_good]
        bad = inner_side.fp * (
            kernel.bg * cov_good[vec.idx_bad]
            + kernel.bb * cov_bad[vec.idx_bad]
        )
        return good, bad

    def _compose(
        self,
        rho_good: float,
        rho_bad: float,
        mix: ClassMix,
        reach: InnerReach,
    ):
        """Kernel composition of the separable outer and array inner factors."""
        outer_side = self.statistics.side(self.outer)
        outer_kernel = side_kernel(outer_side)
        outer_good = outer_kernel.good_factors(rho_good)
        outer_bad = outer_kernel.bad_factors(rho_good, rho_bad)
        inner_good, inner_bad = self._inner_factor_arrays(mix, reach)
        if not self.per_value:
            vec = self._vec()
            inner_good = inner_good[vec.good_mask]
            inner_bad = inner_bad[vec.bad_mask]
        if self.outer == 1:
            good1, bad1, good2, bad2 = (
                outer_good,
                outer_bad,
                inner_good,
                inner_bad,
            )
        else:
            good1, bad1, good2, bad2 = (
                inner_good,
                inner_bad,
                outer_good,
                outer_bad,
            )
        if self.per_value:
            kernel = composition_kernel(
                self.statistics.side1, self.statistics.side2
            )
            return kernel.compose_arrays(good1, bad1, good2, bad2)
        return compose_aggregate_arrays(good1, bad1, good2, bad2, self.overlap)

    def predict(self, outer_effort: float) -> QualityPrediction:
        """Expected join composition and time at one outer effort level."""
        rho_good = self.outer_model.good_fraction_processed(outer_effort)
        rho_bad = self.outer_model.bad_fraction_processed(outer_effort)
        mix = self.outer_model.class_mix(outer_effort)
        reach = self._inner_reach_from_mix(mix)
        composition = self._compose(rho_good, rho_bad, mix, reach)
        return self._prediction(outer_effort, composition, reach)

    def _prediction(
        self,
        outer_effort: float,
        composition: CompositionEstimate,
        reach: InnerReach,
    ) -> QualityPrediction:
        """Charge the outer events and the inner *reach* to a composition."""
        events = {
            self.outer: self.outer_model.events(outer_effort),
            self.inner: EffortEvents(
                retrieved=reach.documents,
                processed=reach.documents,
                filtered=0.0,
                queries=reach.queries,
            ),
        }
        return QualityPrediction(
            composition=composition,
            time=charge_events(events, self.costs),
            efforts={self.outer: outer_effort, self.inner: reach.queries},
            events=events,
        )
