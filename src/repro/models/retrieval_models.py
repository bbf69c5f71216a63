"""Per-strategy document-retrieval models (Section V-C).

Each model answers, for one join side: *if the strategy spends a given
amount of effort, how many good / bad / empty documents does the extractor
end up processing, and what events does the time model charge?*

Effort is strategy-specific — documents retrieved for Scan and Filtered
Scan, queries issued for AQG — exposed uniformly as ``effort`` in
``[0, max_effort]``:

* **Scan** retrieves documents in quality-blind order, so the processed
  class mix is hypergeometric; in expectation each class is consumed
  proportionally (``E[|Dgr|] = n · |Dg| / |D|``).
* **Filtered Scan** thins each class by the classifier's measured pass
  rates (Ctp for good, Cfp for bad, Cep for empty).
* **AQG** retrieves the documents matched by its learned queries; each
  good document is reached by at least one of the issued queries with the
  probability of Equation 2, and analogously per class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.plan import RetrievalKind
from ..retrieval.classifier import ClassifierProfile
from ..retrieval.queries import QueryStats
from .parameters import SideStatistics


@dataclass(frozen=True)
class ClassMix:
    """Expected number of documents *processed*, by document class."""

    good: float
    bad: float
    empty: float

    @property
    def total(self) -> float:
        return self.good + self.bad + self.empty


@dataclass(frozen=True)
class EffortEvents:
    """Expected billable events at a given effort level."""

    retrieved: float
    processed: float
    filtered: float
    queries: float


class RetrievalModel(abc.ABC):
    """Expected behaviour of one strategy on one side."""

    def __init__(self, side: SideStatistics) -> None:
        # The model keeps the counts it reads, never the side itself: a
        # shared model is cached on its side (build_retrieval_model), and a
        # back reference would make every catalog a reference cycle.
        self.n_documents = side.n_documents
        self.n_good_docs = side.n_good_docs
        self.n_bad_docs = side.n_bad_docs
        self.n_empty_docs = side.n_empty_docs
        self.top_k = side.top_k
        self._mix_cache: Dict[float, ClassMix] = {}

    @property
    @abc.abstractmethod
    def max_effort(self) -> int:
        """Largest meaningful effort value (inclusive)."""

    @abc.abstractmethod
    def _class_mix(self, effort: float) -> ClassMix:
        """Expected processed documents per class at *effort*."""

    def class_mix(self, effort: float) -> ClassMix:
        """Memoized :meth:`_class_mix`.

        Models are shared across plans (see :func:`build_retrieval_model`),
        and the optimizer probes the same dyadic efforts from every plan
        and requirement, so the mix per distinct effort is computed once.
        """
        found = self._mix_cache.get(effort)
        if found is None:
            found = self._class_mix(effort)
            self._mix_cache[effort] = found
        return found

    @abc.abstractmethod
    def events(self, effort: float) -> EffortEvents:
        """Expected billable events at *effort*."""

    def good_fraction_processed(self, effort: float) -> float:
        """E[|Dgr|] / |Dg| — the good-document coverage at *effort*."""
        if self.n_good_docs == 0:
            return 0.0
        return min(1.0, self.class_mix(effort).good / self.n_good_docs)

    def bad_fraction_processed(self, effort: float) -> float:
        """E[|Dbr|] / |Db| — the bad-document coverage at *effort*."""
        if self.n_bad_docs == 0:
            return 0.0
        return min(1.0, self.class_mix(effort).bad / self.n_bad_docs)


class ScanModel(RetrievalModel):
    """SC: effort = documents retrieved (= processed)."""

    @property
    def max_effort(self) -> int:
        return self.n_documents

    def _class_mix(self, effort: float) -> ClassMix:
        effort = min(effort, self.max_effort)
        n = self.n_documents
        if n == 0:
            return ClassMix(0.0, 0.0, 0.0)
        share = effort / n
        return ClassMix(
            good=share * self.n_good_docs,
            bad=share * self.n_bad_docs,
            empty=share * self.n_empty_docs,
        )

    def events(self, effort: float) -> EffortEvents:
        effort = min(effort, self.max_effort)
        return EffortEvents(
            retrieved=effort, processed=effort, filtered=0.0, queries=0.0
        )


class FilteredScanModel(RetrievalModel):
    """FS: effort = documents retrieved; classifier thins each class."""

    def __init__(self, side: SideStatistics, classifier: ClassifierProfile) -> None:
        super().__init__(side)
        self.classifier = classifier

    @property
    def max_effort(self) -> int:
        return self.n_documents

    def _class_mix(self, effort: float) -> ClassMix:
        effort = min(effort, self.max_effort)
        n = self.n_documents
        if n == 0:
            return ClassMix(0.0, 0.0, 0.0)
        share = effort / n
        return ClassMix(
            good=share * self.n_good_docs * self.classifier.c_tp,
            bad=share * self.n_bad_docs * self.classifier.c_fp,
            empty=share * self.n_empty_docs * self.classifier.c_ep,
        )

    def events(self, effort: float) -> EffortEvents:
        effort = min(effort, self.max_effort)
        return EffortEvents(
            retrieved=effort,
            processed=self.class_mix(effort).total,
            filtered=effort,
            queries=0.0,
        )


class AQGModel(RetrievalModel):
    """AQG: effort = queries issued (prefix of the learned query list).

    :meth:`class_mix` is answered from per-class prefix sums of the
    per-query log-miss terms, computed once — O(1) per effort instead of a
    Python loop over the query list.  The loop is kept as the reference in
    :mod:`repro.validation.differential`; both accumulate the same float64
    terms in the same order, so they agree bit-for-bit.
    """

    def __init__(
        self, side: SideStatistics, queries: Sequence[QueryStats]
    ) -> None:
        super().__init__(side)
        if not queries:
            raise ValueError("AQG model needs the learned queries' statistics")
        self.queries = list(queries)
        self._tables: Optional[dict] = None

    @property
    def max_effort(self) -> int:
        return len(self.queries)

    def _prefix_tables(self) -> dict:
        """Per-class (reach per query, prefix log-miss) arrays."""
        if self._tables is None:
            hits = np.array([q.hits for q in self.queries], dtype=float)
            retrieved = np.minimum(hits, self.top_k)
            denominator = np.maximum(hits, 1)
            tables: dict = {}
            per_class = {
                "good": (
                    self.n_good_docs,
                    np.array([q.good_hits for q in self.queries], dtype=float),
                ),
                "bad": (
                    self.n_bad_docs,
                    np.array([q.bad_hits for q in self.queries], dtype=float),
                ),
                "empty": (
                    self.n_empty_docs,
                    np.array(
                        [q.hits * q.empty_fraction for q in self.queries],
                        dtype=float,
                    ),
                ),
            }
            for name, (class_size, class_hits) in per_class.items():
                reach = class_hits / denominator * retrieved
                if class_size > 0:
                    p = np.minimum(reach / class_size, 1.0)
                    with np.errstate(divide="ignore"):
                        log_terms = np.log1p(-p)
                    prefix = np.concatenate(
                        ([0.0], np.cumsum(log_terms))
                    )
                else:
                    prefix = np.zeros(len(self.queries) + 1)
                tables[name] = (reach, prefix)
            self._tables = tables
        return self._tables

    def _reach_fast(self, effort: float, class_size: int, name: str) -> float:
        """Expected documents of one class reached by the first q queries.

        Equation 2: a class member is reached by query i with probability
        ``retrieved_i(class) / class_size`` and queries are conditionally
        independent within the class, so
        ``E = class_size · (1 - Π_i (1 - reach_i / class_size))``, summed
        in log space by the prefix table.  Fractional effort interpolates
        the final query's contribution.
        """
        if class_size <= 0:
            return 0.0
        effort = min(effort, self.max_effort)
        reach, prefix = self._prefix_tables()[name]
        whole = int(effort)
        log_miss = float(prefix[whole])
        frac = effort - whole
        if frac > 0 and whole < len(self.queries):
            p = min(frac * float(reach[whole]) / class_size, 1.0)
            log_miss += float(np.log1p(-p)) if p < 1.0 else -np.inf
        return class_size * (1.0 - float(np.exp(log_miss)))

    def _class_mix(self, effort: float) -> ClassMix:
        return ClassMix(
            good=self._reach_fast(effort, self.n_good_docs, "good"),
            bad=self._reach_fast(effort, self.n_bad_docs, "bad"),
            empty=self._reach_fast(effort, self.n_empty_docs, "empty"),
        )

    def events(self, effort: float) -> EffortEvents:
        mix = self.class_mix(effort)
        return EffortEvents(
            retrieved=mix.total,
            processed=mix.total,
            filtered=0.0,
            queries=min(effort, self.max_effort),
        )


def build_retrieval_model(
    kind: RetrievalKind,
    side: SideStatistics,
    classifier: Optional[ClassifierProfile] = None,
    queries: Sequence[QueryStats] = (),
    shared: bool = True,
) -> RetrievalModel:
    """Factory keyed by the plan's retrieval kind.

    With ``shared=True`` (default) the constructed model is cached on the
    *side-statistics object itself*, so every plan evaluated over the same
    catalog entry — i.e. the same (θ, retrieval kind) — reuses one model
    instance (and its precomputed tables).  Retrieval models are pure
    functions of their inputs, so sharing is observationally transparent.
    Cache hits require the classifier/queries to be the *same objects*, so
    a stale entry can never be returned for different parameters.
    """
    if shared:
        cache = getattr(side, "_retrieval_cache", None)
        if cache is None:
            cache = []
            object.__setattr__(side, "_retrieval_cache", cache)
        for entry_kind, entry_classifier, entry_queries, model in cache:
            if (
                entry_kind is kind
                and entry_classifier is classifier
                and entry_queries is queries
            ):
                return model
        model = build_retrieval_model(
            kind, side, classifier=classifier, queries=queries, shared=False
        )
        cache.append((kind, classifier, queries, model))
        return model
    if kind is RetrievalKind.SCAN:
        return ScanModel(side)
    if kind is RetrievalKind.FILTERED_SCAN:
        if classifier is None:
            raise ValueError("Filtered Scan model needs a classifier profile")
        return FilteredScanModel(side, classifier)
    if kind is RetrievalKind.AQG:
        return AQGModel(side, queries)
    raise ValueError(f"no standalone retrieval model for {kind}")
