"""Ground-truth database statistics (the quantities of Table I).

:class:`DatabaseProfile` computes, for one database and one extraction
task, every database-specific parameter the analytical models consume:

* document-class sizes |Dg|, |Db|, |De|;
* the good/bad attribute-value sets Ag, Ab on a chosen attribute;
* per-value document frequencies g(a) (good occurrences, counted over good
  documents) and b(a) (bad occurrences, counted over any document — bad
  tuples can be extracted from good documents too, Section V-C);
* frequency histograms Pr{g}, Pr{b} and the mentions-per-document
  distribution needed by the ZGJN generating-function model.

These are *ground-truth* statistics: experiments that assume "perfect
knowledge of the database-specific parameters" (the Figure 9–12 accuracy
studies) read them directly, while the optimizer experiments rely on the
MLE estimates of :mod:`repro.estimation` instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List

from ..core.types import DocumentClass
from .database import TextDatabase


@dataclass(frozen=True)
class FrequencyHistogram:
    """Distribution of per-value document frequencies.

    ``counts[k]`` is the number of attribute values occurring in exactly
    ``k`` documents (k ≥ 1).  Provides the Pr{g} / Pr{b} factors of the
    Section V-B scheme.
    """

    counts: Dict[int, int]

    @property
    def n_values(self) -> int:
        return sum(self.counts.values())

    def probability(self, k: int) -> float:
        """Pr{frequency = k} over the values of this histogram."""
        total = self.n_values
        if total == 0:
            return 0.0
        return self.counts.get(k, 0) / total

    def support(self) -> List[int]:
        return sorted(self.counts)

    @classmethod
    def from_counter(cls, per_value: Counter) -> "FrequencyHistogram":
        histogram: Counter = Counter(per_value.values())
        return cls(counts=dict(histogram))


@dataclass
class DatabaseProfile:
    """Ground-truth statistics of one (database, relation) pair."""

    database_name: str
    relation: str
    attribute_index: int
    n_documents: int
    n_good_docs: int
    n_bad_docs: int
    n_empty_docs: int
    #: value -> number of good documents with a good occurrence of value
    good_frequency: Counter
    #: value -> number of documents (any class) with a bad occurrence
    bad_frequency: Counter
    #: value -> number of *good* documents with a bad occurrence
    bad_in_good_frequency: Counter
    #: histogram of planted mentions per non-empty document
    mentions_per_document: Dict[int, int]

    @property
    def good_values(self) -> FrozenSet[str]:
        """Ag: values with at least one good occurrence."""
        return frozenset(self.good_frequency)

    @property
    def bad_values(self) -> FrozenSet[str]:
        """Ab: values with at least one bad occurrence."""
        return frozenset(self.bad_frequency)

    @property
    def n_good_occurrences(self) -> int:
        return sum(self.good_frequency.values())

    @property
    def n_bad_occurrences(self) -> int:
        return sum(self.bad_frequency.values())

    def good_histogram(self) -> FrequencyHistogram:
        return FrequencyHistogram.from_counter(self.good_frequency)

    def bad_histogram(self) -> FrequencyHistogram:
        return FrequencyHistogram.from_counter(self.bad_frequency)


def profile_database(
    database: TextDatabase, relation: str, attribute_index: int = 0
) -> DatabaseProfile:
    """Compute the ground-truth profile of *database* for one task."""
    n_good = n_bad = n_empty = 0
    good_frequency: Counter = Counter()
    bad_frequency: Counter = Counter()
    bad_in_good: Counter = Counter()
    mentions_per_doc: Counter = Counter()
    for doc in database.documents:
        mentions = doc.mentions_of(relation)
        doc_class = doc.classify(relation)
        if doc_class is DocumentClass.GOOD:
            n_good += 1
        elif doc_class is DocumentClass.BAD:
            n_bad += 1
        else:
            n_empty += 1
        if mentions:
            mentions_per_doc[len(mentions)] += 1
        seen_good: set = set()
        seen_bad: set = set()
        for mention in mentions:
            value = mention.fact.value_of(attribute_index)
            if mention.fact.is_true:
                if value not in seen_good:
                    good_frequency[value] += 1
                    seen_good.add(value)
            else:
                if value not in seen_bad:
                    bad_frequency[value] += 1
                    if doc_class is DocumentClass.GOOD:
                        bad_in_good[value] += 1
                    seen_bad.add(value)
    return DatabaseProfile(
        database_name=database.name,
        relation=relation,
        attribute_index=attribute_index,
        n_documents=len(database),
        n_good_docs=n_good,
        n_bad_docs=n_bad,
        n_empty_docs=n_empty,
        good_frequency=good_frequency,
        bad_frequency=bad_frequency,
        bad_in_good_frequency=bad_in_good,
        mentions_per_document=dict(mentions_per_doc),
    )
