"""Online observation collection for on-the-fly parameter estimation.

While a join executes, the paper's estimator watches the extraction output:
for each attribute value ``a`` obtained so far, ``s(a)`` is the number of
processed documents that generated ``a`` (Section VI).  These sample
frequencies — together with how many documents were processed — are all
the MLE needs; crucially, the collector records *no* ground-truth labels,
preserving the stand-alone estimation property.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from ..core.types import ExtractedTuple


@dataclass
class RelationObservations:
    """What has been observed for one relation during execution."""

    relation: str
    attribute_index: int = 0
    documents_processed: int = 0
    #: documents that produced at least one tuple
    productive_documents: int = 0
    #: documents that produced no tuple at all — tracked explicitly (not
    #: derived as ``processed - productive``) so telemetry and the MLE
    #: read the same denominator even when observations are merged,
    #: halved, or checkpoint-restored piecewise
    unproductive_documents: int = 0
    #: value -> number of processed documents that generated the value
    sample_frequency: Counter = field(default_factory=Counter)
    #: per-document tuple yield histogram (documents with >= 1 tuple)
    tuples_per_document: Counter = field(default_factory=Counter)
    #: value -> extractor confidence of each recorded occurrence; the
    #: estimator splits good from bad occurrences with these (no labels)
    value_confidences: Dict[str, List[float]] = field(default_factory=dict)

    def record_document(self, tuples: Iterable[ExtractedTuple]) -> None:
        """Account one processed document and the tuples it yielded."""
        self.documents_processed += 1
        values: Dict[str, float] = {}
        count = 0
        for tup in tuples:
            count += 1
            value = tup.value_of(self.attribute_index)
            values[value] = max(values.get(value, 0.0), tup.confidence)
        if count:
            self.productive_documents += 1
            self.tuples_per_document[count] += 1
        else:
            self.unproductive_documents += 1
        for value, confidence in values.items():
            self.sample_frequency[value] += 1
            self.value_confidences.setdefault(value, []).append(confidence)

    @property
    def productive_fraction(self) -> float:
        """Share of processed documents that yielded at least one tuple.

        0.0 before any document has been processed.  Uses the explicit
        productive/unproductive split, so consumers (telemetry, the MLE's
        per-document yield model) all agree on the denominator.
        """
        total = self.productive_documents + self.unproductive_documents
        if total == 0:
            return 0.0
        return self.productive_documents / total

    @property
    def distinct_values(self) -> int:
        return len(self.sample_frequency)

    @property
    def total_value_occurrences(self) -> int:
        return sum(self.sample_frequency.values())


class ObservationCollector:
    """Per-side observations of a join execution, sides numbered 1 to n.

    ``attribute_indexes`` gives each relation's join-attribute index (all
    0 when omitted).
    """

    def __init__(
        self, *relations: str, attribute_indexes: Sequence[int] = ()
    ) -> None:
        indexes = attribute_indexes or (0,) * len(relations)
        self._sides: Dict[int, RelationObservations] = {
            side: RelationObservations(relation, index)
            for side, (relation, index) in enumerate(
                zip(relations, indexes), start=1
            )
        }

    def __len__(self) -> int:
        return len(self._sides)

    def side(self, index: int) -> RelationObservations:
        return self._sides[index]

    def record(self, side: int, tuples: Iterable[ExtractedTuple]) -> None:
        self._sides[side].record_document(tuples)
