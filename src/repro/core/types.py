"""Fundamental value types shared across the library.

The paper (Section III) classifies everything three ways:

* extracted *tuples* are **good** (correctly extracted facts) or **bad**
  (erroneous extractions);
* *documents* are **good** (at least one good tuple is extractable), **bad**
  (only bad tuples are extractable), or **empty** (nothing extractable);
* *attribute-value occurrences* inherit the label of the tuple they occur in,
  so a single value may have both good and bad occurrences.

These labels are ground truth carried through the pipeline for evaluation
purposes only: estimators and optimizers never read them (Section VI requires
stand-alone estimation), while tests and benchmarks use them to score
estimated quality against actual quality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class DocumentClass(enum.Enum):
    """Classification of a document with respect to one extraction task."""

    GOOD = "good"
    BAD = "bad"
    EMPTY = "empty"


class TupleLabel(enum.Enum):
    """Ground-truth label of an extracted tuple."""

    GOOD = "good"
    BAD = "bad"


@dataclass(frozen=True)
class RelationSchema:
    """Schema of an extracted relation.

    Attributes
    ----------
    name:
        Relation name, e.g. ``"Headquarters"``.
    attributes:
        Ordered attribute names, e.g. ``("Company", "Location")``.
    """

    name: str
    attributes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.attributes) < 1:
            raise ValueError("a relation needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("attribute names must be distinct")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def index_of(self, attribute: str) -> int:
        """Position of *attribute* in the schema.

        Raises ``KeyError`` if the attribute does not exist.
        """
        try:
            return self.attributes.index(attribute)
        except ValueError:
            raise KeyError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None


@dataclass(frozen=True)
class Fact:
    """A ground-truth candidate fact of the world.

    ``is_true`` distinguishes facts that actually hold (extractions of them
    are good tuples) from plausible-but-wrong facts that a noisy extractor
    may produce (extractions of them are bad tuples).
    """

    relation: str
    values: Tuple[str, ...]
    is_true: bool

    def value_of(self, index: int) -> str:
        return self.values[index]


@dataclass(frozen=True)
class ExtractedTuple:
    """A tuple produced by an extraction system from one document.

    Attributes
    ----------
    relation:
        Name of the relation this tuple belongs to.
    values:
        The attribute values, aligned with the relation schema.
    document_id:
        The document the tuple was extracted from.
    confidence:
        The extractor's similarity/confidence score for the extraction.
    is_good:
        Ground-truth label (evaluation only — see module docstring).
    """

    relation: str
    values: Tuple[str, ...]
    document_id: int
    confidence: float
    is_good: bool

    @property
    def label(self) -> TupleLabel:
        return TupleLabel.GOOD if self.is_good else TupleLabel.BAD

    def value_of(self, index: int) -> str:
        return self.values[index]
