"""Documents with planted fact mentions.

A document is a sequence of *sentences* (token lists).  Sentences either
carry a planted :class:`Mention` of a fact — the span an extraction system
can turn into a tuple — or are background noise.  Mentions record their
ground-truth fact so evaluation can label extracted tuples, but extractors
only ever look at the token stream (entity positions + context terms), not
at the labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, List, Tuple

from ..core.types import DocumentClass, Fact


@dataclass(frozen=True)
class Mention:
    """A planted occurrence of a fact inside one sentence.

    Attributes
    ----------
    fact:
        The ground-truth fact this mention realizes.  ``fact.is_true``
        decides whether an extraction of it is a good or a bad tuple.
    sentence_index:
        Which sentence of the document carries the mention.
    entity_positions:
        Token offsets of the fact's attribute values within the sentence,
        aligned with ``fact.values``.
    """

    fact: Fact
    sentence_index: int
    entity_positions: Tuple[int, ...]


@dataclass
class Document:
    """One text document: sentences plus planted mentions."""

    doc_id: int
    sentences: List[List[str]]
    mentions: List[Mention] = field(default_factory=list)

    def __post_init__(self) -> None:
        for m in self.mentions:
            if not 0 <= m.sentence_index < len(self.sentences):
                raise ValueError(
                    f"mention sentence {m.sentence_index} out of range "
                    f"in document {self.doc_id}"
                )

    def tokens(self) -> Iterator[str]:
        """All tokens of the document, sentence by sentence."""
        for sentence in self.sentences:
            yield from sentence

    def token_set(self) -> FrozenSet[str]:
        return frozenset(self.tokens())

    def mentions_of(self, relation: str) -> List[Mention]:
        """Mentions that belong to one extraction task."""
        return [m for m in self.mentions if m.fact.relation == relation]

    def classify(self, relation: str) -> DocumentClass:
        """Good/bad/empty classification w.r.t. one extraction task.

        Per Section III-B, a document is *good* for extractor E if E can
        extract at least one good tuple from it under some configuration;
        mentions are extractable at the most permissive knob setting by
        construction, so the classification reduces to the planted labels.
        """
        mentions = self.mentions_of(relation)
        if any(m.fact.is_true for m in mentions):
            return DocumentClass.GOOD
        if mentions:
            return DocumentClass.BAD
        return DocumentClass.EMPTY

