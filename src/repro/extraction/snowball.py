"""Snowball-style pattern-similarity extractor.

Stands in for the paper's Snowball system [1]: candidate tuples are entity
pairs co-occurring in a sentence, scored by the similarity between the
sentence's context terms and the system's extraction patterns; the ``minSim``
threshold θ decides which candidates are emitted.

The entity-recognition step of a real IE pipeline (POS + NE tagging) is
simulated with per-attribute entity dictionaries supplied by the world —
exact dictionaries over the synthetic entity tokens, playing the role of a
perfect tagger so that all extraction noise comes from context scoring,
where the knob operates.

Similarity is the fraction of a candidate's context tokens that belong to
the system's pattern term set — a normalized overlap, the same family of
measure Snowball uses between a tuple's context vector and its patterns.
The candidate loop and the threshold live in
:class:`~repro.extraction.base.PairExtractor`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from ..core.types import RelationSchema
from .base import PairExtractor


class SnowballExtractor(PairExtractor):
    """Pattern-overlap extractor with a ``min_sim`` knob."""

    def __init__(
        self,
        schema: RelationSchema,
        entity_dictionaries: Dict[str, FrozenSet[str]],
        pattern_terms: Sequence[str],
        theta: float = 0.4,
        system_name: str = "snowball",
        label_oracle: Optional[Callable[[Tuple[str, ...]], bool]] = None,
    ) -> None:
        super().__init__(
            schema, entity_dictionaries, pattern_terms, theta, system_name,
            label_oracle,
        )
        if not pattern_terms:
            raise ValueError("pattern_terms must be non-empty")

    def score(self, sentence: Sequence[str], first: int, second: int) -> float:
        """Pattern overlap of the sentence's non-entity tokens (1.0 when
        there are none)."""
        first_entities, second_entities = self._entities
        context = [
            t
            for t in sentence
            if t not in first_entities and t not in second_entities
        ]
        if not context:
            return 1.0
        hits = sum(1 for token in context if token in self._patterns)
        return hits / len(context)
