"""Window co-occurrence extractor — a second IE family for real text.

Where the Snowball substitute needs learned pattern terms, this extractor
works out of the box on arbitrary tokenized text: a candidate tuple is an
entity pair co-occurring in a sentence, scored by *proximity* (entities
mentioned close together are more likely related) blended with optional
pattern-term evidence:

    confidence = w·proximity + (1-w)·pattern_overlap        (w = 1 if no patterns)
    proximity  = 1 / (1 + gap/scale)   where gap = tokens between the pair

The θ knob thresholds the confidence in the candidate loop of
:class:`~repro.extraction.base.PairExtractor`, so all the Section III-A
machinery (characterization, quality models, the optimizer) applies
unchanged.  Labels come from planted mentions when present or from a user
gold set via ``label_oracle`` — the real-text workflow of
``examples/real_text_demo.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from ..core.types import RelationSchema
from .base import PairExtractor


class WindowExtractor(PairExtractor):
    """Proximity(+pattern) scored co-occurrence extractor."""

    def __init__(
        self,
        schema: RelationSchema,
        entity_dictionaries: Dict[str, FrozenSet[str]],
        pattern_terms: Sequence[str] = (),
        theta: float = 0.3,
        proximity_scale: float = 5.0,
        pattern_weight: float = 0.5,
        system_name: str = "window",
        label_oracle: Optional[Callable[[Tuple[str, ...]], bool]] = None,
    ) -> None:
        super().__init__(
            schema, entity_dictionaries, pattern_terms, theta, system_name,
            label_oracle,
        )
        if proximity_scale <= 0:
            raise ValueError("proximity_scale must be positive")
        if not 0.0 <= pattern_weight <= 1.0:
            raise ValueError("pattern_weight must be within [0, 1]")
        self.proximity_scale = proximity_scale
        self.pattern_weight = pattern_weight if pattern_terms else 0.0

    def score(self, sentence: Sequence[str], first: int, second: int) -> float:
        """Blend proximity with optional pattern-term evidence over the
        tokens between the pair."""
        lo, hi = sorted((first, second))
        proximity = 1.0 / (1.0 + (hi - lo - 1) / self.proximity_scale)
        context = sentence[lo + 1:hi]
        if not self._patterns or not context:
            return proximity
        overlap = sum(1 for t in context if t in self._patterns) / len(context)
        return (
            (1.0 - self.pattern_weight) * proximity
            + self.pattern_weight * overlap
        )
