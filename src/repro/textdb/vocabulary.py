"""Shared token vocabularies for corpus generation and extraction.

Pattern and trigger vocabularies are derived deterministically from the
relation name so that *every* corpus generated for a world renders mentions
of a relation with the same pattern terms.  This mirrors reality: an IE
system trained on one collection (the paper trains on NYT96) can be applied
to another (NYT95, WSJ) because the linguistic patterns of a relation are a
property of the relation, not of the collection.

* **pattern tokens** — context words that signal a relation mention
  ("headquartered", "acquired", ...); the Snowball-style extractor scores
  candidate contexts by their overlap with these.
* **trigger tokens** — document-level topical words ("merger", "executive")
  that a Filtered-Scan classifier keys on.
* **background tokens** — a global Zipf-distributed noise vocabulary.

Draws are identical to ``Generator.choice``: with ``replace=True`` and
``p`` given, ``rng.choice(n, size, p=p)`` is exactly
``cdf = p.cumsum(); cdf /= cdf[-1]; cdf.searchsorted(rng.random(size),
side="right")``.  :class:`WeightedDraw` computes that CDF once and draws
the same indices from the same stream, without re-validating and
re-summing the weights on every call.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .world import zipf_weights

PATTERN_VOCAB_SIZE = 40
TRIGGER_VOCAB_SIZE = 8
BACKGROUND_VOCAB_SIZE = 2000
BACKGROUND_ZIPF_EXPONENT = 0.8


def pattern_tokens(relation: str) -> List[str]:
    """The relation's pattern vocabulary (deterministic)."""
    base = relation.lower()
    return [f"pat_{base}_{j:02d}" for j in range(PATTERN_VOCAB_SIZE)]


def trigger_tokens(relation: str) -> List[str]:
    """The relation's document-topic trigger vocabulary (deterministic)."""
    base = relation.lower()
    return [f"trig_{base}_{j:02d}" for j in range(TRIGGER_VOCAB_SIZE)]


def background_tokens() -> List[str]:
    """The global background vocabulary."""
    return [f"bg{j:05d}" for j in range(BACKGROUND_VOCAB_SIZE)]


class WeightedDraw:
    """``rng.choice(len(weights), p=weights)`` with the CDF computed once."""

    def __init__(self, weights: np.ndarray) -> None:
        cdf = np.asarray(weights, dtype=float).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def draw(self, rng: np.random.Generator, count: int) -> List[int]:
        """*count* indices, as ``rng.choice(..., size=count, p=weights)``."""
        return self._cdf.searchsorted(rng.random(count), side="right").tolist()

    def draw_one(self, rng: np.random.Generator) -> int:
        """One index, as ``int(rng.choice(..., p=weights))``."""
        return int(self._cdf.searchsorted(rng.random(), side="right"))


class BackgroundSampler:
    """Zipf-weighted sampler over the background vocabulary.

    Returns the vocabulary's own ``str`` objects, so sentences share their
    background tokens instead of holding a copy per occurrence.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._tokens = background_tokens()
        self._draw = WeightedDraw(
            zipf_weights(BACKGROUND_VOCAB_SIZE, BACKGROUND_ZIPF_EXPONENT)
        )

    def sample(self, count: int) -> List[str]:
        tokens = self._tokens
        return [tokens[i] for i in self._draw.draw(self._rng, count)]
