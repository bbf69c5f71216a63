"""Extraction-system blackbox interface (Section III-A).

The paper treats IE systems as blackboxes exposing tunable knobs θ; a knob
configuration trades true-positive rate tp(θ) against false-positive rate
fp(θ).  All extractors here implement :class:`Extractor`:

* ``extract(document)`` returns the tuples the system produces from one
  document at its current configuration;
* ``with_theta(θ)`` returns a reconfigured copy, so a single trained system
  can be instantiated at several knob settings (the paper runs Snowball at
  minSim 0.4 and 0.8);
* extraction must be *monotone* in θ: raising the threshold can only drop
  tuples.  The characterization harness and the analytical models rely on
  this (the set of tuples extractable "across all knob configurations" is
  the θ=0 output);
* a knob-characterized extractor must also keep the *threshold contract*
  of :meth:`Extractor.with_theta`, which makes it monotone.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

from ..core.types import ExtractedTuple, RelationSchema
from ..textdb.document import Document


class Extractor(abc.ABC):
    """A configured IE blackbox for one target relation."""

    def __init__(self, schema: RelationSchema, theta: float) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be within [0, 1]")
        self.schema = schema
        self.theta = theta

    @property
    def relation(self) -> str:
        return self.schema.name

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Stable identifier of the extraction system (knob excluded)."""

    @abc.abstractmethod
    def extract(self, document: Document) -> List[ExtractedTuple]:
        """Run the system over one document."""

    @abc.abstractmethod
    def with_theta(self, theta: float) -> "Extractor":
        """A copy of this system configured at a different knob setting.

        Threshold contract: a candidate's ``confidence`` does not depend on
        θ, and the copy at θ extracts from a document exactly the tuples
        the copy at θ=0 extracts whose ``confidence`` is ≥ θ.
        :func:`~repro.extraction.characterization.characterize`
        measures a whole tp(θ)/fp(θ) curve from one θ=0 pass on the strength
        of it.  :class:`SnowballExtractor` and :class:`WindowExtractor`
        keep it (``if score < self.theta: continue``); the
        :class:`OracleExtractor`, whose knob curves are known in closed
        form, decides by a per-θ rate instead, and ``characterize``
        refuses it.
        """

    def describe(self) -> str:
        return f"{self.name}⟨θ={self.theta:g}⟩ -> {self.relation}"


def label_candidate(
    document: Document, relation: str, values: Tuple[str, ...]
) -> bool:
    """Ground-truth label of a candidate extraction.

    True (good tuple) iff the document carries a planted mention of a *true*
    fact with exactly these values.  Candidates with no planted counterpart
    — spurious pairings the extractor hallucinated — are bad by definition.
    Used only to annotate tuples for evaluation; extractors never branch on
    the result.
    """
    for mention in document.mentions_of(relation):
        if mention.fact.values == values:
            return mention.fact.is_true
    return False
