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
* a knob-characterized or memoized extractor must also keep the
  *threshold contract* of :meth:`Extractor.with_theta`, which makes it
  monotone; :class:`PairExtractor` keeps it, in one candidate loop, for
  both rule extractors (Snowball and Window).
"""

from __future__ import annotations

import abc
import copy
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

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
        of it, and :class:`~repro.extraction.memo.ExtractionMemo` stores
        one θ=0 pass per document.  :class:`PairExtractor` keeps it for
        both rule extractors; the :class:`OracleExtractor`, whose knob
        curves are known in closed form, decides by a per-θ rate instead,
        and both refuse it
        (:func:`~repro.extraction.oracle.require_threshold_contract`).
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


class PairExtractor(Extractor):
    """A rule extractor that thresholds a θ-independent pair score.

    A candidate is an entity pair co-occurring in a sentence: one token
    from each attribute's entity dictionary, at different positions.
    The copy at θ emits a candidate iff its :meth:`score` is ≥ θ and
    records the score as the tuple's ``confidence`` -- the threshold
    contract of :meth:`Extractor.with_theta`.  Subclasses supply only
    :meth:`score`.  Labels come from planted mentions
    (:func:`label_candidate`) or, for real text, from an optional
    gold-set ``label_oracle``; they never decide what is extracted.
    """

    def __init__(
        self,
        schema: RelationSchema,
        entity_dictionaries: Dict[str, FrozenSet[str]],
        pattern_terms: Sequence[str],
        theta: float,
        system_name: str,
        label_oracle: Optional[Callable[[Tuple[str, ...]], bool]],
    ) -> None:
        super().__init__(schema, theta)
        if schema.arity != 2:
            raise ValueError(f"{type(self).__name__} handles binary relations")
        missing = [a for a in schema.attributes if a not in entity_dictionaries]
        if missing:
            raise KeyError(f"no entity dictionary for attributes {missing}")
        #: (first attribute's entities, second attribute's entities)
        self._entities = tuple(
            frozenset(entity_dictionaries[attr]) for attr in schema.attributes
        )
        self._patterns = frozenset(pattern_terms)
        self._system_name = system_name
        self._label_oracle = label_oracle

    @property
    def name(self) -> str:
        return self._system_name

    @property
    def pattern_terms(self) -> FrozenSet[str]:
        return self._patterns

    def with_theta(self, theta: float) -> "PairExtractor":
        configured = copy.copy(self)
        Extractor.__init__(configured, self.schema, theta)
        return configured

    @abc.abstractmethod
    def score(self, sentence: Sequence[str], first: int, second: int) -> float:
        """θ-independent confidence of the entity pair at positions
        *first* and *second* of *sentence*, within [0, 1]."""

    def extract(self, document: Document) -> List[ExtractedTuple]:
        first_entities, second_entities = self._entities
        theta = self.theta
        tuples: List[ExtractedTuple] = []
        for sentence in document.sentences:
            firsts = [
                (i, t) for i, t in enumerate(sentence) if t in first_entities
            ]
            seconds = [
                (i, t) for i, t in enumerate(sentence) if t in second_entities
            ]
            if not firsts or not seconds:
                continue
            for i1, e1 in firsts:
                for i2, e2 in seconds:
                    if i1 == i2:
                        continue
                    score = self.score(sentence, i1, i2)
                    if score < theta:
                        continue
                    values = (e1, e2)
                    if self._label_oracle is not None:
                        is_good = self._label_oracle(values)
                    else:
                        is_good = label_candidate(
                            document, self.relation, values
                        )
                    tuples.append(
                        ExtractedTuple(
                            relation=self.relation,
                            values=values,
                            document_id=document.doc_id,
                            confidence=score,
                            is_good=is_good,
                        )
                    )
        return tuples
