"""Synthetic corpus generator.

Generates :class:`~repro.textdb.database.TextDatabase` instances from a
:class:`~repro.textdb.world.World`, controlling exactly the statistics the
paper's models depend on:

* the split of documents into good / bad / empty w.r.t. each hosted
  extraction task (Section III-B);
* power-law attribute-frequency distributions — how many documents mention
  each fact — via the world's Zipf salience weights;
* at most one occurrence of a join-attribute value per document (the
  paper's footnote-2 simplification, which its models assume);
* mention *clarity*: how strongly a mention's context matches the
  relation's pattern vocabulary.  Clarity is Beta-distributed, higher for
  true facts than for false ones, which is what makes an extraction
  threshold θ trade true-positive rate against false-positive rate;
* document-level trigger terms whose planting rates determine the
  Filtered-Scan classifier's Ctp/Cfp.

Weighted draws (background tokens, salience-weighted facts) go through
:class:`~repro.textdb.vocabulary.WeightedDraw`, and uniform pattern-token
picks through ``rng.integers``: each consumes the seeded stream exactly as
the ``Generator.choice`` call it stands for and returns the same index, so
a corpus is a function of its seed alone (``tests/test_corpus_digest.py``
pins the canonical and multiway corpora bit for bit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.types import Fact
from .database import TextDatabase
from .document import Document, Mention
from .vocabulary import (
    BackgroundSampler,
    WeightedDraw,
    pattern_tokens,
    trigger_tokens,
)
from .world import World


@dataclass(frozen=True)
class MentionStyle:
    """How mentions of one relation are rendered in a corpus.

    ``good_clarity``/``bad_clarity`` are Beta(α, β) parameters: each context
    token of a mention comes from the relation's pattern vocabulary with
    probability equal to the mention's sampled clarity, otherwise from the
    background vocabulary.  A Snowball-style extractor's similarity score
    for the mention is then the pattern fraction of its context, so the
    clarity distributions fully determine the tp(θ)/fp(θ) knob curves.
    """

    context_length: int = 10
    good_clarity: Tuple[float, float] = (6.0, 2.5)
    bad_clarity: Tuple[float, float] = (2.2, 2.8)


@dataclass(frozen=True)
class HostedRelation:
    """Document budget and mention intensities for one hosted relation."""

    relation: str
    n_good_docs: int
    n_bad_docs: int
    #: Poisson mean of *extra* good mentions in a good document (each good
    #: document has at least one good mention).
    extra_good_rate: float = 0.6
    #: Poisson mean of bad mentions planted in a good document.
    bad_in_good_rate: float = 0.35
    #: Poisson mean of *extra* bad mentions in a bad document.
    extra_bad_rate: float = 0.5
    #: Probability that a document of each class carries trigger terms.
    trigger_good: float = 0.85
    trigger_bad: float = 0.40
    trigger_empty: float = 0.08
    style: MentionStyle = field(default_factory=MentionStyle)


@dataclass(frozen=True)
class CorpusConfig:
    """Full recipe for one generated database."""

    name: str
    seed: int
    hosted: Tuple[HostedRelation, ...]
    n_empty_docs: int
    max_results: int = 100
    noise_sentence_rate: float = 2.0
    noise_sentence_length: int = 12

    def __post_init__(self) -> None:
        if not self.hosted:
            raise ValueError("a corpus must host at least one relation")
        names = [h.relation for h in self.hosted]
        if len(set(names)) != len(names):
            raise ValueError("hosted relations must be distinct")
        if self.n_empty_docs < 0:
            raise ValueError("n_empty_docs must be non-negative")


class CorpusGenerator:
    """Builds documents for a world according to a :class:`CorpusConfig`."""

    def __init__(self, world: World, config: CorpusConfig) -> None:
        for hosted in config.hosted:
            if hosted.relation not in world.schemas:
                raise KeyError(f"world has no relation {hosted.relation!r}")
        self.world = world
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._pyrng = random.Random(config.seed ^ 0x5EED)
        self._background = BackgroundSampler(self._rng)
        #: (relation, want_true) -> (eligible fact indexes, their draw)
        self._fact_draws: Dict[
            Tuple[str, bool], Tuple[List[int], Optional[WeightedDraw]]
        ] = {}
        self._patterns: Dict[str, List[str]] = {}

    def build(self) -> TextDatabase:
        """Generate all documents and wrap them in a database."""
        roles: List[Tuple[str, Optional[HostedRelation]]] = []
        for hosted in self.config.hosted:
            roles.extend(("good", hosted) for _ in range(hosted.n_good_docs))
            roles.extend(("bad", hosted) for _ in range(hosted.n_bad_docs))
        roles.extend(("empty", None) for _ in range(self.config.n_empty_docs))
        self._pyrng.shuffle(roles)
        documents = [
            self._build_document(doc_id, role, hosted)
            for doc_id, (role, hosted) in enumerate(roles)
        ]
        return TextDatabase(
            name=self.config.name,
            documents=documents,
            max_results=self.config.max_results,
            rank_seed=self.config.seed ^ 0xBADC0DE,
        )

    # -- document assembly ---------------------------------------------------

    def _build_document(
        self, doc_id: int, role: str, hosted: Optional[HostedRelation]
    ) -> Document:
        sentences: List[List[str]] = []
        mentions: List[Mention] = []
        used_join_values: Set[str] = set()

        if role == "good":
            assert hosted is not None
            n_good = 1 + self._rng.poisson(hosted.extra_good_rate)
            n_bad = self._rng.poisson(hosted.bad_in_good_rate)
            self._plant_mentions(
                hosted, True, n_good, sentences, mentions, used_join_values
            )
            self._plant_mentions(
                hosted, False, n_bad, sentences, mentions, used_join_values
            )
            trigger_prob = hosted.trigger_good
        elif role == "bad":
            assert hosted is not None
            n_bad = 1 + self._rng.poisson(hosted.extra_bad_rate)
            self._plant_mentions(
                hosted, False, n_bad, sentences, mentions, used_join_values
            )
            trigger_prob = hosted.trigger_bad
        else:
            hosted = self._pyrng.choice(self.config.hosted)
            trigger_prob = hosted.trigger_empty

        n_noise = 1 + self._rng.poisson(self.config.noise_sentence_rate)
        for _ in range(n_noise):
            sentences.append(
                self._background.sample(self.config.noise_sentence_length)
            )
        if self._rng.random() < trigger_prob:
            vocab = trigger_tokens(hosted.relation)
            count = 1 + int(self._rng.integers(2))
            sentences.append(list(self._rng.choice(vocab, size=count)))

        self._pyrng.shuffle(sentences)
        # Re-point mentions at their sentences after the shuffle.
        remapped: List[Mention] = []
        sentence_ids = {id(s): i for i, s in enumerate(sentences)}
        for mention in mentions:
            remapped.append(
                Mention(
                    fact=mention.fact,
                    sentence_index=sentence_ids[mention.sentence_index],
                    entity_positions=mention.entity_positions,
                )
            )
        return Document(doc_id=doc_id, sentences=sentences, mentions=remapped)

    def _plant_mentions(
        self,
        hosted: HostedRelation,
        want_true: bool,
        count: int,
        sentences: List[List[str]],
        mentions: List[Mention],
        used_join_values: Set[str],
    ) -> None:
        """Plant *count* mentions of (true|false) facts into the document.

        Facts are drawn by world salience weight, rejecting facts whose
        join value already occurs in the document (footnote-2 uniqueness).
        ``sentence_index`` temporarily holds ``id(sentence)`` until the
        document-level shuffle assigns final positions.
        """
        relation = hosted.relation
        facts = self.world.facts[relation]
        eligible, draw = self._fact_draw(relation, want_true)
        if draw is None:
            if count:
                raise RuntimeError(
                    f"no {'true' if want_true else 'false'} facts for {relation}"
                )
            return
        planted = 0
        attempts = 0
        while planted < count and attempts < 20 * max(count, 1):
            attempts += 1
            fact = facts[eligible[draw.draw_one(self._rng)]]
            join_value = fact.value_of(0)
            if join_value in used_join_values:
                continue
            used_join_values.add(join_value)
            sentence, positions = self._render_mention(fact, hosted.style)
            sentences.append(sentence)
            mentions.append(
                Mention(
                    fact=fact,
                    sentence_index=id(sentence),  # remapped after shuffle
                    entity_positions=positions,
                )
            )
            planted += 1

    def _fact_draw(
        self, relation: str, want_true: bool
    ) -> Tuple[List[int], Optional[WeightedDraw]]:
        """The (true|false) facts of *relation* and their salience draw,
        built once per generator (None when there are no such facts)."""
        key = (relation, want_true)
        cached = self._fact_draws.get(key)
        if cached is None:
            facts = self.world.facts[relation]
            eligible = [
                i for i, f in enumerate(facts) if f.is_true == want_true
            ]
            draw = None
            if eligible:
                probs = self.world.fact_weights[relation][eligible]
                draw = WeightedDraw(probs / probs.sum())
            cached = self._fact_draws[key] = (eligible, draw)
        return cached

    def _render_mention(
        self, fact: Fact, style: MentionStyle
    ) -> Tuple[List[str], Tuple[int, int]]:
        """Render one mention sentence: entity1, context tokens, entity2."""
        alpha, beta = style.good_clarity if fact.is_true else style.bad_clarity
        rng = self._rng
        clarity = float(rng.beta(alpha, beta))
        vocab = self._patterns.get(fact.relation)
        if vocab is None:
            vocab = self._patterns[fact.relation] = pattern_tokens(fact.relation)
        context: List[str] = []
        for _ in range(style.context_length):
            if rng.random() < clarity:
                context.append(vocab[int(rng.integers(0, len(vocab)))])
            else:
                context.extend(self._background.sample(1))
        sentence = [fact.value_of(0), *context, fact.value_of(1)]
        return sentence, (0, len(sentence) - 1)


def generate_corpus(world: World, config: CorpusConfig) -> TextDatabase:
    """Convenience wrapper: build a database in one call."""
    return CorpusGenerator(world, config).build()
