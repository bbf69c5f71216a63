"""Pin the generated corpora bit for bit, and the samplers draw for draw.

Every served number is a function of the synthetic corpora, so the corpus
generator may change how it draws only if it consumes the seeded stream in
the same order and returns the same tokens.  Two guards:

* blake2b digests of every document (``doc_id``, sentences, and each
  mention's fact, sentence index and entity positions) of the canonical
  testbed at two scales and of the multiway testbed, fixed as constants;
* twin-generator tests: the background sampler and the mention planter,
  fed one seeded generator, agree draw for draw with references written
  against ``Generator.choice(..., p=...)`` fed a twin of that generator.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Set

import numpy as np
import pytest

from repro.experiments import TestbedConfig, build_testbed
from repro.experiments.testbed import build_multiway_testbed
from repro.textdb.corpus import CorpusConfig, CorpusGenerator, HostedRelation
from repro.textdb.database import TextDatabase
from repro.textdb.document import Mention
from repro.textdb.vocabulary import (
    BACKGROUND_VOCAB_SIZE,
    BACKGROUND_ZIPF_EXPONENT,
    BackgroundSampler,
    background_tokens,
    pattern_tokens,
)
from repro.textdb.world import zipf_weights


def corpus_digest(database: TextDatabase) -> str:
    """blake2b over every document's ids, tokens and planted mentions."""
    digest = hashlib.blake2b(digest_size=16)
    for doc in database.documents:
        digest.update(f"\x1d{doc.doc_id}".encode())
        for sentence in doc.sentences:
            digest.update(("\x1e" + "\x1f".join(sentence)).encode())
        for mention in doc.mentions:
            fact = mention.fact
            record = (
                fact.relation,
                tuple(str(v) for v in fact.values),
                bool(fact.is_true),
                int(mention.sentence_index),
                tuple(int(p) for p in mention.entity_positions),
            )
            digest.update(("\x1c" + repr(record)).encode())
    return digest.hexdigest()


def digests_of(training: TextDatabase, databases) -> Dict[str, str]:
    digests = {training.name: corpus_digest(training)}
    digests.update((name, corpus_digest(db)) for name, db in databases.items())
    return digests


#: digests of the canonical testbed (seed 11) at scale 0.6 and 0.3
CANONICAL_DIGESTS = {
    0.6: {
        "train": "f3d22a02ef74f03f5386dc305e9b95e0",
        "nyt96": "335e23ce9629add489bcb04e5552f606",
        "nyt95": "bfe76f101af23ab2ad9bf5ecbafbfa65",
        "wsj": "46d4324f90207f8e317bdeeecefdc4a2",
    },
    0.3: {
        "train": "8df8af33946afe9228370f0ef58dfcb8",
        "nyt96": "010e1abc129e4eaf3c4e6a0b18aded7a",
        "nyt95": "78e30ea6f7f8efc1205b908df6c37f0c",
        "wsj": "3c7bdd58c1fb2e3ec7e2c1e33e7acf1f",
    },
}

#: digests of the multiway testbed (seed 23, scale 1.0) behind star3
MULTIWAY_DIGESTS = {
    "mtrain": "232e24cfef9b9327106ce014f364a11e",
    "nyt96": "e168e1e438695dbb056b1d30d5e3f994",
    "nyt95": "c899cd2f035d91519adce4770d59dc01",
    "wsj": "70654b55f9edd5a15d07928a3c8a3b96",
}


class TestCorpusDigests:
    @pytest.mark.parametrize("scale", sorted(CANONICAL_DIGESTS))
    def test_canonical_testbed(self, scale):
        testbed = build_testbed(TestbedConfig(scale=scale))
        assert testbed.config.seed == 11
        assert (
            digests_of(testbed.training, testbed.databases)
            == CANONICAL_DIGESTS[scale]
        )

    def test_multiway_testbed(self):
        testbed = build_multiway_testbed()
        assert testbed.scenario("star3").bindings  # the scenario it serves
        assert (
            digests_of(testbed.training, testbed.databases)
            == MULTIWAY_DIGESTS
        )


# ---------------------------------------------------------------------------
# twin-generator references
# ---------------------------------------------------------------------------


class ChoiceBackground:
    """The background draw written against ``Generator.choice``."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.tokens = background_tokens()
        self.weights = zipf_weights(
            BACKGROUND_VOCAB_SIZE, BACKGROUND_ZIPF_EXPONENT
        )

    def sample(self, count: int) -> List[str]:
        idx = self.rng.choice(len(self.tokens), size=count, p=self.weights)
        return [self.tokens[i] for i in idx]


def choice_plant_mentions(
    generator: CorpusGenerator,
    rng: np.random.Generator,
    background: ChoiceBackground,
    hosted: HostedRelation,
    want_true: bool,
    count: int,
    sentences: List[List[str]],
    mentions: List[Mention],
    used_join_values: Set[str],
) -> None:
    """``CorpusGenerator._plant_mentions`` written against ``choice``."""
    facts = generator.world.facts[hosted.relation]
    weights = generator.world.fact_weights[hosted.relation]
    eligible = [i for i, f in enumerate(facts) if f.is_true == want_true]
    probs = weights[eligible]
    probs = probs / probs.sum()
    planted = attempts = 0
    while planted < count and attempts < 20 * max(count, 1):
        attempts += 1
        fact = facts[eligible[int(rng.choice(len(eligible), p=probs))]]
        if fact.value_of(0) in used_join_values:
            continue
        used_join_values.add(fact.value_of(0))
        style = hosted.style
        alpha, beta = style.good_clarity if fact.is_true else style.bad_clarity
        clarity = float(rng.beta(alpha, beta))
        vocab = pattern_tokens(fact.relation)
        context: List[str] = []
        for _ in range(style.context_length):
            if rng.random() < clarity:
                context.append(str(rng.choice(vocab)))
            else:
                context.extend(background.sample(1))
        sentence = [fact.value_of(0), *context, fact.value_of(1)]
        sentences.append(sentence)
        mentions.append(Mention(fact, id(sentence), (0, len(sentence) - 1)))
        planted += 1


class TestDrawIdentity:
    def test_background_sampler_matches_choice(self):
        ours = np.random.default_rng(2024)
        twin = np.random.default_rng(2024)
        sampler = BackgroundSampler(ours)
        reference = ChoiceBackground(twin)
        pick = random.Random(7)
        for _ in range(400):
            count = pick.choice((0, 1, 1, 1, 2, 5, 12, 40))
            assert sampler.sample(count) == reference.sample(count)
            # Interleave other consumers of the same stream.
            if pick.random() < 0.3:
                assert ours.random() == twin.random()
            if pick.random() < 0.2:
                assert ours.integers(9) == twin.integers(9)
        assert ours.random() == twin.random()

    def test_mention_draws_match_choice(self, mini_world):
        config = CorpusConfig(
            name="twin",
            seed=5,
            hosted=(
                HostedRelation("HQ", n_good_docs=1, n_bad_docs=1),
                HostedRelation("EX", n_good_docs=1, n_bad_docs=1),
            ),
            n_empty_docs=0,
        )
        generator = CorpusGenerator(mini_world, config)
        twin_rng = np.random.default_rng(config.seed)
        twin_background = ChoiceBackground(twin_rng)
        pick = random.Random(3)
        for call in range(300):
            hosted = pick.choice(config.hosted)
            want_true = pick.random() < 0.6
            count = pick.choice((0, 1, 1, 2, 3))
            if call % 25 == 0:
                used: Set[str] = set()
                twin_used: Set[str] = set()
            ours_sentences: List[List[str]] = []
            ours_mentions: List[Mention] = []
            generator._plant_mentions(
                hosted, want_true, count, ours_sentences, ours_mentions, used
            )
            twin_sentences: List[List[str]] = []
            twin_mentions: List[Mention] = []
            choice_plant_mentions(
                generator, twin_rng, twin_background, hosted, want_true,
                count, twin_sentences, twin_mentions, twin_used,
            )
            assert ours_sentences == twin_sentences
            assert [m.fact for m in ours_mentions] == [
                m.fact for m in twin_mentions
            ]
            assert [m.entity_positions for m in ours_mentions] == [
                m.entity_positions for m in twin_mentions
            ]
            assert used == twin_used
            # Interleave the document-level draws between plantings.
            assert generator._rng.poisson(0.5) == twin_rng.poisson(0.5)
            assert generator._background.sample(3) == twin_background.sample(3)
        assert generator._rng.random() == twin_rng.random()
