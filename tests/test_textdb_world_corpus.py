"""Tests for the generative world, corpus generator, and ground-truth stats."""

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DocumentClass, RelationSchema
from repro.textdb import (
    CorpusConfig,
    HostedRelation,
    RelationSpec,
    World,
    WorldConfig,
    generate_corpus,
    pattern_tokens,
    profile_database,
    trigger_tokens,
    zipf_weights,
)


class TestZipfWeights:
    def test_normalized(self):
        assert zipf_weights(10, 1.0).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        weights = zipf_weights(20, 1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(19))

    def test_exponent_zero_uniform(self):
        weights = zipf_weights(5, 0.0)
        assert np.allclose(weights, 0.2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    @given(st.integers(1, 200), st.floats(0.0, 3.0))
    def test_always_a_distribution(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert weights.sum() == pytest.approx(1.0)
        assert (weights >= 0).all()


class TestWorld:
    def test_reproducible(self, mini_world):
        config = mini_world.config
        again = World(config)
        assert again.facts["HQ"] == mini_world.facts["HQ"]

    def test_fact_counts(self, mini_world):
        assert len(mini_world.true_facts("HQ")) == 80
        assert len(mini_world.false_facts("HQ")) == 60

    def test_facts_distinct(self, mini_world):
        pairs = [f.values for f in mini_world.facts["HQ"]]
        assert len(set(pairs)) == len(pairs)

    def test_shared_company_pool(self, mini_world):
        companies = set(mini_world.companies)
        for relation in ("HQ", "EX"):
            for fact in mini_world.facts[relation]:
                assert fact.value_of(0) in companies

    def test_join_overlap_exists(self, mini_world):
        hq_companies = {f.value_of(0) for f in mini_world.true_facts("HQ")}
        ex_companies = {f.value_of(0) for f in mini_world.true_facts("EX")}
        assert hq_companies & ex_companies

    def test_entity_dictionary(self, mini_world):
        dictionary = mini_world.entity_dictionary("HQ")
        assert "Company" in dictionary and "Location" in dictionary
        assert set(mini_world.companies) == set(dictionary["Company"])

    def test_needs_relations(self):
        with pytest.raises(ValueError):
            WorldConfig(seed=1, n_companies=10, relations=())


class TestCorpusGenerator:
    def test_document_class_budget(self, mini_db1):
        profile = profile_database(mini_db1, "HQ")
        assert profile.n_good_docs == 180
        assert profile.n_bad_docs == 70
        assert profile.n_empty_docs == 200

    def test_reproducible(self, mini_world):
        config = CorpusConfig(
            name="r",
            seed=99,
            hosted=(HostedRelation("HQ", 30, 10),),
            n_empty_docs=20,
        )
        db1 = generate_corpus(mini_world, config)
        db2 = generate_corpus(mini_world, config)
        for a, b in zip(db1.documents, db2.documents):
            assert a.sentences == b.sentences

    def test_join_value_unique_per_document(self, mini_db1):
        """Footnote 2: each attribute value occurs at most once per doc."""
        for document in mini_db1.documents:
            values = [
                m.fact.value_of(0) for m in document.mentions_of("HQ")
            ]
            assert len(values) == len(set(values))

    def test_good_docs_have_good_mention(self, mini_db1):
        for document in mini_db1.documents:
            klass = document.classify("HQ")
            mentions = document.mentions_of("HQ")
            if klass is DocumentClass.GOOD:
                assert any(m.fact.is_true for m in mentions)
            elif klass is DocumentClass.BAD:
                assert mentions and not any(m.fact.is_true for m in mentions)
            else:
                assert not mentions

    def test_mention_entities_at_recorded_positions(self, mini_db1):
        for document in mini_db1.documents:
            for mention in document.mentions:
                sentence = document.sentences[mention.sentence_index]
                p0, p1 = mention.entity_positions
                assert sentence[p0] == mention.fact.value_of(0)
                assert sentence[p1] == mention.fact.value_of(1)

    def test_mention_context_contains_pattern_tokens(self, mini_db1):
        patterns = set(pattern_tokens("HQ"))
        hits = total = 0
        for document in mini_db1.documents:
            for mention in document.mentions_of("HQ"):
                sentence = document.sentences[mention.sentence_index]
                total += 1
                if any(t in patterns for t in sentence):
                    hits += 1
        assert total > 0
        assert hits / total > 0.8

    def test_trigger_rates_by_class(self, mini_db1):
        triggers = set(trigger_tokens("HQ"))
        rates = {}
        for klass in DocumentClass:
            docs = [
                d for d in mini_db1.documents if d.classify("HQ") is klass
            ]
            with_trigger = sum(
                1 for d in docs if triggers & d.token_set()
            )
            rates[klass] = with_trigger / len(docs)
        assert rates[DocumentClass.GOOD] > rates[DocumentClass.BAD]
        assert rates[DocumentClass.BAD] > rates[DocumentClass.EMPTY]

    def test_hosted_relations_must_exist(self, mini_world):
        with pytest.raises(KeyError):
            generate_corpus(
                mini_world,
                CorpusConfig(
                    name="x",
                    seed=1,
                    hosted=(HostedRelation("NOPE", 1, 1),),
                    n_empty_docs=0,
                ),
            )


class TestDatabaseProfile:
    def test_frequency_totals(self, mini_db1, mini_profile1):
        # Each good occurrence is a (value, doc) pair; recount directly.
        expected = sum(
            len({m.fact.value_of(0) for m in d.mentions_of("HQ") if m.fact.is_true})
            for d in mini_db1.documents
        )
        assert mini_profile1.n_good_occurrences == expected

    def test_bad_split_adds_up(self, mini_profile1):
        for value, count in mini_profile1.bad_frequency.items():
            in_good = mini_profile1.bad_in_good_frequency.get(value, 0)
            assert 0 <= in_good <= count

    def test_histograms_preserve_counts(self, mini_profile1):
        hist = mini_profile1.good_histogram()
        assert hist.n_values == len(mini_profile1.good_frequency)
        assert (
            sum(k * n for k, n in hist.counts.items())
            == mini_profile1.n_good_occurrences
        )

    def test_histogram_as_arrays(self, mini_profile1):
        hist = mini_profile1.good_histogram()
        ks = hist.support()
        assert sum(hist.probability(k) for k in ks) == pytest.approx(1.0)
        assert all(k >= 1 for k in ks)

    def test_good_fraction(self, mini_profile1):
        profile = mini_profile1
        assert profile.n_good_docs / profile.n_documents == pytest.approx(
            180 / 450
        )

    def test_power_law_shape(self, mini_profile1):
        """Attribute frequencies should be heavy-tailed: many rare values,
        few frequent ones (the paper verified power laws on its corpora)."""
        hist = mini_profile1.good_histogram()
        rare = sum(c for k, c in hist.counts.items() if k <= 3)
        assert rare >= hist.n_values * 0.3
        assert max(hist.counts) > 10
