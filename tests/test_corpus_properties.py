"""Property-based tests: corpus-generator invariants over random configs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DocumentClass, RelationSchema
from repro.textdb import (
    CorpusConfig,
    HostedRelation,
    MentionStyle,
    RelationSpec,
    World,
    WorldConfig,
    generate_corpus,
    profile_database,
)


@st.composite
def world_and_corpus_config(draw):
    seed = draw(st.integers(0, 2**16))
    n_companies = draw(st.integers(20, 80))
    n_true = draw(st.integers(10, 40))
    n_false = draw(st.integers(5, 30))
    spec = RelationSpec(
        schema=RelationSchema("R", ("Company", "Other")),
        secondary_prefix="oth",
        n_true_facts=n_true,
        n_false_facts=n_false,
        n_secondary=draw(st.integers(40, 120)),
    )
    world_config = WorldConfig(
        seed=seed,
        n_companies=n_companies,
        company_zipf_exponent=draw(st.floats(0.0, 1.5)),
        fact_zipf_exponent=draw(st.floats(0.0, 1.5)),
        relations=(spec,),
    )
    corpus_config = CorpusConfig(
        name="prop",
        seed=draw(st.integers(0, 2**16)),
        hosted=(
            HostedRelation(
                "R",
                n_good_docs=draw(st.integers(5, 60)),
                n_bad_docs=draw(st.integers(0, 40)),
                extra_good_rate=draw(st.floats(0.0, 1.5)),
                bad_in_good_rate=draw(st.floats(0.0, 1.0)),
                extra_bad_rate=draw(st.floats(0.0, 1.5)),
                style=MentionStyle(
                    context_length=draw(st.integers(4, 14)),
                ),
            ),
        ),
        n_empty_docs=draw(st.integers(0, 40)),
        max_results=draw(st.integers(5, 60)),
    )
    return world_config, corpus_config


class TestCorpusInvariants:
    @given(world_and_corpus_config())
    @settings(max_examples=25, deadline=None)
    def test_generated_corpus_satisfies_contract(self, configs):
        world_config, corpus_config = configs
        world = World(world_config)
        database = generate_corpus(world, corpus_config)
        hosted = corpus_config.hosted[0]
        expected_docs = (
            hosted.n_good_docs + hosted.n_bad_docs + corpus_config.n_empty_docs
        )
        assert len(database) == expected_docs

        profile = profile_database(database, "R")
        # Document-class budget respected exactly.
        assert profile.n_good_docs == hosted.n_good_docs
        assert profile.n_bad_docs == hosted.n_bad_docs
        assert profile.n_empty_docs == corpus_config.n_empty_docs

        for document in database.documents:
            # Footnote-2 uniqueness: one occurrence of a join value per doc.
            values = [
                m.fact.value_of(0) for m in document.mentions_of("R")
            ]
            assert len(values) == len(set(values))
            # Class definition honoured.
            klass = document.classify("R")
            mentions = document.mentions_of("R")
            if klass is DocumentClass.GOOD:
                assert any(m.fact.is_true for m in mentions)
            elif klass is DocumentClass.BAD:
                assert mentions
                assert not any(m.fact.is_true for m in mentions)
            else:
                assert not mentions
            # Entities sit at the recorded positions.
            for mention in mentions:
                sentence = document.sentences[mention.sentence_index]
                p0, p1 = mention.entity_positions
                assert sentence[p0] == mention.fact.value_of(0)
                assert sentence[p1] == mention.fact.value_of(1)

    @given(world_and_corpus_config())
    @settings(max_examples=15, deadline=None)
    def test_profile_bad_split_consistent(self, configs):
        world_config, corpus_config = configs
        world = World(world_config)
        database = generate_corpus(world, corpus_config)
        profile = profile_database(database, "R")
        for value, count in profile.bad_frequency.items():
            in_good = profile.bad_in_good_frequency.get(value, 0)
            assert 0 <= in_good <= count
        # Histograms preserve totals.
        for histogram, occurrences in (
            (profile.good_histogram(), profile.n_good_occurrences),
            (profile.bad_histogram(), profile.n_bad_occurrences),
        ):
            assert (
                sum(k * n for k, n in histogram.counts.items()) == occurrences
            )

    @given(world_and_corpus_config())
    @settings(max_examples=10, deadline=None)
    def test_search_interface_contract(self, configs):
        world_config, corpus_config = configs
        world = World(world_config)
        database = generate_corpus(world, corpus_config)
        profile = profile_database(database, "R")
        for value in list(profile.good_frequency)[:5]:
            results = database.search([value])
            assert len(results) <= database.max_results
            assert len(results) <= database.match_count([value])
            # Every returned document really contains the token.
            for doc_id in results:
                assert value in database.get(doc_id).token_set()
