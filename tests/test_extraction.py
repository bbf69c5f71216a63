"""Tests for the IE substrate: Snowball, oracle, training, characterization,
and the serving memo of per-document output."""

import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelationSchema
from repro.extraction import (
    LinearKnob,
    OracleExtractor,
    SnowballExtractor,
    characterize,
    label_candidate,
    learn_pattern_terms,
)
from repro.extraction.window import WindowExtractor
from repro.textdb import Document, Mention, TextDatabase, pattern_tokens
from repro.core.types import Fact
from repro.experiments import (
    TestbedConfig,
    build_multiway_testbed,
    build_testbed,
)
from repro.extraction.memo import (
    ExtractionMemo,
    MemoizedClassifier,
    MemoizedExtractor,
)
from repro.robustness.faults import FaultInjectingDatabase, FaultProfile
from repro.service import JoinRequest, JoinService
from repro.validation.differential import (
    CHARACTERIZATION_FIELDS,
    reference_characterize,
)

HQ = RelationSchema("HQ", ("Company", "Location"))
DICTS = {
    "Company": frozenset({"acme", "globex"}),
    "Location": frozenset({"boston", "tokyo"}),
}
PATTERNS = ["headquartered", "based", "offices"]


def mention_doc(doc_id, company, location, context, is_true=True):
    sentence = [company, *context, location]
    fact = Fact("HQ", (company, location), is_true=is_true)
    return Document(
        doc_id=doc_id,
        sentences=[sentence],
        mentions=[
            Mention(
                fact=fact,
                sentence_index=0,
                entity_positions=(0, len(sentence) - 1),
            )
        ],
    )


class TestSnowballExtractor:
    def make(self, theta=0.4):
        return SnowballExtractor(HQ, DICTS, PATTERNS, theta=theta)

    def test_extracts_high_similarity_candidate(self):
        doc = mention_doc(1, "acme", "boston", ["headquartered", "based"])
        tuples = self.make(0.5).extract(doc)
        assert len(tuples) == 1
        assert tuples[0].values == ("acme", "boston")
        assert tuples[0].is_good

    def test_threshold_filters_low_similarity(self):
        doc = mention_doc(1, "acme", "boston", ["lorem", "ipsum", "headquartered"])
        assert self.make(0.9).extract(doc) == []
        assert len(self.make(0.2).extract(doc)) == 1

    def test_confidence_is_pattern_fraction(self):
        doc = mention_doc(1, "acme", "boston", ["headquartered", "lorem"])
        [tup] = self.make(0.1).extract(doc)
        assert tup.confidence == pytest.approx(0.5)

    def test_monotone_in_theta(self):
        doc = mention_doc(1, "acme", "boston", ["headquartered", "lorem", "based"])
        lo = {t.values for t in self.make(0.1).extract(doc)}
        hi = {t.values for t in self.make(0.9).extract(doc)}
        assert hi <= lo

    def test_false_fact_labelled_bad(self):
        doc = mention_doc(1, "acme", "tokyo", ["headquartered"], is_true=False)
        [tup] = self.make(0.3).extract(doc)
        assert not tup.is_good

    def test_unplanted_pairing_labelled_bad(self):
        # A sentence with two entity pairs: the planted one and a spurious one.
        doc = mention_doc(1, "acme", "boston", ["headquartered"])
        doc.sentences[0].append("tokyo")  # spurious second location
        tuples = self.make(0.3).extract(doc)
        by_values = {t.values: t for t in tuples}
        assert by_values[("acme", "boston")].is_good
        assert not by_values[("acme", "tokyo")].is_good

    def test_no_entities_no_tuples(self):
        doc = Document(doc_id=1, sentences=[["just", "noise"]])
        assert self.make(0.0).extract(doc) == []

    def test_single_entity_no_tuples(self):
        doc = Document(doc_id=1, sentences=[["acme", "alone"]])
        assert self.make(0.0).extract(doc) == []

    def test_with_theta_returns_reconfigured_copy(self):
        base = self.make(0.4)
        other = base.with_theta(0.8)
        assert other.theta == 0.8
        assert base.theta == 0.4
        assert other.pattern_terms == base.pattern_terms

    def test_requires_binary_schema(self):
        with pytest.raises(ValueError):
            SnowballExtractor(
                RelationSchema("U", ("A",)), {"A": frozenset({"x"})}, PATTERNS
            )

    def test_requires_dictionaries(self):
        with pytest.raises(KeyError):
            SnowballExtractor(HQ, {"Company": frozenset({"acme"})}, PATTERNS)

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            self.make(theta=1.5)


class TestLabelCandidate:
    def test_true_fact(self):
        doc = mention_doc(1, "acme", "boston", ["x"], is_true=True)
        assert label_candidate(doc, "HQ", ("acme", "boston"))

    def test_false_fact(self):
        doc = mention_doc(1, "acme", "boston", ["x"], is_true=False)
        assert not label_candidate(doc, "HQ", ("acme", "boston"))

    def test_unplanted(self):
        doc = mention_doc(1, "acme", "boston", ["x"])
        assert not label_candidate(doc, "HQ", ("globex", "tokyo"))


class TestOracleExtractor:
    def make(self, theta=0.4, tp=LinearKnob(1.0, 0.4), fp=LinearKnob(1.0, 0.1)):
        return OracleExtractor(HQ, theta=theta, tp_curve=tp, fp_curve=fp)

    def test_deterministic(self):
        doc = mention_doc(1, "acme", "boston", ["x"])
        oracle = self.make()
        assert [t.values for t in oracle.extract(doc)] == [
            t.values for t in self.make().extract(doc)
        ]

    def test_monotone_in_theta(self):
        docs = [
            mention_doc(i, "acme", "boston", ["x"], is_true=(i % 2 == 0))
            for i in range(60)
        ]
        lo = {
            (t.document_id, t.values)
            for d in docs
            for t in self.make(0.1).extract(d)
        }
        hi = {
            (t.document_id, t.values)
            for d in docs
            for t in self.make(0.9).extract(d)
        }
        assert hi <= lo

    def test_everything_extracted_at_theta_zero(self):
        docs = [mention_doc(i, "acme", "boston", ["x"]) for i in range(20)]
        oracle = self.make(0.0)
        assert sum(len(oracle.extract(d)) for d in docs) == 20

    def test_rates_approach_curves(self):
        curve = LinearKnob(1.0, 0.2)
        oracle = OracleExtractor(
            HQ, theta=1.0, tp_curve=curve, fp_curve=LinearKnob(1.0, 0.0)
        )
        docs = [mention_doc(i, "acme", "boston", ["x"]) for i in range(600)]
        extracted = sum(len(oracle.extract(d)) for d in docs)
        assert extracted / 600 == pytest.approx(0.2, abs=0.06)

    def test_characterize_refuses_oracle(self, mini_db1):
        # The oracle's confidences do not decide what it extracts at θ, so
        # a one-pass characterization would report wrong tp/fp curves.
        oracle = self.make()
        with pytest.raises(ValueError, match="threshold contract"):
            characterize(oracle, mini_db1, thetas=[0.0, 0.2, 1.0])
        # nor may the extraction memo serve every θ from its θ=0 output
        with pytest.raises(ValueError, match="threshold contract"):
            ExtractionMemo().extractor(oracle, mini_db1)
        # the per-θ reference still measures it: tp(0.2) near 1 - 0.6·0.2
        curves = reference_characterize(oracle, mini_db1, thetas=[0.0, 0.2, 1.0])
        assert curves.tp[0] == 1.0
        assert curves.tp[1] == pytest.approx(0.88, abs=0.06)

    def test_linear_knob_validation(self):
        with pytest.raises(ValueError):
            LinearKnob(0.9, 1.0)  # at1 > at0
        with pytest.raises(ValueError):
            LinearKnob(1.2, 0.1)


class TestPatternLearning:
    def test_recovers_planted_patterns(self, mini_train, mini_world):
        learned = learn_pattern_terms(
            mini_train,
            mini_world.schemas["HQ"],
            mini_world.entity_dictionary("HQ"),
            seed_facts=mini_world.true_facts("HQ")[:25],
            top_k=40,
        )
        truth = set(pattern_tokens("HQ"))
        assert len(set(learned) & truth) >= 30

    def test_no_seeds_found_raises(self, mini_train, mini_world):
        fake = [Fact("HQ", ("nonexistent1", "nonexistent2"), True)]
        with pytest.raises(RuntimeError):
            learn_pattern_terms(
                mini_train,
                mini_world.schemas["HQ"],
                mini_world.entity_dictionary("HQ"),
                seed_facts=fake,
            )

    def test_top_k_positive(self, mini_train, mini_world):
        with pytest.raises(ValueError):
            learn_pattern_terms(
                mini_train,
                mini_world.schemas["HQ"],
                mini_world.entity_dictionary("HQ"),
                seed_facts=mini_world.true_facts("HQ")[:5],
                top_k=0,
            )


class TestCharacterization:
    def test_endpoints(self, mini_char1):
        assert mini_char1.tp_at(0.0) == pytest.approx(1.0)
        assert mini_char1.fp_at(0.0) == pytest.approx(1.0)
        assert mini_char1.tp_at(1.0) < 0.35
        assert mini_char1.fp_at(1.0) < 0.15

    def test_monotone_nonincreasing(self, mini_char1):
        tps = [mini_char1.tp_at(t / 10) for t in range(11)]
        fps = [mini_char1.fp_at(t / 10) for t in range(11)]
        assert all(a >= b - 1e-9 for a, b in zip(tps, tps[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(fps, fps[1:]))

    def test_knob_separates_classes(self, mini_char1):
        """At a mid threshold the knob must favour good over bad."""
        assert mini_char1.tp_at(0.4) > mini_char1.fp_at(0.4) + 0.2

    def test_interpolation_between_grid_points(self, mini_char1):
        mid = mini_char1.tp_at(0.3)
        assert mini_char1.tp_at(0.2) >= mid >= mini_char1.tp_at(0.4)

    def test_confidence_reference_present(self, mini_char1):
        ref = mini_char1.confidences
        assert ref is not None
        assert sum(ref.good) == pytest.approx(1.0)
        assert sum(ref.bad) == pytest.approx(1.0)

    def test_good_scores_higher_than_bad(self, mini_char1):
        ref = mini_char1.confidences
        mean_good = sum(i * p for i, p in enumerate(ref.good))
        mean_bad = sum(i * p for i, p in enumerate(ref.bad))
        assert mean_good > mean_bad + 1.5

    def test_conditional_distributions_renormalized(self, mini_char1):
        ref = mini_char1.confidences
        conditional = ref.good_at(0.5)
        assert sum(conditional) == pytest.approx(1.0)
        cutoff = ref.bin_of(0.5)
        assert all(p == 0.0 for p in conditional[:cutoff])

    def test_sample_size_limits_work(self, mini_extractor1, mini_db1):
        result = characterize(
            mini_extractor1, mini_db1, thetas=[0.0, 0.5, 1.0], sample_size=50
        )
        assert result.n_good_reference > 0

    def test_invalid_theta_grid(self, mini_extractor1, mini_db1):
        with pytest.raises(ValueError):
            characterize(mini_extractor1, mini_db1, thetas=[-0.5, 0.5])


#: a grid holding scores the extractors attain exactly: Snowball's k/10 over
#: a 10-token context (0.3, 0.5, 1.0) and the window proximity 1/(1+gap/5)
#: at gaps 5 and 0 (0.5, 1.0), so ``confidence >= θ`` is pinned at equality
EXACT_GRID = (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.8, 1.0)


def assert_matches_reference(extractor, database, thetas, sample_size=None):
    ours = characterize(extractor, database, thetas, sample_size=sample_size)
    reference = reference_characterize(
        extractor, database, thetas, sample_size=sample_size
    )
    for name in CHARACTERIZATION_FIELDS:
        assert getattr(ours, name) == getattr(reference, name), name
    assert ours == reference
    return ours


def duplicate_key_database():
    """The key (acme, boston) occurs twice per document with different
    scores: first low then high in doc 0, first high then low in doc 2."""
    low = ["headquartered", "lorem", "lorem", "lorem"]  # 0.25
    high = ["headquartered", "based", "offices", "lorem"]  # 0.75

    def doc(doc_id, company, location, contexts, is_true):
        sentences = [[company, *c, location] for c in contexts]
        sentences.append(["ipsum", "dolor"])
        fact = Fact("HQ", (company, location), is_true=is_true)
        return Document(
            doc_id=doc_id,
            sentences=sentences,
            mentions=[Mention(fact, 0, (0, len(sentences[0]) - 1))],
        )

    return TextDatabase(
        "dupes",
        [
            doc(0, "acme", "boston", [low, high], True),
            doc(1, "globex", "tokyo", [["based", "lorem"], ["lorem"]], False),
            doc(2, "acme", "boston", [high, low], True),
            doc(3, "globex", "boston", [low], False),
        ],
    )


class TestCharacterizationMatchesReference:
    """The one-pass characterization equals re-running at every grid θ."""

    def window(self, mini_world, patterns=()):
        return WindowExtractor(
            mini_world.schemas["HQ"],
            mini_world.entity_dictionary("HQ"),
            pattern_terms=list(patterns),
        )

    def test_grid_holds_attained_scores(self, mini_extractor1, mini_db1):
        scores = {
            tup.confidence
            for doc in mini_db1.documents
            for tup in mini_extractor1.with_theta(0.0).extract(doc)
        }
        assert {0.3, 0.5, 1.0} <= scores

    def test_snowball(self, mini_extractor1, mini_db1):
        assert_matches_reference(mini_extractor1, mini_db1, EXACT_GRID)

    @pytest.mark.parametrize("patterns", [(), ("HQ",)])
    def test_window(self, mini_world, mini_db1, patterns):
        vocab = [t for r in patterns for t in pattern_tokens(r)]
        assert_matches_reference(
            self.window(mini_world, vocab), mini_db1, EXACT_GRID
        )

    @pytest.mark.parametrize("sample_size", [1, 50, 10_000])
    def test_sample_size_prefix(
        self, mini_world, mini_extractor1, mini_db1, sample_size
    ):
        for extractor in (mini_extractor1, self.window(mini_world)):
            assert_matches_reference(
                extractor, mini_db1, EXACT_GRID, sample_size=sample_size
            )

    def test_key_in_two_sentences_counts_its_best_score(self):
        database = duplicate_key_database()
        snowball = SnowballExtractor(HQ, DICTS, PATTERNS)
        char = assert_matches_reference(snowball, database, EXACT_GRID)
        assert char.n_good_reference == 2 and char.n_bad_reference == 2
        at = dict(zip(char.thetas, char.tp))
        # Both good keys survive up to their best score, 0.75.
        assert at[0.5] == at[0.75] == 1.0 and at[0.8] == 0.0
        window = WindowExtractor(HQ, DICTS, pattern_terms=PATTERNS)
        assert_matches_reference(window, database, EXACT_GRID)

    @pytest.mark.parametrize("relation", ["HQ", "EX", "MG"])
    def test_canonical_testbed(self, testbed, relation):
        ours = testbed.characterizations[relation]
        reference = reference_characterize(
            testbed.extractors[relation], testbed.training, ours.thetas
        )
        assert ours == reference


# ---------------------------------------------------------------------------
# the serving memo
# ---------------------------------------------------------------------------


#: every θ a service binds -- the plan grid (0.4, 0.8) and the pilot θ --
#: and off-grid values a multiway client may name
REQUEST_THETAS = sorted({
    0.0,
    0.4,
    0.41,
    0.8,
    1.0,
    inspect.signature(JoinService).parameters["pilot_theta"].default,
})


def served_sides(task, scenario):
    """(database, extractor, classifier) of every served relation."""
    bound = (
        (task.environment(), (1, 2)),
        (scenario.environment(), scenario.graph.names),
    )
    return [
        (environment.databases[key], environment.extractors[key],
         environment.classifiers[key])
        for environment, keys in bound
        for key in keys
    ]


@pytest.fixture(scope="module")
def star3_scenario():
    return build_multiway_testbed().scenario("star3")


class TestExtractionMemo:
    def test_hits_equal_fresh_calls_on_every_served_document(
        self, hq_ex_task, star3_scenario
    ):
        memo = ExtractionMemo()
        for database, extractor, classifier in served_sides(
            hq_ex_task, star3_scenario
        ):
            memoized_classifier = memo.classifier(classifier, database)
            for theta in REQUEST_THETAS:
                fresh = extractor.with_theta(theta)
                memoized = memo.extractor(fresh, database)
                for document in database.documents:
                    expected = fresh.extract(document)
                    assert memoized.extract(document) == expected  # fill
                    assert memoized.extract(document) == expected  # hit
            for document in database.documents:
                expected = classifier.classify(document)
                assert memoized_classifier.classify(document) is expected
                assert memoized_classifier.classify(document) is expected
        assert len(memo) > 0

    def test_environments_bind_memoized_systems(
        self, hq_ex_task, star3_scenario
    ):
        memo = ExtractionMemo()
        binary = hq_ex_task.environment().memoized(memo)
        assert isinstance(binary.extractor_at(1, 0.8), MemoizedExtractor)
        assert binary.extractor_at(2, 0.8).theta == 0.8
        assert isinstance(binary.classifiers[1], MemoizedClassifier)
        star3 = star3_scenario.environment().memoized(memo)
        assert all(
            isinstance(star3.extractor_at(alias, 0.4), MemoizedExtractor)
            for alias in star3_scenario.graph.names
        )
        assert len(memo) == 0  # binding computes nothing

    def test_mutating_a_returned_list_does_not_change_the_next_hit(
        self, hq_ex_task
    ):
        database = hq_ex_task.database1
        extractor = hq_ex_task.extractor1.with_theta(0.4)
        memoized = ExtractionMemo().extractor(extractor, database)
        document = next(
            doc for doc in database.documents if extractor.extract(doc)
        )
        first = memoized.extract(document)
        expected = list(first)
        first.append(first[0])
        first.pop(0)
        assert memoized.extract(document) == expected
        assert memoized.extract(document) is not memoized.extract(document)

    def test_truncated_copy_is_neither_served_nor_stored(self, hq_ex_task):
        database = hq_ex_task.database1
        extractor = hq_ex_task.extractor1.with_theta(0.4)
        memo = ExtractionMemo()
        memoized = memo.extractor(extractor, database)
        classifier = memo.classifier(hq_ex_task.classifier1, database)
        truncating = FaultInjectingDatabase(database, FaultProfile(truncate=1.0))
        document = next(
            doc
            for doc in database.documents
            if len(doc.sentences) > 1
            and extractor.extract(truncating.get(doc.doc_id))
            != extractor.extract(doc)
        )
        truncated = truncating.get(document.doc_id)
        assert truncated.doc_id == document.doc_id
        assert truncated is not document
        # A filled entry is not served to the truncated copy ...
        full = memoized.extract(document)
        classifier.classify(document)
        assert memoized.extract(truncated) == extractor.extract(truncated)
        assert memoized.extract(truncated) != full
        assert classifier.classify(truncated) is (
            hq_ex_task.classifier1.classify(truncated)
        )
        # ... and the truncated copy never replaced it.
        assert memoized.extract(document) == full
        assert len(memo) == 2
        # Nor is a truncated copy stored when the entry is empty.
        fresh_memo = ExtractionMemo()
        fresh_memo.extractor(extractor, database).extract(truncated)
        fresh_memo.classifier(hq_ex_task.classifier1, database).classify(
            truncated
        )
        assert len(fresh_memo) == 0

    def test_off_grid_theta_is_served_from_the_one_table(self, hq_ex_task):
        memo = ExtractionMemo()
        database = hq_ex_task.database1
        documents = list(database.documents)[:50]
        off_grid = memo.extractor(
            hq_ex_task.extractor1.with_theta(0.41), database
        )
        assert isinstance(off_grid, MemoizedExtractor)
        assert off_grid.theta == 0.41
        for document in documents:
            off_grid.extract(document)
        assert len(memo) == len(documents)  # the off-grid θ filled it
        # Every θ, bound through the memo or through with_theta, reads
        # that table: no new table and no new entry.
        on_grid = memo.extractor(
            hq_ex_task.extractor1.with_theta(0.4), database
        )
        for memoized in (on_grid, on_grid.with_theta(0.8), off_grid):
            bare = hq_ex_task.extractor1.with_theta(memoized.theta)
            for document in documents:
                assert memoized.extract(document) == bare.extract(document)
        assert len(memo) == len(documents)
        assert memo.tables == 1

    def test_memo_binds_only_to_an_immutable_database(self, hq_ex_task):
        wrapped = FaultInjectingDatabase(
            hq_ex_task.database1, FaultProfile(truncate=0.5)
        )
        with pytest.raises(TypeError):
            ExtractionMemo().extractor(hq_ex_task.extractor1, wrapped)

    def test_racing_threads_store_only_correct_entries(self, hq_ex_task):
        database = hq_ex_task.database2
        extractor = hq_ex_task.extractor2.with_theta(0.8)
        memoized = ExtractionMemo().extractor(extractor, database)
        documents = list(database.documents)[:400]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        lambda: [memoized.extract(doc) for doc in documents]
                    )
                    for _ in range(8)
                ]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        expected = [extractor.extract(doc) for doc in documents]
        assert all(result == expected for result in results)
        assert [memoized.extract(doc) for doc in documents] == expected

    def test_varied_request_thetas_open_no_new_tables(
        self, hq_ex_task, star3_scenario, tmp_path
    ):
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1,
            multiway=star3_scenario,
        )
        try:
            memo = service.extraction_memo
            graph = star3_scenario.graph
            tables = []
            for step in range(12):
                theta = round(0.41 + 0.001 * step, 3)
                service.execute(
                    JoinRequest(
                        tau_good=40, tau_bad=120, mode="execute",
                        graph=replace(
                            graph,
                            relations=tuple(
                                replace(node, thetas=(theta,))
                                for node in graph.relations
                            ),
                        ),
                    )
                )
                tables.append(memo.tables)
            # a new θ opens no table: binding opens the same ones each time
            assert tables == [tables[0]] * len(tables)
            service.execute(
                JoinRequest(
                    tau_good=40, tau_bad=120, mode="execute", graph=graph
                )
            )
            # one extraction and one classifier table per database
            databases = len(graph.names)
            assert memo.tables <= databases * 2
        finally:
            service.close()

    def test_set_up_leaves_the_service_memo_empty(
        self, hq_ex_task, star3_scenario, tmp_path
    ):
        build_testbed(TestbedConfig(scale=0.6))
        build_multiway_testbed().scenario("star3")
        service = JoinService(
            hq_ex_task, str(tmp_path / "store"), workers=1,
            multiway=star3_scenario,
        )
        try:
            assert len(service.extraction_memo) == 0
            service.execute(
                JoinRequest(
                    tau_good=40, tau_bad=120, mode="execute",
                    graph=star3_scenario.graph,
                )
            )
            filled = len(service.extraction_memo)
            assert filled > 0
            service.execute(
                JoinRequest(
                    tau_good=40, tau_bad=120, mode="execute",
                    graph=star3_scenario.graph,
                )
            )
            # The repeat reads the memo and stores nothing new.
            assert len(service.extraction_memo) == filled
        finally:
            service.close()
