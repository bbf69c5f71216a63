"""Tests for the document-retrieval strategies and query machinery."""

import random

import pytest

from repro.core import DocumentClass, Fact
from repro.experiments import build_multiway_testbed
from repro.retrieval import classifier as classifier_module
from repro.retrieval import (
    AQGRetriever,
    FilteredScanRetriever,
    Query,
    QueryProbe,
    RuleClassifier,
    ScanRetriever,
    learn_queries,
    measure_learned_queries,
    measure_query,
    offline_query_stats,
)
from repro.textdb import Document, Mention, TextDatabase


class TestScanRetriever:
    def test_visits_every_document_once(self, mini_db1):
        retriever = ScanRetriever(mini_db1)
        seen = [d.doc_id for d in retriever]
        assert len(seen) == len(mini_db1)
        assert len(set(seen)) == len(seen)
        assert retriever.exhausted

    def test_follows_scan_order(self, mini_db1):
        retriever = ScanRetriever(mini_db1)
        first = [retriever.next_document().doc_id for _ in range(5)]
        assert first == mini_db1.scan_order()[:5]

    def test_counters(self, mini_db1):
        retriever = ScanRetriever(mini_db1)
        for _ in range(7):
            retriever.next_document()
        assert retriever.counters.retrieved == 7
        assert retriever.counters.rejected == 0
        assert retriever.counters.queries_issued == 0

    def test_exhausted_returns_none(self, mini_db1):
        retriever = ScanRetriever(mini_db1)
        list(retriever)
        assert retriever.next_document() is None


class TestRuleClassifier:
    def test_training_and_measurement(self, mini_train, mini_db1):
        classifier = RuleClassifier.train(mini_train, "HQ")
        profile = classifier.measure(mini_db1)
        assert profile.c_tp > 0.75
        assert profile.c_fp < 0.95
        assert profile.c_ep < 0.25
        assert profile.c_tp > profile.c_ep

    def test_classify_is_rule_disjunction(self, mini_db1):
        classifier = RuleClassifier("HQ", rules=["nonexistent_token"])
        assert not any(classifier.classify(d) for d in mini_db1.documents)

    def test_needs_rules(self):
        with pytest.raises(ValueError):
            RuleClassifier("HQ", rules=[])

    def test_classify_equals_the_token_set_rule(self, testbed):
        task = testbed.task()
        documents = [
            document
            for database in (task.database1, task.database2, testbed.training)
            for document in database.documents
        ]
        for classifier in (task.classifier1, task.classifier2):
            answers = [classifier.classify(d) for d in documents]
            expected = [
                not classifier.rules.isdisjoint(d.token_set())
                for d in documents
            ]
            assert answers == expected
            assert 0 < sum(answers) < len(documents)

    def test_training_needs_good_docs(self, mini_db1):
        # mini_db1 hosts HQ only; training EX on it has no good EX docs.
        with pytest.raises(RuntimeError, match="no good documents"):
            RuleClassifier.train(mini_db1, "EX")
        with pytest.raises(RuntimeError, match="no good documents"):
            list_train(mini_db1, "EX")


def list_train(database, relation, max_rules=10, beta=0.5, min_df=3):
    """Reference trainer: the rule selection of ``RuleClassifier.train``
    over per-document lists of booleans instead of bitmasks."""
    docs = list(database.documents)
    labels = [doc.classify(relation) is DocumentClass.GOOD for doc in docs]
    n_good = sum(labels)
    if n_good == 0:
        raise RuntimeError(
            f"training database has no good documents for {relation!r}"
        )
    token_sets = [doc.token_set() for doc in docs]

    def fbeta(accepted):
        tp = sum(1 for a, g in zip(accepted, labels) if a and g)
        fp = sum(1 for a, g in zip(accepted, labels) if a and not g)
        if tp == 0:
            return 0.0
        precision = tp / (tp + fp)
        recall = tp / n_good
        b2 = beta * beta
        return (1 + b2) * precision * recall / (b2 * precision + recall)

    scored = []
    for token in classifier_module._candidate_tokens(database, min_df):
        score = fbeta([token in ts for ts in token_sets])
        if score > 0:
            scored.append((score, token))
    scored.sort(reverse=True)

    rules = []
    accepted = [False] * len(docs)
    best = 0.0
    for _, token in scored[: max_rules * 5]:
        trial = [a or (token in ts) for a, ts in zip(accepted, token_sets)]
        trial_score = fbeta(trial)
        if trial_score > best:
            rules.append(token)
            accepted = trial
            best = trial_score
        if len(rules) >= max_rules:
            break
    if not rules:
        raise RuntimeError(f"no informative rule tokens found for {relation!r}")
    return RuleClassifier(relation=relation, rules=rules)


def training_outcome(train, database, relation, **kwargs):
    """The rule set and training-set profile, or the error raised."""
    try:
        classifier = train(database, relation, **kwargs)
    except RuntimeError as error:
        return ("error", str(error))
    return ("rules", classifier.rules, classifier.measure(database))


def random_database(seed):
    """A small labelled database over a tiny vocabulary: many candidate
    tokens tie on F-beta, and some classes may be missing entirely.  Every
    fifth seed gives good documents only a token of their own, so no
    candidate at ``min_df=3`` is informative."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(3, 9))]
    documents = []
    for doc_id in range(rng.randint(4, 40)):
        sentences = [
            rng.sample(vocab, rng.randint(1, len(vocab)))
            for _ in range(rng.randint(1, 3))
        ]
        mentions = []
        kind = rng.random()
        if kind < 0.6:
            fact = Fact("HQ", (f"c{doc_id}", "x"), is_true=kind < 0.35)
            mentions.append(Mention(fact, 0, (0, 1)))
            if fact.is_true and seed % 5 == 0:
                sentences = [[f"own{doc_id}"]]
        documents.append(Document(doc_id, sentences, mentions))
    return TextDatabase(f"random{seed}", documents)


class TestBitmaskTrainingMatchesListReference:
    @pytest.mark.parametrize("relation", ["HQ", "EX"])
    def test_canonical_training_database(self, testbed, relation):
        ours = training_outcome(RuleClassifier.train, testbed.training, relation)
        assert ours[0] == "rules"
        assert ours == training_outcome(list_train, testbed.training, relation)

    @pytest.mark.parametrize("relation", ["HQ", "EX", "MG"])
    def test_multiway_training_database(self, relation):
        training = build_multiway_testbed().training
        ours = training_outcome(RuleClassifier.train, training, relation)
        assert ours[0] == "rules"
        assert ours == training_outcome(list_train, training, relation)

    def test_random_databases_with_ties_and_absent_tokens(self, monkeypatch):
        candidates = classifier_module._candidate_tokens
        # Candidate tokens no document holds must score zero, not fail.
        monkeypatch.setattr(
            classifier_module,
            "_candidate_tokens",
            lambda database, min_df: (
                ["absent_a", *candidates(database, min_df), "absent_b"]
            ),
        )
        kinds = set()
        for seed in range(120):
            database = random_database(seed)
            for kwargs in ({}, {"min_df": 1, "max_rules": 2, "beta": 1.0}):
                ours = training_outcome(
                    RuleClassifier.train, database, "HQ", **kwargs
                )
                assert ours == training_outcome(
                    list_train, database, "HQ", **kwargs
                ), (seed, kwargs)
                kinds.add(ours[0] if ours[0] == "rules" else ours[1][:14])
        assert kinds == {"rules", "training datab", "no informative"}


class TestFilteredScanRetriever:
    def test_only_accepted_documents_returned(self, mini_train, mini_db1):
        classifier = RuleClassifier.train(mini_train, "HQ")
        retriever = FilteredScanRetriever(mini_db1, classifier)
        docs = list(retriever)
        assert all(classifier.classify(d) for d in docs)
        assert retriever.counters.retrieved == len(mini_db1)
        assert retriever.counters.rejected == len(mini_db1) - len(docs)

    def test_flags_filtering(self, mini_train, mini_db1):
        classifier = RuleClassifier.train(mini_train, "HQ")
        assert FilteredScanRetriever(mini_db1, classifier).filters_documents
        assert not ScanRetriever(mini_db1).filters_documents

    def test_skips_most_empty_docs(self, mini_train, mini_db1):
        classifier = RuleClassifier.train(mini_train, "HQ")
        retriever = FilteredScanRetriever(mini_db1, classifier)
        processed = list(retriever)
        empty = sum(
            1 for d in processed if d.classify("HQ") is DocumentClass.EMPTY
        )
        assert empty < 0.25 * 200  # 200 empty docs in mini_db1


class TestQueries:
    def test_query_requires_tokens(self):
        with pytest.raises(ValueError):
            Query(tokens=())

    def test_measure_query(self, mini_db1, mini_profile1):
        value = next(iter(mini_profile1.good_frequency))
        stats = measure_query(mini_db1, Query.of(value), "HQ")
        assert stats.hits == mini_db1.match_count([value])
        assert 0.0 <= stats.precision <= 1.0
        assert stats.precision + stats.bad_fraction <= 1.0 + 1e-9

    def test_measure_no_match(self, mini_db1):
        stats = measure_query(mini_db1, Query.of("zzz_missing"), "HQ")
        assert stats.hits == 0
        assert stats.precision == 0.0

    def test_good_hits(self):
        from repro.retrieval import QueryStats

        stats = QueryStats(Query.of("x"), hits=40, precision=0.6, bad_fraction=0.3)
        assert stats.good_hits == pytest.approx(24)
        assert stats.bad_hits == pytest.approx(12)
        assert stats.empty_fraction == pytest.approx(0.1)


class TestQueryProbe:
    def test_returns_only_unseen(self, mini_db1, mini_profile1):
        value = mini_profile1.good_frequency.most_common(1)[0][0]
        probe = QueryProbe(mini_db1)
        first = probe.issue(Query.of(value))
        second = probe.issue(Query.of(value))
        assert first
        assert second == []
        assert probe.queries_issued == 2
        assert probe.documents_retrieved == len(first)

    def test_already_issued(self, mini_db1):
        probe = QueryProbe(mini_db1)
        query = Query.of("anything")
        assert not probe.already_issued(query)
        probe.issue(query)
        assert probe.already_issued(query)

    def test_respects_interface_limit(self, mini_db1, mini_profile1):
        value = mini_profile1.good_frequency.most_common(1)[0][0]
        probe = QueryProbe(mini_db1)
        docs = probe.issue(Query.of(value))
        assert len(docs) <= mini_db1.max_results


class TestAQG:
    def test_learned_queries_target_good_docs(self, mini_train, mini_db1):
        queries = learn_queries(mini_train, "HQ", max_queries=10)
        assert queries
        stats = measure_learned_queries(queries, mini_db1, "HQ")
        mean_precision = sum(s.precision for s in stats) / len(stats)
        assert mean_precision > 0.5

    def test_ranked_best_first(self, mini_train):
        queries = learn_queries(mini_train, "HQ", max_queries=10, beta=0.25)
        precisions = [q.training_precision for q in queries]
        assert precisions[0] >= precisions[-1] - 0.3

    def test_retriever_yields_unique_docs(self, mini_train, mini_db1):
        queries = learn_queries(mini_train, "HQ", max_queries=8)
        retriever = AQGRetriever(mini_db1, queries)
        docs = [d.doc_id for d in retriever]
        assert len(docs) == len(set(docs))
        assert retriever.counters.queries_issued == 8
        assert retriever.exhausted

    def test_retriever_mostly_good_docs(self, mini_train, mini_db1):
        queries = learn_queries(mini_train, "HQ", max_queries=8)
        docs = list(AQGRetriever(mini_db1, queries))
        good = sum(1 for d in docs if d.classify("HQ") is DocumentClass.GOOD)
        assert good / len(docs) > 0.5

    def test_needs_queries(self, mini_db1):
        with pytest.raises(ValueError):
            AQGRetriever(mini_db1, [])

    def test_offline_query_stats_label_free(self, mini_train, mini_db1):
        queries = learn_queries(mini_train, "HQ", max_queries=5)
        offline = offline_query_stats(queries, mini_db1)
        for learned, stats in zip(queries, offline):
            assert stats.hits == mini_db1.match_count(learned.query.tokens)
            assert stats.precision == learned.training_precision

    def test_offline_precision_close_to_target(self, mini_train, mini_db1):
        """Training precision should transfer across corpora of one world."""
        queries = learn_queries(mini_train, "HQ", max_queries=8)
        target = measure_learned_queries(queries, mini_db1, "HQ")
        for learned, actual in zip(queries, target):
            if actual.hits >= 10:
                assert abs(learned.training_precision - actual.precision) < 0.3
