"""Edge cases and failure modes across the stack."""

import pytest

from repro.core import (
    ExtractedRelation,
    QualityRequirement,
    RelationSchema,
    RetrievalKind,
    TreeJoinState,
    compose_join,
)
from repro.core.types import ExtractedTuple
from repro.extraction import LinearKnob, OracleExtractor, SnowballExtractor
from repro.joins import Budgets, IndependentJoin, JoinInputs
from repro.models import (
    GeneratingFunction,
    IDJNModel,
    JoinStatistics,
    SideStatistics,
    ZGJNModel,
)
from repro.retrieval import ScanRetriever
from repro.textdb import (
    CorpusConfig,
    HostedRelation,
    RelationSpec,
    World,
    WorldConfig,
    generate_corpus,
    profile_database,
)

HQ = RelationSchema("HQ", ("Company", "Location"))
EX = RelationSchema("EX", ("Company", "CEO"))


def tup(rel, values, good, doc):
    return ExtractedTuple(rel, tuple(values), doc, 1.0, good)


class TestEmptyAndDegenerateJoins:
    def test_join_of_empty_relations(self):
        state = TreeJoinState.star((HQ, EX))
        assert state.composition.n_total == 0
        assert list(state.iter_results()) == []

    def test_join_with_one_empty_side(self):
        state = TreeJoinState.star((HQ, EX))
        state.add(1, [tup("HQ", ("a", "x"), True, 1)])
        assert state.composition.n_total == 0
        assert list(state.iter_results()) == []

    def test_compose_join_empty(self):
        comp = compose_join(
            ExtractedRelation(HQ), ExtractedRelation(EX), "Company"
        )
        assert comp.n_total == 0

    def test_no_shared_values(self):
        state = TreeJoinState.star((HQ, EX))
        state.add(1, [tup("HQ", ("a", "x"), True, 1)])
        state.add(2, [tup("EX", ("b", "p"), True, 1)])
        assert state.composition.n_total == 0
        comp = compose_join(state.relation(1), state.relation(2), "Company")
        assert comp.n_total == 0


class TestDegenerateKnobs:
    def test_oracle_theta_one_with_flat_curves(self):
        """tp = fp: the knob cannot separate classes, but nothing breaks."""
        oracle = OracleExtractor(
            HQ,
            theta=1.0,
            tp_curve=LinearKnob(1.0, 0.5),
            fp_curve=LinearKnob(1.0, 0.5),
        )
        assert oracle.true_positive_rate(1.0) == oracle.false_positive_rate(1.0)

    def test_snowball_theta_one_extracts_only_pure_contexts(self, mini_world, mini_db1):
        from repro.textdb import pattern_tokens

        extractor = SnowballExtractor(
            mini_world.schemas["HQ"],
            mini_world.entity_dictionary("HQ"),
            pattern_tokens("HQ"),
            theta=1.0,
        )
        for doc in list(mini_db1.documents)[:50]:
            for extracted in extractor.extract(doc):
                assert extracted.confidence == pytest.approx(1.0)


class TestTinyCorpora:
    @pytest.fixture(scope="class")
    def tiny(self):
        spec = RelationSpec(
            schema=HQ,
            secondary_prefix="city",
            n_true_facts=4,
            n_false_facts=2,
            n_secondary=10,
        )
        world = World(WorldConfig(seed=2, n_companies=8, relations=(spec,)))
        database = generate_corpus(
            world,
            CorpusConfig(
                name="tiny",
                seed=3,
                hosted=(HostedRelation("HQ", n_good_docs=3, n_bad_docs=1),),
                n_empty_docs=2,
                max_results=2,
            ),
        )
        return world, database

    def test_profile_of_tiny_corpus(self, tiny):
        _, database = tiny
        profile = profile_database(database, "HQ")
        assert profile.n_documents == 6
        assert profile.n_good_docs == 3

    def test_model_on_tiny_corpus(self, tiny):
        _, database = tiny
        profile = profile_database(database, "HQ")
        side = SideStatistics.from_profile(profile, tp=0.9, fp=0.5, top_k=2)
        statistics = JoinStatistics(side1=side, side2=side)
        model = IDJNModel(statistics, RetrievalKind.SCAN, RetrievalKind.SCAN)
        prediction = model.predict(6, 6)
        assert prediction.n_good >= 0

    def test_execution_on_tiny_corpus(self, tiny):
        world, database = tiny
        from repro.textdb import pattern_tokens

        extractor = SnowballExtractor(
            world.schemas["HQ"],
            world.entity_dictionary("HQ"),
            pattern_tokens("HQ"),
            theta=0.2,
        )
        inputs = JoinInputs(
            database1=database,
            database2=database,
            extractor1=extractor,
            extractor2=extractor,
            join_attribute="Company",
        )
        execution = IndependentJoin(
            inputs, ScanRetriever(database), ScanRetriever(database)
        ).run()
        assert execution.report.exhausted


class TestModelBoundaryInputs:
    def test_side_statistics_class_overflow_rejected(self):
        with pytest.raises(ValueError):
            SideStatistics(
                relation="R",
                n_documents=10,
                n_good_docs=8,
                n_bad_docs=5,
                good_frequency={},
                bad_frequency={},
                bad_in_good_frequency={},
                tp=0.9,
                fp=0.5,
            )

    def test_side_with_no_bad_values(self):
        side = SideStatistics(
            relation="R",
            n_documents=100,
            n_good_docs=50,
            n_bad_docs=0,
            good_frequency={"a": 5.0},
            bad_frequency={},
            bad_in_good_frequency={},
            tp=0.9,
            fp=0.5,
        )
        statistics = JoinStatistics(side1=side, side2=side)
        model = IDJNModel(statistics, RetrievalKind.SCAN, RetrievalKind.SCAN)
        prediction = model.predict(100, 100)
        assert prediction.n_bad == 0.0
        assert prediction.n_good > 0

    def test_zgjn_requires_some_values(self):
        side = SideStatistics(
            relation="R",
            n_documents=10,
            n_good_docs=5,
            n_bad_docs=0,
            good_frequency={},
            bad_frequency={},
            bad_in_good_frequency={},
            tp=0.9,
            fp=0.5,
        )
        with pytest.raises(ValueError):
            ZGJNModel(JoinStatistics(side1=side, side2=side))

    def test_zgjn_all_stall(self):
        """Sides with completely disjoint values: every query stalls."""
        side1 = SideStatistics(
            relation="R1",
            n_documents=10,
            n_good_docs=5,
            n_bad_docs=0,
            good_frequency={"a": 2.0},
            bad_frequency={},
            bad_in_good_frequency={},
            tp=0.9,
            fp=0.5,
        )
        side2 = SideStatistics(
            relation="R2",
            n_documents=10,
            n_good_docs=5,
            n_bad_docs=0,
            good_frequency={"zzz": 2.0},
            bad_frequency={},
            bad_in_good_frequency={},
            tp=0.9,
            fp=0.5,
        )
        with pytest.raises(ValueError):
            ZGJNModel(JoinStatistics(side1=side1, side2=side2))


class TestGeneratingFunctionEdges:
    def test_degenerate_zero_thinned(self):
        gf = GeneratingFunction.degenerate(0)
        assert gf.thinned(0.5).mean() == 0.0

    def test_power_of_degenerate(self):
        gf = GeneratingFunction.degenerate(3)
        assert gf.power(4).mean() == pytest.approx(12.0)

    def test_compose_with_degenerate_zero(self):
        outer = GeneratingFunction([0.5, 0.5])
        inner = GeneratingFunction.degenerate(0)
        composed = outer.compose(inner)
        # f(g(x)) with g ≡ 1 is the constant f(1) = 1 → a point mass at 0.
        assert composed.probability(0) == pytest.approx(1.0)

    def test_truncation_to_zero(self):
        gf = GeneratingFunction.from_histogram({1: 1, 2: 1})
        capped = gf.truncated(0)
        assert capped.probability(0) == pytest.approx(1.0)


class TestRequirementBoundaries:
    def test_zero_good_requirement_stops_immediately(self, mini_db1, mini_db2,
                                                     mini_extractor1,
                                                     mini_extractor2):
        inputs = JoinInputs(
            database1=mini_db1,
            database2=mini_db2,
            extractor1=mini_extractor1,
            extractor2=mini_extractor2,
        )
        execution = IndependentJoin(
            inputs, ScanRetriever(mini_db1), ScanRetriever(mini_db2)
        ).run(QualityRequirement(tau_good=0, tau_bad=10))
        assert execution.report.documents_processed[1] == 0

    def test_zero_bad_tolerance(self, mini_db1, mini_db2, mini_extractor1,
                                mini_extractor2):
        inputs = JoinInputs(
            database1=mini_db1,
            database2=mini_db2,
            extractor1=mini_extractor1,
            extractor2=mini_extractor2,
        )
        execution = IndependentJoin(
            inputs, ScanRetriever(mini_db1), ScanRetriever(mini_db2)
        ).run(QualityRequirement(tau_good=10**6, tau_bad=0))
        # Stops as soon as the first bad join tuple appears.
        assert execution.report.composition.n_bad >= 1
        assert not execution.report.satisfied
