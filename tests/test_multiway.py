"""Tests for the n-way join extension: the tree join state, executors, model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QualityRequirement, RelationSchema, RetrievalKind
from repro.core.types import ExtractedTuple
from repro.experiments import build_multiway_testbed
from repro.joins import SideCosts
from repro.multiway import (
    InterleavedNaryJoin,
    MultiwayIndependentJoin,
    MultiwaySide,
    TreeEdge,
    TreeJoinState,
)
from repro.planner import JoinEdge, JoinGraph, RelationNode, compose_factors
from repro.planner.model import GraphCompositionModel
from repro.planner.plan import RelationConfig
from repro.retrieval import ScanRetriever
from repro.textdb import (
    CorpusConfig,
    HostedRelation,
    generate_corpus,
    pattern_tokens,
)
from repro.extraction import SnowballExtractor

HQ = RelationSchema("HQ", ("Company", "Location"))
EX = RelationSchema("EX", ("Company", "CEO"))
MG = RelationSchema("MG", ("Company", "MergedWith"))


def tup(relation, values, good, doc):
    return ExtractedTuple(
        relation=relation,
        values=tuple(values),
        document_id=doc,
        confidence=1.0,
        is_good=good,
    )


def star_state():
    return TreeJoinState.star([HQ, EX, MG])


def _graph_of(state):
    """The planner's :class:`JoinGraph` over a state's schemas and edges."""
    names = [schema.name for schema in state.schemas]
    return JoinGraph(
        tuple(
            RelationNode(name=schema.name, attributes=schema.attributes)
            for schema in state.schemas
        ),
        tuple(
            JoinEdge(
                names[edge.left],
                edge.left_attribute,
                names[edge.right],
                edge.right_attribute,
            )
            for edge in state.edges
        ),
    )


# Four relations around B, a degree-3 node keyed on two attributes
# (x towards A and C, z towards D).
A4 = RelationSchema("A", ("x", "a"))
B4 = RelationSchema("B", ("x", "z", "b"))
C4 = RelationSchema("C", ("c", "x"))
D4 = RelationSchema("D", ("z", "d"))
CHAIN_RES = RelationSchema("RES", ("CEO", "City"))

SHAPES = {
    "star3": ([HQ, EX, MG], [TreeEdge(0, "Company", 1, "Company"),
                             TreeEdge(0, "Company", 2, "Company")]),
    "chain3": ([MG, EX, CHAIN_RES], [TreeEdge(0, "Company", 1, "Company"),
                                     TreeEdge(1, "CEO", 2, "CEO")]),
    "tree4": ([A4, B4, C4, D4], [TreeEdge(0, "x", 1, "x"),
                                 TreeEdge(1, "x", 2, "x"),
                                 TreeEdge(1, "z", 3, "z")]),
}


class TestTreeJoinState:
    """The star form's counts (one shared attribute), and delta-rule
    counters against materialization and the planner DP."""

    def test_join_attribute_inferred(self):
        state = star_state()
        assert {e.left_attribute for e in state.edges} == {"Company"}
        assert {e.right_attribute for e in state.edges} == {"Company"}

    def test_needs_two_relations(self):
        with pytest.raises(ValueError):
            TreeJoinState.star([HQ])
        with pytest.raises(ValueError):
            TreeJoinState([HQ], [])

    def test_three_way_counts(self):
        state = star_state()
        state.add(1, [tup("HQ", ("a", "x"), True, 1)])
        state.add(2, [tup("EX", ("a", "p"), True, 1)])
        assert state.composition.n_total == 0  # MG side still empty
        state.add(3, [tup("MG", ("a", "m"), True, 1)])
        assert state.composition.n_good == 1
        assert state.composition.n_bad == 0

    def test_bad_propagates(self):
        state = star_state()
        state.add(1, [tup("HQ", ("a", "x"), True, 1)])
        state.add(2, [tup("EX", ("a", "p"), False, 1)])
        state.add(3, [tup("MG", ("a", "m"), True, 1)])
        assert state.composition.n_good == 0
        assert state.composition.n_bad == 1

    def test_products_multiply(self):
        state = star_state()
        state.add(1, [tup("HQ", ("a", f"x{i}"), True, i) for i in range(2)])
        state.add(2, [tup("EX", ("a", f"p{i}"), True, i) for i in range(3)])
        state.add(3, [tup("MG", ("a", f"m{i}"), True, i) for i in range(4)])
        assert state.composition.n_good == 2 * 3 * 4

    def test_iter_results_matches_counts(self):
        state = star_state()
        state.add(1, [tup("HQ", ("a", "x"), True, 1),
                      tup("HQ", ("b", "y"), False, 2)])
        state.add(2, [tup("EX", ("a", "p"), False, 1),
                      tup("EX", ("b", "q"), True, 2)])
        state.add(3, [tup("MG", ("a", "m"), True, 1),
                      tup("MG", ("b", "n"), True, 2)])
        materialized = state.verify_composition()
        assert materialized.n_good == state.composition.n_good
        assert materialized.n_bad == state.composition.n_bad

    def test_result_values_shape(self):
        state = TreeJoinState.star([HQ, EX])
        hq = tup("HQ", ("a", "x"), True, 1)
        ex = tup("EX", ("a", "p"), True, 1)
        state.add(1, [hq])
        state.add(2, [ex])
        [result] = list(state.iter_results())
        assert result.parts == (hq, ex)
        assert result.is_good

    @given(st.lists(
        st.tuples(
            st.integers(1, 3),              # side
            st.sampled_from(["a", "b", "c"]),  # join value
            st.booleans(),                   # good?
        ),
        min_size=1, max_size=24,
    ))
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_materialized(self, inserts):
        state = star_state()
        names = {1: "HQ", 2: "EX", 3: "MG"}
        for i, (side, value, good) in enumerate(inserts):
            state.add(side, [tup(names[side], (value, f"s{i}"), good, i)])
        recount = state.verify_composition()
        assert state.composition.n_good == recount.n_good
        assert state.composition.n_bad == recount.n_bad

    def test_degree_three_node_keys_on_both_attributes(self):
        state = TreeJoinState(*SHAPES["tree4"])
        assert state.key_indexes == [(0,), (0, 1), (1,), (0,)]
        assert state.join_indexes == [0, 0, 1, 0]

    def test_structure_validation(self):
        schemas, edges = SHAPES["tree4"]
        with pytest.raises(ValueError, match="n-1 edges"):
            TreeJoinState(schemas, edges[:2])
        with pytest.raises(ValueError, match="connect every relation"):
            TreeJoinState(schemas, edges[:2] + [TreeEdge(0, "x", 2, "x")])
        with pytest.raises(ValueError, match="out of range"):
            TreeJoinState(schemas, edges[:2] + [TreeEdge(1, "z", 4, "z")])
        with pytest.raises(ValueError, match="with itself"):
            TreeJoinState(schemas, edges[:2] + [TreeEdge(1, "z", 1, "z")])
        with pytest.raises(ValueError, match="no attribute"):
            TreeJoinState(schemas, edges[:2] + [TreeEdge(1, "z", 3, "q")])
        with pytest.raises(ValueError, match="ambiguous or missing"):
            TreeJoinState.star([A4, D4])

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(12))
    def test_every_insert_matches_materialization_and_compose_factors(
        self, shape, seed
    ):
        schemas, edges = SHAPES[shape]
        state = TreeJoinState(schemas, edges)
        graph = _graph_of(state)
        rng = random.Random(f"{shape}:{seed}")
        # Leave one relation empty for a while (sometimes for good), mix
        # shared values with ones only a single relation ever carries,
        # and re-insert earlier tuples (duplicates are not counted).
        empty_until = rng.choice([0, 10, 10**9])
        starved = rng.randrange(len(schemas))
        inserted = []
        for step in range(40):
            if inserted and rng.random() < 0.15:
                side, extracted = rng.choice(inserted)
            else:
                side = rng.randrange(len(schemas)) + 1
                if side - 1 == starved and step < empty_until:
                    continue
                schema = schemas[side - 1]
                values = tuple(
                    rng.choice("pq") if rng.random() < 0.85
                    else f"{schema.name}-only-{step}"
                    for _ in schema.attributes
                )
                extracted = tup(
                    schema.name, values, rng.random() < 0.7, rng.randrange(3)
                )
                inserted.append((side, extracted))
            state.add(side, [extracted])
            composition = state.composition
            assert composition == state.verify_composition()
            total, good = compose_factors(
                graph,
                frozenset(graph.names),
                lambda name, _: state.key_factors(graph.names.index(name) + 1),
            )
            assert (total, good) == (composition.n_total, composition.n_good)

    def test_duplicates_are_not_counted(self):
        state = star_state()
        hq = tup("HQ", ("a", "x"), True, 1)
        state.add(2, [tup("EX", ("a", "p"), True, 1)])
        state.add(3, [tup("MG", ("a", "m"), True, 1)])
        assert state.add(1, [hq, hq]) == 1
        assert state.add(1, [hq]) == 0
        assert state.composition.n_good == 1


@pytest.fixture(scope="module")
def three_way(mini_world):
    """Three databases over a 3-relation world (HQ, EX, MG)."""
    from repro.textdb import RelationSpec, World, WorldConfig

    mg = RelationSpec(
        schema=MG, secondary_prefix="target",
        n_true_facts=80, n_false_facts=60, n_secondary=120,
    )
    hq = RelationSpec(
        schema=HQ, secondary_prefix="city",
        n_true_facts=80, n_false_facts=60, n_secondary=120,
    )
    ex = RelationSpec(
        schema=EX, secondary_prefix="person",
        n_true_facts=80, n_false_facts=60, n_secondary=120,
    )
    world = World(
        WorldConfig(seed=5, n_companies=120, relations=(hq, ex, mg))
    )
    databases = []
    extractors = []
    for i, rel in enumerate(("HQ", "EX", "MG")):
        db = generate_corpus(
            world,
            CorpusConfig(
                name=f"m{i}",
                seed=31 + i,
                hosted=(HostedRelation(rel, 140, 60),),
                n_empty_docs=160,
                max_results=25,
            ),
        )
        databases.append(db)
        extractors.append(
            SnowballExtractor(
                world.schemas[rel],
                world.entity_dictionary(rel),
                pattern_tokens(rel),
                theta=0.4,
            )
        )
    return world, databases, extractors


class TestMultiwayExecutor:
    def test_three_way_execution(self, three_way):
        _, databases, extractors = three_way
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db))
            for db, ex in zip(databases, extractors)
        ]
        execution = MultiwayIndependentJoin(sides).run()
        assert execution.report.exhausted
        assert execution.state.composition.n_total > 0
        # Incremental counters equal a full recount.
        recount = execution.state.verify_composition()
        assert execution.state.composition.n_good == recount.n_good

    def test_requirement_stops_early(self, three_way):
        _, databases, extractors = three_way
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db))
            for db, ex in zip(databases, extractors)
        ]
        requirement = QualityRequirement(tau_good=5, tau_bad=10**9)
        execution = MultiwayIndependentJoin(sides).run(requirement)
        assert execution.report.composition.n_good >= 5
        assert execution.report.documents_processed[1] < len(databases[0])

    def test_per_side_budgets(self, three_way):
        _, databases, extractors = three_way
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db), max_documents=20)
            for db, ex in zip(databases, extractors)
        ]
        execution = MultiwayIndependentJoin(sides).run()
        for i in range(1, 4):
            assert execution.report.documents_processed[i] == 20

    def test_resumable(self, three_way):
        _, databases, extractors = three_way
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db))
            for db, ex in zip(databases, extractors)
        ]
        join = MultiwayIndependentJoin(sides)
        first = join.run(QualityRequirement(tau_good=3, tau_bad=10**9))
        second = join.run(QualityRequirement(tau_good=30, tau_bad=10**9))
        assert (
            second.report.composition.n_good
            >= first.report.composition.n_good
        )

    def test_report_carries_the_state_composition(self, three_way):
        _, databases, extractors = three_way
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db))
            for db, ex in zip(databases, extractors)
        ]
        execution = MultiwayIndependentJoin(sides).run()
        report = execution.report
        composition = execution.state.composition
        assert composition.n_bad > 0
        assert report.composition == composition
        assert report.summary().startswith(
            f"good={composition.n_good} bad={composition.n_bad} time="
        )

    def test_retriever_validation(self, three_way):
        _, databases, extractors = three_way
        with pytest.raises(ValueError):
            MultiwaySide(
                databases[0], extractors[0], ScanRetriever(databases[1])
            )


class TestInterleavedNaryJoin:
    def test_advances_the_least_time_side_each_round(self, three_way):
        _, databases, extractors = three_way
        costs = [SideCosts(t_extract=e) for e in (1.0, 4.0, 9.0)]
        cap = 25
        sides = [
            MultiwaySide(db, ex, ScanRetriever(db), costs=c, max_documents=cap)
            for db, ex, c in zip(databases, extractors, costs)
        ]
        join = InterleavedNaryJoin(sides)
        stepped = []
        step = join._step

        def recording_step(side):
            session = join.session
            stepped.append(
                (side - 1, dict(session.side_time), dict(session.processed))
            )
            return step(side)

        join._step = recording_step
        execution = join.run(QualityRequirement(tau_good=10**9, tau_bad=10**9))
        for index, side_time, processed in stepped:
            open_sides = [i for i in range(3) if processed[i + 1] < cap]
            assert index == min(open_sides, key=lambda i: (side_time[i + 1], i))
        # Ties break on side order; then the cheap side runs ahead.
        order = [index for index, _, _ in stepped]
        assert order[:3] == [0, 1, 2]
        assert order[:6].count(0) > 2
        assert len(order) == 3 * cap
        assert execution.report.documents_processed == {1: cap, 2: cap, 3: cap}
        recount = execution.state.verify_composition()
        assert execution.state.composition == recount


class TestMultiwayModel:
    """The planner's composition model on the seeded star3 scenario."""

    @pytest.fixture(scope="class")
    def model_and_scenario(self):
        scenario = build_multiway_testbed().scenario("star3")
        model = GraphCompositionModel(scenario.graph, scenario.catalog())
        configs = {
            name: RelationConfig(name=name, theta=0.4, retrieval=RetrievalKind.SCAN)
            for name in scenario.graph.names
        }
        return model, configs, scenario

    def test_exact_at_full_coverage(self, model_and_scenario):
        model, configs, scenario = model_and_scenario
        total, good = model.compose(configs, model.balanced_efforts(configs, 1.0))
        environment = scenario.environment()
        sides = [
            MultiwaySide(
                environment.database(name),
                environment.extractor_at(name, 0.4),
                ScanRetriever(environment.database(name)),
            )
            for name in scenario.graph.names
        ]
        actual = MultiwayIndependentJoin(sides).run().state.composition
        assert good == pytest.approx(actual.n_good, rel=0.35)
        assert total == pytest.approx(actual.n_total, rel=0.35)

    def test_monotone_in_effort(self, model_and_scenario):
        model, configs, _ = model_and_scenario
        goods = [
            model.compose(configs, model.balanced_efforts(configs, fraction))[1]
            for fraction in (0.25, 0.5, 1.0)
        ]
        assert goods == sorted(goods)

    def test_balanced_effort_search(self, model_and_scenario):
        model, configs, _ = model_and_scenario
        _, full = model.compose(configs, model.balanced_efforts(configs, 1.0))
        target = max(1.0, full / 4)
        fraction = model.balanced_effort_fraction(configs, target)
        assert fraction is not None and fraction < 1.0
        _, good = model.compose(configs, model.balanced_efforts(configs, fraction))
        assert good >= target

    def test_unreachable_target(self, model_and_scenario):
        model, configs, _ = model_and_scenario
        assert model.balanced_effort_fraction(configs, 10**9) is None

    def test_time_accumulates_across_sides(self, model_and_scenario):
        model, configs, _ = model_and_scenario
        efforts = {name: 100 for name in configs}
        time = model.side_time(configs, efforts)
        assert time.total == pytest.approx(3 * 100 * 5)

    def test_effort_arity_checked(self, model_and_scenario):
        model, configs, _ = model_and_scenario
        with pytest.raises(KeyError):
            model.compose(configs, {"HQ": 10, "EX": 10})
