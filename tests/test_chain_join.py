"""Tests for chain joins: the chain form of the tree join state, and the
layer-by-layer chain DP that ``repro validate`` uses as a reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RelationSchema
from repro.core.types import ExtractedTuple
from repro.multiway import TreeEdge, TreeJoinState
from repro.validation.differential import chain_expected_composition

MG = RelationSchema("MG", ("Company", "MergedWith"))
EX = RelationSchema("EX", ("Company", "CEO"))
RES = RelationSchema("RES", ("CEO", "City"))
EDGES = [TreeEdge(0, "Company", 1, "Company"), TreeEdge(1, "CEO", 2, "CEO")]


def tup(rel, values, good, doc):
    return ExtractedTuple(rel, tuple(values), doc, 1.0, good)


def build_state():
    return TreeJoinState([MG, EX, RES], EDGES)


class TestChainJoinState:
    """The chain form of :class:`TreeJoinState` (one attribute per edge)."""

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            TreeJoinState([MG], [])
        with pytest.raises(ValueError):
            TreeJoinState([MG, EX], EDGES)  # wrong edge count
        with pytest.raises(ValueError):
            TreeJoinState(
                [MG, EX], [TreeEdge(0, "Nonexistent", 1, "Company")]
            )

    def test_simple_chain(self):
        state = build_state()
        state.add(1, [tup("MG", ("msft", "soft"), True, 1)])
        state.add(2, [tup("EX", ("msft", "ballmer"), True, 1)])
        assert state.composition.n_total == 0  # third layer empty
        state.add(3, [tup("RES", ("ballmer", "seattle"), True, 1)])
        assert state.composition.n_good == 1
        assert state.composition.n_bad == 0

    def test_bad_anywhere_poisons_chain(self):
        for bad_layer in (1, 2, 3):
            state = build_state()
            state.add(1, [tup("MG", ("m", "s"), bad_layer != 1, 1)])
            state.add(2, [tup("EX", ("m", "b"), bad_layer != 2, 1)])
            state.add(3, [tup("RES", ("b", "c"), bad_layer != 3, 1)])
            assert state.composition.n_good == 0
            assert state.composition.n_bad == 1

    def test_branching_multiplies(self):
        state = build_state()
        state.add(1, [tup("MG", ("m", f"s{i}"), True, i) for i in range(3)])
        state.add(2, [tup("EX", ("m", "b"), True, 1)])
        state.add(3, [tup("RES", ("b", f"c{i}"), True, i) for i in range(2)])
        assert state.composition.n_good == 3 * 1 * 2

    def test_edge_keys_must_match(self):
        state = build_state()
        state.add(1, [tup("MG", ("m", "s"), True, 1)])
        state.add(2, [tup("EX", ("other", "b"), True, 1)])
        state.add(3, [tup("RES", ("b", "c"), True, 1)])
        assert state.composition.n_total == 0

    def test_result_values_shape(self):
        state = build_state()
        state.add(1, [tup("MG", ("m", "s"), True, 1)])
        state.add(2, [tup("EX", ("m", "b"), True, 1)])
        state.add(3, [tup("RES", ("b", "c"), True, 1)])
        [result] = list(state.iter_results())
        assert [part.values for part in result.parts] == [
            ("m", "s"), ("m", "b"), ("b", "c")
        ]
        assert result.is_good

    def test_lazy_recompute(self):
        state = build_state()
        state.add(1, [tup("MG", ("m", "s"), True, 1)])
        state.add(2, [tup("EX", ("m", "b"), True, 1)])
        state.add(3, [tup("RES", ("b", "c"), True, 1)])
        first = state.composition
        assert state.composition is first  # unchanged until the next insert
        state.add(3, [tup("RES", ("b", "c2"), True, 2)])
        assert state.composition.n_good == 2

    @given(st.lists(
        st.tuples(
            st.integers(1, 3),
            st.sampled_from(["k1", "k2"]),
            st.sampled_from(["v1", "v2"]),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    ))
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_materialization(self, inserts):
        state = build_state()
        specs = {1: ("MG", MG), 2: ("EX", EX), 3: ("RES", RES)}
        for i, (side, a, b, good) in enumerate(inserts):
            name, _ = specs[side]
            # Layer 2 links layers 1 and 3: left key from layer 1's edge,
            # right key feeds layer 3's edge.
            state.add(side, [tup(name, (a, b), good, i)])
        recount = state.verify_composition()
        assert state.composition.n_good == recount.n_good
        assert state.composition.n_bad == recount.n_bad


class TestChainStarEquivalence:
    """A chain whose every edge uses the shared attribute is a star join:
    both states must count identically, and the generalized multiway
    executor must drive a chain state end to end."""

    def test_counts_match_star(self):
        HQ2 = RelationSchema("HQ", ("Company", "Location"))
        star = TreeJoinState.star([MG, EX, HQ2])
        chain = TreeJoinState(
            [MG, EX, HQ2],
            [
                TreeEdge(0, "Company", 1, "Company"),
                TreeEdge(1, "Company", 2, "Company"),
            ],
        )
        inserts = [
            (1, tup("MG", ("m", "s"), True, 1)),
            (1, tup("MG", ("n", "t"), False, 2)),
            (2, tup("EX", ("m", "b"), True, 1)),
            (2, tup("EX", ("m", "c"), False, 2)),
            (3, tup("HQ", ("m", "x"), True, 1)),
            (3, tup("HQ", ("n", "y"), True, 2)),
        ]
        for side, t in inserts:
            star.add(side, [t])
            chain.add(side, [t])
        assert chain.composition.n_good == star.composition.n_good
        assert chain.composition.n_bad == star.composition.n_bad

    def test_executor_drives_chain_state(self, mini_world, mini_db1, mini_db2,
                                          mini_extractor1, mini_extractor2):
        from repro.multiway import MultiwayIndependentJoin, MultiwaySide
        from repro.retrieval import ScanRetriever

        chain = TreeJoinState(
            [mini_world.schemas["HQ"], mini_world.schemas["EX"]],
            [TreeEdge(0, "Company", 1, "Company")],
        )
        sides = [
            MultiwaySide(mini_db1, mini_extractor1, ScanRetriever(mini_db1),
                         max_documents=60),
            MultiwaySide(mini_db2, mini_extractor2, ScanRetriever(mini_db2),
                         max_documents=60),
        ]
        execution = MultiwayIndependentJoin(sides, state=chain).run()
        assert execution.state is chain
        assert chain.composition.n_total > 0
        recount = chain.verify_composition()
        assert chain.composition.n_good == recount.n_good

    def test_arity_mismatch_rejected(self, mini_db1, mini_extractor1):
        from repro.multiway import MultiwayIndependentJoin, MultiwaySide
        from repro.retrieval import ScanRetriever

        chain = TreeJoinState([MG, EX, RES], EDGES)
        sides = [
            MultiwaySide(mini_db1, mini_extractor1, ScanRetriever(mini_db1)),
            MultiwaySide(mini_db1, mini_extractor1, ScanRetriever(mini_db1)),
        ]
        with pytest.raises(ValueError):
            MultiwayIndependentJoin(sides, state=chain)


class TestChainExpectedComposition:
    def test_matches_exact_on_point_masses(self):
        """With degenerate (variance-free) factors equal to exact counts,
        the expected DP reproduces the exact DP."""
        state = build_state()
        state.add(1, [tup("MG", ("m", "s"), True, 1),
                      tup("MG", ("m", "x"), False, 2)])
        state.add(2, [tup("EX", ("m", "b"), True, 1)])
        state.add(3, [tup("RES", ("b", "c"), True, 1)])
        # Per-layer (left key, right key) pairs from the joint-key counts.
        factor_pairs = [
            {(None,) + key: f for key, f in state.key_factors(1).items()},
            state.key_factors(2),
            {key + (None,): f for key, f in state.key_factors(3).items()},
        ]
        good, total = chain_expected_composition(factor_pairs)
        assert good == pytest.approx(state.composition.n_good)
        assert total == pytest.approx(state.composition.n_total)

    def test_fractional_factors(self):
        factor_pairs = [
            {(None, "k"): (2.0, 1.0)},
            {("k", "v"): (0.5, 0.5)},
            {("v", None): (4.0, 2.0)},
        ]
        good, total = chain_expected_composition(factor_pairs)
        assert total == pytest.approx(2.0 * 0.5 * 4.0)
        assert good == pytest.approx(1.0 * 0.5 * 2.0)

    def test_broken_chain_zero(self):
        factor_pairs = [
            {(None, "k"): (2.0, 1.0)},
            {("other", "v"): (1.0, 1.0)},
        ]
        good, total = chain_expected_composition(factor_pairs)
        assert good == 0.0 and total == 0.0
