"""Tests for the n-ary join planner subsystem.

Three layers are pinned here:

* **Join graphs** — every structural defect (cycle, dangling attribute,
  duplicate relation, disconnection) raises ``ValueError`` with a stable
  message, both from the typed constructors and the payload parser.
* **Enumeration** — a property test drives the Selinger DP against the
  brute-force reference (``all_trees`` + ``tree_cost``) over random
  seeded trees of up to four relations: the best plan must be
  byte-identical and its cost bit-equal, bushy and left-deep alike.
* **Planning** — the pruned and unpruned planner sweeps must choose the
  identical plan at the identical operating point on the seeded multiway
  scenarios, and every bound-pruned assignment must be infeasible in the
  unpruned reference (the tier-A soundness contract).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RetrievalKind
from repro.core.preferences import QualityRequirement
from repro.experiments import build_multiway_testbed
from repro.planner import (
    JoinEdge,
    JoinGraph,
    MultiwayPlanner,
    RelationNode,
    all_trees,
    best_tree,
    count_subplans,
    naive_left_deep_tree,
    tree_cost,
)
from repro.planner.enumerator import EnumerationTallies

HQ = RelationNode(name="HQ", attributes=("Company", "Location"))
EX = RelationNode(name="EX", attributes=("Company", "CEO"))
MG = RelationNode(name="MG", attributes=("Company", "MergedWith"))


def star3():
    return JoinGraph.star([HQ, EX, MG], "Company")


class TestRelationNode:
    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="lie in"):
            RelationNode(name="R", attributes=("a",), thetas=(1.5,))

    def test_rejects_bool_theta(self):
        with pytest.raises(ValueError, match="must be a number"):
            RelationNode(name="R", attributes=("a",), thetas=(True,))

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(ValueError, match="duplicate attributes"):
            RelationNode(name="R", attributes=("a", "a"))

    def test_rejects_join_driven_access_path(self):
        with pytest.raises(ValueError, match="unsupported access path"):
            RelationNode(
                name="R",
                attributes=("a",),
                access_paths=(RetrievalKind.JOIN_DRIVEN,),
            )


class TestJoinGraphValidation:
    def test_accepts_star_and_chain(self):
        assert star3().neighbours("HQ") == ("EX", "MG")
        chain = JoinGraph.chain(
            [MG, EX, HQ], [("Company", "Company"), ("CEO", "Company")]
        )
        assert chain.is_chain()

    def test_rejects_cycle(self):
        edges = (
            JoinEdge("HQ", "Company", "EX", "Company"),
            JoinEdge("EX", "Company", "MG", "Company"),
            JoinEdge("MG", "Company", "HQ", "Company"),
        )
        with pytest.raises(ValueError, match="exactly 2 edges"):
            JoinGraph((HQ, EX, MG), edges)

    def test_rejects_duplicate_relation(self):
        with pytest.raises(ValueError, match="duplicate relation"):
            JoinGraph(
                (HQ, HQ, EX),
                (
                    JoinEdge("HQ", "Company", "EX", "Company"),
                    JoinEdge("EX", "Company", "MG", "Company"),
                ),
            )

    def test_rejects_dangling_attribute(self):
        with pytest.raises(ValueError, match="dangling attribute"):
            JoinGraph(
                (HQ, EX),
                (JoinEdge("HQ", "Ticker", "EX", "Company"),),
            )

    def test_rejects_unknown_relation_in_edge(self):
        with pytest.raises(ValueError, match="unknown relation"):
            JoinGraph(
                (HQ, EX),
                (JoinEdge("HQ", "Company", "ZZ", "Company"),),
            )

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="with itself"):
            JoinEdge("HQ", "Company", "HQ", "Location")

    def test_rejects_duplicate_edge_cycle(self):
        # Two HQ--EX edges over three relations: right edge count but a
        # duplicate pair, leaving MG unreachable.
        with pytest.raises(ValueError, match="duplicate edge"):
            JoinGraph(
                (HQ, EX, MG),
                (
                    JoinEdge("HQ", "Company", "EX", "Company"),
                    JoinEdge("EX", "CEO", "HQ", "Location"),
                ),
            )

    def test_signature_is_order_insensitive_on_edges(self):
        a = star3()
        b = JoinGraph(
            (HQ, EX, MG),
            (
                JoinEdge("HQ", "Company", "MG", "Company"),
                JoinEdge("HQ", "Company", "EX", "Company"),
            ),
        )
        assert a.signature() == b.signature()


class TestPayloadParsing:
    def test_full_payload_round_trip(self):
        graph = JoinGraph.from_payload(
            {
                "relations": [
                    {
                        "name": "HQ",
                        "attributes": ["Company", "Location"],
                        "thetas": [0.4, 0.8],
                        "access_paths": ["SC", "FS"],
                    },
                    "EX",
                ],
                "edges": ["HQ.Company=EX.value"],
            }
        )
        assert graph.names == ("HQ", "EX")
        assert graph.relation("HQ").access_paths == (
            RetrievalKind.SCAN,
            RetrievalKind.FILTERED_SCAN,
        )
        assert graph.relation("EX").attributes == ("value",)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"relations": "HQ", "edges": []}, "'relations' must be a list"),
            ({"relations": ["HQ", "EX"], "edges": {}}, "'edges' must be a list"),
            (
                {"relations": ["HQ", "EX"], "edges": ["HQ=EX"]},
                "must look like",
            ),
            (
                {
                    "relations": [{"name": "HQ", "access_paths": ["SCAN"]}, "EX"],
                    "edges": ["HQ.value=EX.value"],
                },
                "is not one of",
            ),
            (
                {
                    "relations": [{"name": "HQ", "thetas": ["hot"]}, "EX"],
                    "edges": ["HQ.value=EX.value"],
                },
                "must be a number",
            ),
            (
                {"relations": ["HQ", "HQ"], "edges": ["HQ.value=HQ.value"]},
                "with itself",
            ),
            (
                {
                    "relations": [f"R{i}" for i in range(20)],
                    "edges": [f"R{i}.value=R{i+1}.value" for i in range(19)],
                },
                "at most",
            ),
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload, message):
        with pytest.raises(ValueError, match=message):
            JoinGraph.from_payload(payload)


# ---------------------------------------------------------------------------
# enumeration: DP vs brute force
# ---------------------------------------------------------------------------


def _random_tree_graph(n, parents):
    names = [f"R{i}" for i in range(n)]
    relations = tuple(
        RelationNode(name=name, attributes=("value",)) for name in names
    )
    edges = tuple(
        JoinEdge(names[parents[i - 1]], "value", names[i], "value")
        for i in range(1, n)
    )
    return JoinGraph(relations, edges)


def _seeded_sizes(seed):
    """A deterministic pseudo-random subset->size function (stable across
    processes: string seeds hash via SHA-512, not PYTHONHASHSEED)."""

    def size_of(subset):
        rng = random.Random(f"{seed}|{','.join(sorted(subset))}")
        return rng.uniform(0.5, 100.0)

    return size_of


@st.composite
def tree_cases(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    seed = draw(st.integers(0, 10**6))
    bushy = draw(st.booleans())
    return n, parents, seed, bushy


class TestEnumerator:
    @given(tree_cases())
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_brute_force(self, case):
        n, parents, seed, bushy = case
        graph = _random_tree_graph(n, parents)
        size_of = _seeded_sizes(seed)
        tallies = EnumerationTallies()
        tree, cost = best_tree(
            graph, size_of, t_join=0.1, bushy=bushy, tallies=tallies
        )
        reference = min(
            all_trees(graph, bushy=bushy),
            key=lambda t: (tree_cost(t, size_of, 0.1), t.describe()),
        )
        assert tree.describe() == reference.describe()
        assert cost == tree_cost(reference, size_of, 0.1)
        # The DP examined exactly the csg-cmp count the topology predicts.
        assert tallies.subplans == count_subplans(graph, bushy=bushy)

    @given(tree_cases())
    @settings(max_examples=60, deadline=None)
    def test_left_deep_never_beats_bushy(self, case):
        n, parents, seed, _ = case
        graph = _random_tree_graph(n, parents)
        size_of = _seeded_sizes(seed)
        _, bushy_cost = best_tree(graph, size_of, t_join=0.1, bushy=True)
        _, left_cost = best_tree(graph, size_of, t_join=0.1, bushy=False)
        assert bushy_cost <= left_cost + 1e-12

    def test_naive_left_deep_follows_graph_order(self):
        tree = naive_left_deep_tree(star3())
        assert tree.describe() == "((HQ * EX) * MG)"

    def test_naive_left_deep_skips_cross_products(self):
        chain = JoinGraph.chain(
            [MG, EX, HQ], [("Company", "Company"), ("CEO", "Company")]
        )
        # Order HQ first: EX is not adjacent... HQ--EX is; MG joins last.
        tree = naive_left_deep_tree(chain, order=("HQ", "MG", "EX"))
        assert tree.describe() == "((HQ * EX) * MG)"

    def test_naive_left_deep_rejects_partial_order(self):
        with pytest.raises(ValueError, match="every relation"):
            naive_left_deep_tree(star3(), order=("HQ", "EX"))


# ---------------------------------------------------------------------------
# planning: pruned vs unpruned identity on the seeded scenarios
# ---------------------------------------------------------------------------

#: per scenario: a meetable requirement, a bound-pruning requirement
#: (between the weak and strong assignments' tier-A ceilings), and an
#: unreachable one
REQUIREMENTS = {
    "star3": [(40, 120), (20000, 10**9), (10**9, 10**9)],
    "chain3": [(40, 250), (1000, 10**9), (10**9, 10**9)],
}


@pytest.fixture(scope="module", params=("star3", "chain3"))
def scenario(request):
    return build_multiway_testbed().scenario(request.param)


@pytest.fixture(scope="module")
def planner(scenario):
    return MultiwayPlanner(scenario.graph, scenario.catalog())


class TestMultiwayPlanner:
    def test_assignment_grid_is_the_full_cross_product(self, planner):
        per_relation = [
            len(node.thetas) * len(node.access_paths)
            for node in planner.graph.relations
        ]
        expected = 1
        for count in per_relation:
            expected *= count
        assert len(planner.assignments()) == expected

    def test_scenario_requirement_is_feasible(self, scenario, planner):
        result = planner.optimize(
            QualityRequirement(scenario.tau_good, scenario.tau_bad)
        )
        assert result.feasible
        assert result.chosen.good >= scenario.tau_good
        assert result.chosen.bad <= scenario.tau_bad
        summary = result.summary()
        assert summary["plan_space"] > 0
        assert summary["chosen"]["plan"] == result.chosen.plan.describe()

    def test_pruned_matches_unpruned_identically(self, scenario, planner):
        for tau_good, tau_bad in REQUIREMENTS[scenario.name]:
            requirement = QualityRequirement(tau_good, tau_bad)
            fast = planner.optimize(requirement, prune=True)
            slow = planner.optimize(requirement, prune=False)
            label = f"{scenario.name}@tg{tau_good}"
            if slow.chosen is None:
                assert fast.chosen is None, label
                continue
            assert fast.chosen is not None, label
            # Byte-identical plan at the identical operating point.
            assert fast.chosen.plan.describe() == slow.chosen.plan.describe()
            assert fast.chosen.effort_fraction == slow.chosen.effort_fraction
            assert fast.chosen.good == slow.chosen.good
            assert fast.chosen.bad == slow.chosen.bad
            assert fast.chosen.total_time == slow.chosen.total_time

    def test_bound_pruned_assignments_are_infeasible_in_reference(
        self, scenario, planner
    ):
        tau_good, tau_bad = REQUIREMENTS[scenario.name][1]
        requirement = QualityRequirement(tau_good, tau_bad)
        fast = planner.optimize(requirement, prune=True)
        slow = planner.optimize(requirement, prune=False)
        assert fast.tallies.assignments_pruned_bound > 0
        assert fast.tallies.subplans_pruned_bound > 0
        # Assignments enumerate in deterministic order, so evaluations align.
        pruned_checked = 0
        for pruned, reference in zip(fast.evaluations, slow.evaluations):
            if not pruned.pruned:
                continue
            pruned_checked += 1
            assert not reference.feasible
        assert pruned_checked == fast.tallies.assignments_pruned_bound

    def test_pruning_skips_work_but_counts_it(self, scenario, planner):
        tau_good, tau_bad = REQUIREMENTS[scenario.name][1]
        fast = planner.optimize(QualityRequirement(tau_good, tau_bad))
        tallies = fast.tallies
        assert tallies.subplans_total == tallies.plan_space
        assert 0.0 < tallies.pruned_fraction <= 1.0

    def test_naive_baseline_is_never_faster(self, scenario, planner):
        requirement = QualityRequirement(scenario.tau_good, scenario.tau_bad)
        chosen = planner.optimize(requirement).chosen
        naive = planner.naive_evaluation(requirement)
        assert naive is not None
        assert chosen.total_time <= naive.total_time + 1e-9

    def test_frontier_sweeps_requirements(self, scenario, planner):
        points = planner.frontier(
            [scenario.tau_good // 2, scenario.tau_good], scenario.tau_bad
        )
        assert [tau for tau, _ in points] == [
            scenario.tau_good // 2,
            scenario.tau_good,
        ]
        assert all(result.feasible for _, result in points)

    def test_rejects_negative_margin(self, scenario):
        with pytest.raises(ValueError, match="margin"):
            MultiwayPlanner(
                scenario.graph, scenario.catalog(), feasibility_margin=-0.1
            )
