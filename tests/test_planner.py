"""Tests for the n-ary join planner subsystem.

Three layers are pinned here:

* **Join graphs** — every structural defect (cycle, dangling attribute,
  duplicate relation, disconnection) raises ``ValueError`` with a stable
  message, both from the typed constructors and the payload parser.
* **Enumeration** — a property test drives the Selinger DP against the
  brute-force reference (``all_trees`` + ``tree_cost``) over random
  seeded trees of up to four relations: the best plan must be
  byte-identical and its cost bit-equal.
* **Planning** — the pruned planner and the exhaustive reference
  (``ExhaustiveMultiwayPlanner``) must choose the identical plan at the
  identical operating point on the seeded multiway scenarios, and every
  bound-pruned assignment must be infeasible in the exhaustive run (the
  tier-A soundness contract).
* **Composition** — the array kernel equals the per-key dict reference
  exactly over random trees, and the planner composes each point of an
  assignment's effort curve once, whatever the requirement.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys

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
    best_tree,
    count_subplans,
    naive_left_deep_tree,
)
from repro.planner import compose_factors
from repro.planner.enumerator import EnumerationTallies
from repro.planner.model import GraphCompositionModel
from repro.planner.plan import RelationConfig
from repro.validation.differential import (
    ExhaustiveMultiwayPlanner,
    all_trees,
    naive_evaluation,
    reference_compose_factors,
    tree_cost,
)

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
    return n, parents, seed


class TestEnumerator:
    @given(tree_cases())
    @settings(max_examples=120, deadline=None)
    def test_dp_matches_brute_force(self, case):
        n, parents, seed = case
        graph = _random_tree_graph(n, parents)
        size_of = _seeded_sizes(seed)
        tallies = EnumerationTallies()
        tree, cost = best_tree(graph, size_of, t_join=0.1, tallies=tallies)
        reference = min(
            all_trees(graph),
            key=lambda t: (tree_cost(t, size_of, 0.1), t.describe()),
        )
        assert tree.describe() == reference.describe()
        assert cost == tree_cost(reference, size_of, 0.1)
        # The DP examined exactly the csg-cmp count the topology predicts.
        assert tallies.subplans == count_subplans(graph)

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
# planning: pruned vs exhaustive identity on the seeded scenarios
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


@pytest.fixture(scope="module")
def exhaustive(scenario):
    return ExhaustiveMultiwayPlanner(scenario.graph, scenario.catalog())


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

    def test_pruned_matches_unpruned_identically(
        self, scenario, planner, exhaustive
    ):
        for tau_good, tau_bad in REQUIREMENTS[scenario.name]:
            requirement = QualityRequirement(tau_good, tau_bad)
            fast = planner.optimize(requirement)
            slow = exhaustive.optimize(requirement)
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
        self, scenario, planner, exhaustive
    ):
        tau_good, tau_bad = REQUIREMENTS[scenario.name][1]
        requirement = QualityRequirement(tau_good, tau_bad)
        fast = planner.optimize(requirement)
        slow = exhaustive.optimize(requirement)
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
        naive = naive_evaluation(planner, requirement)
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


# ---------------------------------------------------------------------------
# composition: the array kernel vs the dict reference, and the curve memo
# ---------------------------------------------------------------------------


def _kernel_case_graph(n, parents, attributes):
    """A tree where edge i joins R{parents[i-1]} and R{i} on attributes[i-1]."""
    names = [f"R{i}" for i in range(n)]
    used = {name: [] for name in names}
    for i in range(1, n):
        for name in (names[parents[i - 1]], names[i]):
            if attributes[i - 1] not in used[name]:
                used[name].append(attributes[i - 1])
    relations = tuple(
        RelationNode(name=name, attributes=tuple(used[name]) + ("payload",))
        for name in names
    )
    edges = tuple(
        JoinEdge(names[parents[i - 1]], attributes[i - 1], names[i], attributes[i - 1])
        for i in range(1, n)
    )
    return JoinGraph(relations, edges)


def _seeded_factors(seed, empty):
    """factors_for over any (relation, attributes): seeded, process-stable.

    Values mix a shared alphabet with values only one relation carries,
    a few keys have all-zero factors, *empty* relations have none at all,
    and each relation's factors are either all ints or all floats.
    """

    def factors_for(name, attributes):
        if name in empty:
            return {}
        rng = random.Random(f"{seed}|{name}|{','.join(attributes)}")
        integral = rng.random() < 0.5
        factors = {}
        for k in range(rng.randrange(1, 9)):
            key = tuple(
                rng.choice("pqr") if rng.random() < 0.8 else f"{name}-only-{k}"
                for _ in attributes
            )
            if integral:
                good = rng.randrange(0, 4)
                total = good + rng.randrange(0, 4)
            else:
                total = rng.uniform(0.0, 5.0)
                good = total * rng.random()
            if rng.random() < 0.1:
                total = good = 0
            factors[key] = (total, good)
        return factors

    return factors_for


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    attributes = [draw(st.sampled_from(("x", "z"))) for _ in range(1, n)]
    empty = draw(st.sets(st.sampled_from([f"R{i}" for i in range(n)]), max_size=1))
    seed = draw(st.integers(0, 10**6))
    return n, parents, attributes, empty, seed


def _connected_subsets(graph):
    names = graph.names
    for size in range(1, len(names) + 1):
        for combo in itertools.combinations(names, size):
            subset = frozenset(combo)
            if size == 1 or graph.subset_connected(subset):
                yield subset


class TestCompositionKernel:
    """``compose_factors`` (np.bincount kernel) == the per-key dict DP."""

    def _assert_matches_reference(self, graph, factors_for):
        for subset in _connected_subsets(graph):
            kernel = compose_factors(graph, subset, factors_for)
            reference = reference_compose_factors(graph, subset, factors_for)
            assert kernel == reference, sorted(subset)

    @given(kernel_cases())
    @settings(max_examples=120, deadline=None)
    def test_random_trees_match_reference_exactly(self, case):
        n, parents, attributes, empty, seed = case
        graph = _kernel_case_graph(n, parents, attributes)
        self._assert_matches_reference(graph, _seeded_factors(seed, empty))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("empty", [(), ("R3",), ("R1",)])
    def test_degree_three_node_keyed_on_two_attributes(self, seed, empty):
        # R1 joins R0 and R2 on x and R3 on z: degree 3, keyed on (x, z).
        graph = _kernel_case_graph(4, [0, 1, 1], ["x", "x", "z"])
        assert graph.relation("R1").attributes[:2] == ("x", "z")
        assert len(graph.incident("R1")) == 3
        self._assert_matches_reference(graph, _seeded_factors(seed, set(empty)))

    def test_scenario_model_matches_reference_exactly(self, scenario):
        """One batch mixing assignments and fractions: every row equals its
        one-row composition and the dict reference, bit for bit."""
        graph = scenario.graph
        model = GraphCompositionModel(graph, scenario.catalog())
        assignments = MultiwayPlanner(graph, scenario.catalog()).assignments()
        fractions = (None, 1.0, 0.5, 0.3, 0.75, 0.375, 0.0625, 0.99993896484375)
        rows = []
        for k, assignment in enumerate(assignments[::3]):
            configs = {config.name: config for config in assignment}
            fraction = fractions[k % len(fractions)]
            efforts = (
                None if fraction is None else model.balanced_efforts(configs, fraction)
            )
            rows.append((configs, efforts))
        assert len({tuple(c.values()) for c, _ in rows}) == len(rows) > len(fractions)
        for subset in _connected_subsets(graph):
            total, good = model.compose_rows(rows, subset)
            for row, (configs, efforts) in enumerate(rows):
                expected = reference_compose_factors(
                    graph,
                    subset,
                    lambda name, attributes: model.key_factors(
                        configs[name],
                        attributes,
                        None if efforts is None else efforts[name],
                    ),
                )
                assert model.compose(configs, efforts, subset) == expected
                assert (float(total[row]), float(good[row])) == expected


class TestCurveMemo:
    """The effort curves are requirement-independent and built once."""

    @staticmethod
    def _record_compositions(planner, monkeypatch):
        """One entry per composed row of the batched kernel."""
        rows_composed = []
        compose_rows = planner.model.compose_rows

        def counting(rows, subset=None):
            rows_composed.extend(
                (
                    tuple(configs[name] for name in planner.graph.names),
                    None if efforts is None else tuple(sorted(efforts.items())),
                    subset,
                )
                for configs, efforts in rows
            )
            return compose_rows(rows, subset)

        monkeypatch.setattr(planner.model, "compose_rows", counting)
        return rows_composed

    def test_repeated_requirement_composes_nothing(
        self, scenario, exhaustive, monkeypatch
    ):
        planner = MultiwayPlanner(scenario.graph, scenario.catalog())
        requirement = QualityRequirement(scenario.tau_good, scenario.tau_bad)
        first = planner.optimize(requirement)
        calls = self._record_compositions(planner, monkeypatch)
        again = planner.optimize(requirement)
        assert calls == []
        assert repr(again.evaluations) == repr(first.evaluations)
        assert exhaustive.optimize(requirement).chosen == first.chosen

    def test_seen_tau_good_with_new_tau_bad_orders_nothing(
        self, scenario, monkeypatch
    ):
        planner = MultiwayPlanner(scenario.graph, scenario.catalog())
        loose = planner.optimize(QualityRequirement(scenario.tau_good, 10**9))
        bads = sorted(e.bad for e in loose.evaluations if e.feasible)
        trees = []
        monkeypatch.setattr(
            "repro.planner.planner.best_tree",
            lambda *args, **kwargs: trees.append(args) or best_tree(*args, **kwargs),
        )
        calls = self._record_compositions(planner, monkeypatch)
        # A τb at the median bad count: about half the assignments ordered
        # under the loose τb become τb-infeasible.
        requirement = QualityRequirement(scenario.tau_good, int(bads[len(bads) // 2]))
        warm = planner.optimize(requirement)
        assert trees == [] and calls == []
        assert 0 < warm.tallies.assignments_infeasible_bad < len(bads)
        assert warm.chosen is not None
        fresh = MultiwayPlanner(scenario.graph, scenario.catalog())
        assert repr(warm.evaluations) == repr(fresh.optimize(requirement).evaluations)

    def test_frontier_composes_each_curve_point_once(self, scenario, monkeypatch):
        planner = MultiwayPlanner(scenario.graph, scenario.catalog())
        calls = self._record_compositions(planner, monkeypatch)
        levels = [scenario.tau_good * k // 4 for k in (1, 2, 3, 4)]
        sweep = planner.frontier(levels, scenario.tau_bad)
        assert len(calls) == len(set(calls))
        curve_points = {(a, e) for a, e, subset in calls if subset is None}
        assert len(curve_points) == sum(1 for *_, subset in calls if subset is None)
        full = frozenset(scenario.graph.names)
        assert all(subset != full for *_, subset in calls)
        # Sharing: four levels cost fewer compositions than four cold runs.
        cold = MultiwayPlanner(scenario.graph, scenario.catalog())
        cold_calls = self._record_compositions(cold, monkeypatch)
        cold.optimize(QualityRequirement(levels[-1], scenario.tau_bad))
        assert len(calls) < 4 * len(cold_calls)
        fresh = MultiwayPlanner(scenario.graph, scenario.catalog())
        for tau_good, result in sweep:
            reference = fresh.optimize(QualityRequirement(tau_good, scenario.tau_bad))
            assert repr(result.evaluations) == repr(reference.evaluations)


#: plans star3 exhaustively at two levels and prints every evaluation
#: (the plan as its description: a join tree's repr shows frozensets,
#: whose element order follows the string hash seed)
_HASH_SEED_PROBE = """
import dataclasses
from repro.core.preferences import QualityRequirement
from repro.experiments import build_multiway_testbed
from repro.validation.differential import ExhaustiveMultiwayPlanner

scenario = build_multiway_testbed().scenario("star3")
planner = ExhaustiveMultiwayPlanner(
    scenario.graph, scenario.catalog(), feasibility_margin=0.3
)
for tau_good in (10, 40):
    result = planner.optimize(QualityRequirement(tau_good, 120))
    for evaluation in result.evaluations:
        described = dataclasses.replace(evaluation, plan=evaluation.plan.describe())
        print(repr(described))
"""


def test_evaluations_do_not_depend_on_the_hash_seed():
    """Two processes with different string hash seeds plan identically.

    Key tables are built in sorted key order, so every sum over keys
    runs in the same order whatever ``PYTHONHASHSEED`` is.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count("PlannedEvaluation") == 128
    assert outputs[0] == outputs[1]


#: simulates star3 at a mid operating point and prints the summary
_SIMULATION_HASH_SEED_PROBE = """
from repro.core.plan import RetrievalKind
from repro.experiments import build_multiway_testbed
from repro.planner import MultiwayPlanner, RelationConfig, simulate_composition

scenario = build_multiway_testbed().scenario("star3")
model = MultiwayPlanner(scenario.graph, scenario.catalog()).model
configs = {
    name: RelationConfig(name=name, theta=0.4, retrieval=RetrievalKind.SCAN)
    for name in scenario.graph.names
}
efforts = model.balanced_efforts(configs, 0.6)
print(repr(simulate_composition(model, configs, efforts, samples=50, seed=3)))
"""


def test_simulation_does_not_depend_on_the_hash_seed():
    """Two processes with different string hash seeds draw identically.

    The simulator hands its random draws to the join keys in sorted
    order, so each key gets the same draw whatever ``PYTHONHASHSEED`` is.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", _SIMULATION_HASH_SEED_PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].startswith("SimulationSummary(")
    assert outputs[0] == outputs[1]
