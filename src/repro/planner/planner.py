"""The n-ary join planner.

``MultiwayPlanner.optimize`` searches two nested spaces:

1. **Assignments** — the cross product of every relation's theta grid
   and allowed access paths (deterministic order).  Each assignment is
   first screened against its tier-A quality ceiling (``model.bounds``):
   if even the ρ=1 factor caps cannot compose to the target, the whole
   assignment — and every join order under it — is pruned without a
   single effort-curve evaluation.
2. **Join orders** — for surviving assignments, the balanced operating
   point t* is found by bisection.  An assignment that cannot reach τg,
   or exceeds τb at t*, is infeasible and never ordered.  For the rest,
   per-subset intermediate sizes are evaluated at t* and the Selinger
   DP picks the cheapest join tree of any shape; the fully-interleaved n-ary
   strategy is costed as one more candidate.

Both spaces are searched for every assignment at once: one kernel call
composes all tier-A ceilings, the bisections run in lockstep (one call
per depth for every assignment still bisecting), and the DP's
intermediates are composed one subset at a time for every assignment
to be ordered.  Every composition is read from the model's memoized
effort curves, which do not depend on the requirement: a planner kept
across requests (one per plan-cache entry in the service) composes each
curve point once, and a repeated requirement composes nothing.

The ordering memo does the same for join orders.  The DP's tree and
tallies, the side time and both strategies' join times and
intermediates depend on the operating point (assignment, fraction)
alone, and the fraction on τg alone; τb enters only the feasibility
test.  So the planner orders each (assignment index, fraction) once,
and a requirement whose τg was seen before runs no DP.  Each
requirement is still charged the DP's tallies for every assignment it
orders, so its ``PlannerTallies`` match a fresh planner's.  Like the
curve memo, it is mutated only inside ``optimize``, which the service
calls under the plan cache's lock.

Pruning never changes the outcome: a bound-pruned assignment cannot
reach τg at any effort, so exhaustive enumeration rejects it as
infeasible too.  The exhaustive reference — no tier-A screen, every
assignment ordered by the DP — is
:class:`repro.validation.differential.ExhaustiveMultiwayPlanner`;
``repro validate``, the tests and ``benchmarks/bench_planner.py`` check
that it chooses the byte-identical plan.
"""

from __future__ import annotations

import dataclasses
import itertools
import time as _time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.preferences import QualityRequirement
from ..joins.costs import SideCosts
from .catalog import PlannerCatalog
from .enumerator import (
    EnumerationTallies,
    best_tree,
    count_subplans,
    join_subsets,
    naive_left_deep_tree,
)
from .graph import JoinGraph
from .model import DEFAULT_T_JOIN, GraphBounds, GraphCompositionModel
from .plan import (
    ExecutionStrategy,
    MultiwayPlan,
    PlannedEvaluation,
    RelationConfig,
)


@dataclass
class PlannerTallies:
    """Search-space accounting for one ``optimize`` call."""

    assignments: int = 0
    assignments_pruned_bound: int = 0
    assignments_infeasible_good: int = 0
    assignments_infeasible_bad: int = 0
    subplans_enumerated: int = 0
    subplans_pruned_bound: int = 0
    subplans_skipped_infeasible: int = 0
    subplans_dominated: int = 0
    plan_space: int = 0

    @property
    def subplans_total(self) -> int:
        return (
            self.subplans_enumerated
            + self.subplans_pruned_bound
            + self.subplans_skipped_infeasible
        )

    @property
    def pruned_fraction(self) -> float:
        total = self.subplans_total
        return self.subplans_pruned_bound / total if total else 0.0

    def as_counters(self) -> Dict[str, float]:
        return {
            "planner_assignments": float(self.assignments),
            "planner_assignments_pruned_bound": float(self.assignments_pruned_bound),
            "planner_assignments_infeasible_good": float(self.assignments_infeasible_good),
            "planner_assignments_infeasible_bad": float(self.assignments_infeasible_bad),
            "planner_subplans_enumerated": float(self.subplans_enumerated),
            "planner_subplans_pruned_bound": float(self.subplans_pruned_bound),
            "planner_subplans_skipped_infeasible": float(self.subplans_skipped_infeasible),
            "planner_subplans_dominated": float(self.subplans_dominated),
            "planner_plan_space": float(self.plan_space),
        }


@dataclass
class PlannerResult:
    """Outcome of one planning run."""

    graph: JoinGraph
    requirement: QualityRequirement
    chosen: Optional[PlannedEvaluation]
    evaluations: List[PlannedEvaluation]
    tallies: PlannerTallies
    elapsed: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.chosen is not None

    def summary(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "graph": self.graph.describe(),
            "signature": self.graph.signature(),
            "tau_good": self.requirement.tau_good,
            "tau_bad": self.requirement.tau_bad,
            "feasible": self.feasible,
            "plan_space": self.tallies.plan_space,
            "subplans_enumerated": self.tallies.subplans_enumerated,
            "subplans_pruned": self.tallies.subplans_pruned_bound,
            "pruned_fraction": round(self.tallies.pruned_fraction, 6),
            "elapsed": round(self.elapsed, 6),
        }
        if self.chosen is not None:
            body["chosen"] = self.chosen.summary()
        return body


@dataclass(frozen=True)
class _Ordering:
    """The requirement-independent verdict on one ordered operating point.

    The cheaper strategy's evaluation (tree from the DP, side and join
    times, intermediates) and the DP's tallies; τb enters only the
    feasibility test.
    """

    best: PlannedEvaluation
    subplans: int
    dominated: int

    def evaluation(self, reason: str, tallies: PlannerTallies) -> PlannedEvaluation:
        """The evaluation for one requirement, charging the DP's tallies."""
        tallies.subplans_enumerated += self.subplans
        tallies.subplans_dominated += self.dominated
        return dataclasses.replace(
            self.best,
            feasible=not reason,
            reason=reason,
            efforts=dict(self.best.efforts),
        )


class MultiwayPlanner:
    """DP join-order planner over one join graph."""

    def __init__(
        self,
        graph: JoinGraph,
        catalog: PlannerCatalog,
        costs: Optional[Mapping[str, SideCosts]] = None,
        t_join: float = DEFAULT_T_JOIN,
        feasibility_margin: float = 0.0,
        clock=_time.perf_counter,
    ) -> None:
        if feasibility_margin < 0:
            raise ValueError("feasibility margin must be non-negative")
        self.graph = graph
        self.catalog = catalog
        self.model = GraphCompositionModel(graph, catalog, costs=costs, t_join=t_join)
        self.feasibility_margin = feasibility_margin
        self._clock = clock
        self._structure_count: Optional[int] = None
        #: the naive left-deep tree: the placeholder of every assignment
        #: the DP never orders
        self._left_deep_tree = naive_left_deep_tree(graph)
        #: curve-memo index → (assignment, configs by name), in
        #: :meth:`assignments` order
        self._registry: Dict[
            int, Tuple[Tuple[RelationConfig, ...], Dict[str, RelationConfig]]
        ] = {}
        for assignment in self.assignments():
            configs = {config.name: config for config in assignment}
            self._registry[self.model.assignment_index(configs)] = (
                assignment,
                configs,
            )
        #: the subsets the join-order DP prices
        self._join_subsets = join_subsets(graph)
        #: (assignment index, fraction) → the ordering at that point
        self._orderings: Dict[Tuple[int, float], _Ordering] = {}

    # ------------------------------------------------------------------

    def assignments(self) -> List[Tuple[RelationConfig, ...]]:
        """Every theta × access-path assignment, in deterministic order."""
        per_relation = [
            [
                RelationConfig(name=node.name, theta=theta, retrieval=kind)
                for theta in node.thetas
                for kind in node.access_paths
            ]
            for node in self.graph.relations
        ]
        return [tuple(combo) for combo in itertools.product(*per_relation)]

    def structure_count(self) -> int:
        """Subplans the DP examines per assignment (counted once)."""
        if self._structure_count is None:
            self._structure_count = count_subplans(self.graph)
        return self._structure_count

    def target_good(self, requirement: QualityRequirement) -> float:
        return requirement.tau_good * (1.0 + self.feasibility_margin)

    # ------------------------------------------------------------------

    def optimize(self, requirement: QualityRequirement) -> PlannerResult:
        started = self._clock()
        tallies = PlannerTallies(assignments=len(self._registry))
        evaluations = self._evaluate(requirement, tallies)
        tallies.plan_space = tallies.assignments * self.structure_count()
        feasible = [e for e in evaluations if e.feasible]
        chosen = (
            min(feasible, key=lambda e: (e.total_time, e.plan.describe()))
            if feasible
            else None
        )
        return PlannerResult(
            graph=self.graph,
            requirement=requirement,
            chosen=chosen,
            evaluations=evaluations,
            tallies=tallies,
            elapsed=self._clock() - started,
        )

    def _evaluate(
        self, requirement: QualityRequirement, tallies: PlannerTallies
    ) -> List[PlannedEvaluation]:
        """Screen every assignment and order the feasible ones.

        Only a feasible assignment is ordered: one that fails the tier-A
        bound, cannot reach τg, or exceeds τb at its balanced operating
        point is reported with the left-deep placeholder tree and its
        subplans are counted without being enumerated.  The ceilings,
        each bisection depth and each DP subset are composed for every
        assignment at once.
        """
        model = self.model
        target = self.target_good(requirement)
        structure = self.structure_count()
        ceilings = dict(
            zip(self._registry, model.curve_points([(i, None) for i in self._registry]))
        )
        survivors = [
            index
            for index, (total, good) in ceilings.items()
            if not GraphBounds(good, total).cannot_reach(target)
        ]
        fractions = dict(
            zip(survivors, model.balanced_effort_fractions(survivors, target))
        )
        evaluations: List[PlannedEvaluation] = []
        # (position in evaluations, operating point) of each feasible
        # assignment, ordered once the loop has found them all
        feasible: List[Tuple[int, Tuple[int, float]]] = []
        for index, (assignment, configs) in self._registry.items():
            if index not in fractions:
                tallies.assignments_pruned_bound += 1
                tallies.subplans_pruned_bound += structure
                evaluations.append(
                    PlannedEvaluation(
                        plan=self._unordered_plan(assignment),
                        feasible=False,
                        pruned=True,
                        reason="bound",
                        bound_good=ceilings[index][1],
                    )
                )
                continue
            fraction, reason = fractions[index], ""
            if fraction is None:
                tallies.assignments_infeasible_good += 1
                fraction, reason = 1.0, "tau_good"
            total, good = model.curve_point(index, fraction)
            if not reason and total - good > requirement.tau_bad:
                tallies.assignments_infeasible_bad += 1
                reason = "tau_bad"
            if not reason:
                feasible.append((len(evaluations), (index, fraction)))
                evaluations.append(None)
                continue
            tallies.subplans_skipped_infeasible += structure
            evaluations.append(
                PlannedEvaluation(
                    plan=self._unordered_plan(assignment),
                    feasible=False,
                    reason=reason,
                    effort_fraction=fraction,
                    efforts=model.balanced_efforts(configs, fraction),
                    good=good,
                    bad=total - good,
                )
            )
        self._order([point for _, point in feasible])
        for position, point in feasible:
            evaluations[position] = self._orderings[point].evaluation("", tallies)
        return evaluations

    def _unordered_plan(self, assignment: Tuple[RelationConfig, ...]) -> MultiwayPlan:
        """The plan of an assignment the DP never orders (left-deep placeholder)."""
        return MultiwayPlan(
            strategy=ExecutionStrategy.PIPELINE,
            configs=assignment,
            tree=self._left_deep_tree,
        )

    def _order(self, points: Sequence[Tuple[int, float]]) -> None:
        """Order every (assignment index, fraction) not yet in the memo.

        The join tree, the DP tallies, the side time and both
        strategies' join times and intermediates do not depend on the
        requirement, so a requirement that revisits an operating point
        runs no DP.  The intermediates of the new points are composed
        one subset at a time, each for all of them in one kernel call.
        """
        model = self.model
        missing = [point for point in points if point not in self._orderings]
        for subset in self._join_subsets:
            model.curve_points(missing, subset)
        for index, fraction in missing:
            assignment, configs = self._registry[index]

            def size_of(subset: FrozenSet[str]) -> float:
                return model.curve_point(index, fraction, subset)[0]

            enumeration = EnumerationTallies()
            tree, _ = best_tree(self.graph, size_of, model.t_join, tallies=enumeration)
            efforts = model.balanced_efforts(configs, fraction)
            total, good = model.curve_point(index, fraction)
            side_time = model.side_time(configs, efforts).total
            candidates: List[PlannedEvaluation] = []
            for strategy, shaped in (
                (ExecutionStrategy.PIPELINE, tree),
                (ExecutionStrategy.INTERLEAVED, None),
            ):
                plan = MultiwayPlan(strategy=strategy, configs=assignment, tree=shaped)
                join_time, intermediates = model.join_time(
                    plan, configs, efforts, size_of=size_of
                )
                candidates.append(
                    PlannedEvaluation(
                        plan=plan,
                        feasible=True,
                        effort_fraction=fraction,
                        efforts=efforts,
                        good=good,
                        bad=total - good,
                        side_time=side_time,
                        join_time=join_time,
                        intermediates=intermediates,
                    )
                )
            self._orderings[(index, fraction)] = _Ordering(
                best=min(candidates, key=lambda e: (e.total_time, e.plan.describe())),
                subplans=enumeration.subplans,
                dominated=enumeration.dominated,
            )

    # ------------------------------------------------------------------

    def frontier(
        self,
        tau_goods: Sequence[int],
        tau_bad: int,
    ) -> List[Tuple[int, PlannerResult]]:
        """Planning results across a sweep of τg targets."""
        return [
            (tau_good, self.optimize(QualityRequirement(tau_good, tau_bad)))
            for tau_good in tau_goods
        ]
