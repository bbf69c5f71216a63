"""Plan caching across serving requests.

A *plan space* answers any (τg, τb) requirement over statistics fixed
when it was built: the binary :class:`~repro.optimizer.optimizer.JoinOptimizer`
over one task's plan list (each requirement answered by the bound-pruned
descent over memoized model probes), or the n-ary
:class:`~repro.planner.planner.MultiwayPlanner` over one join graph
(memoized effort curves and structure counts).  A serving front end should
never rebuild a space whose statistics have not changed — and must never
reuse one whose statistics have.

:class:`PlanCache` stores :class:`PlanSpace` entries keyed on
``(plan-space identity, statistics generation, unavailable access paths)``:

* the **identity** is the binary task signature (databases, extractors,
  pilot θ) or a join graph's plan-space key (graph signature plus each
  relation's θ grid and access paths);
* the **generation** is the statistics store's monotone mutation counter —
  any recorded run or fingerprint invalidation bumps it, so cached plans
  chosen under superseded statistics are unreachable by construction;
* the **paths** list binary access paths currently unavailable (breakers
  open, degradation in effect), so a plan chosen while all were healthy
  is never served while one is dead, and the service builds such a
  key's space over the surviving plans only; n-ary keys leave it empty.

Within one live key the cache memoizes each requirement's answer, so a
repeated (space, τg, τb) costs a dict lookup.  Each entry also keeps the
*answer journal* both kinds persist: :func:`journal_key` → the answer's
:meth:`PlanSpace.facts`, one line per requirement it answered.  An
answer is a pure function of (space, generation, requirement), so the
journal is all a restarted service needs to reply again without
planning.  Tallies already published as metrics, the journal and how
much of it was last exported live on the entry, so eviction drops that
state together with the space.

Each space also holds ``trajectories``: per executed plan, its longest
recorded run (:mod:`repro.joins.trajectory`), which answers later
executes that stop on it.  Like the binary space's pilot memo it
describes the key's generation only, so it dies with the space.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..core.plan import JoinPlanSpec
from ..core.preferences import QualityRequirement
from ..joins.trajectory import Trajectory
from ..optimizer.optimizer import JoinOptimizer, OptimizationResult
from ..planner.plan import MultiwayPlan
from ..planner.planner import MultiwayPlanner, PlannerResult

#: one counter increment: (metric name, labels, amount)
Sample = Tuple[str, Dict[str, str], int]


class PlanSpace(Protocol):
    """A requirement-independent planner as the plan cache stores it."""

    def answer(self, requirement: QualityRequirement) -> Any:
        """Plan *requirement*; the result :meth:`facts` describes."""

    def tallies(self) -> Dict[str, int]:
        """Search tallies summed over every answer (monotone)."""

    def facts(self, result: Any) -> Dict[str, Any]:
        """*result* as a response body, without task, mode and τ (what
        the answer journal holds)."""

    def samples(self, delta: Dict[str, int]) -> List[Sample]:
        """The metric increments a growth of :meth:`tallies` stands for."""


class BinaryPlanSpace:
    """The binary optimizer over one task's plans.

    It also memoizes the warm execute path's restored pilot and its
    refit (:attr:`pilot`), each requirement's cross-validation verdict on
    that pilot (:attr:`verdicts`) and the recorded run of each executed
    plan (:attr:`trajectories`), so a store write, which changes the key,
    can never serve a stale one, and eviction drops them with the entry.
    """

    def __init__(
        self, optimizer: JoinOptimizer, plans: Sequence[JoinPlanSpec]
    ) -> None:
        self.optimizer = optimizer
        self.plans = list(plans)
        #: this generation's stored pilot as the adaptive driver restored
        #: it, with its refit (a read-only ``PilotMemo``), set by the
        #: first fully-warm run
        self.pilot: Optional[Any] = None
        #: requirement -> whether value-split halves of that pilot agree
        #: with this space's choice (the driver's cross-validation)
        self.verdicts: Dict[QualityRequirement, bool] = {}
        #: plan -> its longest recorded warm execute (DESIGN §6.4)
        self.trajectories: Dict[JoinPlanSpec, Trajectory] = {}

    def answer(self, requirement: QualityRequirement) -> OptimizationResult:
        return self.optimizer.optimize(self.plans, requirement)

    def curve_points(self, plan: JoinPlanSpec) -> Any:
        return self.optimizer.curve_points(plan)

    def tallies(self) -> Dict[str, int]:
        return self.optimizer.pruning.as_dict()

    def facts(self, result: OptimizationResult) -> Dict[str, Any]:
        facts: Dict[str, Any] = {
            "candidates": len(result.evaluations),
            "feasible": len(result.feasible),
            "plan": None,
        }
        chosen = result.chosen
        if chosen is not None:
            facts.update(
                {
                    "plan": chosen.plan.describe(),
                    "predicted_good": round(chosen.prediction.n_good, 3),
                    "predicted_bad": round(chosen.prediction.n_bad, 3),
                    "predicted_time": round(chosen.predicted_time, 3),
                    "effort_fraction": round(chosen.effort_fraction, 6),
                }
            )
        return facts

    def samples(self, delta: Dict[str, int]) -> List[Sample]:
        reasons = ("infeasible_bound", "infeasible_tau_bad", "dominated")
        return [
            ("repro_plans_pruned_total", {"reason": reason}, delta[reason])
            for reason in reasons
            if delta.get(reason)
        ]


def journal_key(requirement: QualityRequirement) -> str:
    """A requirement's key in the answer journal: ``"τg|τb"``."""
    return f"{requirement.tau_good}|{requirement.tau_bad}"


class MultiwayPlanSpace:
    """The n-ary planner over one join graph, and the recorded run of
    each executed plan (:attr:`trajectories`)."""

    def __init__(self, planner: MultiwayPlanner) -> None:
        self.planner = planner
        self._tallies: Dict[str, int] = {}
        #: plan -> its longest recorded execute (DESIGN §6.4)
        self.trajectories: Dict[MultiwayPlan, Trajectory] = {}

    def answer(self, requirement: QualityRequirement) -> PlannerResult:
        result = self.planner.optimize(requirement)
        for name, value in result.tallies.as_counters().items():
            self._tallies[name] = self._tallies.get(name, 0) + int(value)
        return result

    def tallies(self) -> Dict[str, int]:
        return dict(self._tallies)

    def facts(self, result: PlannerResult) -> Dict[str, Any]:
        tallies = result.tallies
        facts: Dict[str, Any] = {
            "multiway": True,
            "graph": result.graph.describe(),
            "signature": result.graph.signature(),
            "candidates": tallies.assignments,
            "feasible": result.feasible,
            "feasible_assignments": sum(
                1 for e in result.evaluations if e.feasible
            ),
            "plan_space": tallies.plan_space,
            "subplans_enumerated": tallies.subplans_enumerated,
            "subplans_pruned": tallies.subplans_pruned_bound,
            "pruned_fraction": round(tallies.pruned_fraction, 6),
            "plan": None,
        }
        chosen = result.chosen
        if chosen is not None:
            facts.update(
                {
                    "plan": chosen.plan.describe(),
                    "order": chosen.plan.order_describe(),
                    "strategy": chosen.plan.strategy.value,
                    "predicted_good": round(chosen.good, 3),
                    "predicted_bad": round(chosen.bad, 3),
                    "predicted_time": round(chosen.total_time, 3),
                    "effort_fraction": round(chosen.effort_fraction, 6),
                }
            )
        return facts

    def samples(self, delta: Dict[str, int]) -> List[Sample]:
        return [
            (
                "repro_planner_events_total",
                {"event": name.removeprefix("planner_")},
                value,
            )
            for name, value in sorted(delta.items())
        ]


@dataclass(frozen=True)
class PlanCacheKey:
    """Identity of one reusable plan space."""

    signature: str
    generation: int
    #: sorted access paths currently unavailable (empty = all healthy)
    unavailable_paths: Tuple[str, ...] = ()

    @staticmethod
    def of(
        signature: str,
        generation: int,
        unavailable_paths: Sequence[str] = (),
    ) -> "PlanCacheKey":
        return PlanCacheKey(
            signature=signature,
            generation=generation,
            unavailable_paths=tuple(sorted(set(unavailable_paths))),
        )


class _Entry:
    """One cached plan space plus its per-requirement answers."""

    def __init__(self, space: PlanSpace) -> None:
        self.space = space
        self.results: Dict[Tuple[float, float], Any] = {}
        #: tallies already handed out by :meth:`PlanCache.unpublished`
        self.published: Dict[str, int] = {}
        #: :func:`journal_key` -> facts of every answer computed here
        self.journal: Dict[str, Dict[str, Any]] = {}
        #: journal size at the last :meth:`PlanCache.unexported` hand-out
        self.exported = 0


class PlanCache:
    """LRU cache of plan spaces and their answers.

    Thread-safe: the serving worker pool plans concurrently, and two
    requests for the same key must share one space rather than racing to
    build two.  The lock is held across a cache-miss answer — deliberate,
    since concurrent misses on one space would race its curve
    construction; hits for *other* keys queue only briefly.
    """

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[PlanCacheKey, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: tallies of spaces already dropped from the cache, so aggregate
        #: counters stay monotone across evictions
        self._retired: Dict[str, int] = {}
        #: answer-level tallies (requirement seen before under a live key)
        self.hits = 0
        self.misses = 0
        #: space-level tallies (key seen before at all)
        self.optimizer_hits = 0
        self.optimizer_misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def optimize(
        self,
        key: PlanCacheKey,
        requirement: QualityRequirement,
        factory: Callable[[], PlanSpace],
    ) -> Tuple[PlanSpace, Any, bool]:
        """Answer through the cache; returns (space, result, was_result_hit).

        A key with a *newer* generation than a cached entry of the same
        signature silently invalidates the stale entry — statistics
        updated, old plans gone.  The factory is only called when no live
        space exists for the key.
        """
        with self._lock:
            self._drop_superseded(key)
            entry = self._entries.get(key)
            if entry is None:
                self.optimizer_misses += 1
                entry = _Entry(factory())
                self._entries[key] = entry
                while len(self._entries) > self.max_entries:
                    _, evicted = self._entries.popitem(last=False)
                    self._retire(evicted)
                    self.evictions += 1
            else:
                self.optimizer_hits += 1
            self._entries.move_to_end(key)
            requirement_key = (
                float(requirement.tau_good),
                float(requirement.tau_bad),
            )
            result = entry.results.get(requirement_key)
            if result is not None:
                self.hits += 1
                return entry.space, result, True
            self.misses += 1
            result = entry.space.answer(requirement)
            entry.results[requirement_key] = result
            entry.journal[journal_key(requirement)] = entry.space.facts(result)
            return entry.space, result, False

    def _retire(self, entry: _Entry) -> None:
        """Fold a dropped entry's tallies into the retired pool."""
        for name, value in entry.space.tallies().items():
            self._retired[name] = self._retired.get(name, 0) + value

    def space_for(self, key: PlanCacheKey) -> Optional[PlanSpace]:
        """The live cached space for *key*, or None.

        A peek, not a use: the entry's LRU position is left alone.
        """
        with self._lock:
            entry = self._entries.get(key)
            return entry.space if entry is not None else None

    def curve_points(
        self,
        key: PlanCacheKey,
        plan: JoinPlanSpec,
        factory: Callable[[], BinaryPlanSpace],
    ) -> Any:
        """*key*'s binary effort curve for *plan*, built under the cache lock.

        ``JoinOptimizer.curve_points`` builds engine curves on demand, and
        two threads building curves on one optimizer would race.  An entry
        evicted since its optimization is rebuilt from *factory* for this
        one curve (same statistics, so the same curve) and not cached
        again.
        """
        with self._lock:
            entry = self._entries.get(key)
            space = entry.space if entry is not None else factory()
            return space.curve_points(plan)

    def unpublished(self, key: PlanCacheKey) -> List[Sample]:
        """Metric samples for *key*'s tally growth since the last call.

        Each increment is handed out once, so callers folding the samples
        into monotone counters never count one twice; [] for a key with
        no live entry.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return []
            tallies = entry.space.tallies()
            delta = {
                name: value - entry.published.get(name, 0)
                for name, value in tallies.items()
                if value > entry.published.get(name, 0)
            }
            entry.published = tallies
            return entry.space.samples(delta) if delta else []

    def unexported(self, key: PlanCacheKey) -> Optional[Dict[str, Any]]:
        """*key*'s answer journal if it grew since the last call, else None.

        The journal counts as exported from then on; the caller merges it
        into the store's record.  A size check, so a hit costs O(1).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or len(entry.journal) <= entry.exported:
                return None
            entry.exported = len(entry.journal)
            return dict(entry.journal)

    def aggregate_counters(self) -> Dict[str, int]:
        """Tallies summed over all spaces ever cached.

        Monotone: dropped entries' tallies are retained, so the numbers
        behave like counters even across evictions and invalidations.
        """
        with self._lock:
            totals = dict(self._retired)
            for entry in self._entries.values():
                for name, value in entry.space.tallies().items():
                    totals[name] = totals.get(name, 0) + value
            return totals

    def _drop_superseded(self, key: PlanCacheKey) -> None:
        self._drop(
            [
                cached
                for cached in self._entries
                if cached.signature == key.signature
                and cached.generation < key.generation
            ]
        )

    def _drop(self, stale: List[PlanCacheKey]) -> int:
        """Invalidate *stale* keys, retiring their tallies; returns count."""
        for key in stale:
            self._retire(self._entries.pop(key))
        self.invalidations += len(stale)
        return len(stale)

    def invalidate(self, signature: Optional[str] = None) -> int:
        """Drop entries for *signature* (or everything); returns count."""
        with self._lock:
            return self._drop(
                [
                    key
                    for key in self._entries
                    if signature is None or key.signature == signature
                ]
            )

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "optimizer_hits": self.optimizer_hits,
                "optimizer_misses": self.optimizer_misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


__all__ = [
    "BinaryPlanSpace",
    "MultiwayPlanSpace",
    "PlanCache",
    "PlanCacheKey",
    "PlanSpace",
    "journal_key",
]
