"""Compositional quality/cost model for n-way join plans.

Extends the Section V estimators from two sides to a join tree: every
relation contributes per-key expected occurrence factors

    E[gr(k)] = tp · g(k) · ρg        E[br(k)] = fp · (bg(k)·ρg + bb(k)·ρb)

exactly as in the binary scheme (``models/scheme.py``), except that the
key ``k`` is the tuple of the relation's join-attribute values (the
joint :class:`KeyProfile`).  Expected composition of any connected
subset is obtained by message passing over the join tree — the
layer-by-layer chain DP (``validation.differential.chain_expected_composition``)
generalized from paths to arbitrary trees; on a star it degenerates to
the product-of-factors sum Σ_a Π_i (E[gr_i(a)] + E[br_i(a)]).

The model also produces the tier-A quality ceiling of an assignment:
setting every coverage factor ρ to its cap 1 bounds each per-key factor
from above, and because the composition DP is monotone in every factor
(sums and products of non-negatives), the composed good count is a
sound, effort-independent upper bound — the same argument DESIGN §6.7
makes for binary plans, reused here to prune assignments before any
effort-curve evaluation (``optimizer.bounds.BOUND_SLACK`` guards the
comparison against float noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Mapping, Optional, Tuple

from ..core.quality import TimeBreakdown
from ..joins.costs import SideCosts
from ..models.retrieval_models import RetrievalModel, build_retrieval_model
from ..optimizer.bounds import BOUND_SLACK
from .catalog import PlannerCatalog
from .graph import JoinGraph
from .plan import ExecutionStrategy, MultiwayPlan, RelationConfig

Key = Tuple[str, ...]
#: per-key (E[total], E[good]) factor pairs, the chain-DP currency
KeyFactors = Dict[Key, Tuple[float, float]]

#: simulated seconds charged per expected intermediate tuple at a join node
DEFAULT_T_JOIN = 0.1

#: factors_for(name, attributes) -> per-key (total, good) factor pairs
FactorSource = Callable[[str, Tuple[str, ...]], KeyFactors]


def subset_attributes(
    graph: JoinGraph, name: str, subset: FrozenSet[str]
) -> Tuple[str, ...]:
    """Join attributes of *name* on edges that stay inside *subset*."""
    used = {
        edge.attribute_of(name)
        for edge in graph.incident(name)
        if edge.other(name) in subset
    }
    if not used:
        # Singleton subset: key on all of the relation's join attributes
        # so leaf sizes are comparable with composed sizes.
        used = set(graph.join_attributes(name))
    return tuple(a for a in graph.relation(name).attributes if a in used)


def compose_factors(
    graph: JoinGraph,
    subset: FrozenSet[str],
    factors_for: FactorSource,
) -> Tuple[float, float]:
    """(E[total], E[good]) of joining *subset* given per-relation factors.

    The chain DP (``validation.differential.chain_expected_composition``)
    generalized to trees: messages flow upward from the leaves, each a
    mapping join-value → (total, good) of the subtree hanging below.
    Over a :class:`~repro.multiway.TreeJoinState`'s exact key factors it
    reproduces the state's delta-maintained counters exactly.
    """
    if not subset:
        raise ValueError("cannot compose an empty subset")
    if len(subset) > 1 and not graph.subset_connected(subset):
        raise ValueError("cannot compose a disconnected subset")
    root = next(name for name in graph.names if name in subset)
    message = _message(graph, root, None, subset, factors_for)
    total = sum(pair[0] for pair in message.values())
    good = sum(pair[1] for pair in message.values())
    return total, good


def _message(
    graph: JoinGraph,
    name: str,
    parent: Optional[str],
    subset: FrozenSet[str],
    factors_for: FactorSource,
) -> Dict[Optional[str], Tuple[float, float]]:
    """Upward DP message: join-value → (total, good) of the subtree.

    For the root (``parent is None``) the message collapses to a single
    ``None`` key holding the subtree aggregate.
    """
    children = [
        edge.other(name)
        for edge in graph.incident(name)
        if edge.other(name) in subset and edge.other(name) != parent
    ]
    attributes = subset_attributes(graph, name, subset)
    factors = factors_for(name, attributes)
    child_messages = {
        child: _message(graph, child, name, subset, factors_for)
        for child in children
    }
    child_slots = [
        (attributes.index(graph.edge_between(name, child).attribute_of(name)), child)
        for child in children
    ]
    parent_slot = (
        attributes.index(graph.edge_between(name, parent).attribute_of(name))
        if parent is not None
        else None
    )
    out: Dict[Optional[str], Tuple[float, float]] = {}
    for key, (total, good) in factors.items():
        for slot, child in child_slots:
            message = child_messages[child].get(key[slot])
            if message is None:
                total = good = 0.0
                break
            total *= message[0]
            good *= message[1]
        if total == 0.0 and good == 0.0:
            continue
        out_key = None if parent_slot is None else key[parent_slot]
        accumulated = out.get(out_key, (0.0, 0.0))
        out[out_key] = (accumulated[0] + total, accumulated[1] + good)
    return out


@dataclass(frozen=True)
class GraphBounds:
    """Effort-independent quality ceiling of one assignment (tier A)."""

    good_upper: float
    total_upper: float

    def cannot_reach(self, target_good: float) -> bool:
        return self.good_upper * BOUND_SLACK < target_good


class GraphCompositionModel:
    """Quality/cost predictions for plans over one join graph."""

    def __init__(
        self,
        graph: JoinGraph,
        catalog: PlannerCatalog,
        costs: Optional[Mapping[str, SideCosts]] = None,
        t_join: float = DEFAULT_T_JOIN,
    ) -> None:
        self.graph = graph
        self.catalog = catalog
        self.costs = dict(costs) if costs else {}
        self.t_join = float(t_join)
        self._retrieval_models: Dict[Tuple[str, float, object], RetrievalModel] = {}
        self._factor_cache: Dict[Tuple, KeyFactors] = {}

    # ------------------------------------------------------------------
    # Per-relation pieces

    def side_costs(self, name: str) -> SideCosts:
        return self.costs.get(name, SideCosts())

    def retrieval_model(self, config: RelationConfig) -> RetrievalModel:
        cache_key = (config.name, config.theta, config.retrieval)
        model = self._retrieval_models.get(cache_key)
        if model is None:
            entry = self.catalog.entry(config.name)
            side = self.catalog.side(config.name, config.theta)
            model = build_retrieval_model(
                config.retrieval,
                side,
                classifier=entry.classifier,
                queries=entry.queries,
            )
            self._retrieval_models[cache_key] = model
        return model

    def max_effort(self, config: RelationConfig) -> int:
        return self.retrieval_model(config).max_effort

    def key_factors(
        self,
        config: RelationConfig,
        attributes: Tuple[str, ...],
        effort: Optional[float],
    ) -> KeyFactors:
        """Per-key (E[total], E[good]) at *effort*; ``None`` = ρ caps of 1.

        With ``effort=None`` the coverage factors are replaced by their
        cap 1, which upper-bounds every factor for every access path at
        any effort — the tier-A ceiling ingredient.
        """
        cache_key = (config.name, config.theta, config.retrieval, attributes, effort)
        cached = self._factor_cache.get(cache_key)
        if cached is not None:
            return cached
        side = self.catalog.side(config.name, config.theta)
        profile = self.catalog.keys(config.name, attributes)
        if effort is None:
            rho_good = rho_bad = 1.0
        else:
            model = self.retrieval_model(config)
            rho_good = model.good_fraction_processed(effort)
            rho_bad = model.bad_fraction_processed(effort)
        factors: KeyFactors = {}
        for key in set(profile.good_frequency) | set(profile.bad_frequency):
            good = side.tp * profile.good_frequency.get(key, 0) * rho_good
            bad = side.fp * (
                profile.bad_in_good_frequency.get(key, 0) * rho_good
                + profile.bad_in_bad(key) * rho_bad
            )
            factors[key] = (good + bad, good)
        self._factor_cache[cache_key] = factors
        return factors

    # ------------------------------------------------------------------
    # Composition (tree message passing)

    def compose(
        self,
        configs: Mapping[str, RelationConfig],
        efforts: Optional[Mapping[str, float]],
        subset: Optional[FrozenSet[str]] = None,
    ) -> Tuple[float, float]:
        """(E[total], E[good]) of joining *subset* (default: all relations).

        ``efforts=None`` composes the ρ=1 factor caps — the tier-A
        ceiling of the subset.
        """
        names = subset if subset is not None else frozenset(self.graph.names)

        def factors_for(name: str, attributes: Tuple[str, ...]) -> KeyFactors:
            return self.key_factors(
                configs[name],
                attributes,
                None if efforts is None else efforts[name],
            )

        return compose_factors(self.graph, names, factors_for)

    # ------------------------------------------------------------------
    # Bounds, effort curves, time

    def bounds(self, configs: Mapping[str, RelationConfig]) -> GraphBounds:
        """Tier-A ceiling of an assignment: composition of the ρ=1 caps."""
        total, good = self.compose(configs, None)
        return GraphBounds(good_upper=good, total_upper=total)

    def balanced_efforts(
        self, configs: Mapping[str, RelationConfig], fraction: float
    ) -> Dict[str, float]:
        return {
            name: fraction * self.max_effort(configs[name])
            for name in self.graph.names
        }

    def balanced_effort_fraction(
        self,
        configs: Mapping[str, RelationConfig],
        target_good: float,
        steps: int = 14,
    ) -> Optional[float]:
        """Smallest common effort fraction t with E[good] ≥ target.

        The square-traversal heuristic generalized to n relations: every
        side advances along the same fraction of its own effort axis.
        Returns None when even full effort cannot reach the target.
        """

        def good_at(fraction: float) -> float:
            _, good = self.compose(configs, self.balanced_efforts(configs, fraction))
            return good

        if good_at(1.0) < target_good:
            return None
        lo, hi = 0.0, 1.0
        for _ in range(steps):
            mid = (lo + hi) / 2
            if good_at(mid) >= target_good:
                hi = mid
            else:
                lo = mid
        return hi

    def side_time(
        self,
        configs: Mapping[str, RelationConfig],
        efforts: Mapping[str, float],
    ) -> TimeBreakdown:
        time = TimeBreakdown()
        for name in self.graph.names:
            config = configs[name]
            events = self.retrieval_model(config).events(efforts[name])
            costs = self.side_costs(name)
            time.add(
                TimeBreakdown(
                    retrieval=events.retrieved * costs.t_retrieve,
                    extraction=events.processed * costs.t_extract,
                    filtering=events.filtered * costs.t_filter,
                    querying=events.queries * costs.t_query,
                )
            )
        return time

    def join_time(
        self,
        plan: MultiwayPlan,
        configs: Mapping[str, RelationConfig],
        efforts: Mapping[str, float],
        size_of=None,
    ) -> Tuple[float, Tuple[Tuple[Tuple[str, ...], float], ...]]:
        """(t_join charge, materialized intermediates) of a plan.

        A pipeline pays per expected tuple of every internal tree node; the
        interleaved strategy materializes no binary intermediate and pays
        arity × the final result size for its wider per-step probes.
        """
        if size_of is None:
            size_of = lambda subset: self.compose(configs, efforts, subset)[0]
        if plan.strategy is ExecutionStrategy.PIPELINE:
            assert plan.tree is not None
            subsets = plan.tree.internal_subsets()
        else:
            subsets = (frozenset(self.graph.names),)
        charge = 0.0
        intermediates = []
        for subset in subsets:
            size = size_of(subset)
            weight = 1.0
            if plan.strategy is ExecutionStrategy.INTERLEAVED:
                weight = float(self.graph.arity)
            charge += self.t_join * weight * size
            intermediates.append((tuple(sorted(subset)), size))
        return charge, tuple(intermediates)
