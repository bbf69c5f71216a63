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

One array kernel does every composition, with a row axis: one call
composes a subset for a batch of (assignment, effort) rows.  Each
(relation, attributes) has one key table, built once in sorted key
order: a join-value code array per attribute slot (codes from one
vocabulary per model) and the good, bad-in-good and bad-in-bad counts.
Factors are rows × keys arrays built from per-row (tp, fp, ρg, ρb)
column vectors over the table, a message to the parent is one
``np.bincount(row · bins + code)`` over the parent slot's codes, and
children are gathered by code.  ``np.bincount`` adds in input order, so
each row's bins sum their keys in key order and every result is
bit-for-bit the per-key dict message passing that
``validation.differential`` keeps as the reference, whatever else is in
the batch; sorted keys make it independent of the string hash seed.
A one-row call is the single composition (``compose``,
``compose_factors``).

An assignment's effort → (E[total], E[good]) curve does not depend on
the requirement, so the model memoizes every composed point by
(assignment index, dyadic fraction, subset; ``None`` for the full
subset).  The bisection, the chosen operating point, the join-order
DP's intermediate sizes and the tier-A ceiling read that memo, and a
model reused across requirements (the service keeps one per plan-cache
entry) composes each point once.  Points are composed in batches: the
bisection runs every assignment in lockstep, one kernel call per depth.

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
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

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
#: one relation's kernel input: (code array per key slot, total, good),
#: the factor arrays shaped rows × keys
NodeFactors = Tuple[Tuple[np.ndarray, ...], np.ndarray, np.ndarray]
#: one composition of a batch: configs by name and efforts by name, or
#: None for the ρ=1 factor caps
Row = Tuple[Mapping[str, RelationConfig], Optional[Mapping[str, float]]]


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

    A dict-to-array adapter over the model's composition kernel, one
    row: each relation's ``key → (total, good)`` mapping becomes a code
    table in the mapping's iteration order.  Over a
    :class:`~repro.multiway.TreeJoinState`'s exact key factors it
    reproduces the state's delta-maintained counters exactly; its
    reference is the per-key dict message passing
    ``validation.differential.reference_compose_factors``.
    """
    vocabulary: Dict[str, int] = {}

    def node_factors(name: str, attributes: Tuple[str, ...]) -> NodeFactors:
        factors = factors_for(name, attributes)
        codes = _encode(factors, len(attributes), vocabulary)
        total = np.array([[pair[0] for pair in factors.values()]], dtype=float)
        good = np.array([[pair[1] for pair in factors.values()]], dtype=float)
        return codes, total, good

    total, good = _compose_tree(
        _tree_schedule(graph, subset), node_factors, vocabulary
    )
    return float(total[0]), float(good[0])


@dataclass(frozen=True)
class _Visit:
    """One relation in a post-order walk of a subset's join tree."""

    name: str
    #: the relation's key attributes within the subset
    attributes: Tuple[str, ...]
    #: (position of the child's visit, key slot of the joining attribute)
    children: Tuple[Tuple[int, int], ...]
    #: key slot of the attribute joining the parent; None at the root
    parent_slot: Optional[int]


def _tree_schedule(graph: JoinGraph, subset: FrozenSet[str]) -> Tuple[_Visit, ...]:
    """Post-order walk of *subset*'s join tree, rooted at its first relation.

    Children come in ``graph.incident`` order, so products over children
    are taken in a fixed order.  Depends on the subset alone, so a model
    builds it once per subset.
    """
    if not subset:
        raise ValueError("cannot compose an empty subset")
    if len(subset) > 1 and not graph.subset_connected(subset):
        raise ValueError("cannot compose a disconnected subset")
    visits: List[_Visit] = []

    def visit(name: str, parent: Optional[str]) -> None:
        attributes = subset_attributes(graph, name, subset)
        children = []
        for edge in graph.incident(name):
            child = edge.other(name)
            if child in subset and child != parent:
                visit(child, name)
                children.append(
                    (len(visits) - 1, attributes.index(edge.attribute_of(name)))
                )
        parent_slot = (
            None
            if parent is None
            else attributes.index(graph.edge_between(name, parent).attribute_of(name))
        )
        visits.append(_Visit(name, attributes, tuple(children), parent_slot))

    visit(next(name for name in graph.names if name in subset), None)
    del visit  # the recursive closure is a cycle through its own cell
    return tuple(visits)


def _compose_tree(
    schedule: Tuple[_Visit, ...],
    node_factors: Callable[[str, Tuple[str, ...]], NodeFactors],
    vocabulary: Mapping[str, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """The composition kernel: upward message passing over code arrays.

    ``node_factors(name, attributes)`` gives a relation's key table as
    one join-value code array per attribute slot plus (total, good)
    factor arrays shaped rows × keys; codes index *vocabulary*, and each
    row is one composition.  A message is a pair of rows × codes arrays
    built by one ``np.bincount(row · bins + code)`` — which adds
    sequentially in input order, so each bin sums its row's keys in key
    order and every sum and product happens in the same order as a
    per-key dict loop would do them.  A value missing from a child's
    subtree has an all-zero bin there, which zeroes the parent's key.
    The root sends every key to bin 0, so its message is each row's
    aggregate.  Returns the (total, good) arrays, one entry per row.
    """
    tables = [node_factors(visit.name, visit.attributes) for visit in schedule]
    size = len(vocabulary)
    messages: List[Tuple[np.ndarray, np.ndarray]] = []
    for visit, (codes, total, good) in zip(schedule, tables):
        for position, slot in visit.children:
            child_total, child_good = messages[position]
            total = total * child_total[:, codes[slot]]
            good = good * child_good[:, codes[slot]]
        rows, keys = total.shape
        if visit.parent_slot is None:
            out_codes, bins = np.zeros(keys, dtype=np.intp), 1
        else:
            out_codes, bins = codes[visit.parent_slot], size
        index = (np.arange(rows)[:, None] * bins + out_codes).ravel()
        messages.append(
            (
                np.bincount(index, weights=total.ravel(), minlength=rows * bins)
                .reshape(rows, bins),
                np.bincount(index, weights=good.ravel(), minlength=rows * bins)
                .reshape(rows, bins),
            )
        )
    total, good = messages[-1]
    return total[:, 0], good[:, 0]


def _encode(
    keys: Iterable[Key], width: int, vocabulary: Dict[str, int]
) -> Tuple[np.ndarray, ...]:
    """One join-value code array per key slot, growing *vocabulary*."""
    columns: List[List[int]] = [[] for _ in range(width)]
    for key in keys:
        for slot, column in enumerate(columns):
            column.append(vocabulary.setdefault(key[slot], len(vocabulary)))
    return tuple(np.array(column, dtype=np.intp) for column in columns)


@dataclass(frozen=True)
class _KeyTable:
    """One relation's joint-key profile as arrays, in key-table order."""

    keys: Tuple[Key, ...]
    codes: Tuple[np.ndarray, ...]
    good: np.ndarray
    bad_in_good: np.ndarray
    bad_in_bad: np.ndarray


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
        #: join value → code, shared by every key table of this model
        self._vocabulary: Dict[str, int] = {}
        self._tables: Dict[Tuple[str, Tuple[str, ...]], _KeyTable] = {}
        self._schedules: Dict[FrozenSet[str], Tuple[_Visit, ...]] = {}
        #: assignment registry: index → configs, configs tuple → index
        self._assignments: List[Mapping[str, RelationConfig]] = []
        self._assignment_ids: Dict[Tuple[RelationConfig, ...], int] = {}
        #: (assignment index, fraction or None for the ρ caps, subset or
        #: None for every relation) → composed (E[total], E[good])
        self._curves: Dict[
            Tuple[int, Optional[float], Optional[FrozenSet[str]]],
            Tuple[float, float],
        ] = {}

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

    def key_table(self, name: str, attributes: Tuple[str, ...]) -> _KeyTable:
        """*name*'s joint-key profile on *attributes* as code/count arrays.

        Built once per (relation, attributes) in sorted key order, so
        every sum over keys runs in the same order in every process,
        whatever the string hash seed.
        """
        table_key = (name, attributes)
        table = self._tables.get(table_key)
        if table is None:
            profile = self.catalog.keys(name, attributes)
            keys = tuple(
                sorted(set(profile.good_frequency) | set(profile.bad_frequency))
            )
            table = _KeyTable(
                keys=keys,
                codes=_encode(keys, len(attributes), self._vocabulary),
                good=np.array(
                    [profile.good_frequency.get(key, 0) for key in keys], dtype=float
                ),
                bad_in_good=np.array(
                    [profile.bad_in_good_frequency.get(key, 0) for key in keys],
                    dtype=float,
                ),
                bad_in_bad=np.array(
                    [profile.bad_in_bad(key) for key in keys], dtype=float
                ),
            )
            self._tables[table_key] = table
        return table

    def factor_arrays(
        self,
        name: str,
        attributes: Tuple[str, ...],
        rows: Sequence[Tuple[RelationConfig, Optional[float]]],
    ) -> NodeFactors:
        """Key codes and (E[total], E[good]) arrays, one row per (config, effort).

        ``E[gr] = tp·g·ρg`` and ``E[br] = fp·(bg·ρg + bb·ρb)`` over
        *name*'s key table, with each row's tp, fp, ρg and ρb as column
        vectors; ``effort=None`` replaces the coverage factors by their
        cap 1, which upper-bounds every factor for every access path at
        any effort — the tier-A ceiling ingredient.
        """
        table = self.key_table(name, attributes)
        tp, fp, rho_good, rho_bad = (
            np.array(column, dtype=float)[:, None]
            for column in zip(*(self._row_parameters(*row) for row in rows))
        )
        good = tp * table.good * rho_good
        bad = fp * (table.bad_in_good * rho_good + table.bad_in_bad * rho_bad)
        return table.codes, good + bad, good

    def _row_parameters(
        self, config: RelationConfig, effort: Optional[float]
    ) -> Tuple[float, float, float, float]:
        """(tp, fp, ρg, ρb) of one relation at *effort* (None: ρ caps)."""
        side = self.catalog.side(config.name, config.theta)
        if effort is None:
            return side.tp, side.fp, 1.0, 1.0
        model = self.retrieval_model(config)
        return (
            side.tp,
            side.fp,
            model.good_fraction_processed(effort),
            model.bad_fraction_processed(effort),
        )

    def key_factors(
        self,
        config: RelationConfig,
        attributes: Tuple[str, ...],
        effort: Optional[float],
    ) -> KeyFactors:
        """Per-key (E[total], E[good]) at *effort* as a dict (uncached)."""
        _, total, good = self.factor_arrays(config.name, attributes, [(config, effort)])
        keys = self.key_table(config.name, attributes).keys
        return dict(zip(keys, zip(total[0].tolist(), good[0].tolist())))

    # ------------------------------------------------------------------
    # Composition (tree message passing)

    def compose_rows(
        self, rows: Sequence[Row], subset: Optional[FrozenSet[str]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(E[total], E[good]) arrays of joining *subset*, one entry per row.

        Each row is (configs, efforts) over every relation; efforts
        ``None`` composes the ρ=1 factor caps — the tier-A ceiling of
        the subset.  One kernel call composes the whole batch.
        """
        names = subset if subset is not None else frozenset(self.graph.names)
        schedule = self._schedules.get(names)
        if schedule is None:
            schedule = self._schedules[names] = _tree_schedule(self.graph, names)

        def node_factors(name: str, attributes: Tuple[str, ...]) -> NodeFactors:
            return self.factor_arrays(
                name,
                attributes,
                [
                    (configs[name], None if efforts is None else efforts[name])
                    for configs, efforts in rows
                ],
            )

        return _compose_tree(schedule, node_factors, self._vocabulary)

    def compose(
        self,
        configs: Mapping[str, RelationConfig],
        efforts: Optional[Mapping[str, float]],
        subset: Optional[FrozenSet[str]] = None,
    ) -> Tuple[float, float]:
        """(E[total], E[good]) of joining *subset* (default: all relations).

        A one-row :meth:`compose_rows`; ``efforts=None`` composes the
        ρ=1 factor caps.
        """
        total, good = self.compose_rows([(configs, efforts)], subset)
        return float(total[0]), float(good[0])

    def assignment_index(self, configs: Mapping[str, RelationConfig]) -> int:
        """Stable index of an assignment in this model's curve memo."""
        assignment = tuple(configs[name] for name in self.graph.names)
        index = self._assignment_ids.get(assignment)
        if index is None:
            index = len(self._assignments)
            self._assignments.append(dict(configs))
            self._assignment_ids[assignment] = index
        return index

    def curve_points(
        self,
        points: Sequence[Tuple[int, Optional[float]]],
        subset: Optional[FrozenSet[str]] = None,
    ) -> List[Tuple[float, float]]:
        """Memoized (E[total], E[good]) of each (assignment index, fraction).

        The effort → composition curve of an assignment does not depend
        on the requirement, so one memo answers every (τg, τb): the
        bisection, the chosen operating point, the join-order DP's
        intermediate sizes and (``fraction=None``) the tier-A ceiling.
        Every point not yet in the memo is composed in one kernel call.
        Bisection probes are exact dyadic floats, so a requirement that
        revisits a fraction hits the memo; the full subset is keyed as
        ``None``.  Not thread-safe: the service keeps one model per
        plan-cache entry and mutates the memo only inside
        ``PlanCache.optimize``, under the cache's lock.
        """
        if subset is not None and len(subset) == self.graph.arity:
            subset = None
        missing = [point for point in points if (*point, subset) not in self._curves]
        if missing:
            missing = list(dict.fromkeys(missing))
            rows = []
            for index, fraction in missing:
                configs = self._assignments[index]
                efforts = (
                    None
                    if fraction is None
                    else self.balanced_efforts(configs, fraction)
                )
                rows.append((configs, efforts))
            total, good = self.compose_rows(rows, subset)
            for point, pair in zip(missing, zip(total.tolist(), good.tolist())):
                self._curves[(*point, subset)] = pair
        return [self._curves[(*point, subset)] for point in points]

    def curve_point(
        self,
        index: int,
        fraction: Optional[float],
        subset: Optional[FrozenSet[str]] = None,
    ) -> Tuple[float, float]:
        """One memoized point of :meth:`curve_points`."""
        return self.curve_points([(index, fraction)], subset)[0]

    # ------------------------------------------------------------------
    # Bounds, effort curves, time

    def bounds(self, configs: Mapping[str, RelationConfig]) -> GraphBounds:
        """Tier-A ceiling of an assignment: composition of the ρ=1 caps."""
        total, good = self.curve_point(self.assignment_index(configs), None)
        return GraphBounds(good_upper=good, total_upper=total)

    def balanced_efforts(
        self, configs: Mapping[str, RelationConfig], fraction: float
    ) -> Dict[str, float]:
        return {
            name: fraction * self.max_effort(configs[name])
            for name in self.graph.names
        }

    def balanced_effort_fractions(
        self,
        indices: Sequence[int],
        target_good: float,
        steps: int = 14,
    ) -> List[Optional[float]]:
        """Smallest common effort fraction t with E[good] ≥ target, per assignment.

        The square-traversal heuristic generalized to n relations: every
        side advances along the same fraction of its own effort axis.
        An assignment gets None when even full effort cannot reach the
        target.  The assignments bisect in lockstep: one kernel call
        composes every full-effort point, then one per step composes
        every assignment's midpoint that is not in the memo.  Each
        assignment probes the same fractions it would probe alone.
        """
        brackets = {
            index: [0.0, 1.0]
            for index, (_, good) in zip(
                indices, self.curve_points([(index, 1.0) for index in indices])
            )
            if good >= target_good
        }
        for _ in range(steps):
            probes = [(index, (lo + hi) / 2) for index, (lo, hi) in brackets.items()]
            for (index, mid), (_, good) in zip(probes, self.curve_points(probes)):
                if good >= target_good:
                    brackets[index][1] = mid
                else:
                    brackets[index][0] = mid
        return [
            brackets[index][1] if index in brackets else None for index in indices
        ]

    def balanced_effort_fraction(
        self,
        configs: Mapping[str, RelationConfig],
        target_good: float,
        steps: int = 14,
    ) -> Optional[float]:
        """:meth:`balanced_effort_fractions` of one assignment."""
        return self.balanced_effort_fractions(
            [self.assignment_index(configs)], target_good, steps
        )[0]

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
