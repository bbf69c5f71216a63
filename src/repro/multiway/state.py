"""N-ary join state over an acyclic join graph.

The paper restricts itself to binary joins and leaves "higher order joins
as future work" (Section III-C).  This module provides the natural
generalization: a natural join of n extracted relations whose join graph
is a tree — a *star* on one shared attribute (the paper's running Company
examples: mergers ⋈ executives ⋈ headquarters), a *chain* with a
different attribute per edge (MG ⋈ EX on Company ⋈ RES on CEO), or any
other tree.

A result combines one base tuple per relation, adjacent tuples agreeing
on their edge's attributes; it is good iff *every* constituent is good.
Result counts can be combinatorially large, so the state maintains exact
integer counters incrementally by the delta rule and materializes results
only on demand (:meth:`TreeJoinState.iter_results`).

Delta rule.  The results a new tuple t of relation i completes are
exactly the combinations of t with one matching partial result from each
subtree hanging off i, so inserting t adds

    Δtotal = Π_{j ∈ nbrs(i)} M_{j→i}(t[attr(i, j)])
    Δgood  = [t is good] · Π_{j ∈ nbrs(i)} M^good_{j→i}(t[attr(i, j)])

where M_{j→i}(x) counts the partial results of j's subtree (away from i)
whose j-tuple carries value x on the edge's attribute.  Messages are
computed on demand from j's per-joint-key counts; a relation keyed on one
attribute needs no index (its joint key is the edge value), one keyed on
several keeps value → joint-keys per attribute.  On a star every message
is a single lookup, so an insert costs O(arity) and a composition read
O(1).  Counts live in plain ``dict[key, int]``s, so outside those value
indexes a new key adds no container for the garbage collector to trace
(full collections are costly on a service's large heap).  The same
recursion over *expected* per-key factors is the planner's model
(:func:`repro.planner.model.compose_factors`); tests check the two agree
exactly on the realized counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.relation import ExtractedRelation
from ..core.types import ExtractedTuple, RelationSchema


@dataclass(frozen=True)
class MultiJoinComposition:
    """Good/bad breakdown of an n-way join result."""

    n_good: int = 0
    n_bad: int = 0

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad


@dataclass(frozen=True)
class TreeEdge:
    """One join edge between two relations, by 0-based relation index."""

    left: int
    left_attribute: str
    right: int
    right_attribute: str

    def attribute_of(self, index: int) -> str:
        if index == self.left:
            return self.left_attribute
        if index == self.right:
            return self.right_attribute
        raise KeyError(index)

    def other(self, index: int) -> int:
        if index == self.left:
            return self.right
        if index == self.right:
            return self.left
        raise KeyError(index)


@dataclass(frozen=True)
class TreeJoinTuple:
    """One materialized tree-join result (parts in relation order)."""

    parts: Tuple[ExtractedTuple, ...]

    @property
    def is_good(self) -> bool:
        return all(part.is_good for part in self.parts)


class _Direction:
    """One edge read from *source* towards *target* (message M_{source→target}).

    ``totals``/``goods`` are the source's joint-key counts; ``keys_of``
    maps a value of the edge attribute to the source's joint keys
    carrying it, or is None when the joint key is that value alone;
    ``children`` lists the directions into the source from its other
    neighbours, with the joint-key slot holding that edge's attribute.
    """

    __slots__ = ("totals", "goods", "keys_of", "children")

    def __init__(
        self,
        totals: Dict[Tuple, int],
        goods: Dict[Tuple, int],
        keys_of: Optional[Dict[str, List[Tuple]]],
    ) -> None:
        self.totals = totals
        self.goods = goods
        self.keys_of = keys_of
        self.children: List[Tuple["_Direction", int]] = []


def _message(direction: _Direction, value: str) -> Tuple[int, int]:
    """(total, good) partial results behind *direction* agreeing on *value*."""
    if direction.keys_of is None:
        keys: Iterable[Tuple] = ((value,),)
    else:
        keys = direction.keys_of.get(value, ())
    totals = direction.totals
    total = good = 0
    for key in keys:
        key_total = totals.get(key)
        if key_total is None:
            continue
        key_good = direction.goods[key]
        for child, slot in direction.children:
            child_total, child_good = _message(child, key[slot])
            if not child_total:
                break
            key_total *= child_total
            key_good *= child_good
        else:
            total += key_total
            good += key_good
    return total, good


class TreeJoinState:
    """Incrementally maintained acyclic n-ary join with exact counters."""

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        edges: Sequence[TreeEdge],
    ) -> None:
        if len(schemas) < 2:
            raise ValueError("a tree join needs at least two relations")
        if len(edges) != len(schemas) - 1:
            raise ValueError("a tree join over n relations needs n-1 edges")
        self.schemas = list(schemas)
        self.edges = list(edges)
        n = len(schemas)
        self._incident: List[List[TreeEdge]] = [[] for _ in range(n)]
        for edge in edges:
            for endpoint in (edge.left, edge.right):
                if not 0 <= endpoint < n:
                    raise ValueError(f"edge endpoint {endpoint} out of range")
            if edge.left == edge.right:
                raise ValueError("edge joins a relation with itself")
            # Raises ValueError via index_of if the attribute is missing.
            for endpoint in (edge.left, edge.right):
                self._key_index(endpoint, edge.attribute_of(endpoint))
            self._incident[edge.left].append(edge)
            self._incident[edge.right].append(edge)
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for edge in self._incident[node]:
                other = edge.other(node)
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        if len(reached) != n:
            raise ValueError("tree join edges must connect every relation")
        #: per relation: schema indexes of its join attributes, schema order
        self.key_indexes: List[Tuple[int, ...]] = [
            tuple(
                sorted(
                    {
                        self._key_index(i, edge.attribute_of(i))
                        for edge in self._incident[i]
                    }
                )
            )
            for i in range(n)
        ]
        self.relations = [ExtractedRelation(s) for s in schemas]
        #: per relation: joint key -> total count, and -> good count
        self._totals: List[Dict[Tuple, int]] = [{} for _ in schemas]
        self._goods: List[Dict[Tuple, int]] = [{} for _ in schemas]
        #: per relation keyed on several attributes: per joint-key slot,
        #: value -> the joint keys carrying it
        self._keys_of: List[List[Dict[str, List[Tuple]]]] = [
            [{} for _ in indexes] if len(indexes) > 1 else []
            for indexes in self.key_indexes
        ]
        directions = {
            (i, edge.other(i)): _Direction(
                self._totals[i],
                self._goods[i],
                self._keys_of[i][self._slot(i, edge)] if self._keys_of[i] else None,
            )
            for i in range(n)
            for edge in self._incident[i]
        }
        #: per relation: (direction into it, schema index of the edge value)
        self._inbound: List[List[Tuple[_Direction, int]]] = [[] for _ in range(n)]
        for i in range(n):
            for edge in self._incident[i]:
                j = edge.other(i)
                self._inbound[i].append(
                    (directions[j, i], self._key_index(i, edge.attribute_of(i)))
                )
                directions[i, j].children = [
                    (directions[other.other(i), i], self._slot(i, other))
                    for other in self._incident[i]
                    if other is not edge
                ]
        self._composition = MultiJoinComposition()

    @classmethod
    def star(
        cls,
        schemas: Sequence[RelationSchema],
        join_attribute: Optional[str] = None,
    ) -> "TreeJoinState":
        """Star join on one shared attribute, centred on the first relation.

        ``join_attribute`` defaults to the one attribute every schema has.
        """
        if join_attribute is None:
            shared = set(schemas[0].attributes) if schemas else set()
            for schema in schemas[1:]:
                shared &= set(schema.attributes)
            if len(shared) != 1:
                raise ValueError(
                    f"join attribute is ambiguous or missing ({sorted(shared)}); "
                    "pass join_attribute explicitly"
                )
            join_attribute = next(iter(shared))
        return cls(
            schemas,
            [
                TreeEdge(0, join_attribute, i, join_attribute)
                for i in range(1, len(schemas))
            ],
        )

    def _key_index(self, relation: int, attribute: str) -> int:
        try:
            return self.schemas[relation].index_of(attribute)
        except KeyError:
            raise ValueError(
                f"relation {self.schemas[relation].name!r} has no attribute"
                f" {attribute!r}"
            ) from None

    def _slot(self, relation: int, edge: TreeEdge) -> int:
        """Position of *edge*'s attribute in *relation*'s joint key."""
        return self.key_indexes[relation].index(
            self._key_index(relation, edge.attribute_of(relation))
        )

    # -- executor protocol -------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.relations)

    @property
    def join_indexes(self) -> List[int]:
        """First join-attribute index per relation (for observations)."""
        return [indexes[0] for indexes in self.key_indexes]

    @property
    def composition(self) -> MultiJoinComposition:
        return self._composition

    def relation(self, side: int) -> ExtractedRelation:
        """1-based side accessor, matching the binary executors."""
        return self.relations[side - 1]

    def add(self, side: int, tuples: Iterable[ExtractedTuple]) -> int:
        """Insert tuples into relation *side* (1-based); returns new count."""
        index = side - 1
        relation = self.relations[index]
        key_indexes = self.key_indexes[index]
        totals = self._totals[index]
        goods = self._goods[index]
        inbound = self._inbound[index]
        added = 0
        delta_total = delta_good = 0
        for tup in tuples:
            if not relation.add(tup):
                continue
            added += 1
            values = tup.values
            total = good = 1
            for direction, value_index in inbound:
                message_total, message_good = _message(
                    direction, values[value_index]
                )
                if not message_total:
                    total = good = 0
                    break
                total *= message_total
                good *= message_good
            key = tuple([values[i] for i in key_indexes])
            if key not in totals:
                totals[key] = goods[key] = 0
                for key_slot, keys_of in enumerate(self._keys_of[index]):
                    keys_of.setdefault(key[key_slot], []).append(key)
            totals[key] += 1
            delta_total += total
            if tup.is_good:
                goods[key] += 1
                delta_good += good
        if delta_total:
            old = self._composition
            self._composition = MultiJoinComposition(
                n_good=old.n_good + delta_good,
                n_bad=old.n_bad + delta_total - delta_good,
            )
        return added

    def key_factors(self, side: int) -> Dict[Tuple, Tuple[float, float]]:
        """Relation *side*'s exact (total, good) counts per joint key.

        The exact-count analogue of the planner model's expected key
        factors; composing them with
        :func:`~repro.planner.model.compose_factors` reproduces
        :attr:`composition` exactly (a property tests rely on).
        """
        goods = self._goods[side - 1]
        return {
            key: (float(total), float(goods[key]))
            for key, total in self._totals[side - 1].items()
        }

    # -- materialization (tests, small outputs) ----------------------------------

    def _subtree_choices(
        self,
        index: int,
        parent: Optional[int],
        required: Optional[str],
    ) -> Iterator[Dict[int, ExtractedTuple]]:
        parent_attr_index = None
        children = []
        for edge in self._incident[index]:
            attribute_index = self._key_index(index, edge.attribute_of(index))
            if edge.other(index) == parent:
                parent_attr_index = attribute_index
            else:
                children.append((edge.other(index), attribute_index))
        for tup in self.relations[index]:
            if (
                parent_attr_index is not None
                and tup.value_of(parent_attr_index) != required
            ):
                continue
            child_choice_lists = [
                list(self._subtree_choices(child, index, tup.value_of(attribute)))
                for child, attribute in children
            ]
            for combo in itertools.product(*child_choice_lists):
                merged: Dict[int, ExtractedTuple] = {index: tup}
                for choice in combo:
                    merged.update(choice)
                yield merged

    def iter_results(self) -> Iterator[TreeJoinTuple]:
        """Materialize tree results by recursive index walks (may be large)."""
        for choice in self._subtree_choices(0, None, None):
            yield TreeJoinTuple(
                parts=tuple(choice[i] for i in range(self.arity))
            )

    def verify_composition(self) -> MultiJoinComposition:
        """Recount by materialization — O(result size), for tests."""
        good = total = 0
        for joined in self.iter_results():
            total += 1
            if joined.is_good:
                good += 1
        return MultiJoinComposition(n_good=good, n_bad=total - good)
