"""Selinger-style join-order enumeration over a join graph.

The DP walks connected subgraphs by increasing size and, for each,
considers every connected-subgraph/complement split (csg-cmp pair),
which on an acyclic graph enumerates exactly the cross-product-free
binary join trees of every shape.  Cost is the classic recurrence

    cost(S)  = min over splits (S1, S2) of S:
               cost(S1) + cost(S2) + t_join · E[|result(S)|]

with E[|result(S)|] supplied by the compositional model and shared by
every split of S, so the DP's work per subset is dominated by one model
evaluation.  Ties break on the tree's description string so that the DP
and the brute-force reference (``all_trees`` + ``tree_cost`` in
:mod:`repro.validation.differential`) pick the byte-identical plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .graph import JoinGraph
from .plan import PlanTree

SizeOf = Callable[[FrozenSet[str]], float]


@dataclass
class EnumerationTallies:
    """Work accounting for one enumeration run."""

    subsets: int = 0
    subplans: int = 0
    dominated: int = 0


class _Bitmap:
    """Name <-> bit bookkeeping plus connectivity tests."""

    def __init__(self, graph: JoinGraph) -> None:
        self.names: Tuple[str, ...] = graph.names
        self.bit: Dict[str, int] = {name: 1 << i for i, name in enumerate(self.names)}
        self.adjacency: List[int] = [0] * len(self.names)
        for edge in graph.edges:
            li = self.names.index(edge.left)
            ri = self.names.index(edge.right)
            self.adjacency[li] |= 1 << ri
            self.adjacency[ri] |= 1 << li
        self.full = (1 << len(self.names)) - 1

    def to_set(self, mask: int) -> FrozenSet[str]:
        return frozenset(
            name for name, bit in self.bit.items() if mask & bit
        )

    def connected(self, mask: int) -> bool:
        if mask == 0:
            return False
        start = mask & -mask
        reached = start
        frontier = start
        while frontier:
            low = frontier & -frontier
            index = low.bit_length() - 1
            frontier ^= low
            expand = self.adjacency[index] & mask & ~reached
            reached |= expand
            frontier |= expand
        return reached == mask

    def connected_masks(self) -> List[int]:
        """All connected subsets, sorted by (popcount, mask)."""
        masks = [
            mask
            for mask in range(1, self.full + 1)
            if self.connected(mask)
        ]
        masks.sort(key=lambda m: (bin(m).count("1"), m))
        return masks


def _splits(bitmap: _Bitmap, mask: int) -> Iterator[Tuple[int, int]]:
    """Canonical csg-cmp pairs of *mask*: the half holding its lowest bit
    comes first, so each unordered split is produced exactly once."""
    low = mask & -mask
    sub = (mask - 1) & mask
    while sub:
        if sub & low:
            rest = mask ^ sub
            if rest and bitmap.connected(sub) and bitmap.connected(rest):
                yield sub, rest
        sub = (sub - 1) & mask


def count_subplans(graph: JoinGraph) -> int:
    """Number of csg-cmp candidates a full enumeration examines.

    Depends only on the graph topology, so the planner can account for
    the subplans a pruned assignment *would* have cost without running
    the DP.
    """
    bitmap = _Bitmap(graph)
    total = 0
    for mask in bitmap.connected_masks():
        if bin(mask).count("1") < 2:
            continue
        total += sum(1 for _ in _splits(bitmap, mask))
    return total


def join_subsets(graph: JoinGraph) -> Tuple[FrozenSet[str], ...]:
    """Every subset whose size :func:`best_tree` asks for, in DP order:
    the connected subsets of two relations or more."""
    bitmap = _Bitmap(graph)
    return tuple(
        bitmap.to_set(mask)
        for mask in bitmap.connected_masks()
        if bin(mask).count("1") >= 2
    )


def best_tree(
    graph: JoinGraph,
    size_of: SizeOf,
    t_join: float,
    tallies: Optional[EnumerationTallies] = None,
) -> Tuple[PlanTree, float]:
    """The cheapest join tree and its join cost (side costs excluded)."""
    bitmap = _Bitmap(graph)
    tallies = tallies if tallies is not None else EnumerationTallies()
    best: Dict[int, Tuple[float, PlanTree]] = {}
    for name in bitmap.names:
        best[bitmap.bit[name]] = (0.0, PlanTree.leaf(name))
    for mask in bitmap.connected_masks():
        if bin(mask).count("1") < 2:
            continue
        tallies.subsets += 1
        weight = t_join * size_of(bitmap.to_set(mask))
        incumbent: Optional[Tuple[float, PlanTree]] = None
        for sub, rest in _splits(bitmap, mask):
            tallies.subplans += 1
            left_cost, left_tree = best[sub]
            right_cost, right_tree = best[rest]
            cost = left_cost + right_cost + weight
            if incumbent is not None:
                held_cost, held_tree = incumbent
                if cost > held_cost:
                    tallies.dominated += 1
                    continue
                candidate = PlanTree.node(left_tree, right_tree)
                if cost == held_cost and candidate.describe() >= held_tree.describe():
                    tallies.dominated += 1
                    continue
                incumbent = (cost, candidate)
            else:
                incumbent = (cost, PlanTree.node(left_tree, right_tree))
        assert incumbent is not None, "connected subset without a split"
        best[mask] = incumbent
    return best[bitmap.full][1], best[bitmap.full][0]


def naive_left_deep_tree(graph: JoinGraph, order: Optional[Sequence[str]] = None) -> PlanTree:
    """The naive baseline: a left-deep pipeline in (near) graph order.

    Relations join in the order given, skipping ahead only when the next
    relation would form a cross product (every prefix stays connected).
    """
    pending = list(order if order is not None else graph.names)
    if set(pending) != set(graph.names):
        raise ValueError("order must cover every relation exactly once")
    tree = PlanTree.leaf(pending.pop(0))
    while pending:
        for index, name in enumerate(pending):
            candidate = tree.subset | {name}
            if graph.subset_connected(frozenset(candidate)):
                pending.pop(index)
                tree = PlanTree.node(tree, PlanTree.leaf(name))
                break
        else:
            raise ValueError("graph is not connected")
    return tree
