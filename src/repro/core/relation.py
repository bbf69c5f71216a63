"""Extracted relations and the good/bad composition of their joins.

This module implements the bookkeeping of Section III-C and V-A of the
paper: extracted relations hold good and bad tuples; attribute-value
*occurrences* inherit tuple labels; and a natural join composes good join
tuples only out of good base tuples.  For a join attribute value ``a`` with
``gr1(a)`` good occurrences observed in R1 and ``gr2(a)`` in R2, the join
contributes ``gr1(a) * gr2(a)`` good tuples (Equation 1), and analogous
cross products for the three bad combinations (good×bad, bad×good,
bad×bad).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .types import ExtractedTuple, JoinTuple, RelationSchema


class ExtractedRelation:
    """A (growing) relation of tuples produced by an extraction system.

    The relation deduplicates exact ``(values, document_id)`` repeats: the
    paper's models count an attribute value at most once per document
    (footnote 2), and the corpus generator plants mentions accordingly, so a
    duplicate extraction from the same document carries no new information.
    """

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._tuples: List[ExtractedTuple] = []
        self._seen: Set[Tuple[Tuple[str, ...], int]] = set()

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[ExtractedTuple]:
        return iter(self._tuples)

    def add(self, tup: ExtractedTuple) -> bool:
        """Add *tup*; return True if it was new (not a per-document dup)."""
        if tup.relation != self.schema.name:
            raise ValueError(
                f"tuple of relation {tup.relation!r} added to {self.schema.name!r}"
            )
        if len(tup.values) != self.schema.arity:
            raise ValueError(
                f"tuple arity {len(tup.values)} != schema arity {self.schema.arity}"
            )
        key = (tup.values, tup.document_id)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._tuples.append(tup)
        return True

    def extend(self, tuples: Iterable[ExtractedTuple]) -> int:
        """Add many tuples; return how many were new."""
        return sum(1 for t in tuples if self.add(t))

    @property
    def tuples(self) -> Tuple[ExtractedTuple, ...]:
        return tuple(self._tuples)

    def good_tuples(self) -> List[ExtractedTuple]:
        return [t for t in self._tuples if t.is_good]

    def bad_tuples(self) -> List[ExtractedTuple]:
        return [t for t in self._tuples if not t.is_good]

    # -- attribute-value occurrence accounting (Section V-A) ---------------

    def occurrence_counts(self, attribute_index: int) -> Tuple[Counter, Counter]:
        """Per-value counts of good and bad occurrences of an attribute.

        Returns ``(good, bad)`` Counters mapping attribute value -> number
        of occurrences, where each tuple contributes one occurrence of its
        value, labelled by the tuple's own label.  These are the observed
        ``gr_i(a)`` and ``br_i(a)`` quantities of the analysis.
        """
        good: Counter = Counter()
        bad: Counter = Counter()
        for t in self._tuples:
            value = t.value_of(attribute_index)
            if t.is_good:
                good[value] += 1
            else:
                bad[value] += 1
        return good, bad

    def good_values(self, attribute_index: int) -> FrozenSet[str]:
        """The set ``Ag`` of values with at least one good occurrence."""
        good, _ = self.occurrence_counts(attribute_index)
        return frozenset(good)

    def bad_values(self, attribute_index: int) -> FrozenSet[str]:
        """The set ``Ab`` of values with at least one bad occurrence."""
        _, bad = self.occurrence_counts(attribute_index)
        return frozenset(bad)

    def tuples_by_value(
        self, attribute_index: int
    ) -> Dict[str, List[ExtractedTuple]]:
        """Index the relation by one attribute (hash-join build side)."""
        index: Dict[str, List[ExtractedTuple]] = defaultdict(list)
        for t in self._tuples:
            index[t.value_of(attribute_index)].append(t)
        return dict(index)


@dataclass
class JoinComposition:
    """The good/bad breakdown of a join result (Section V-A notation).

    ``n_good`` is |Tgood⋈|; the three bad components correspond to the value
    classes Agb, Abg, Abb (plus cross-label occurrences of shared values).
    """

    n_good: int = 0
    n_good_bad: int = 0
    n_bad_good: int = 0
    n_bad_bad: int = 0

    @property
    def n_bad(self) -> int:
        """|Tbad⋈| = Jgb + Jbg + Jbb."""
        return self.n_good_bad + self.n_bad_good + self.n_bad_bad

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad


@dataclass(frozen=True)
class MultiJoinComposition:
    """Good/bad breakdown of an n-way join result.

    A result is good iff every constituent tuple is; an n-way join has no
    single good x bad split, so bad results are counted as one total.
    """

    n_good: int = 0
    n_bad: int = 0

    @property
    def n_total(self) -> int:
        return self.n_good + self.n_bad


class JoinState:
    """Incrementally maintained natural join of two extracted relations.

    This is the shared machinery of all three join algorithms (Section IV):
    whenever either side gains new tuples, :meth:`add` joins them against
    the *other* side's accumulated tuples — the ripple-join
    update ``(t1 ⋈ Tr2) ∪ (Tr1 ⋈ t2) ∪ (t1 ⋈ t2)`` of Figure 3 — and keep
    the good/bad composition up to date.
    """

    def __init__(
        self,
        left_schema: RelationSchema,
        right_schema: RelationSchema,
        join_attribute: Optional[str] = None,
    ) -> None:
        if join_attribute is None:
            shared = [a for a in left_schema.attributes if a in right_schema.attributes]
            if len(shared) != 1:
                raise ValueError(
                    "join attribute is ambiguous or missing; schemas share "
                    f"{shared!r} — pass join_attribute explicitly"
                )
            join_attribute = shared[0]
        self.join_attribute = join_attribute
        self.left = ExtractedRelation(left_schema)
        self.right = ExtractedRelation(right_schema)
        self.left_index = left_schema.index_of(join_attribute)
        self.right_index = right_schema.index_of(join_attribute)
        self._left_by_value: Dict[str, List[ExtractedTuple]] = defaultdict(list)
        self._right_by_value: Dict[str, List[ExtractedTuple]] = defaultdict(list)
        self._results: List[JoinTuple] = []
        self.composition = JoinComposition()

    def __len__(self) -> int:
        return len(self._results)

    @property
    def results(self) -> Tuple[JoinTuple, ...]:
        return tuple(self._results)

    def results_since(self, start: int) -> List[JoinTuple]:
        """Join tuples produced at or after index *start*.

        The result list is append-only, so incremental consumers (e.g.
        quality estimators called once per retrieval step) can track a
        cursor instead of re-reading everything.
        """
        return self._results[start:]

    def distinct_results(self) -> List[JoinTuple]:
        """One representative per distinct output-value combination.

        The join operates at *occurrence* level (the same fact mentioned
        in several document pairs yields several result tuples — that
        multiplicity is what the quality models count); user-facing output
        usually wants the set semantics this view provides.  A combination
        is kept with its first occurrence; a combination is good if it has
        at least one all-good derivation.
        """
        best: Dict[Tuple[str, ...], JoinTuple] = {}
        for joined in self._results:
            key = joined.values
            held = best.get(key)
            if held is None or (joined.is_good and not held.is_good):
                best[key] = joined
        return list(best.values())

    @property
    def join_indexes(self) -> List[int]:
        """The join attribute's index per side (for observations)."""
        return [self.left_index, self.right_index]

    def relation(self, side: int) -> ExtractedRelation:
        """Side 1 (left) or 2 (right), as :class:`TreeJoinState` numbers them."""
        return self.left if side == 1 else self.right

    def add(self, side: int, tuples: Iterable[ExtractedTuple]) -> List[JoinTuple]:
        """Insert new tuples of *side* (1 = left, 2 = right); return the
        join tuples they produced."""
        left_side = side == 1
        relation = self.left if left_side else self.right
        own_index = self.left_index if left_side else self.right_index
        own_by_value = self._left_by_value if left_side else self._right_by_value
        other_by_value = self._right_by_value if left_side else self._left_by_value
        produced: List[JoinTuple] = []
        for tup in tuples:
            if not relation.add(tup):
                continue
            value = tup.value_of(own_index)
            own_by_value[value].append(tup)
            for other in other_by_value.get(value, ()):
                left, right = (tup, other) if left_side else (other, tup)
                joined = JoinTuple(
                    left=left,
                    right=right,
                    join_value=value,
                    right_join_index=self.right_index,
                )
                self._results.append(joined)
                self._account(joined)
                produced.append(joined)
        return produced

    def _account(self, joined: JoinTuple) -> None:
        if joined.left.is_good and joined.right.is_good:
            self.composition.n_good += 1
        elif joined.left.is_good:
            self.composition.n_good_bad += 1
        elif joined.right.is_good:
            self.composition.n_bad_good += 1
        else:
            self.composition.n_bad_bad += 1


def compose_join(
    left: ExtractedRelation,
    right: ExtractedRelation,
    join_attribute: str,
) -> JoinComposition:
    """One-shot good/bad composition of ``left ⋈ right`` (Figure 2).

    Computes the composition directly from occurrence counts rather than by
    materializing join tuples:

        |Tgood⋈| = Σ_{a ∈ Agg} gr1(a) · gr2(a)

    and analogously for the bad components over Agb, Abg, Abb — the
    closed-form Equation 1 that the analytical models estimate.
    """
    li = left.schema.index_of(join_attribute)
    ri = right.schema.index_of(join_attribute)
    g1, b1 = left.occurrence_counts(li)
    g2, b2 = right.occurrence_counts(ri)
    comp = JoinComposition()
    for a in set(g1) | set(b1):
        comp.n_good += g1.get(a, 0) * g2.get(a, 0)
        comp.n_good_bad += g1.get(a, 0) * b2.get(a, 0)
        comp.n_bad_good += b1.get(a, 0) * g2.get(a, 0)
        comp.n_bad_bad += b1.get(a, 0) * b2.get(a, 0)
    return comp


@dataclass(frozen=True)
class ValueOverlap:
    """The four join-attribute value classes Agg, Agb, Abg, Abb (Table I)."""

    agg: FrozenSet[str] = field(default_factory=frozenset)
    agb: FrozenSet[str] = field(default_factory=frozenset)
    abg: FrozenSet[str] = field(default_factory=frozenset)
    abb: FrozenSet[str] = field(default_factory=frozenset)

    @classmethod
    def from_value_sets(
        cls,
        ag1: Iterable[str],
        ab1: Iterable[str],
        ag2: Iterable[str],
        ab2: Iterable[str],
    ) -> "ValueOverlap":
        ag1, ab1 = frozenset(ag1), frozenset(ab1)
        ag2, ab2 = frozenset(ag2), frozenset(ab2)
        return cls(
            agg=ag1 & ag2,
            agb=ag1 & ab2,
            abg=ab1 & ag2,
            abb=ab1 & ab2,
        )

    @classmethod
    def from_relations(
        cls,
        left: ExtractedRelation,
        right: ExtractedRelation,
        join_attribute: str,
    ) -> "ValueOverlap":
        li = left.schema.index_of(join_attribute)
        ri = right.schema.index_of(join_attribute)
        return cls.from_value_sets(
            left.good_values(li),
            left.bad_values(li),
            right.good_values(ri),
            right.bad_values(ri),
        )
