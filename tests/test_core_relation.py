"""Unit and property tests for relations and join composition.

The incremental join of two relations is a two-relation
:class:`~repro.core.join_state.TreeJoinState`; its good x bad split is
:func:`~repro.core.relation.compose_join` (Equation 1), which a binary
executor's report carries.
"""

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ExtractedRelation,
    ExtractedTuple,
    RelationSchema,
    TreeJoinState,
    compose_join,
)


@dataclass(frozen=True)
class ValueOverlap:
    """The four join-attribute value classes Agg, Agb, Abg, Abb (Table I).

    The models take only the class sizes
    (:class:`repro.models.parameters.ValueOverlapModel`); the sets
    themselves pin the Figure 2 example.
    """

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


HQ = RelationSchema("HQ", ("Company", "Location"))
EX = RelationSchema("EX", ("Company", "CEO"))


def tup(relation, values, good, doc, schema_name=None):
    return ExtractedTuple(
        relation=relation,
        values=tuple(values),
        document_id=doc,
        confidence=1.0,
        is_good=good,
    )


class TestExtractedRelation:
    def test_add_and_len(self):
        rel = ExtractedRelation(HQ)
        assert rel.add(tup("HQ", ("a", "x"), True, 1))
        assert len(rel) == 1

    def test_duplicate_per_document_ignored(self):
        rel = ExtractedRelation(HQ)
        assert rel.add(tup("HQ", ("a", "x"), True, 1))
        assert not rel.add(tup("HQ", ("a", "x"), True, 1))
        assert len(rel) == 1

    def test_same_values_different_documents_kept(self):
        rel = ExtractedRelation(HQ)
        rel.add(tup("HQ", ("a", "x"), True, 1))
        rel.add(tup("HQ", ("a", "x"), True, 2))
        assert len(rel) == 2

    def test_wrong_relation_rejected(self):
        rel = ExtractedRelation(HQ)
        with pytest.raises(ValueError):
            rel.add(tup("EX", ("a", "x"), True, 1))

    def test_wrong_arity_rejected(self):
        rel = ExtractedRelation(HQ)
        with pytest.raises(ValueError):
            rel.add(tup("HQ", ("a",), True, 1))

    def test_since_reads_from_a_cursor(self):
        rel = ExtractedRelation(HQ)
        rel.add(tup("HQ", ("a", "x"), True, 1))
        rel.add(tup("HQ", ("b", "y"), False, 2))
        assert [t.document_id for t in rel.since(0)] == [1, 2]
        assert [t.document_id for t in rel.since(1)] == [2]
        assert rel.since(2) == []

    def test_occurrence_counts(self):
        rel = ExtractedRelation(HQ)
        rel.add(tup("HQ", ("a", "x"), True, 1))
        rel.add(tup("HQ", ("a", "y"), True, 2))
        rel.add(tup("HQ", ("a", "z"), False, 3))
        good, bad = rel.occurrence_counts(0)
        assert good["a"] == 2
        assert bad["a"] == 1

    def test_value_sets_can_overlap(self):
        rel = ExtractedRelation(HQ)
        rel.add(tup("HQ", ("a", "x"), True, 1))
        rel.add(tup("HQ", ("a", "z"), False, 3))
        good, bad = rel.occurrence_counts(0)
        assert "a" in good
        assert "a" in bad

    def test_extend_returns_new_count(self):
        rel = ExtractedRelation(HQ)
        added = rel.extend(
            [
                tup("HQ", ("a", "x"), True, 1),
                tup("HQ", ("a", "x"), True, 1),
                tup("HQ", ("b", "y"), False, 2),
            ]
        )
        assert added == 2


class TestFigure2Example:
    """The paper's Figure 2: R1 with Ag1={a,c}, Ab1={b,d,e}; R2 with
    Ag2={a,b}, Ab2={x,c,e} → |Tgood⋈|=1, |Tbad⋈|=3."""

    def build(self):
        r1 = ExtractedRelation(HQ)
        r1.add(tup("HQ", ("a", "l1"), True, 1))
        r1.add(tup("HQ", ("c", "l2"), True, 2))
        r1.add(tup("HQ", ("b", "l3"), False, 3))
        r1.add(tup("HQ", ("d", "l4"), False, 4))
        r1.add(tup("HQ", ("e", "l5"), False, 5))
        r2 = ExtractedRelation(EX)
        r2.add(tup("EX", ("a", "p1"), True, 1))
        r2.add(tup("EX", ("b", "p2"), True, 2))
        r2.add(tup("EX", ("x", "p3"), False, 3))
        r2.add(tup("EX", ("c", "p4"), False, 4))
        r2.add(tup("EX", ("e", "p5"), False, 5))
        return r1, r2

    def test_composition_counts(self):
        r1, r2 = self.build()
        comp = compose_join(r1, r2, "Company")
        assert comp.n_good == 1  # a ⋈ a
        assert comp.n_bad == 3  # c (gb), b (bg), e (bb)
        assert comp.n_good_bad == 1
        assert comp.n_bad_good == 1
        assert comp.n_bad_bad == 1

    def test_value_overlap_classes(self):
        r1, r2 = self.build()
        overlap = ValueOverlap.from_value_sets(
            *r1.occurrence_counts(0), *r2.occurrence_counts(0)
        )
        assert overlap.agg == frozenset({"a"})
        assert overlap.agb == frozenset({"c"})
        assert overlap.abg == frozenset({"b"})
        assert overlap.abb == frozenset({"e"})


def two_relation_state(left=HQ, right=EX, join_attribute=None):
    """The join state a binary executor starts from."""
    return TreeJoinState.star((left, right), join_attribute)


class TestJoinState:
    """The two-relation join state of the binary executors."""

    def test_join_attribute_inferred(self):
        state = two_relation_state()
        assert state.edges[0].left_attribute == "Company"
        assert state.join_indexes == [0, 0]

    def test_ambiguous_attribute_requires_explicit(self):
        with pytest.raises(ValueError):
            two_relation_state(HQ, HQ)
        state = two_relation_state(HQ, HQ, join_attribute="Company")
        assert state.edges[0].left_attribute == "Company"

    def test_incremental_matches_batch_composition(self):
        state = two_relation_state()
        left = [
            tup("HQ", ("a", "x"), True, 1),
            tup("HQ", ("b", "y"), False, 2),
            tup("HQ", ("a", "z"), False, 3),
        ]
        right = [
            tup("EX", ("a", "p"), True, 1),
            tup("EX", ("b", "q"), True, 2),
            tup("EX", ("a", "r"), False, 3),
        ]
        state.add(1, left[:2])
        state.add(2, right[:1])
        state.add(1, left[2:])
        state.add(2, right[1:])
        batch = compose_join(state.relation(1), state.relation(2), "Company")
        assert state.composition.n_good == batch.n_good
        assert state.composition.n_bad == batch.n_bad

    def test_produced_tuples_reported(self):
        state = two_relation_state()
        assert state.add(1, [tup("HQ", ("a", "x"), True, 1)]) == 1
        assert state.composition.n_total == 0
        added = state.add(
            2, [tup("EX", ("a", "p"), False, 1), tup("EX", ("a", "p"), False, 1)]
        )
        assert added == 1  # the per-document duplicate is dropped
        assert (state.composition.n_good, state.composition.n_bad) == (0, 1)
        [joined] = state.iter_results()
        assert not joined.is_good
        assert [part.relation for part in joined.parts] == ["HQ", "EX"]


@st.composite
def relation_pair(draw):
    values = [f"v{i}" for i in range(6)]
    n1 = draw(st.integers(1, 12))
    n2 = draw(st.integers(1, 12))

    def rel(schema, relation, count):
        out = ExtractedRelation(schema)
        for i in range(count):
            value = draw(st.sampled_from(values))
            good = draw(st.booleans())
            out.add(tup(relation, (value, f"s{i}"), good, i))
        return out

    return rel(HQ, "HQ", n1), rel(EX, "EX", n2)


class TestCompositionProperties:
    @given(relation_pair())
    @settings(max_examples=60, deadline=None)
    def test_composition_equals_materialized_join(self, pair):
        r1, r2 = pair
        comp = compose_join(r1, r2, "Company")
        # Materialize naively.
        good = bad = 0
        for t1 in r1:
            for t2 in r2:
                if t1.value_of(0) == t2.value_of(0):
                    if t1.is_good and t2.is_good:
                        good += 1
                    else:
                        bad += 1
        assert comp.n_good == good
        assert comp.n_bad == bad

    @given(relation_pair(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_incremental_join_state_matches_compose(self, pair, rng):
        """Tuples rippling in from both sides, in any interleaving, give
        Equation 1's composition; the split sums to the state's bad count."""
        r1, r2 = pair
        arrivals = [(1, t) for t in r1] + [(2, t) for t in r2]
        rng.shuffle(arrivals)
        state = two_relation_state()
        for side, t in arrivals:
            state.add(side, [t])
        comp = compose_join(state.relation(1), state.relation(2), "Company")
        assert state.composition.n_good == comp.n_good
        assert state.composition.n_bad == comp.n_bad
        materialized = list(state.iter_results())
        assert len(materialized) == comp.n_total
        split = [0, 0, 0, 0]
        for joined in materialized:
            left, right = joined.parts
            assert joined.is_good == (left.is_good and right.is_good)
            split[2 * (not left.is_good) + (not right.is_good)] += 1
        assert split == [comp.n_good, comp.n_good_bad, comp.n_bad_good, comp.n_bad_bad]
