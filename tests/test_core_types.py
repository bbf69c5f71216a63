"""Unit tests for repro.core.types."""

import pytest

from repro.core import (
    DocumentClass,
    ExtractedTuple,
    Fact,
    RelationSchema,
    TupleLabel,
)


def make_tuple(relation="HQ", values=("acme", "boston"), good=True, doc=0):
    return ExtractedTuple(
        relation=relation,
        values=values,
        document_id=doc,
        confidence=0.9,
        is_good=good,
    )


class TestRelationSchema:
    def test_arity(self):
        schema = RelationSchema("HQ", ("Company", "Location"))
        assert schema.arity == 2

    def test_index_of(self):
        schema = RelationSchema("HQ", ("Company", "Location"))
        assert schema.index_of("Company") == 0
        assert schema.index_of("Location") == 1

    def test_index_of_missing_raises(self):
        schema = RelationSchema("HQ", ("Company", "Location"))
        with pytest.raises(KeyError):
            schema.index_of("CEO")

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ())

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ValueError):
            RelationSchema("R", ("A", "A"))

    def test_unary_schema_allowed(self):
        assert RelationSchema("R", ("A",)).arity == 1


class TestFact:
    def test_value_of(self):
        fact = Fact("HQ", ("acme", "boston"), is_true=True)
        assert fact.value_of(0) == "acme"
        assert fact.value_of(1) == "boston"

    def test_facts_hashable_and_distinct_by_truth(self):
        a = Fact("HQ", ("acme", "boston"), is_true=True)
        b = Fact("HQ", ("acme", "boston"), is_true=False)
        assert a != b
        assert len({a, b}) == 2


class TestExtractedTuple:
    def test_label_good(self):
        assert make_tuple(good=True).label is TupleLabel.GOOD

    def test_label_bad(self):
        assert make_tuple(good=False).label is TupleLabel.BAD

    def test_value_of(self):
        tup = make_tuple(values=("acme", "boston"))
        assert tup.value_of(1) == "boston"

    def test_immutable(self):
        tup = make_tuple()
        with pytest.raises(AttributeError):
            tup.confidence = 0.1


class TestDocumentClass:
    def test_three_classes(self):
        assert {c.value for c in DocumentClass} == {"good", "bad", "empty"}
