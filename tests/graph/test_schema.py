"""Tests for the RDFS schema registry."""

import pytest

from repro.graph.rdf import RDF_TYPE, RDFS_CLASS, RDFS_SUBCLASS_OF
from repro.graph.schema import RDFSchema


@pytest.fixture()
def schema() -> RDFSchema:
    s = RDFSchema()
    s.add_subclass("FullProfessor", "Professor")
    s.add_subclass("AssociateProfessor", "Professor")
    s.add_subclass("Professor", "Faculty")
    s.add_subclass("Faculty", "Person")
    s.add_instance("alice", "FullProfessor")
    s.add_instance("bob", "AssociateProfessor")
    s.add_instance("carol", "Faculty")
    return s


class TestClasses:
    def test_declared_classes_sorted(self, schema):
        assert "Professor" in schema.classes()
        assert list(schema.classes()) == sorted(schema.classes())

    def test_has_class(self, schema):
        assert schema.has_class("Faculty")
        assert not schema.has_class("Student")

    def test_superclasses_transitive(self, schema):
        assert schema.superclasses("FullProfessor") == {"Professor", "Faculty", "Person"}

    def test_superclasses_direct_only(self, schema):
        assert schema.superclasses("FullProfessor", transitive=False) == {"Professor"}

    def test_subclasses_transitive(self, schema):
        assert schema.subclasses("Faculty") == {
            "Professor",
            "FullProfessor",
            "AssociateProfessor",
        }

    def test_closure_of_unknown_class_is_empty(self, schema):
        assert schema.superclasses("Nope") == set()

    def test_cyclic_hierarchy_terminates(self):
        s = RDFSchema()
        s.add_subclass("A", "B")
        s.add_subclass("B", "A")
        assert s.superclasses("A") == {"A", "B"}


class TestInstances:
    def test_direct_instances(self, schema):
        assert schema.instances_of("FullProfessor", transitive=False) == ["alice"]

    def test_transitive_instances(self, schema):
        assert set(schema.instances_of("Faculty")) == {"alice", "bob", "carol"}

    def test_instances_deduplicated(self, schema):
        schema.add_instance("alice", "FullProfessor")
        assert schema.instances_of("FullProfessor", transitive=False) == ["alice"]

    def test_is_instance_direct_and_transitive(self, schema):
        assert schema.is_instance("alice", "FullProfessor")
        assert schema.is_instance("alice", "Person")
        assert not schema.is_instance("alice", "AssociateProfessor")
        assert not schema.is_instance("nobody", "Person")

    def test_classes_of(self, schema):
        assert schema.classes_of("bob") == {"AssociateProfessor"}
        assert schema.classes_of("nobody") == set()

    def test_typed_instances(self, schema):
        assert set(schema.typed_instances()) == {"alice", "bob", "carol"}


class TestDomainsRanges:
    def test_set_and_get(self):
        s = RDFSchema()
        s.set_domain("teaches", "Faculty")
        s.set_range("teaches", "Course")
        assert s.domain_of("teaches") == "Faculty"
        assert s.range_of("teaches") == "Course"
        assert s.properties() == ("teaches",)

    def test_missing_returns_none(self):
        s = RDFSchema()
        assert s.domain_of("x") is None
        assert s.range_of("x") is None


class TestTriples:
    def test_triples_contains_all_statement_kinds(self, schema):
        schema_with_props = schema
        schema_with_props.set_domain("teaches", "Faculty")
        triples = list(schema_with_props.triples())
        assert ("FullProfessor", RDF_TYPE, RDFS_CLASS) in triples
        assert ("FullProfessor", RDFS_SUBCLASS_OF, "Professor") in triples
        assert ("alice", RDF_TYPE, "FullProfessor") in triples
        assert ("teaches", "rdfs:domain", "Faculty") in triples
