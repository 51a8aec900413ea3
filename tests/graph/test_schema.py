"""Tests for the RDFS schema registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class ReferenceSchema(RDFSchema):
    """The instance registry as it was kept with a set of classes per
    instance beside each class's list, a repeat refused on the way in:
    the reference the one-list registry must answer as."""

    __slots__ = ("_classes_by_instance",)

    def __init__(self) -> None:
        super().__init__()
        self._classes_by_instance: dict = {}

    def add_instance(self, instance, class_name):
        self.add_class(class_name)
        known = self._classes_by_instance.setdefault(instance, set())
        if class_name in known:
            return
        known.add(class_name)
        self._instances_by_class.setdefault(class_name, []).append(instance)

    def instances_of(self, class_name, transitive=True):
        result = list(self._instances_by_class.get(class_name, ()))
        if transitive:
            seen = set(result)
            for sub in sorted(self.subclasses(class_name)):
                for instance in self._instances_by_class.get(sub, ()):
                    if instance not in seen:
                        seen.add(instance)
                        result.append(instance)
        return result

    def classes_of(self, instance):
        return set(self._classes_by_instance.get(instance, ()))

    def is_instance(self, instance, class_name):
        direct = self._classes_by_instance.get(instance)
        if not direct:
            return False
        if class_name in direct:
            return True
        return any(class_name in self.superclasses(c) for c in direct)

    def typed_instances(self):
        return iter(self._classes_by_instance)


CLASSES = ["A", "B", "C", "D"]
#: ``rdf:type`` and ``rdfs:subClassOf`` statements; small pools, so
#: repeated ``rdf:type`` lines and subclass cycles are common.
STATEMENTS = st.lists(
    st.one_of(
        st.tuples(st.just(RDF_TYPE), st.sampled_from(["x", "y", "z", 1]),
                  st.sampled_from(CLASSES)),
        st.tuples(st.just(RDFS_SUBCLASS_OF), st.sampled_from(CLASSES),
                  st.sampled_from(CLASSES)),
    ),
    max_size=30,
)


class TestOneListPerClass:
    @settings(deadline=None)
    @given(statements=STATEMENTS)
    def test_answers_as_the_per_instance_registry(self, statements):
        schema, reference = RDFSchema(), ReferenceSchema()
        for built in (schema, reference):
            for kind, subject, obj in statements:
                if kind == RDF_TYPE:
                    built.add_instance(subject, obj)
                else:
                    built.add_subclass(subject, obj)
        assert schema.classes() == reference.classes()
        assert list(schema.triples()) == list(reference.triples())
        assert set(schema.typed_instances()) == set(reference.typed_instances())
        assert len(list(schema.typed_instances())) == len(set(schema.typed_instances()))
        for cls in [*CLASSES, "Unknown"]:
            for transitive in (True, False):
                assert schema.instances_of(cls, transitive) == reference.instances_of(
                    cls, transitive
                )
                assert schema.superclasses(cls, transitive) == reference.superclasses(
                    cls, transitive
                )
                assert schema.subclasses(cls, transitive) == reference.subclasses(
                    cls, transitive
                )
            for instance in ["x", "y", "z", 1, "nobody"]:
                assert schema.is_instance(instance, cls) == reference.is_instance(
                    instance, cls
                )
        for instance in ["x", "y", "z", 1, "nobody"]:
            assert schema.classes_of(instance) == reference.classes_of(instance)
        assert repr(schema) == repr(reference)
