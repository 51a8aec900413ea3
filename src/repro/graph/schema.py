"""RDFS schema (the ``LS`` component of Definition 2.1).

The schema records the RDFS triples of the knowledge graph: class
declarations, the ``rdfs:subClassOf`` hierarchy, ``rdf:type`` assertions
(instance registry), and ``rdfs:domain`` / ``rdfs:range`` statements for
edge labels.  Two parts of the reproduction depend on it:

* **landmark selection** (Algorithm 3, Section 5.1.2): INS selects
  landmarks by first sampling *classes* from ``LS`` and then evenly
  marking instances of those classes, instead of taking highest-degree
  vertices — which on a KG would be class hubs reachable only through
  RDF vocabulary edges;
* **random substructure constraints** (Section 6.2): constraints are
  grown outward from a random instance vertex, guided by the schema.

The schema is name-based (it stores vertex *names*, not ids) so it can be
populated before or after the graph and serialised independently.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator
from itertools import chain

__all__ = ["RDFSchema"]


class RDFSchema:
    """Registry of classes, subclass edges, instances, domains and ranges.

    ``rdf:type`` assertions are kept one way only: a list of instances
    per class, appended to as they arrive — no set per instance, so a
    typed vertex costs the schema one list slot.  A repeated assertion
    is appended again and dropped when the list is read (first-seen
    order kept, as a graph row drops a duplicate edge); the per-instance
    questions (:meth:`classes_of`, :meth:`is_instance`,
    :meth:`typed_instances`) scan those lists.
    """

    __slots__ = (
        "_classes",
        "_superclasses",
        "_subclasses",
        "_instances_by_class",
        "_domains",
        "_ranges",
    )

    def __init__(self) -> None:
        self._classes: set[str] = set()
        self._superclasses: dict[str, set[str]] = {}
        self._subclasses: dict[str, set[str]] = {}
        self._instances_by_class: dict[str, list[Hashable]] = {}
        self._domains: dict[str, str] = {}
        self._ranges: dict[str, str] = {}

    def __repr__(self) -> str:
        typed = sum(len(self._instances(cls)) for cls in self._instances_by_class)
        return f"RDFSchema({len(self._classes)} classes, {typed} typed instances)"

    # ------------------------------------------------------------------
    # classes
    # ------------------------------------------------------------------

    def add_class(self, name: str) -> None:
        """Declare ``name`` as an ``rdfs:Class`` (idempotent)."""
        self._classes.add(name)

    def has_class(self, name: str) -> bool:
        """True if ``name`` was declared as a class."""
        return name in self._classes

    def classes(self) -> tuple[str, ...]:
        """All declared classes, sorted for determinism."""
        return tuple(sorted(self._classes))

    def add_subclass(self, subclass: str, superclass: str) -> None:
        """Record ``subclass rdfs:subClassOf superclass`` (declares both)."""
        self.add_class(subclass)
        self.add_class(superclass)
        self._superclasses.setdefault(subclass, set()).add(superclass)
        self._subclasses.setdefault(superclass, set()).add(subclass)

    def superclasses(self, name: str, transitive: bool = True) -> set[str]:
        """Superclasses of ``name`` (transitively by default, excl. itself)."""
        return self._closure(name, self._superclasses, transitive)

    def subclasses(self, name: str, transitive: bool = True) -> set[str]:
        """Subclasses of ``name`` (transitively by default, excl. itself)."""
        return self._closure(name, self._subclasses, transitive)

    @staticmethod
    def _closure(start: str, edges: dict[str, set[str]], transitive: bool) -> set[str]:
        direct = edges.get(start, set())
        if not transitive:
            return set(direct)
        seen: set[str] = set()
        stack = list(direct)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(edges.get(current, ()))
        return seen

    # ------------------------------------------------------------------
    # instances (rdf:type assertions)
    # ------------------------------------------------------------------

    def add_instance(self, instance: Hashable, class_name: str) -> None:
        """Record ``instance rdf:type class_name`` (declares the class)."""
        self._classes.add(class_name)
        members = self._instances_by_class.get(class_name)
        if members is None:
            self._instances_by_class[class_name] = [instance]
        else:
            members.append(instance)

    def _instances(self, class_name: str) -> list[Hashable]:
        """The distinct direct instances of ``class_name``, first-seen order."""
        members = self._instances_by_class.get(class_name, ())
        return list(dict.fromkeys(members)) if len(members) > 1 else list(members)

    def instances_of(self, class_name: str, transitive: bool = True) -> list[Hashable]:
        """Instances of ``class_name`` (including subclasses by default).

        Returned in insertion order (deterministic for seeded generators);
        with ``transitive`` the subclass extensions are appended in sorted
        subclass order, deduplicated.
        """
        if not transitive:
            return self._instances(class_name)
        extension = [class_name, *sorted(self.subclasses(class_name))]
        return list(
            dict.fromkeys(
                chain.from_iterable(
                    self._instances_by_class.get(cls, ()) for cls in extension
                )
            )
        )

    def classes_of(self, instance: Hashable) -> set[str]:
        """Directly asserted classes of ``instance`` (no closure)."""
        return {
            cls
            for cls, members in self._instances_by_class.items()
            if instance in members
        }

    def is_instance(self, instance: Hashable, class_name: str) -> bool:
        """True if ``instance`` is typed by ``class_name`` or a subclass."""
        return any(
            instance in self._instances_by_class.get(cls, ())
            for cls in (class_name, *self.subclasses(class_name))
        )

    def typed_instances(self) -> Iterator[Hashable]:
        """Every instance with at least one ``rdf:type`` assertion, once,
        class by class in the order each class was first asserted."""
        members = self._instances_by_class.values()
        return iter(dict.fromkeys(chain.from_iterable(members)))

    # ------------------------------------------------------------------
    # property domains / ranges
    # ------------------------------------------------------------------

    def set_domain(self, prop: str, class_name: str) -> None:
        """Record ``prop rdfs:domain class_name``."""
        self.add_class(class_name)
        self._domains[prop] = class_name

    def set_range(self, prop: str, class_name: str) -> None:
        """Record ``prop rdfs:range class_name``."""
        self.add_class(class_name)
        self._ranges[prop] = class_name

    def domain_of(self, prop: str) -> str | None:
        """Declared domain class of ``prop``, if any."""
        return self._domains.get(prop)

    def range_of(self, prop: str) -> str | None:
        """Declared range class of ``prop``, if any."""
        return self._ranges.get(prop)

    def properties(self) -> tuple[str, ...]:
        """Properties with a declared domain or range, sorted."""
        return tuple(sorted(set(self._domains) | set(self._ranges)))

    def triples(self) -> Iterator[tuple[Hashable, str, Hashable]]:
        """Yield the schema as RDF triples (the literal ``LS`` set)."""
        from repro.graph.rdf import RDF_TYPE, RDFS_CLASS, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASS_OF

        for cls in sorted(self._classes):
            yield (cls, RDF_TYPE, RDFS_CLASS)
        for sub in sorted(self._superclasses):
            for sup in sorted(self._superclasses[sub]):
                yield (sub, RDFS_SUBCLASS_OF, sup)
        for cls in sorted(self._instances_by_class):
            for instance in self._instances(cls):
                yield (instance, RDF_TYPE, cls)
        for prop in sorted(self._domains):
            yield (prop, RDFS_DOMAIN, self._domains[prop])
        for prop in sorted(self._ranges):
            yield (prop, RDFS_RANGE, self._ranges[prop])
