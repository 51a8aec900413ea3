"""RDF/RDFS vocabulary constants and IRI shortening.

The paper (Section 2) models knowledge graphs as RDF graphs structured by
RDFS: class vertices, ``rdf:type`` edges from instances to classes,
``rdfs:subClassOf`` edges between classes, and ``rdfs:domain`` /
``rdfs:range`` statements tying edge labels to classes (Figure 2).  The
reproduction keeps the familiar prefixed-name spelling (``rdf:type``)
rather than full IRIs; :func:`shorten` maps a full IRI written in a
constraint's SPARQL text back to that spelling.
"""

from __future__ import annotations

__all__ = [
    "RDF_TYPE",
    "RDFS_SUBCLASS_OF",
    "RDFS_DOMAIN",
    "RDFS_RANGE",
    "RDFS_CLASS",
    "PREFIXES",
    "shorten",
]

RDF_TYPE = "rdf:type"
RDFS_SUBCLASS_OF = "rdfs:subClassOf"
RDFS_DOMAIN = "rdfs:domain"
RDFS_RANGE = "rdfs:range"
RDFS_CLASS = "rdfs:Class"

#: Prefix table used when shortening full IRIs to prefixed names.
PREFIXES: dict[str, str] = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#",
    "eg": "http://example.org/",
    "yago": "http://yago-knowledge.org/resource/",
}


def shorten(iri: str, prefixes: dict[str, str] | None = None) -> str:
    """Shorten a full IRI back to a prefixed name when a prefix matches.

    The longest matching namespace wins; unmatched IRIs are returned
    unchanged.
    """
    table = PREFIXES if prefixes is None else prefixes
    best_prefix = None
    best_namespace = ""
    for prefix, namespace in table.items():
        if iri.startswith(namespace) and len(namespace) > len(best_namespace):
            best_prefix = prefix
            best_namespace = namespace
    if best_prefix is None:
        return iri
    return f"{best_prefix}:{iri[len(best_namespace):]}"
