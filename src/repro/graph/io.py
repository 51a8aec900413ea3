"""Serialisation of knowledge graphs.

Two formats are supported:

* **TSV edge list** — one ``source<TAB>label<TAB>target`` line per edge;
  the natural interchange format for the synthetic generators and the
  benchmark harness (fast, diff-able, no escaping headaches as vertex
  names in this library never contain tabs/newlines);
* **N-Triples-like** — ``<s> <p> <o> .`` lines with prefixed names
  expanded to IRIs, for interoperability with RDF tooling.  The reader
  accepts both full IRIs (re-shortened through the prefix table) and bare
  tokens, which covers the files the writer produces.

Schema statements travel as ordinary ``rdf:type`` / ``rdfs:subClassOf``
edges (as they do in the paper's Figure 2); :func:`load_tsv` rebuilds the
:class:`~repro.graph.schema.RDFSchema` from them on the way in.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import TextIO

from repro.exceptions import GraphError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.rdf import RDF_TYPE, RDFS_SUBCLASS_OF, expand, shorten
from repro.graph.schema import RDFSchema

__all__ = [
    "dump_tsv",
    "load_tsv",
    "dumps_tsv",
    "loads_tsv",
    "dump_ntriples",
    "load_ntriples",
]


# ----------------------------------------------------------------------
# TSV edge list
# ----------------------------------------------------------------------


def dump_tsv(graph: KnowledgeGraph, destination: str | Path | TextIO) -> None:
    """Write ``graph`` as a TSV edge list (deterministic edge order)."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            _write_tsv(graph, handle)
    else:
        _write_tsv(graph, destination)


def _write_tsv(graph: KnowledgeGraph, handle: TextIO) -> None:
    for source, label, target in graph.edges_named():
        handle.write(f"{source}\t{label}\t{target}\n")


def dumps_tsv(graph: KnowledgeGraph) -> str:
    """TSV edge list as a string."""
    buffer = io.StringIO()
    _write_tsv(graph, buffer)
    return buffer.getvalue()


def load_tsv(
    source: str | Path | TextIO,
    name: str = "kg",
    rebuild_schema: bool = True,
) -> KnowledgeGraph:
    """Read a TSV edge list back into a graph (schema rebuilt by default)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_tsv(handle, name, rebuild_schema)
    return _read_tsv(source, name, rebuild_schema)


def loads_tsv(text: str, name: str = "kg", rebuild_schema: bool = True) -> KnowledgeGraph:
    """Parse a TSV edge list from a string."""
    return _read_tsv(io.StringIO(text), name, rebuild_schema)


def _read_tsv(handle: TextIO, name: str, rebuild_schema: bool) -> KnowledgeGraph:
    return _build(_tsv_triples(handle), name, rebuild_schema)


def _tsv_triples(handle: TextIO) -> Iterator[list[str]]:
    r"""``[source, label, target]`` per edge line of ``handle``, streamed.

    A line ends at ``\n`` with or without a ``\r`` before it, whatever
    the source: a file opened in text mode translates ``\r\n``, but a
    string or a caller's handle does not, and the ``\r`` must not end up
    in a vertex name.
    """
    for line_number, raw in enumerate(handle, start=1):
        line = raw.rstrip("\r\n")
        if not line or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise GraphError(
                f"malformed TSV edge on line {line_number}: expected 3 "
                f"tab-separated fields, got {len(parts)}"
            )
        yield parts


def _build(
    triples: Iterable[Sequence[str]], name: str, rebuild_schema: bool
) -> KnowledgeGraph:
    """The graph of ``triples`` — streamed, one pass — and its schema."""
    schema = RDFSchema()
    if rebuild_schema:
        triples = _recording(schema, triples)
    return KnowledgeGraph.from_triples(triples, name=name, schema=schema)


def _recording(
    schema: RDFSchema, triples: Iterable[Sequence[str]]
) -> Iterator[Sequence[str]]:
    """Pass ``triples`` through, recording their schema statements."""
    for triple in triples:
        label = triple[1]
        if label == RDF_TYPE:
            schema.add_instance(triple[0], triple[2])
        elif label == RDFS_SUBCLASS_OF:
            schema.add_subclass(triple[0], triple[2])
        yield triple


# ----------------------------------------------------------------------
# N-Triples-like
# ----------------------------------------------------------------------


def dump_ntriples(graph: KnowledgeGraph, destination: str | Path | TextIO) -> None:
    """Write ``graph`` as N-Triples with prefixed names expanded to IRIs."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            _write_ntriples(graph, handle)
    else:
        _write_ntriples(graph, destination)


def _write_ntriples(graph: KnowledgeGraph, handle: TextIO) -> None:
    for source, label, target in graph.edges_named():
        handle.write(
            f"<{expand(str(source))}> <{expand(label)}> <{expand(str(target))}> .\n"
        )


def load_ntriples(
    source: str | Path | TextIO,
    name: str = "kg",
    rebuild_schema: bool = True,
) -> KnowledgeGraph:
    """Read an N-Triples-like file (IRIs shortened via the prefix table)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_ntriples(handle, name, rebuild_schema)
    return _read_ntriples(source, name, rebuild_schema)


def _read_ntriples(handle: TextIO, name: str, rebuild_schema: bool) -> KnowledgeGraph:
    return _build(_ntriples(handle), name, rebuild_schema)


def _ntriples(handle: TextIO) -> Iterator[tuple[str, str, str]]:
    for line_number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield _parse_ntriple_line(line, line_number)


def _parse_ntriple_line(line: str, line_number: int) -> tuple[str, str, str]:
    if not line.endswith("."):
        raise GraphError(f"N-Triples line {line_number} does not end with '.'")
    body = line[:-1].strip()
    terms: list[str] = []
    index = 0
    while index < len(body) and len(terms) < 3:
        char = body[index]
        if char.isspace():
            index += 1
            continue
        if char == "<":
            close = body.find(">", index)
            if close == -1:
                raise GraphError(f"unterminated IRI on N-Triples line {line_number}")
            terms.append(shorten(body[index + 1 : close]))
            index = close + 1
        elif char == '"':
            close = body.find('"', index + 1)
            if close == -1:
                raise GraphError(f"unterminated literal on N-Triples line {line_number}")
            terms.append(body[index + 1 : close])
            index = close + 1
        else:
            end = index
            while end < len(body) and not body[end].isspace():
                end += 1
            terms.append(shorten(body[index:end]))
            index = end
    if len(terms) != 3:
        raise GraphError(
            f"N-Triples line {line_number}: expected 3 terms, found {len(terms)}"
        )
    return terms[0], terms[1], terms[2]
