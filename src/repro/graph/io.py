"""Serialisation of knowledge graphs as a TSV edge list.

One ``source<TAB>label<TAB>target`` line per edge: the interchange
format of the synthetic generators, ``python -m repro`` and the
benchmarks (fast, diff-able, no escaping headaches as vertex names in
this library never contain tabs/newlines).

Schema statements travel as ordinary ``rdf:type`` / ``rdfs:subClassOf``
edges (as they do in the paper's Figure 2); :func:`load_tsv` rebuilds the
:class:`~repro.graph.schema.RDFSchema` from them on the way in.
"""

from __future__ import annotations

import io
from collections.abc import Iterator
from pathlib import Path
from typing import TextIO

from repro.exceptions import GraphError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.rdf import RDF_TYPE, RDFS_SUBCLASS_OF
from repro.graph.schema import RDFSchema

__all__ = [
    "dump_tsv",
    "load_tsv",
    "dumps_tsv",
    "loads_tsv",
]


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
    *,
    frozen: bool = False,
) -> KnowledgeGraph:
    """Read a TSV edge list back into a graph (schema rebuilt by default).

    ``frozen=True`` is the serving boot: the result is the graph's CSR
    snapshot, each row cut and its flat pair list dropped as the file is
    finished, never the mutable graph and its snapshot side by side
    (:meth:`KnowledgeGraph.from_triples`).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _read_tsv(handle, name, rebuild_schema, frozen)
    return _read_tsv(source, name, rebuild_schema, frozen)


def loads_tsv(text: str, name: str = "kg", rebuild_schema: bool = True) -> KnowledgeGraph:
    """Parse a TSV edge list from a string."""
    return _read_tsv(io.StringIO(text), name, rebuild_schema)


def _read_tsv(
    handle: TextIO, name: str, rebuild_schema: bool, frozen: bool = False
) -> KnowledgeGraph:
    """The graph of ``handle``'s edge lines — streamed, one pass — and
    its schema."""
    schema = RDFSchema()
    return KnowledgeGraph.from_triples(
        _tsv_triples(handle, schema if rebuild_schema else None),
        name=name,
        schema=schema,
        frozen=frozen,
    )


def _tsv_triples(handle: TextIO, schema: RDFSchema | None) -> Iterator[list[str]]:
    r"""``[source, label, target]`` per edge line of ``handle``, streamed;
    given ``schema``, its ``rdf:type`` and ``rdfs:subClassOf`` lines are
    recorded there on the way.

    A line ends at ``\n`` with or without a ``\r`` before it, whatever
    the source: a file opened in text mode translates ``\r\n``, but a
    string or a caller's handle does not, and the ``\r`` must not end up
    in a vertex name.  Bytes that are not UTF-8 raise
    :class:`~repro.exceptions.GraphError` naming their line: the failed
    chunk starts on the line after the last one read.
    """
    line_number = 0
    try:
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
            if schema is not None:
                label = parts[1]
                if label == RDF_TYPE:
                    schema.add_instance(parts[0], parts[2])
                elif label == RDFS_SUBCLASS_OF:
                    schema.add_subclass(parts[0], parts[2])
            yield parts
    except UnicodeDecodeError as error:
        line_number += 1 + error.object.count(b"\n", 0, error.start)
        raise GraphError(
            f"TSV line {line_number} is not UTF-8: {error.reason}"
        ) from error
