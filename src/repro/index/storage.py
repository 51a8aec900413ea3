"""Local-index persistence and on-disk size accounting (Table 2 "IS").

The paper stores both competing indexes "by the same data structure and
on disk" and reports their sizes; this module serialises a
:class:`~repro.index.local_index.LocalIndex` to a compact JSON document
so the benchmark can report real on-disk bytes.  JSON is chosen over
pickle deliberately: index files are plain data, diffable, and safe to
load from untrusted sources.

Masks are written as hex strings (arbitrary-width label universes);
vertex ids as ints.  The graph itself is *not* stored — an index is only
valid against the exact graph it was built from, so the file records
that graph's :meth:`~repro.graph.labeled_graph.KnowledgeGraph.content_fingerprint`
and loading refuses any other graph, even one of the same size.
"""

from __future__ import annotations

import json
from pathlib import Path

import random

from repro.exceptions import IndexingError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.cms import CmsTable
from repro.index.landmarks import Partition
from repro.index.local_index import LocalIndex, build_local_index
from repro.utils.persist import atomic_write_json

__all__ = [
    "save_local_index",
    "load_local_index",
    "load_or_build_index",
]

#: 2 records the graph's content fingerprint; a version-1 file cannot
#: say which graph it describes, so it is refused like a stale one.
_FORMAT_VERSION = 2

#: How a refused file is replaced.
_REBUILD_HINT = "rebuild it with `python -m repro index`"


def save_local_index(index: LocalIndex, path: str | Path) -> int:
    """Write ``index`` to ``path``; returns the file size in bytes."""
    document = {
        "format_version": _FORMAT_VERSION,
        "graph_name": index.graph.name,
        "num_vertices": index.graph.num_vertices,
        "fingerprint": index.graph.content_fingerprint(),
        "landmarks": index.partition.landmarks,
        "region": index.partition.region,
        "ii": {
            str(u): {str(v): [hex(m) for m in masks] for v, masks in table.items()}
            for u, table in index.ii.items()
        },
        "eit": {
            str(u): {hex(mask): vertices for mask, vertices in transposed.items()}
            for u, transposed in index.eit.items()
        },
        "d": {
            str(u): {str(v): count for v, count in row.items()}
            for u, row in index.d.items()
        },
        "build_seconds": index.build_seconds,
    }
    return atomic_write_json(document, path, encoding="ascii")


def load_local_index(path: str | Path, graph: KnowledgeGraph) -> LocalIndex:
    """Load an index written by :func:`save_local_index` for ``graph``.

    Raises :class:`~repro.exceptions.IndexingError` when the file was
    written by another format version or for a graph whose content
    differs from ``graph``'s — an index of a stale graph answers INS
    wrongly, however many vertices the two share.
    """
    with open(path, "r", encoding="ascii") as handle:
        document = json.load(handle)
    if document.get("format_version") != _FORMAT_VERSION:
        raise IndexingError(
            f"unsupported index format version {document.get('format_version')!r} "
            f"in {path} (expected {_FORMAT_VERSION}); {_REBUILD_HINT}"
        )
    if document["fingerprint"] != graph.content_fingerprint():
        raise IndexingError(
            f"index/graph mismatch: {path} was built for a graph of "
            f"{document['num_vertices']} vertices with fingerprint "
            f"{document['fingerprint']}, not for {graph.name!r} "
            f"({graph.num_vertices} vertices, fingerprint "
            f"{graph.content_fingerprint()}); {_REBUILD_HINT}"
        )
    landmarks = list(document["landmarks"])
    region = list(document["region"])
    members: dict[int, list[int]] = {u: [] for u in landmarks}
    for vertex, owner in enumerate(region):
        if owner != -1:
            members.setdefault(owner, []).append(vertex)
    partition = Partition(landmarks=landmarks, region=region, members=members)
    index = LocalIndex(graph, partition)
    for u_text, table_doc in document["ii"].items():
        table = CmsTable()
        for v_text, masks in table_doc.items():
            vertex = int(v_text)
            for mask_text in masks:
                table.insert(vertex, int(mask_text, 16))
        index.ii[int(u_text)] = table
    for u_text, transposed_doc in document["eit"].items():
        index.eit[int(u_text)] = {
            int(mask_text, 16): list(vertices)
            for mask_text, vertices in transposed_doc.items()
        }
    for u_text, row in document["d"].items():
        index.d[int(u_text)] = {int(v_text): count for v_text, count in row.items()}
    index.build_seconds = float(document.get("build_seconds", 0.0))
    return index


def load_or_build_index(
    graph: KnowledgeGraph,
    path: str | Path | None = None,
    *,
    k: int | None = None,
    rng: int | random.Random | None = 0,
    save_if_built: bool = True,
) -> LocalIndex:
    """Warm-start helper for long-lived processes (the query service's
    first index read, :class:`~repro.service.epoch.IndexSource`).

    * ``path`` is ``None`` — build in memory, persist nothing;
    * ``path`` exists — load it (validated against ``graph``);
    * ``path`` is missing — build, and persist there when
      ``save_if_built`` so the *next* start is warm.

    With a fixed ``rng`` seed the built and reloaded indexes answer
    identically, so callers never need to care which branch ran.

    Long-lived callers should pass the graph *already frozen*
    (:meth:`~repro.graph.labeled_graph.KnowledgeGraph.freeze`), the way
    the service does: the index build's BFS traversals then run on the
    CSR layout, and the loaded index binds to the exact graph object the
    sessions will traverse.
    """
    if path is None:
        return build_local_index(graph, k=k, rng=rng)
    path = Path(path)
    if path.is_file():
        return load_local_index(path, graph)
    index = build_local_index(graph, k=k, rng=rng)
    if save_if_built:
        save_local_index(index, path)
    return index
