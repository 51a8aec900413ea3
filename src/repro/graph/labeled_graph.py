"""The core edge-labeled directed graph (Definition 2.1).

A knowledge graph ``G = (V, E, 𝕃, LS)`` is a set of vertices ``V``, a set
of labeled directed edges ``E ⊆ V × 𝕃 × V``, the label universe ``𝕃`` and
an RDFS schema ``LS``.  This module implements the ``(V, E, 𝕃)`` part;
the schema lives in :mod:`repro.graph.schema` and is attached via the
``schema`` attribute so that ``G`` remains a single object as in the
paper.

Representation choices (all driven by the hot loops of UIS/UIS*/INS and
the SPARQL evaluator):

* vertices and labels are interned to dense ints; every algorithm works
  on ids and converts to names only at the API boundary;
* adjacency is a per-vertex ``dict[label_id, list[vertex_id]]`` in both
  directions, so label-constrained expansion (the single most executed
  operation in the paper's algorithms) never touches edges with labels
  outside the constraint mask;
* the rows are the only store of an edge: ``E`` is a *set* (the paper's
  definition), so a duplicate ``(s, l, t)`` insertion is ignored, and
  that test, ``has_edge`` and the per-label scans all read the rows;
  per-label edge *counts* feed the SPARQL evaluator's selectivity
  ordering.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections.abc import Hashable, Iterable, Iterator, Sequence
from itertools import islice, repeat
from operator import itemgetter

from repro.exceptions import VertexNotFoundError
from repro.graph.labels import LabelUniverse, iter_mask_bits

__all__ = ["KnowledgeGraph", "Edge"]

#: An edge as exposed by iteration APIs: ``(source_id, label_id, target_id)``.
Edge = tuple[int, int, int]

#: One vertex's row in one direction: ``row[label_id]`` lists neighbours.
Row = dict[int, list[int]]

#: One direction's adjacency rows, indexed by vertex id.
Rows = list[Row]

#: One vertex's row in one direction in its served shape, before it is
#: cut (:class:`~repro.graph.csr.CsrDirection`): ``(vertex_id, mask,
#: targets, bounds)`` — the bitmask of its labels, every distinct
#: neighbour, label-major by ascending label, and where each label's
#: group ends, flat: ``(label_0, end_0, label_1, end_1, ...)``.
ShapedRow = tuple[int, int, Sequence[int], Sequence[int]]

_LABEL = itemgetter(0)
_NEIGHBOUR = itemgetter(1)

_MASK64 = (1 << 64) - 1

#: Edges mixed per pass of :func:`_edge_accumulator`, one 128-bit lane
#: each, and the low 64 bits of every lane of a full pass.
_CHUNK = 4096
_LANES = int.from_bytes((b"\xff" * 8 + bytes(8)) * _CHUNK, "little")


def _lanes(ids: Sequence[int]) -> int:
    """``ids`` as one int, each id in the low 64 bits of its own
    128-bit lane (the first id in the lowest)."""
    words = array("Q", bytes(len(ids) << 4))
    words[::2] = array("Q", ids)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def _edge_accumulator(
    sources: Sequence[int], labels: Sequence[int], targets: Sequence[int]
) -> int:
    """The content fingerprint's order-insensitive 64-bit sum over the
    edges ``zip(sources, labels, targets)``.

    Each triple goes through a splitmix64-style finalizer — cheap, and
    stable across processes (no built-in ``hash()``) — and the terms are
    summed mod 2⁶⁴, so an edge is taken back out by subtracting its
    term.  The arithmetic runs on up to :data:`_CHUNK` edges at once, in
    C: each column is laid out in 128-bit lanes of one int, where an id
    times a 64-bit constant cannot carry into the next lane; every
    shifted term is masked back to its lane's low 64 bits, and the
    lanes are summed by halving the int into itself.  One routine for
    the boot's fold, the full scan and a single edge, so the running
    value and the from-scratch one cannot drift apart in the arithmetic.
    """
    accumulator = 0
    for start in range(0, len(sources), _CHUNK):
        stop = start + _CHUNK
        lanes = min(_CHUNK, len(sources) - start)
        mask = _LANES >> ((_CHUNK - lanes) << 7)
        mixed = (
            _lanes(sources[start:stop]) * 0x9E3779B97F4A7C15
            ^ _lanes(labels[start:stop]) * 0xBF58476D1CE4E5B9
            ^ _lanes(targets[start:stop]) * 0x94D049BB133111EB
        ) & mask
        mixed ^= (mixed >> 30) & mask
        mixed = mixed * 0xBF58476D1CE4E5B9 & mask
        mixed ^= (mixed >> 27) & mask
        while lanes > 1:
            half = (lanes + 1) >> 1
            bits = half << 7
            mixed = (mixed & ((1 << bits) - 1)) + (mixed >> bits)
            lanes = half
        accumulator += mixed
    return accumulator & _MASK64


def _scanned_accumulator(edges: Iterable[Edge]) -> int:
    """:func:`_edge_accumulator` over ``edges``, taken a chunk at a time."""
    edges = iter(edges)
    accumulator = 0
    while chunk := list(islice(edges, _CHUNK)):
        accumulator += _edge_accumulator(*zip(*chunk))
    return accumulator & _MASK64


def _groups(
    targets: Sequence[int], bounds: Sequence[int]
) -> Iterator[tuple[int, Sequence[int]]]:
    """A shaped row's ``(label_id, ids)`` groups in ascending label
    order, each a slice of ``targets`` taken as it is reached."""
    start = 0
    ends = iter(bounds)
    for label_id, end in zip(ends, ends):
        yield label_id, targets[start:end]
        start = end


def _shaped(vid: int, row: Row) -> ShapedRow:
    """A dict row in its :data:`ShapedRow` form."""
    mask = 0
    targets: list[int] = []
    bounds: list[int] = []
    for label_id in sorted(row):
        mask |= 1 << label_id
        targets += row[label_id]
        bounds += (label_id, len(targets))
    return vid, mask, targets, bounds


def _finished_rows(
    rows: list[list[int]], degrees: list[int], graph: "KnowledgeGraph | None"
) -> Iterator[ShapedRow]:
    """Each of ``rows`` — streamed as flat ``label_id, neighbour, ...``
    pairs — finished into its :data:`ShapedRow`: grouped by ascending
    label, each group in first-seen order with its duplicates dropped
    (``dict.fromkeys``).  The row's size is written to ``degrees``.
    Given ``graph`` — for the out direction only, so each edge is seen
    once — the row's edges are added to its per-label counts and staged
    as three id columns, folded into the fingerprint accumulator every
    :data:`_CHUNK` edges; the sum is ``graph``'s ``_edge_acc`` once the
    last row is handed on.  Each row is taken out of ``rows`` as it is
    handed on, so a consumer that cuts it (the serving boot) holds it
    only until it moves to the next one."""
    counts = graph._label_edge_count if graph is not None else None
    accumulator = 0
    edge_sources: list[int] = []
    edge_labels: list[int] = []
    edge_targets: list[int] = []
    for vid, pairs in enumerate(rows):
        rows[vid] = None  # type: ignore[call-overload]
        if not pairs:
            yield vid, 0, (), ()
            continue
        labels = pairs[::2]
        first = labels[0]
        if labels.count(first) == len(labels):
            targets = pairs[1::2]
            if len(targets) > 1:
                distinct = dict.fromkeys(targets)
                if len(distinct) < len(targets):
                    targets = list(distinct)
            mask = 1 << first
            bounds: Sequence[int] = (first, len(targets))
            if counts is not None:
                counts[first] += len(targets)
                edge_labels += repeat(first, len(targets))
        else:
            ends = iter(pairs)
            ordered = sorted(dict.fromkeys(zip(ends, ends)), key=_LABEL)
            targets = list(map(_NEIGHBOUR, ordered))
            # Each group's start and label, then shifted one place:
            # [0, l0, s1, l1, ...] less its head, plus the row's end,
            # is (l0, end0, l1, end1, ...).
            mask = 0
            bounds = []
            previous = -1
            for position, label_id in enumerate(map(_LABEL, ordered)):
                if label_id != previous:
                    mask |= 1 << label_id
                    bounds += (position, label_id)
                    previous = label_id
            del bounds[0]
            bounds.append(len(targets))
            if counts is not None:
                start = 0
                ends = iter(bounds)
                for label_id, end in zip(ends, ends):
                    counts[label_id] += end - start
                    start = end
                edge_labels += map(_LABEL, ordered)
        degrees[vid] = len(targets)
        if counts is not None:
            edge_sources += repeat(vid, len(targets))
            edge_targets += targets
            if len(edge_sources) >= _CHUNK:
                accumulator += _edge_accumulator(edge_sources, edge_labels, edge_targets)
                edge_sources.clear()
                edge_labels.clear()
                edge_targets.clear()
        yield vid, mask, targets, bounds
    if graph is not None:
        accumulator += _edge_accumulator(edge_sources, edge_labels, edge_targets)
        graph._edge_acc = accumulator & _MASK64


class KnowledgeGraph:
    """Edge-labeled directed graph with interned vertices and labels.

    Vertex names may be any hashable value (strings in practice).  All
    id-returning methods hand out dense ints starting at zero, so
    algorithm state can live in flat lists indexed by vertex id.

    >>> g = KnowledgeGraph()
    >>> g.add_edge("v0", "friendOf", "v1")
    True
    >>> g.add_edge("v0", "friendOf", "v1")   # E is a set (Definition 2.1)
    False
    >>> g.num_vertices, g.num_edges
    (2, 1)
    """

    __slots__ = (
        "name",
        "schema",
        "_labels",
        "_vertex_ids",
        "_vertex_names",
        "_out",
        "_in",
        "_out_degree",
        "_in_degree",
        "_label_edge_count",
        "_frozen",
        "_mutations",
        "_edge_acc",
    )

    def __init__(self, name: str = "kg", schema: object | None = None) -> None:
        self.name = name
        #: RDFS schema (``LS`` of Definition 2.1); attached by builders.
        self.schema = schema
        self._labels = LabelUniverse()
        self._vertex_ids: dict[Hashable, int] = {}
        self._vertex_names: list[Hashable] = []
        self._out: Rows = []
        self._in: Rows = []
        self._out_degree: list[int] = []
        self._in_degree: list[int] = []
        self._label_edge_count: dict[int, int] = {}
        #: Last CSR snapshot, keyed by the mutation count it was taken
        #: at.  Size tuples are NOT a safe key: a removal followed by an
        #: insertion leaves every size unchanged while the adjacency
        #: differs, and a stale snapshot would silently answer for the
        #: old graph.
        self._frozen: tuple[int, "KnowledgeGraph"] | None = None
        #: Monotonic structural-mutation counter; bumped by every
        #: effective vertex intern, edge insertion and edge removal.
        self._mutations = 0
        #: Running edge accumulator of :meth:`content_fingerprint`; None
        #: until the first call pays the full scan (a graph built by
        #: :meth:`from_triples` holds it from the start).
        self._edge_acc: int | None = None

    # ------------------------------------------------------------------
    # sizes and dunder conveniences
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return len(self._vertex_names)

    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return sum(self._label_edge_count.values())

    @property
    def num_labels(self) -> int:
        """``|𝕃|``."""
        return len(self._labels)

    @property
    def labels(self) -> LabelUniverse:
        """The label universe ``𝕃`` (shared, mutable)."""
        return self._labels

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex_name: Hashable) -> bool:
        return vertex_name in self._vertex_ids

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, |L|={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[Hashable, str, Hashable]],
        name: str = "kg",
        schema: object | None = None,
        *,
        vertices: Iterable[Hashable] = (),
        labels: Iterable[str] = (),
        frozen: bool = False,
    ) -> "KnowledgeGraph":
        """A fresh graph holding ``(source, label, target)`` name triples.

        Slot for slot the graph that :meth:`add_edge` over the same
        triples in the same order builds — ids, rows, degrees, counts
        and :attr:`mutation_count` — in one loop with the interning
        inlined.  ``triples`` is consumed lazily: a loader can stream a
        file through it without holding the lines.  ``vertices`` and
        ``labels`` (distinct names) are interned first, in order, so a
        graph written out in id order comes back with the same ids,
        edgeless vertices included.

        The loop only interns names and appends each edge as a
        ``label_id, neighbour`` pair to one flat list per vertex per
        direction: no dict per row, no list per label group, and no edge
        set beside them.  Each row is then finished in turn
        (:func:`_finished_rows`): grouped by ascending label with its
        duplicate triples dropped, and the degrees, per-label counts,
        mutation count and the fingerprint's edge accumulator are read
        off the finished rows, so the graph's first
        :meth:`content_fingerprint` scans no edge.  The end is the
        caller's choice: the graph keeps a dict row per vertex, or —
        ``frozen=True``, the serving boot — each finished row is cut
        into its CSR snapshot and its flat list dropped right away, so
        boot never holds the graph in two forms, and the
        :class:`~repro.graph.csr.FrozenGraph` is returned.
        """
        graph = cls(name, schema)
        vertex_ids = graph._vertex_ids
        vertex_names = graph._vertex_names
        intern_label = graph._labels.intern
        for vertex in vertices:
            vertex_ids[vertex] = len(vertex_names)
            vertex_names.append(vertex)
        for label in labels:
            intern_label(label)
        out_rows: list[list[int]] = [[] for _ in vertex_names]
        in_rows: list[list[int]] = [[] for _ in vertex_names]
        counts = graph._label_edge_count
        label_ids: dict[str, int] = {}
        for source, label, target in triples:
            s = vertex_ids.get(source)
            if s is None:
                s = vertex_ids[source] = len(vertex_names)
                vertex_names.append(source)
                out_rows.append([])
                in_rows.append([])
            t = vertex_ids.get(target)
            if t is None:
                t = vertex_ids[target] = len(vertex_names)
                vertex_names.append(target)
                out_rows.append([])
                in_rows.append([])
            label_id = label_ids.get(label)
            if label_id is None:
                label_id = label_ids[label] = intern_label(label)
                counts[label_id] = 0
            out_rows[s].extend((label_id, t))
            in_rows[t].extend((label_id, s))
        size = len(vertex_names)
        graph._out_degree = [0] * size
        graph._in_degree = [0] * size
        finished = (
            _finished_rows(out_rows, graph._out_degree, graph),
            _finished_rows(in_rows, graph._in_degree, None),
        )
        if frozen:
            from repro.graph.csr import FrozenGraph  # deferred: csr imports us

            graph = FrozenGraph(graph, finished)
        else:
            for rows, direction in zip((graph._out, graph._in), finished):
                rows.extend(dict(_groups(row[2], row[3])) for row in direction)
        graph._mutations = size + graph.num_edges
        return graph

    def add_vertex(self, name: Hashable) -> int:
        """Intern ``name`` and return its vertex id (idempotent)."""
        existing = self._vertex_ids.get(name)
        if existing is not None:
            return existing
        self._out.append({})
        self._in.append({})
        return self._new_vertex(name)

    def _new_vertex(self, name: Hashable) -> int:
        """Intern ``name``, known to be new, everywhere but in the rows."""
        vid = len(self._vertex_names)
        self._vertex_ids[name] = vid
        self._vertex_names.append(name)
        self._out_degree.append(0)
        self._in_degree.append(0)
        self._mutations += 1
        return vid

    def add_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        """Add edge ``(source, label, target)`` by *name*; False if present."""
        s = self.add_vertex(source)
        t = self.add_vertex(target)
        lid = self._labels.intern(label)
        return self.add_edge_ids(s, lid, t)

    def add_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        """Add an edge by pre-interned ids; returns False for duplicates."""
        return self._link(self._out, self._in, s, label_id, t)

    def remove_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        """Remove edge ``(source, label, target)`` by *name*; False if absent.

        Unknown vertex names or labels simply yield False — removal of a
        fact that was never asserted is a no-op, mirroring how
        :meth:`add_edge` treats duplicates.
        """
        edge = self._edge_ids(source, label, target)
        return edge is not None and self.remove_edge_ids(*edge)

    def remove_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        """Remove an edge by pre-interned ids; returns False when absent.

        Vertices are never removed (ids must stay dense and stable for
        every id-keyed structure built against the graph); only the edge
        and its derived bookkeeping go.
        """
        return self._unlink(self._out, self._in, s, label_id, t)

    # The one edge bookkeeping.  ``out_rows[s]`` / ``in_rows[t]`` are the
    # dict rows to write: this graph's own, or the rows an update batch
    # thaws from a snapshot (:meth:`repro.graph.csr.FrozenGraph.derive`);
    # everything else — degrees, per-label counts, the fingerprint
    # accumulator, the mutation count — is ``self``'s, and so is the
    # duplicate test, :meth:`has_edge`, which never writes or thaws a row.

    def _link(self, out_rows, in_rows, s: int, label_id: int, t: int) -> bool:
        if self.has_edge(s, label_id, t):
            return False
        out_rows[s].setdefault(label_id, []).append(t)
        in_rows[t].setdefault(label_id, []).append(s)
        self._out_degree[s] += 1
        self._in_degree[t] += 1
        self._label_edge_count[label_id] = self._label_edge_count.get(label_id, 0) + 1
        if self._edge_acc is not None:
            term = _edge_accumulator((s,), (label_id,), (t,))
            self._edge_acc = (self._edge_acc + term) & _MASK64
        self._mutations += 1
        return True

    def _unlink(self, out_rows, in_rows, s: int, label_id: int, t: int) -> bool:
        if not self.has_edge(s, label_id, t):
            return False
        out_row, in_row = out_rows[s], in_rows[t]
        targets = out_row[label_id]
        targets.remove(t)
        if not targets:
            del out_row[label_id]
        sources = in_row[label_id]
        sources.remove(s)
        if not sources:
            del in_row[label_id]
        self._out_degree[s] -= 1
        self._in_degree[t] -= 1
        remaining = self._label_edge_count[label_id] - 1
        if remaining:
            self._label_edge_count[label_id] = remaining
        else:
            del self._label_edge_count[label_id]
        if self._edge_acc is not None:
            term = _edge_accumulator((s,), (label_id,), (t,))
            self._edge_acc = (self._edge_acc - term) & _MASK64
        self._mutations += 1
        return True

    def _edge_ids(
        self, source: Hashable, label: str, target: Hashable
    ) -> Edge | None:
        """The id triple of a name-level edge whose names and label are
        all known, present or not; None otherwise."""
        if label not in self._labels:
            return None
        s = self._vertex_ids.get(source)
        t = self._vertex_ids.get(target)
        if s is None or t is None:
            return None
        return (s, self._labels.id_of(label), t)

    # ------------------------------------------------------------------
    # id <-> name
    # ------------------------------------------------------------------

    def vid(self, name: Hashable) -> int:
        """Vertex id of ``name``; raises :class:`VertexNotFoundError`."""
        try:
            return self._vertex_ids[name]
        except KeyError:
            raise VertexNotFoundError(name) from None

    def name_of(self, vid: int) -> Hashable:
        """Vertex name of ``vid``; raises :class:`VertexNotFoundError`."""
        if 0 <= vid < len(self._vertex_names):
            return self._vertex_names[vid]
        raise VertexNotFoundError(vid)

    def has_vertex(self, name: Hashable) -> bool:
        """True if a vertex with this name exists."""
        return name in self._vertex_ids

    def label_id(self, label: str) -> int:
        """Label id of ``label``; raises :class:`LabelNotFoundError`."""
        return self._labels.id_of(label)

    def label_name(self, label_id: int) -> str:
        """Label name of ``label_id``; raises :class:`LabelNotFoundError`."""
        return self._labels.name_of(label_id)

    def label_mask(self, labels: Iterable[str]) -> int:
        """Bitmask for a collection of label names (the constraint ``L``)."""
        return self._labels.mask_of(labels)

    # ------------------------------------------------------------------
    # iteration (ids)
    # ------------------------------------------------------------------

    def vertices(self) -> range:
        """All vertex ids."""
        return range(self.num_vertices)

    def vertex_names(self) -> Iterator[Hashable]:
        """All vertex names in id order."""
        return iter(self._vertex_names)

    def edges(self) -> Iterator[Edge]:
        """All edges as ``(source_id, label_id, target_id)``."""
        for s, adjacency in enumerate(self._out):
            for label_id, targets in adjacency.items():
                for t in targets:
                    yield (s, label_id, t)

    def edges_named(self) -> Iterator[tuple[Hashable, str, Hashable]]:
        """All edges as ``(source_name, label_name, target_name)``."""
        names = self._vertex_names
        label_name = self._labels.name_of
        for s, label_id, t in self.edges():
            yield (names[s], label_name(label_id), names[t])

    def out_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        """Outgoing ``(label_id, target_id)`` pairs of ``vid``."""
        for label_id, targets in self._out[vid].items():
            for t in targets:
                yield (label_id, t)

    def in_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        """Incoming ``(label_id, source_id)`` pairs of ``vid``."""
        for label_id, sources in self._in[vid].items():
            for s in sources:
                yield (label_id, s)

    def out_by_label(self, vid: int, label_id: int) -> list[int]:
        """Targets of ``vid``'s out-edges labeled ``label_id`` (maybe empty)."""
        return self._out[vid].get(label_id, [])

    def in_by_label(self, vid: int, label_id: int) -> list[int]:
        """Sources of ``vid``'s in-edges labeled ``label_id`` (maybe empty)."""
        return self._in[vid].get(label_id, [])

    def out_label_count(self, vid: int, label_id: int) -> int:
        """Number of ``vid``'s out-edges labeled ``label_id``."""
        return len(self._out[vid].get(label_id, ()))

    def in_label_count(self, vid: int, label_id: int) -> int:
        """Number of ``vid``'s in-edges labeled ``label_id``."""
        return len(self._in[vid].get(label_id, ()))

    def out_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        """Outgoing ``(label_id, target_id)`` with the label inside ``mask``.

        This is the expansion step of every search algorithm in the paper
        ("for each edge e = (u, l, v), l ∈ L"): edges whose label is
        outside the constraint are never touched.
        """
        for label_id, targets in self._out[vid].items():
            if mask >> label_id & 1:
                for t in targets:
                    yield (label_id, t)

    def in_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        """Incoming ``(label_id, source_id)`` with the label inside ``mask``."""
        for label_id, sources in self._in[vid].items():
            if mask >> label_id & 1:
                for s in sources:
                    yield (label_id, s)

    def out_targets_masked(self, vid: int, mask: int) -> list[int]:
        """Targets of ``vid``'s out-edges whose label is inside ``mask``.

        The label-dropping form of :meth:`out_masked` — what the search
        algorithms actually consume (none of UIS/UIS*/INS/naive uses the
        label during expansion).  Returning a flat list instead of a
        generator of tuples saves one tuple allocation and one generator
        resumption per edge; :class:`~repro.graph.csr.FrozenGraph`
        overrides this with contiguous CSR slices and an O(1) whole-vertex
        mask pre-test.
        """
        result: list[int] = []
        for label_id, targets in self._out[vid].items():
            if mask >> label_id & 1:
                result.extend(targets)
        return result

    def in_targets_masked(self, vid: int, mask: int) -> list[int]:
        """Sources of ``vid``'s in-edges whose label is inside ``mask``."""
        result: list[int] = []
        for label_id, sources in self._in[vid].items():
            if mask >> label_id & 1:
                result.extend(sources)
        return result

    def out_labels(self, vid: int) -> Iterator[int]:
        """Distinct label ids on ``vid``'s out-edges."""
        return iter(self._out[vid].keys())

    def out_label_mask(self, vid: int) -> int:
        """Bitmask of distinct labels on ``vid``'s out-edges."""
        mask = 0
        for label_id in self._out[vid]:
            mask |= 1 << label_id
        return mask

    def in_label_mask(self, vid: int) -> int:
        """Bitmask of distinct labels on ``vid``'s in-edges."""
        mask = 0
        for label_id in self._in[vid]:
            mask |= 1 << label_id
        return mask

    def edges_with_label(self, label_id: int) -> list[tuple[int, int]]:
        """All ``(source_id, target_id)`` pairs carrying ``label_id``, in
        source order: one group probe per vertex, O(|V|) plus the pairs."""
        out_by_label = self.out_by_label
        return [(s, t) for s in self.vertices() for t in out_by_label(s, label_id)]

    # ------------------------------------------------------------------
    # membership / degrees / frequencies
    # ------------------------------------------------------------------

    def has_edge(self, s: int, label_id: int, t: int) -> bool:
        """Edge membership by ids, from the rows: a scan of ``s``'s
        out-group, or of ``t``'s in-group when that is shorter than an
        out-group of more than 8 targets (a hub's)."""
        targets = self.out_by_label(s, label_id)
        if len(targets) > 8:
            sources = self.in_by_label(t, label_id)
            if len(sources) < len(targets):
                return s in sources
        return t in targets

    def has_edge_named(self, source: Hashable, label: str, target: Hashable) -> bool:
        """Edge membership by names; unknown names/labels simply yield False."""
        edge = self._edge_ids(source, label, target)
        return edge is not None and self.has_edge(*edge)

    def out_degree(self, vid: int) -> int:
        """Number of outgoing edges of ``vid``."""
        return self._out_degree[vid]

    def in_degree(self, vid: int) -> int:
        """Number of incoming edges of ``vid``."""
        return self._in_degree[vid]

    def degree(self, vid: int) -> int:
        """Total degree (in + out) of ``vid``."""
        return self._out_degree[vid] + self._in_degree[vid]

    def label_frequency(self, label_id: int) -> int:
        """Number of edges carrying ``label_id`` (evaluator selectivity)."""
        return self._label_edge_count.get(label_id, 0)

    def density(self) -> float:
        """``|E| / |V|`` — the paper's ``D`` (Figure 5)."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------

    def labels_between(self, s: int, t: int) -> int:
        """Mask of labels on direct edges from ``s`` to ``t``: one
        :meth:`has_edge` probe per label on both ``s``'s out-edges and
        ``t``'s in-edges."""
        mask = 0
        shared = self.out_label_mask(s) & self.in_label_mask(t)
        for label_id in iter_mask_bits(shared):
            if self.has_edge(s, label_id, t):
                mask |= 1 << label_id
        return mask

    def mask_labels(self, mask: int) -> tuple[str, ...]:
        """Decode a label mask to names (ascending id order)."""
        return tuple(self._labels.name_of(bit) for bit in iter_mask_bits(mask))

    # ------------------------------------------------------------------
    # copying / identity
    # ------------------------------------------------------------------

    @property
    def mutation_count(self) -> int:
        """Monotonic count of effective structural mutations.

        Bumped by every vertex intern, edge insertion and edge removal
        that actually changed the graph.  Two reads returning the same
        value guarantee no structural change happened between them —
        the staleness key :meth:`freeze` caches its snapshot under.
        """
        return self._mutations

    def copy(self, name: str | None = None) -> "KnowledgeGraph":
        """An independent, mutable copy with the same vertex and label ids.

        The copy is built from the same interning order, so indexes and
        cached id-keyed structures built against this graph describe the
        copy too — until the copy is mutated.  The schema object is
        shared (read-only by convention); everything else, rows
        included, is copied, so neither graph ever observes the other's
        writes.  The running fingerprint accumulator is handed on.
        """
        clone = KnowledgeGraph.__new__(KnowledgeGraph)
        self._copy_into(clone)
        if name is not None:
            clone.name = name
        out_rows, in_rows = self._row_items()
        clone._out = [{label: list(ids) for label, ids in row} for row in out_rows]
        clone._in = [{label: list(ids) for label, ids in row} for row in in_rows]
        clone._frozen = None
        return clone

    def _copy_into(self, clone: "KnowledgeGraph") -> None:
        """Give ``clone`` copies of everything but the adjacency rows."""
        clone.name = self.name
        clone.schema = self.schema
        clone._labels = self._labels.copy()
        clone._vertex_ids = dict(self._vertex_ids)
        clone._vertex_names = list(self._vertex_names)
        clone._out_degree = list(self._out_degree)
        clone._in_degree = list(self._in_degree)
        clone._label_edge_count = dict(self._label_edge_count)
        clone._mutations = self._mutations
        clone._edge_acc = self._edge_acc

    def _row_items(self) -> tuple[Iterable, Iterable]:
        """Both directions' rows as ``(label_id, ids)`` pair iterables."""
        return (
            (row.items() for row in self._out),
            (row.items() for row in self._in),
        )

    def shares_interning(self, other: "KnowledgeGraph") -> bool:
        """Whether ``other`` is this graph or a snapshot of it.

        A graph and its :meth:`freeze` snapshots hold one interning
        table, so an id-keyed structure built against either (a local
        index) answers for both; a copy or an update's derived snapshot
        holds its own.
        """
        return other._vertex_ids is self._vertex_ids

    def content_fingerprint(self) -> str:
        """A cheap, deterministic digest of the graph's exact content.

        Hashes the sizes, the full label universe (names in id order)
        and an order-insensitive accumulator over *every* edge id
        triple: each ``(s, label, t)`` is mixed into 64 bits and the
        mixes are summed, so the digest is independent of iteration and
        insertion order but changes for any single edge moved — two
        same-size graphs collide only with ~2⁻⁶⁴ accidental hash
        probability, never systematically.

        A graph built by :meth:`from_triples` (every load and boot) has
        the accumulator from the pass that finished its rows; on any
        other graph the first call scans every edge.  From then on the
        edge bookkeeping keeps it (:meth:`add_edge_ids` /
        :meth:`remove_edge_ids`, and an update's
        :meth:`~repro.graph.csr.FrozenGraph.derive`), and :meth:`copy`,
        :meth:`freeze` and a derive hand it on, so every call that finds
        it — one per epoch swap — costs O(|L|) for the label names.
        :meth:`scan_fingerprint` is the from-scratch value the running
        one is audited against.
        """
        if self._edge_acc is None:
            self._edge_acc = _scanned_accumulator(self.edges())
        return self._digest(self._edge_acc)

    def scan_fingerprint(self) -> str:
        """:meth:`content_fingerprint` recomputed from the edges, O(|E|).

        Neither reads nor repairs the running accumulator: callers that
        already pay O(|E|) (WAL replay, compaction, snapshot writes)
        compare the two, so the fingerprint stays a check on the graph's
        content rather than on its own bookkeeping.
        """
        return self._digest(_scanned_accumulator(self.edges()))

    def _digest(self, accumulator: int) -> str:
        digest = hashlib.sha256()
        digest.update(
            f"{self.num_vertices}|{self.num_edges}|{self.num_labels}|"
            f"{accumulator:016x}|".encode()
        )
        digest.update("\x1f".join(self._labels.names()).encode())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------

    def freeze(self) -> "KnowledgeGraph":
        """A read-optimized CSR snapshot of this graph.

        Returns a :class:`~repro.graph.csr.FrozenGraph` that takes over
        this graph's interning, schema, degrees and per-label counts
        without copying them (vertex and label ids are identical) and
        cuts every row, leaving this graph's rows as they are.  The
        snapshot keeps no reference to this graph.  It is cached: repeated calls return the same object
        until the graph mutates (tracked by :attr:`mutation_count`, so a
        removal+insertion that leaves every size unchanged still
        re-freezes), after which a fresh snapshot is cut.  See
        :mod:`repro.graph.csr` for layout and the immutability contract.
        """
        from repro.graph.csr import FrozenGraph  # deferred: csr imports us

        version = self._mutations
        if self._frozen is None or self._frozen[0] != version:
            self._frozen = (version, FrozenGraph(self))
        return self._frozen[1]
