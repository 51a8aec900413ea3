"""Frozen CSR snapshots of a :class:`KnowledgeGraph` — the serving layout.

The dict-backed :class:`~repro.graph.labeled_graph.KnowledgeGraph` is
the right *build-time* representation (cheap interning, cheap edge
insertion) and the wrong *query-time* one: every expansion step walks a
``dict[label_id, list[int]]`` per vertex, paying a hash probe per label
and a tuple allocation per yielded edge.  :class:`FrozenGraph` is the
read-optimized twin the query service traverses instead:

* **per-direction rows** — one immutable row per vertex, cut at freeze
  time: the vertex's neighbours grouped by label id, ascending (stable,
  so per-label target order matches the dict graph exactly), as
  ``(label_id, targets_tuple)`` pairs, plus all of them concatenated as
  one tuple.  The rows *are* the layout — there are no flat
  offset/label/target arrays beside them: no hot path read those, and
  rebuilding them made every freeze cost O(|E|);
* **per-vertex label-presence bitmasks** — ``out_label_mask(v)`` is the
  set of labels on ``v``'s out-edges as one int, so the expansion step's
  question "does ``v`` have any edge inside the constraint ``L``?" is a
  single ``mask & query_mask`` AND: vertices whose labels all fall
  outside the constraint are skipped without touching an edge, and
  vertices whose labels all fall *inside* it hand back their whole
  target tuple without allocating;
* **shared interning** — vertex ids, label ids, names, the schema, the
  edge set and the per-label edge lists are the *same objects* as the
  source graph's, so a frozen graph is drop-in compatible with every id
  computed before freezing (indexes, cached constraints, planner keys).

``FrozenGraph`` subclasses ``KnowledgeGraph``: read APIs not overridden
here (degrees, id/name mapping, ``has_edge``, ``edges_with_label``, ...)
run unchanged on the shared structures, while the mutation APIs raise
:class:`~repro.exceptions.FrozenGraphError` — a snapshot answers for the
graph as it was at :func:`freeze_graph` time.  The source graph must not
be mutated while its snapshot serves (the service's existing
immutability contract: the set-backed reads — ``has_edge``,
``labels_between``, degrees, the fingerprint — are the source's own);
re-freezing after mutations builds a fresh snapshot.

**Patched snapshots.**  Rows are tuples and never written after they
are cut, so a snapshot can be built *from* an older one: the three
per-vertex lists are shallow-copied (C speed), rows the source wrote
since are re-cut, appended vertices are cut, and every other row is the
very same object in both snapshots.  That is what keeps an epoch swap
proportional to its batch (:meth:`KnowledgeGraph.freeze
<repro.graph.labeled_graph.KnowledgeGraph.freeze>` decides when a
previous snapshot is usable and which rows are dirty); a from-scratch
freeze is the same routine with every row dirty.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterator

from repro.exceptions import FrozenGraphError
from repro.graph.labeled_graph import Edge, KnowledgeGraph, Rows
from repro.graph.labels import iter_mask_bits

__all__ = ["FrozenGraph", "CsrDirection", "freeze_graph", "base_graph"]

#: Shared empty sequence for mask-rejected expansions (no per-call allocation).
_EMPTY: tuple[int, ...] = ()


class CsrDirection:
    """One direction's adjacency as immutable per-vertex rows.

    Three parallel lists indexed by vertex id; the cells are ints and
    tuples, cut once and never written again:

    * ``masks[v]`` — bitmask of the distinct labels on ``v``'s edges;
    * ``all_targets[v]`` — every neighbour as one tuple (label-major,
      ascending), returned allocation-free when the query mask covers
      every label on ``v`` (the overwhelmingly common case for
      2-4-label constraints);
    * ``groups[v]`` — ``(label_id, targets_tuple)`` pairs in ascending
      label order, iterated (one step per *distinct label*, never per
      edge) when the mask hits only part of the row, and by the edge
      iterators.

    In pure Python iterating a cached tuple is ~3x faster than walking
    the source dicts.  There is no flat array form: a native kernel
    should be built as a view per row, so that it inherits the sharing
    below.

    ``CsrDirection(adjacency)`` cuts every row.  ``CsrDirection(
    adjacency, base, dirty)`` starts from ``base``'s lists and re-cuts
    only ``dirty`` and the vertices ``base`` does not have: all other
    cells are shared with ``base`` — same objects, safe because neither
    side can write them.  ``rows_recut`` / ``rows_shared`` say how the
    rows of this direction came about.
    """

    __slots__ = (
        "masks",
        "all_targets",
        "groups",
        "rows_recut",
    )

    def __init__(
        self,
        adjacency: Rows,
        base: "CsrDirection | None" = None,
        dirty: Collection[int] = (),
    ) -> None:
        size = len(adjacency)
        if base is None:
            self.masks: list[int] = [0] * size
            self.all_targets: list[tuple[int, ...]] = [_EMPTY] * size
            self.groups: list[tuple[tuple[int, tuple[int, ...]], ...]] = (
                [_EMPTY] * size
            )
            recut: Collection[int] = range(size)
        else:
            appended = range(len(base.masks), size)
            self.masks = base.masks + [0] * len(appended)
            self.all_targets = base.all_targets + [_EMPTY] * len(appended)
            self.groups = base.groups + [_EMPTY] * len(appended)
            recut = {*dirty, *appended}
        self._cut_rows(adjacency, recut)
        self.rows_recut = len(recut)

    @property
    def rows_shared(self) -> int:
        """Rows that are ``base``'s own objects (0 when cut from scratch)."""
        return len(self.masks) - self.rows_recut

    def _cut_rows(self, adjacency: Rows, rows: Collection[int]) -> None:
        """Cut ``rows`` of ``adjacency`` into the three lists — the one
        place a row is made, at boot (every row) and on a patch alike."""
        masks, all_targets, groups = self.masks, self.all_targets, self.groups
        for vid in rows:
            per_vertex = adjacency[vid]
            vertex_mask = 0
            vertex_groups: list[tuple[int, tuple[int, ...]]] = []
            flat: list[int] = []
            for label_id in sorted(per_vertex):
                vertex_mask |= 1 << label_id
                vertex_targets = per_vertex[label_id]
                vertex_groups.append((label_id, tuple(vertex_targets)))
                flat.extend(vertex_targets)
            masks[vid] = vertex_mask
            all_targets[vid] = tuple(flat)
            groups[vid] = tuple(vertex_groups)

    def by_label(self, vid: int, label_id: int) -> tuple[int, ...]:
        """The ``(vid, label_id)`` target group (cached tuple; maybe empty)."""
        if not self.masks[vid] >> label_id & 1:
            return _EMPTY
        for group_label, group_targets in self.groups[vid]:
            if group_label == label_id:
                return group_targets
        return _EMPTY  # pragma: no cover - mask and groups always agree

    def targets_masked(self, vid: int, mask: int) -> tuple[int, ...]:
        """Neighbor ids of ``vid`` whose edge label is inside ``mask``.

        The step of every search hot loop, in three arms:

        * no vertex label in ``mask`` — the shared empty tuple after a
          single ``vertex_mask & query_mask`` AND;
        * every vertex label in ``mask`` — the cached full slice;
        * otherwise — one cached group per allowed label, concatenated
          per call — not memoised per mask: measured, every query
          carries its own mask, so such a memo never hits.
        """
        vertex_mask = self.masks[vid]
        if not vertex_mask & mask:
            return _EMPTY
        if not vertex_mask & ~mask:
            return self.all_targets[vid]
        return self._build_masked(vid, mask)

    def _build_masked(self, vid: int, mask: int) -> tuple[int, ...]:
        result: list[int] = []
        for label_id, group_targets in self.groups[vid]:
            if mask >> label_id & 1:
                result.extend(group_targets)
        return tuple(result)

    @classmethod
    def restricted(
        cls, graph: KnowledgeGraph, vertices: "list[int] | tuple[int, ...]"
    ) -> "CsrDirection":
        """CSR over a vertex subset — the slice seam for :mod:`repro.shard`.

        Row ``i`` holds ``vertices[i]``'s *out*-adjacency; targets keep
        their **global** vertex ids (a slice's edges may point at
        vertices owned elsewhere).  Every label-mask fast path of
        :meth:`targets_masked` then works unchanged on the slice,
        indexed by local position.
        """
        adjacency: Rows = []
        for vid in vertices:
            per_vertex: dict[int, list[int]] = {}
            for label_id, target in graph.out_edges(vid):
                per_vertex.setdefault(label_id, []).append(target)
            adjacency.append(per_vertex)
        return cls(adjacency)


class FrozenGraph(KnowledgeGraph):
    """Read-only CSR snapshot of a :class:`KnowledgeGraph`.

    Construct via :meth:`KnowledgeGraph.freeze` / :func:`freeze_graph`.
    Ids, names, labels and the schema are shared with ``source``, so any
    id-keyed structure built against the source (a local index, cached
    candidate lists, planner keys) remains valid against the snapshot.

    >>> g = KnowledgeGraph()
    >>> _ = g.add_edge("a", "l", "b")
    >>> fg = g.freeze()
    >>> list(fg.out_targets_masked(fg.vid("a"), fg.label_mask(["l"])))
    [1]
    """

    __slots__ = ("source", "_csr_out", "_csr_in")

    def __init__(
        self,
        source: KnowledgeGraph,
        base: "FrozenGraph | None" = None,
        dirty_out: Collection[int] = (),
        dirty_in: Collection[int] = (),
    ) -> None:
        """Cut ``source``'s rows — all of them, or with ``base`` (an
        earlier snapshot that differs from ``source`` in no row outside
        ``dirty_out`` / ``dirty_in`` and the vertices appended since)
        only those."""
        if isinstance(source, FrozenGraph):
            source = source.source
        # Deliberately no super().__init__(): every base slot is bound to
        # the *source's* structures so inherited read methods answer for
        # the same graph, ids included.
        self.source = source
        self.name = source.name
        self.schema = source.schema
        self._labels = source._labels
        self._vertex_ids = source._vertex_ids
        self._vertex_names = source._vertex_names
        self._out = source._out
        self._in = source._in
        self._out_degree = source._out_degree
        self._in_degree = source._in_degree
        self._edge_set = source._edge_set
        self._by_label = source._by_label
        self._label_edge_count = source._label_edge_count
        self._frozen = None  # never consulted: freeze() returns self
        self._mutations = source._mutations
        if base is None:
            self._csr_out = CsrDirection(source._out)
            self._csr_in = CsrDirection(source._in)
        else:
            self._csr_out = CsrDirection(source._out, base._csr_out, dirty_out)
            self._csr_in = CsrDirection(source._in, base._csr_in, dirty_in)

    def __repr__(self) -> str:
        return (
            f"FrozenGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, |L|={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # snapshots are immutable
    # ------------------------------------------------------------------

    def add_vertex(self, name: Hashable) -> int:
        raise FrozenGraphError(
            f"cannot add vertex {name!r}: this graph is a frozen snapshot; "
            "mutate the source graph and freeze() again"
        )

    def add_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        raise FrozenGraphError(
            f"cannot add edge ({source!r}, {label!r}, {target!r}): this graph "
            "is a frozen snapshot; mutate the source graph and freeze() again"
        )

    def add_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        raise FrozenGraphError(
            f"cannot add edge ({s}, {label_id}, {t}): this graph is a frozen "
            "snapshot; mutate the source graph and freeze() again"
        )

    def remove_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        raise FrozenGraphError(
            f"cannot remove edge ({source!r}, {label!r}, {target!r}): this "
            "graph is a frozen snapshot; mutate the source graph and "
            "freeze() again"
        )

    def remove_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        raise FrozenGraphError(
            f"cannot remove edge ({s}, {label_id}, {t}): this graph is a "
            "frozen snapshot; mutate the source graph and freeze() again"
        )

    def copy(self, name: str | None = None) -> KnowledgeGraph:
        """A mutable copy of the *source* graph (snapshots don't copy)."""
        return self.source.copy(name=name)

    def freeze(self) -> "FrozenGraph":
        """A frozen graph is its own snapshot."""
        return self

    def content_fingerprint(self) -> str:
        """The source's digest (it keeps the running accumulator)."""
        return self.source.content_fingerprint()

    def scan_fingerprint(self) -> str:
        """The source's digest, recomputed from its edges."""
        return self.source.scan_fingerprint()

    @property
    def rows_recut(self) -> int:
        """Rows (out + in) cut for this snapshot rather than shared."""
        return self._csr_out.rows_recut + self._csr_in.rows_recut

    @property
    def rows_shared(self) -> int:
        """Rows (out + in) that are the previous snapshot's own objects."""
        return self._csr_out.rows_shared + self._csr_in.rows_shared

    # ------------------------------------------------------------------
    # label-presence masks (the pre-test of every rewritten hot loop)
    # ------------------------------------------------------------------

    def out_label_mask(self, vid: int) -> int:
        """Bitmask of distinct labels on ``vid``'s out-edges (O(1))."""
        return self._csr_out.masks[vid]

    def in_label_mask(self, vid: int) -> int:
        """Bitmask of distinct labels on ``vid``'s in-edges (O(1))."""
        return self._csr_in.masks[vid]

    def has_out_label(self, vid: int, label_id: int) -> bool:
        """True iff ``vid`` has an out-edge labeled ``label_id`` (O(1))."""
        return bool(self._csr_out.masks[vid] >> label_id & 1)

    def has_in_label(self, vid: int, label_id: int) -> bool:
        """True iff ``vid`` has an in-edge labeled ``label_id`` (O(1))."""
        return bool(self._csr_in.masks[vid] >> label_id & 1)

    # ------------------------------------------------------------------
    # CSR-backed iteration (overrides of the dict-walking base methods)
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        for s, vertex_groups in enumerate(self._csr_out.groups):
            for label_id, group_targets in vertex_groups:
                for target in group_targets:
                    yield (s, label_id, target)

    def out_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        for label_id, group_targets in self._csr_out.groups[vid]:
            for target in group_targets:
                yield (label_id, target)

    def in_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        for label_id, group_targets in self._csr_in.groups[vid]:
            for source in group_targets:
                yield (label_id, source)

    def out_by_label(self, vid: int, label_id: int):
        """The cached ``(vid, label_id)`` target group; ``()`` on O(1) miss."""
        return self._csr_out.by_label(vid, label_id)

    def in_by_label(self, vid: int, label_id: int):
        """The cached ``(vid, label_id)`` source group; ``()`` on O(1) miss."""
        return self._csr_in.by_label(vid, label_id)

    def out_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        csr = self._csr_out
        if not csr.masks[vid] & mask:
            return
        for label_id, group_targets in csr.groups[vid]:
            if mask >> label_id & 1:
                for target in group_targets:
                    yield (label_id, target)

    def in_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        csr = self._csr_in
        if not csr.masks[vid] & mask:
            return
        for label_id, group_targets in csr.groups[vid]:
            if mask >> label_id & 1:
                for target in group_targets:
                    yield (label_id, target)

    def out_targets_masked(self, vid: int, mask: int):
        """Targets of ``vid``'s out-edges with labels inside ``mask``."""
        return self._csr_out.targets_masked(vid, mask)

    def in_targets_masked(self, vid: int, mask: int):
        """Sources of ``vid``'s in-edges with labels inside ``mask``."""
        return self._csr_in.targets_masked(vid, mask)

    def out_labels(self, vid: int) -> Iterator[int]:
        """Distinct out-labels, ascending (decoded from the vertex mask)."""
        return iter_mask_bits(self._csr_out.masks[vid])

    def labels_between(self, s: int, t: int) -> int:
        """Mask of labels on direct ``s -> t`` edges via O(1) set probes."""
        mask = 0
        edge_set = self._edge_set
        for label_id in iter_mask_bits(self._csr_out.masks[s]):
            if (s, label_id, t) in edge_set:
                mask |= 1 << label_id
        return mask


def freeze_graph(graph: KnowledgeGraph) -> FrozenGraph:
    """``graph.freeze()`` as a function (idempotent on snapshots)."""
    return graph.freeze()


def base_graph(graph: KnowledgeGraph) -> KnowledgeGraph:
    """The mutable source under ``graph`` (itself when not frozen).

    Identity checks like "was this index built for this graph?" must
    treat a graph and its snapshots as one graph.
    """
    return getattr(graph, "source", graph)
