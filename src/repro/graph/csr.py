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
  degrees and the per-label edge counts are taken over from the graph
  that was frozen, not copied, so a frozen graph is drop-in compatible
  with every id computed before freezing (indexes, cached constraints,
  planner keys).  The rows are the only store of an edge.

``FrozenGraph`` subclasses ``KnowledgeGraph``: read APIs not overridden
here (degrees, ``has_edge``, ``labels_between``, the fingerprint, ...)
read the rows through the accessors overridden here, while the mutation
APIs raise :class:`~repro.exceptions.FrozenGraphError`.  A snapshot
holds no dict rows and no reference to the graph it was frozen from; it
shares that graph's containers, so the graph must not be mutated while
its snapshot serves (re-freezing after mutations cuts a fresh snapshot).

**Derived snapshots.**  Rows are tuples and never written after they are
cut, so an update batch makes the next snapshot *from* the serving one
(:meth:`FrozenGraph.derive`): the top-level containers are copied, the
batch is applied to them and to the rows it touches — thawed from the
parent's — those rows and appended vertices are re-cut, and every other
row is the very same object in both snapshots.  That keeps an epoch swap
proportional to its batch in the rows, and no mutable graph is ever kept
beside the served one.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping

from repro.exceptions import FrozenGraphError
from repro.graph.labeled_graph import Edge, KnowledgeGraph, Row
from repro.graph.labels import iter_mask_bits
from repro.obs.trace import span

__all__ = ["FrozenGraph", "CsrDirection", "freeze_graph"]

#: A batch's net effect as id triples: ``(added, removed)`` — present
#: only after it, present only before it.
EdgeChange = tuple[frozenset[Edge], frozenset[Edge]]

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
      2-4-label constraints); a row of one label group (a third of the
      LUBM graph's rows) shares that group's tuple here, not a copy;
    * ``groups[v]`` — ``(label_id, targets_tuple)`` pairs in ascending
      label order, iterated (one step per *distinct label*, never per
      edge) when the mask hits only part of the row, and by the edge
      iterators.

    In pure Python iterating a cached tuple is ~3x faster than walking
    the source dicts.  There is no flat array form: a native kernel
    should be built as a view per row, so that it inherits the sharing
    below.

    ``CsrDirection(rows, size)`` cuts every row; :meth:`derive` re-cuts
    only the rows a batch wrote and shares every other cell with its
    parent — same objects, safe because neither side can write them.
    ``rows_recut`` / ``rows_shared`` say how the rows came about.

    A shard's slice (:mod:`repro.shard`) is no other layout: it is one
    :class:`FrozenGraph` whose rows are empty outside the owned
    vertices, indexed by the deployment's global ids like any graph.
    """

    __slots__ = (
        "masks",
        "all_targets",
        "groups",
        "rows_recut",
    )

    def __init__(self, rows: Iterable[tuple[int, Row]], size: int) -> None:
        self.masks: list[int] = [0] * size
        self.all_targets: list[tuple[int, ...]] = [_EMPTY] * size
        self.groups: list[tuple[tuple[int, tuple[int, ...]], ...]] = [_EMPTY] * size
        self._cut_rows(rows)
        self.rows_recut = size

    def derive(
        self, edits: Mapping[int, dict[int, list[int]]], size: int
    ) -> "CsrDirection":
        """This direction grown to ``size`` rows, with ``edits`` — the
        whole new row of every vertex a batch wrote — re-cut.  Appended
        vertices the batch did not write get the empty row."""
        child = CsrDirection.__new__(CsrDirection)
        appended = size - len(self.masks)
        child.masks = self.masks + [0] * appended
        child.all_targets = self.all_targets + [_EMPTY] * appended
        child.groups = self.groups + [_EMPTY] * appended
        child._cut_rows(edits.items())
        child.rows_recut = len(edits.keys() | range(len(self.masks), size))
        return child

    @property
    def rows_shared(self) -> int:
        """Rows that are the parent's own objects (0 when cut from scratch)."""
        return len(self.masks) - self.rows_recut

    def _cut_rows(self, rows: Iterable[tuple[int, Row]]) -> None:
        """Cut each ``(vertex_id, dict_row)`` of ``rows`` into the three
        lists — the one place a row is made, at boot (every row, each
        dropped by its producer once cut) and on a derive alike.  A row
        of one label group shares that group's tuple as its
        ``all_targets``."""
        masks, all_targets, groups = self.masks, self.all_targets, self.groups
        for vid, per_vertex in rows:
            vertex_mask = 0
            vertex_groups: list[tuple[int, tuple[int, ...]]] = []
            flat: list[int] = []
            for label_id in sorted(per_vertex):
                vertex_mask |= 1 << label_id
                vertex_targets = per_vertex[label_id]
                vertex_groups.append((label_id, tuple(vertex_targets)))
                flat.extend(vertex_targets)
            masks[vid] = vertex_mask
            groups[vid] = tuple(vertex_groups)
            all_targets[vid] = (
                vertex_groups[0][1] if len(vertex_groups) == 1 else tuple(flat)
            )

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


class _ThawedRows(dict):
    """The rows of one direction a derivation writes, keyed by vertex:
    each is thawed into a mutable dict row from the parent's groups on
    first touch (an appended vertex starts empty)."""

    __slots__ = ("_parent",)

    def __init__(self, parent: CsrDirection) -> None:
        super().__init__()
        self._parent = parent

    def by_label(self, vid: int, label_id: int):
        """The group as the batch has left it so far, thawing nothing."""
        row = self.get(vid)
        if row is not None:
            return row.get(label_id, _EMPTY)
        parent = self._parent
        return parent.by_label(vid, label_id) if vid < len(parent.masks) else _EMPTY

    def __missing__(self, vid: int) -> dict[int, list[int]]:
        groups = self._parent.groups
        row = self[vid] = (
            {label_id: list(ids) for label_id, ids in groups[vid]}
            if vid < len(groups)
            else {}
        )
        return row


class FrozenGraph(KnowledgeGraph):
    """Read-only CSR snapshot of a :class:`KnowledgeGraph`.

    Construct via :meth:`KnowledgeGraph.freeze` / :func:`freeze_graph`,
    which leave the graph they freeze intact; at boot, straight from the
    triples with ``KnowledgeGraph.from_triples(..., frozen=True)`` (or
    ``load_tsv(..., frozen=True)``), which cuts each row as it is
    finished and drops its dict form, so no mutable graph ever exists
    beside the snapshot; or from another snapshot with :meth:`derive`.
    Ids, names, labels and the schema are those of the graph it was
    frozen from, so any id-keyed structure built against that graph (a
    local index, cached candidate lists, planner keys) remains valid
    against the snapshot.

    >>> g = KnowledgeGraph()
    >>> _ = g.add_edge("a", "l", "b")
    >>> fg = g.freeze()
    >>> list(fg.out_targets_masked(fg.vid("a"), fg.label_mask(["l"])))
    [1]
    """

    __slots__ = ("_csr_out", "_csr_in")

    def __init__(
        self,
        graph: KnowledgeGraph,
        rows: tuple[Iterable[tuple[int, Row]], Iterable[tuple[int, Row]]] | None = None,
    ) -> None:
        """Cut every row of ``graph`` and take over its other containers.

        ``rows`` are the out- and in-rows to cut, as ``(vertex_id, row)``
        pairs; by default ``graph``'s own, which are left intact.  The
        serving boot (:meth:`KnowledgeGraph.from_triples` with
        ``frozen=True``) hands in rows that are dropped as they are cut.
        """
        # Deliberately no super().__init__(): every base slot but the
        # rows is bound to ``graph``'s structures, uncopied, so inherited
        # read methods answer for the same graph, ids included.
        self.name = graph.name
        self.schema = graph.schema
        self._labels = graph._labels
        self._vertex_ids = graph._vertex_ids
        self._vertex_names = graph._vertex_names
        self._out_degree = graph._out_degree
        self._in_degree = graph._in_degree
        self._label_edge_count = graph._label_edge_count
        self._mutations = graph._mutations
        self._edge_acc = graph._edge_acc
        out_rows, in_rows = rows or (enumerate(graph._out), enumerate(graph._in))
        self._csr_out = CsrDirection(out_rows, graph.num_vertices)
        self._csr_in = CsrDirection(in_rows, graph.num_vertices)

    def __repr__(self) -> str:
        return (
            f"FrozenGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, |L|={self.num_labels})"
        )

    # ------------------------------------------------------------------
    # the next snapshot
    # ------------------------------------------------------------------

    def derive(
        self, updates: Iterable[tuple[Hashable, str, Hashable, str]]
    ) -> tuple["FrozenGraph", dict[str, int], EdgeChange]:
        """The snapshot after ``updates``, this one left as it is.

        Each update is ``(source, label, target, op)`` with ``op`` in
        ``{"add", "remove"}``, applied in order: an add-then-remove of
        one edge nets to absent.  An add interns unknown names and
        labels; a remove of an unknown name or label, like one of an
        absent edge, is a miss that interns nothing.  The top-level
        containers are copied, the batch goes through the same edge
        bookkeeping as :meth:`KnowledgeGraph.add_edge_ids` /
        :meth:`~KnowledgeGraph.remove_edge_ids`, and only the rows it
        wrote, plus appended vertices, are re-cut; every other row is
        this snapshot's own object.

        Returns the new snapshot, the batch's counts (``added``,
        ``duplicates``, ``removed``, ``missing``, ``vertices_added``)
        and its net change: the id triples present only after it and
        those present only before it.
        """
        child = FrozenGraph.__new__(FrozenGraph)
        with span("copy"):
            self._copy_into(child)
        out_rows, in_rows = _ThawedRows(self._csr_out), _ThawedRows(self._csr_in)
        # While the batch applies, the child reads its rows through the
        # thawed ones: the duplicate test sees the batch and thaws nothing.
        child._csr_out, child._csr_in = out_rows, in_rows
        vertex_ids, labels = child._vertex_ids, child._labels
        # edge -> present before the batch (its first effective op removed it)
        touched: dict[Edge, bool] = {}
        counts = dict.fromkeys(("added", "duplicates", "removed", "missing"), 0)

        def vertex(name: Hashable) -> int:
            vid = vertex_ids.get(name)
            return child._new_vertex(name) if vid is None else vid

        updates = list(updates)
        with span("apply", edges=len(updates)) as apply_span:
            for source, label, target, op in updates:
                if op == "add":
                    edge = (vertex(source), labels.intern(label), vertex(target))
                    done = child._link(out_rows, in_rows, *edge)
                    counts["added" if done else "duplicates"] += 1
                else:
                    edge = child._edge_ids(source, label, target)
                    done = edge is not None and child._unlink(out_rows, in_rows, *edge)
                    counts["removed" if done else "missing"] += 1
                if done:
                    touched.setdefault(edge, op != "add")
            counts["vertices_added"] = child.num_vertices - self.num_vertices
            apply_span.set(**counts)
        with span("freeze") as freeze_span:
            size = child.num_vertices
            child._csr_out = self._csr_out.derive(out_rows, size)
            child._csr_in = self._csr_in.derive(in_rows, size)
            freeze_span.set(rows_recut=child.rows_recut, rows_shared=child.rows_shared)
        after = child.has_edge
        change = (
            frozenset(e for e, before in touched.items() if after(*e) and not before),
            frozenset(e for e, before in touched.items() if before and not after(*e)),
        )
        return child, counts, change

    # ------------------------------------------------------------------
    # snapshots are immutable
    # ------------------------------------------------------------------

    def add_vertex(self, name: Hashable) -> int:
        raise FrozenGraphError(
            f"cannot add vertex {name!r}: this graph is a frozen snapshot; "
            "mutate a copy() or derive() the next snapshot"
        )

    def add_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        raise FrozenGraphError(
            f"cannot add edge ({source!r}, {label!r}, {target!r}): this graph "
            "is a frozen snapshot; mutate a copy() or derive() the next snapshot"
        )

    def add_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        raise FrozenGraphError(
            f"cannot add edge ({s}, {label_id}, {t}): this graph is a frozen "
            "snapshot; mutate a copy() or derive() the next snapshot"
        )

    def remove_edge(self, source: Hashable, label: str, target: Hashable) -> bool:
        raise FrozenGraphError(
            f"cannot remove edge ({source!r}, {label!r}, {target!r}): this "
            "graph is a frozen snapshot; mutate a copy() or derive() the "
            "next snapshot"
        )

    def remove_edge_ids(self, s: int, label_id: int, t: int) -> bool:
        raise FrozenGraphError(
            f"cannot remove edge ({s}, {label_id}, {t}): this graph is a "
            "frozen snapshot; mutate a copy() or derive() the next snapshot"
        )

    def _row_items(self) -> tuple[Iterable, Iterable]:
        """Rows as ``(label_id, ids)`` pairs, for :meth:`copy`."""
        return self._csr_out.groups, self._csr_in.groups

    def freeze(self) -> "FrozenGraph":
        """A frozen graph is its own snapshot."""
        return self

    @property
    def rows_recut(self) -> int:
        """Rows (out + in) cut for this snapshot rather than shared."""
        return self._csr_out.rows_recut + self._csr_in.rows_recut

    @property
    def rows_shared(self) -> int:
        """Rows (out + in) that are the parent snapshot's own objects."""
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


def freeze_graph(graph: KnowledgeGraph) -> FrozenGraph:
    """``graph.freeze()`` as a function (idempotent on snapshots)."""
    return graph.freeze()
