"""Frozen CSR snapshots of a :class:`KnowledgeGraph` — the serving layout.

The dict-backed :class:`~repro.graph.labeled_graph.KnowledgeGraph` is
the right *build-time* representation (cheap interning, cheap edge
insertion) and the wrong *query-time* one: every expansion step walks a
``dict[label_id, list[int]]`` per vertex, paying a hash probe per label
and a tuple allocation per yielded edge.  :class:`FrozenGraph` is the
read-optimized twin the query service traverses instead:

* **a row is two tuples** — per direction and vertex, cut once: every
  neighbour grouped by label id, ascending (stable, so per-label target
  order matches the dict graph exactly), as one ``all_targets`` tuple,
  and the group ends beside it as one flat ``bounds`` tuple
  ``(label_0, end_0, label_1, end_1, ...)``.  There is no object per
  label group: a group is a slice of ``all_targets``, taken only when
  asked for.  The rows *are* the layout — there are no flat
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
here (degrees, ``labels_between``, the fingerprint, ...) read the rows
through the accessors overridden here, while the mutation APIs raise
:class:`~repro.exceptions.FrozenGraphError`.  A snapshot holds no dict
rows and no reference to the graph it was frozen from; it shares that
graph's containers, so the graph must not be mutated while its snapshot
serves (re-freezing after mutations cuts a fresh snapshot).

**Derived snapshots.**  Rows are tuples and never written after they are
cut, so an update batch makes the next snapshot *from* the serving one
(:meth:`FrozenGraph.derive`): the top-level containers are copied, the
batch is applied to them and to the rows it touches — thawed from the
parent's — those rows and appended vertices are re-cut, and every other
row is the very same pair of objects in both snapshots.  That keeps an
epoch swap proportional to its batch in the rows, and no mutable graph
is ever kept beside the served one.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence

from repro.exceptions import FrozenGraphError
from repro.graph.labeled_graph import (
    Edge,
    KnowledgeGraph,
    ShapedRow,
    _groups,
    _shaped,
)
from repro.graph.labels import iter_mask_bits
from repro.obs.trace import span

__all__ = ["FrozenGraph", "CsrDirection", "freeze_graph"]

#: A batch's net effect as id triples: ``(added, removed)`` — present
#: only after it, present only before it.
EdgeChange = tuple[frozenset[Edge], frozenset[Edge]]

#: Shared empty sequence for mask-rejected expansions (no per-call
#: allocation), and the targets and bounds of every empty row.
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
    * ``bounds[v]`` — where each label group of ``all_targets[v]``
      ends, flat: ``(label_0, end_0, label_1, end_1, ...)`` in ascending
      label order; a one-group row's is ``(label, len)``.  Walked (one
      step per *distinct label*, never per edge) when the mask hits only
      part of the row, by the group probes and by the edge iterators.

    So a row is two tuples and nothing else; an empty row shares
    ``_EMPTY`` in both lists.  In pure Python iterating a cached tuple
    is ~3x faster than walking the source dicts.  There is no flat
    array form: a native kernel should be built as a view per row, so
    that it inherits the sharing below.

    ``CsrDirection(rows, size)`` cuts every row; :meth:`derive` re-cuts
    only the rows a batch wrote and shares every other cell with its
    parent — same objects, safe because neither side can write them.
    ``rows_recut`` / ``rows_shared`` say how the rows came about.
    """

    __slots__ = (
        "masks",
        "all_targets",
        "bounds",
        "rows_recut",
    )

    def __init__(self, rows: Iterable[ShapedRow], size: int) -> None:
        self.masks: list[int] = [0] * size
        self.all_targets: list[tuple[int, ...]] = [_EMPTY] * size
        self.bounds: list[tuple[int, ...]] = [_EMPTY] * size
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
        child.bounds = self.bounds + [_EMPTY] * appended
        child._cut_rows(_shaped(vid, row) for vid, row in edits.items())
        child.rows_recut = len(edits.keys() | range(len(self.masks), size))
        return child

    @property
    def rows_shared(self) -> int:
        """Rows that are the parent's own objects (0 when cut from scratch)."""
        return len(self.masks) - self.rows_recut

    def _cut_rows(self, rows: Iterable[ShapedRow]) -> None:
        """Cut each ``(vertex_id, mask, targets, bounds)`` of ``rows``
        into the three lists — the one place a row is made, at boot
        (every row, each dropped by its producer once cut) and on a
        derive alike.  Rows of one call share their shapes: equal
        ``bounds`` tuples and equal masks are one object (a one-group
        row's ``(label, len)`` recurs across most of a graph), through a
        table that lives as long as the call.  Targets are not shared:
        nearly every row's are its own."""
        masks, all_targets, all_bounds = self.masks, self.all_targets, self.bounds
        shared = {}.setdefault
        for vid, mask, targets, bounds in rows:
            masks[vid] = shared(mask, mask)
            all_targets[vid] = tuple(targets)
            bounds = tuple(bounds)
            all_bounds[vid] = shared(bounds, bounds)

    def span(self, vid: int, label_id: int) -> tuple[Sequence[int], int, int]:
        """``(row, start, end)`` with the ``(vid, label_id)`` group at
        ``row[start:end]`` — ``start == end`` when ``vid`` has no such
        edge — so a caller can probe the group without slicing it."""
        targets = self.all_targets[vid]
        if not self.masks[vid] >> label_id & 1:
            return targets, 0, 0
        bounds = self.bounds[vid]
        if len(bounds) == 2:
            return targets, 0, bounds[1]
        at = bounds.index(label_id)
        while at & 1:  # an end that equals the label id, not the label
            at = bounds.index(label_id, at + 1)
        return targets, bounds[at - 1] if at else 0, bounds[at + 1]

    def by_label(self, vid: int, label_id: int) -> tuple[int, ...]:
        """The ``(vid, label_id)`` target group, a slice of the row
        (the row itself for a one-group row; maybe empty)."""
        targets, start, end = self.span(vid, label_id)
        return targets[start:end]

    def pairs(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        """``(label_id, neighbour)`` of ``vid``'s edges whose label is
        inside ``mask`` (``-1``: every edge), in row order."""
        if not self.masks[vid] & mask:
            return
        groups = _groups(self.all_targets[vid], self.bounds[vid])
        for label_id, group_targets in groups:
            if mask >> label_id & 1:
                for target in group_targets:
                    yield (label_id, target)

    def targets_masked(self, vid: int, mask: int) -> tuple[int, ...]:
        """Neighbor ids of ``vid``'s edges whose label is inside ``mask``.

        The step of every search hot loop, in three arms:

        * no vertex label in ``mask`` — the shared empty tuple after a
          single ``vertex_mask & query_mask`` AND;
        * every vertex label in ``mask`` — the cached full row;
        * otherwise — the row sliced along its bounds: adjacent allowed
          groups are one slice, a single allowed run is returned as
          that slice, and runs apart are concatenated per call — not
          memoised per mask: measured, every query carries its own
          mask, so such a memo never hits.
        """
        vertex_mask = self.masks[vid]
        if not vertex_mask & mask:
            return _EMPTY
        if not vertex_mask & ~mask:
            return self.all_targets[vid]
        return self._build_masked(vid, mask)

    def _build_masked(self, vid: int, mask: int) -> tuple[int, ...]:
        targets = self.all_targets[vid]
        bounds = self.bounds[vid]
        if len(bounds) == 4:
            # Two groups, one allowed (the arms above took the rest):
            # the most common partial row, answered by one slice.
            first_end = bounds[1]
            return targets[:first_end] if mask >> bounds[0] & 1 else targets[first_end:]
        result: tuple[int, ...] = _EMPTY
        run_start = -1
        start = 0
        ends = iter(bounds)
        for label_id, end in zip(ends, ends):
            if mask >> label_id & 1:
                if run_start < 0:
                    run_start = start
            elif run_start >= 0:
                run = targets[run_start:start]
                result = result + run if result else run
                run_start = -1
            start = end
        if run_start >= 0:
            run = targets[run_start:]
            result = result + run if result else run
        return result


class _ThawedRows(dict):
    """The rows of one direction a derivation writes, keyed by vertex:
    each is thawed into a mutable dict row from the parent's cut row on
    first touch (an appended vertex starts empty)."""

    __slots__ = ("_parent",)

    def __init__(self, parent: CsrDirection) -> None:
        super().__init__()
        self._parent = parent

    def span(self, vid: int, label_id: int) -> tuple[Sequence[int], int, int]:
        """:meth:`CsrDirection.span` of the row as the batch has left it
        so far, thawing nothing."""
        row = self.get(vid)
        if row is not None:
            group = row.get(label_id, _EMPTY)
            return group, 0, len(group)
        parent = self._parent
        return parent.span(vid, label_id) if vid < len(parent.masks) else (_EMPTY, 0, 0)

    def __missing__(self, vid: int) -> dict[int, list[int]]:
        parent = self._parent
        row = self[vid] = (
            {
                label_id: list(ids)
                for label_id, ids in _groups(
                    parent.all_targets[vid], parent.bounds[vid]
                )
            }
            if vid < len(parent.masks)
            else {}
        )
        return row


class FrozenGraph(KnowledgeGraph):
    """Read-only CSR snapshot of a :class:`KnowledgeGraph`.

    Construct via :meth:`KnowledgeGraph.freeze` / :func:`freeze_graph`,
    which leave the graph they freeze intact; at boot, straight from the
    triples with ``KnowledgeGraph.from_triples(..., frozen=True)`` (or
    ``load_tsv(..., frozen=True)``), which cuts each row as it is
    finished and drops its flat pair list, so no mutable graph ever
    exists beside the snapshot; or from another snapshot with
    :meth:`derive`.
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
        rows: tuple[Iterable[ShapedRow], Iterable[ShapedRow]] | None = None,
    ) -> None:
        """Cut every row of ``graph`` and take over its other containers.

        ``rows`` are the out- and in-rows to cut
        (:data:`~repro.graph.labeled_graph.ShapedRow`); by default
        ``graph``'s own dict rows, which are left intact.  The serving
        boot (:meth:`KnowledgeGraph.from_triples` with ``frozen=True``)
        hands in rows that are dropped as they are cut, and whose
        finisher sets ``graph``'s fingerprint accumulator only once the
        last out-row is cut, so it is taken over after the cut.
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
        out_rows, in_rows = rows or (
            (_shaped(vid, row) for vid, row in enumerate(dict_rows))
            for dict_rows in (graph._out, graph._in)
        )
        self._csr_out = CsrDirection(out_rows, graph.num_vertices)
        self._csr_in = CsrDirection(in_rows, graph.num_vertices)
        # Read after the cut: the boot's rows fold it as they are cut.
        self._edge_acc = graph._edge_acc

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
        return tuple(
            map(_groups, csr.all_targets, csr.bounds)
            for csr in (self._csr_out, self._csr_in)
        )

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

    # ------------------------------------------------------------------
    # CSR-backed iteration (overrides of the dict-walking base methods)
    # ------------------------------------------------------------------

    def edges(self) -> Iterator[Edge]:
        # An empty or one-group row is read without walking its bounds.
        all_targets = self._csr_out.all_targets
        for s, bounds in enumerate(self._csr_out.bounds):
            if not bounds:
                continue
            targets = all_targets[s]
            if len(bounds) == 2:
                label_id = bounds[0]
                for target in targets:
                    yield (s, label_id, target)
                continue
            start = 0
            ends = iter(bounds)
            for label_id, end in zip(ends, ends):
                for target in targets[start:end]:
                    yield (s, label_id, target)
                start = end

    def out_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        return self._csr_out.pairs(vid, -1)

    def in_edges(self, vid: int) -> Iterator[tuple[int, int]]:
        return self._csr_in.pairs(vid, -1)

    def out_by_label(self, vid: int, label_id: int):
        """The ``(vid, label_id)`` target group; ``()`` on O(1) miss."""
        return self._csr_out.by_label(vid, label_id)

    def in_by_label(self, vid: int, label_id: int):
        """The ``(vid, label_id)`` source group; ``()`` on O(1) miss."""
        return self._csr_in.by_label(vid, label_id)

    def out_label_count(self, vid: int, label_id: int) -> int:
        """Size of the ``(vid, label_id)`` target group, read off its
        bounds without slicing it."""
        _, start, end = self._csr_out.span(vid, label_id)
        return end - start

    def in_label_count(self, vid: int, label_id: int) -> int:
        """Size of the ``(vid, label_id)`` source group, read off its
        bounds without slicing it."""
        _, start, end = self._csr_in.span(vid, label_id)
        return end - start

    def has_edge(self, s: int, label_id: int, t: int) -> bool:
        """Edge membership, read in ``s``'s out-group, or in ``t``'s
        in-group when that is shorter than an out-group of more than 8
        targets (a hub's).  A group of more than 8 is probed in place
        (``tuple.index`` between its bounds, no copy of a hub's group);
        a smaller one is sliced, which costs less than the
        ``ValueError`` a miss raises."""
        row, start, end = self._csr_out.span(s, label_id)
        if end - start > 8:
            in_row, in_start, in_end = self._csr_in.span(t, label_id)
            if in_end - in_start < end - start:
                row, start, end, t = in_row, in_start, in_end, s
            if end - start > 8:
                try:
                    row.index(t, start, end)
                except ValueError:
                    return False
                return True
        return t in row[start:end]

    def out_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        return self._csr_out.pairs(vid, mask)

    def in_masked(self, vid: int, mask: int) -> Iterator[tuple[int, int]]:
        return self._csr_in.pairs(vid, mask)

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
