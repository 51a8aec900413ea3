"""The local index (Section 5.1) — INS's precomputed structure.

For every landmark ``u`` (regions assigned by
:func:`~repro.index.landmarks.bfs_traverse`) the index stores the entry
``II[u] ∪ EIT[u] ∪ D[u]``:

* ``II[u]`` — for each vertex ``v ∈ F(u)``, the CMS
  ``M(u, v | F(u))`` of minimal path label sets from the landmark to
  ``v`` *inside the region* (Definition 5.1);
* ``EI[u]`` — for each border target ``w ∉ F(u)`` with an edge
  ``(v, l, w)`` leaving the region: the minimal sets
  ``{L ∪ {l} | L ∈ M(u, v | F(u))}`` (Theorem 5.1: if one of them is
  ⊆ the query constraint then ``u ⇝_L w``);
* ``EIT[u]`` — ``EI[u]`` transposed into ``label set → border vertices``
  key-value pairs, the orientation INS's ``Push`` consumes;
* ``D[u]`` — for each other landmark ``v``, the number of distinct
  ``EI[u]`` border targets that land in ``F(v)`` — a correlation degree
  between regions, from which the search's distance estimate ``ρ`` is
  derived.

Because each landmark is precomputed only over its own region (the
bijection ``F``, Figure 9(b)) instead of the whole graph (Figure 9(a)),
indexing cost is bounded by Theorems 5.3/5.4 regardless of the number of
landmarks — the property Table 2 demonstrates against [19].

Deviation (README.md, *Semantics and resolved under-specifications*):
``II[u]`` is seeded with the landmark's trivial entry ``(u, {∅})`` so cyclic re-derivations
``(u, L ≠ ∅)`` are subsumed instead of stored, and ``Cut`` can mark the
landmark itself.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from repro.exceptions import IndexingError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.cms import CmsTable
from repro.index.landmarks import (
    NO_REGION,
    Partition,
    bfs_traverse,
    select_landmarks,
)
from repro.utils.timing import Timer

__all__ = ["LocalIndex", "LocalIndexStats", "build_local_index"]

#: ρ of a vertex pair involving an unassigned vertex — strictly worse
#: than any connected pair (connected pairs score in [0, 1]).
RHO_UNKNOWN = 2.0

#: Cap on memoised (landmark, constraint-mask) Cut/Push results.
_TARGET_MEMO_LIMIT = 4096

#: Past this fraction of regions touched, per-region repair stops paying
#: for itself and :meth:`LocalIndex.derive` rebuilds the whole index.
_REBUILD_REGION_FRACTION = 0.5


@dataclass(frozen=True)
class LocalIndexStats:
    """Construction metrics reported in Table 2."""

    num_landmarks: int
    assigned_vertices: int
    ii_entries: int
    eit_entries: int
    d_entries: int
    build_seconds: float

    @property
    def total_entries(self) -> int:
        """All stored pairs across ``II ∪ EIT ∪ D``."""
        return self.ii_entries + self.eit_entries + self.d_entries


class LocalIndex:
    """Per-landmark ``II / EIT / D`` tables plus the region assignment."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        partition: Partition,
    ) -> None:
        self.graph = graph
        self.partition = partition
        self.ii: dict[int, CmsTable] = {}
        self.eit: dict[int, dict[int, list[int]]] = {}
        self.d: dict[int, dict[int, int]] = {}
        #: ``EI`` tables, retained only when the builder is asked to
        #: (tests verify the ``EIT`` transposition against them).
        self.ei: dict[int, CmsTable] | None = None
        self.build_seconds: float = 0.0
        self._landmark_set = partition.landmark_set
        # Serving-time memos for Cut/Push under a given constraint mask.
        # The tables are immutable once built/loaded, so entries never go
        # stale; capped so adversarial mask churn cannot grow them
        # unboundedly (overflow recomputes per call).  Benign races only
        # under concurrent queries: competing writers store equal tuples.
        self._cut_memo: dict[tuple[int, int], tuple[int, ...]] = {}
        self._push_memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return (
            f"LocalIndex({self.graph.name!r}, landmarks={len(self._landmark_set)}, "
            f"built in {self.build_seconds:.3f}s)"
        )

    # ------------------------------------------------------------------
    # lookups used by INS
    # ------------------------------------------------------------------

    def region_of(self, vertex_id: int) -> int:
        """Owning landmark (``NO_REGION`` when unassigned) — ``v.AF``."""
        return self.partition.region[vertex_id]

    def correlation(self, from_landmark: int, to_landmark: int) -> int:
        """``D(u, v)``: border targets of ``F(u)`` landing in ``F(v)``."""
        return self.d.get(from_landmark, {}).get(to_landmark, 0)

    def rho(self, x: int, y: int) -> float:
        """Estimated distance ``ρ(x, y)`` (README.md, *Semantics and
        resolved under-specifications*).

        0 for same-region pairs, ``1/(1 + D(x.AF, y.AF))`` across
        regions (higher correlation → closer), :data:`RHO_UNKNOWN` when
        either side is unassigned.
        """
        rx = self.partition.region[x]
        ry = self.partition.region[y]
        if rx == NO_REGION or ry == NO_REGION:
            return RHO_UNKNOWN
        if rx == ry:
            return 0.0
        return 1.0 / (1.0 + self.correlation(rx, ry))

    def check(self, landmark: int, target: int, constraint_mask: int) -> bool:
        """``Check(II[w], t*)``: ``w ⇝_L t*`` inside ``F(w)`` (line 22)."""
        table = self.ii.get(landmark)
        if table is None:
            return False
        return table.reaches_under(target, constraint_mask)

    def cut_targets(self, landmark: int, constraint_mask: int) -> tuple[int, ...]:
        """Vertices of ``F(landmark)`` reachable under the constraint.

        The vertex set ``Cut(II[w])`` marks (INS line 25): every ``x``
        with some ``L_i ∈ M(w, x | F(w))``, ``L_i ⊆ L``.  Memoised per
        ``(landmark, mask)`` — a workload reuses a handful of masks, so
        each filter runs once per index lifetime, not once per query.
        """
        key = (landmark, constraint_mask)
        cached = self._cut_memo.get(key)
        if cached is not None:
            return cached
        table = self.ii.get(landmark)
        if table is None:
            result: tuple[int, ...] = ()
        else:
            result = tuple(
                x
                for x, masks in table.items()
                if any(m & ~constraint_mask == 0 for m in masks)
            )
        if len(self._cut_memo) < _TARGET_MEMO_LIMIT:
            self._cut_memo[key] = result
        return result

    def push_targets(self, landmark: int, constraint_mask: int) -> tuple[int, ...]:
        """Border vertices ``Push(EIT[w])`` enqueues (INS line 25).

        Every vertex in the value set of an ``EIT`` pair whose key label
        set is ⊆ the constraint, deduplicated in first-seen order.
        Memoised like :meth:`cut_targets`.
        """
        key = (landmark, constraint_mask)
        cached = self._push_memo.get(key)
        if cached is not None:
            return cached
        transposed = self.eit.get(landmark)
        if not transposed:
            result: tuple[int, ...] = ()
        else:
            seen: set[int] = set()
            ordered: list[int] = []
            for mask, vertices in transposed.items():
                if mask & ~constraint_mask != 0:
                    continue
                for vertex in vertices:
                    if vertex not in seen:
                        seen.add(vertex)
                        ordered.append(vertex)
            result = tuple(ordered)
        if len(self._push_memo) < _TARGET_MEMO_LIMIT:
            self._push_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # incremental maintenance (extension — the paper treats the KG as
    # static; real deployments append facts)
    # ------------------------------------------------------------------

    def sync_vertices(self) -> int:
        """Extend the region assignment to vertices added after build.

        New vertices join no region (``NO_REGION``): the partition is a
        snapshot, and an unassigned vertex is always handled by plain
        traversal, so correctness is unaffected.  Returns how many
        vertices were newly registered.
        """
        region = self.partition.region
        added = self.graph.num_vertices - len(region)
        for _ in range(added):
            region.append(NO_REGION)
        return max(0, added)

    def refresh_after_edge(self, source: int, label_id: int, target: int) -> bool:
        """Repair the index after one edge mutation at ``(source,
        label_id, target)`` — an insertion *or* a removal — has been
        applied to the graph.

        Only the region owning ``source`` can be affected: ``II[u]``
        covers paths inside ``F(u)`` and ``EI[u]`` covers edges leaving
        it, and both kinds of derivation start from edges whose source
        lies in ``F(u)`` — so a removed edge's now-stale entries live in
        exactly the region an inserted edge's missing entries would.
        That one landmark entry is rebuilt from scratch against the
        *current* graph (regions are small by design, so this is cheap),
        which makes the repair direction-agnostic: whatever the mutation
        was, the rebuilt tables describe the graph as it now is.
        Returns True when a rebuild happened; False means the edge
        starts outside every region and the index was already correct.
        """
        self.sync_vertices()
        region = self.partition.region[source]
        if region == NO_REGION:
            return False
        return self.refresh_regions((region,)) == 1

    def refresh_regions(self, regions: "set[int] | tuple[int, ...]") -> int:
        """Rebuild the ``II/EIT/D`` entries of the named regions.

        The batch form of :meth:`refresh_after_edge`: an update batch
        touching many edges in one region repairs that region *once*,
        not once per edge.  Each entry is rebuilt from scratch against
        the current graph, so insertions and removals repair
        identically — callers pass the regions of every mutated edge's
        *source*, whichever way it mutated.  Unknown region ids and
        :data:`NO_REGION` are ignored.  Returns how many regions were
        rebuilt.

        Any rebuild also drops the serving-time Cut/Push memos — they
        cache projections of the tables being replaced, and a stale memo
        would keep answering for the pre-update region.
        """
        self.sync_vertices()
        refreshed = 0
        for region in set(regions):
            if region == NO_REGION or region not in self._landmark_set:
                continue
            ii, ei = _local_full_index(
                self.graph, self.partition.region, region, None
            )
            self.ii[region] = ii
            if self.ei is not None:
                self.ei[region] = ei
            self.eit[region] = _transpose_ei(ei)
            self.d[region] = _d_row(self.partition.region, ei)
            refreshed += 1
        if refreshed:
            self._cut_memo.clear()
            self._push_memo.clear()
        return refreshed

    def derive(
        self, graph: KnowledgeGraph, touched_sources: "set[int] | None" = None
    ) -> "tuple[LocalIndex, dict]":
        """The index of ``graph`` — a later version of the indexed graph
        — plus the ``index`` / ``regions_refreshed`` fields of an update
        summary saying how it was obtained.  This index is left as is.

        The regions of ``touched_sources`` — the source vertex of every
        edge added or removed in between; no other region is dirty, see
        :meth:`refresh_after_edge` — are refreshed on a clone.  Past
        :data:`_REBUILD_REGION_FRACTION` of the regions, or when nothing
        is known of the change (None), the index is rebuilt over the
        same landmarks, so the partition stays comparable.
        """
        landmarks = self.partition.landmarks
        if touched_sources is not None:
            derived = self.clone_for(graph)
            # region_of would IndexError on a just-interned vertex id
            # until the region list is extended to the new |V|.
            derived.sync_vertices()
            regions = {derived.region_of(v) for v in touched_sources} - {NO_REGION}
            if len(regions) <= _REBUILD_REGION_FRACTION * len(landmarks):
                refreshed = derived.refresh_regions(regions)
                return derived, {
                    "index": "refreshed" if refreshed else "unchanged",
                    "regions_refreshed": refreshed,
                }
        return build_local_index(graph, landmarks=list(landmarks)), {
            "index": "rebuilt",
            "regions_refreshed": len(landmarks),
        }

    def clone_for(self, graph: KnowledgeGraph) -> "LocalIndex":
        """An independent index over ``graph`` sharing unrefreshed tables.

        The epoch-swap counterpart of :meth:`KnowledgeGraph.copy`:
        ``graph`` must share this index's vertex/label interning (a copy
        of the indexed graph, possibly already mutated).  Per-region
        table *objects* are shared — both refresh paths replace a
        region's entry wholesale, never mutate one in place — so cloning
        is O(landmarks + |V|), and refreshing the clone leaves this
        index, still serving the previous epoch, untouched.  Memos start
        empty (they are serving-time caches, not index content).
        """
        partition = Partition(
            landmarks=list(self.partition.landmarks),
            region=list(self.partition.region),
            members={u: list(vs) for u, vs in self.partition.members.items()},
        )
        clone = LocalIndex(graph, partition)
        clone.ii = dict(self.ii)
        clone.eit = dict(self.eit)
        clone.d = dict(self.d)
        if self.ei is not None:
            clone.ei = dict(self.ei)
        clone.build_seconds = self.build_seconds
        return clone

    def stats(self) -> LocalIndexStats:
        """Entry counts and build time (Table 2 columns)."""
        ii_entries = sum(table.entry_count() for table in self.ii.values())
        eit_entries = sum(
            len(vertices)
            for transposed in self.eit.values()
            for vertices in transposed.values()
        )
        d_entries = sum(len(row) for row in self.d.values())
        return LocalIndexStats(
            num_landmarks=len(self._landmark_set),
            assigned_vertices=self.partition.assigned_count(),
            ii_entries=ii_entries,
            eit_entries=eit_entries,
            d_entries=d_entries,
            build_seconds=self.build_seconds,
        )

    def estimated_size_bytes(self) -> int:
        """Size model: each stored id/mask costs ``log|V| + |L|`` bits
        (Theorem 5.4's element size), rounded up to whole bytes."""
        stats = self.stats()
        id_bytes = max(1, (self.graph.num_vertices.bit_length() + 7) // 8)
        mask_bytes = max(1, (self.graph.num_labels + 7) // 8)
        per_entry = id_bytes + mask_bytes
        region_bytes = self.graph.num_vertices * id_bytes
        return stats.total_entries * per_entry + region_bytes


def build_local_index(
    graph: KnowledgeGraph,
    k: int | None = None,
    rng: int | random.Random | None = None,
    landmarks: list[int] | None = None,
    keep_ei: bool = False,
    max_queue_entries: int | None = None,
) -> LocalIndex:
    """Run Algorithm 3: select landmarks, partition, index each region.

    ``max_queue_entries`` is a safety valve for adversarial label-dense
    graphs (the 2^|L| worst case of Theorem 5.3): exceeding it raises
    :class:`IndexingError` rather than thrashing.
    """
    with Timer() as timer:
        if landmarks is None:
            landmarks = select_landmarks(graph, k=k, rng=rng)     # line 1
        partition = bfs_traverse(graph, landmarks)                # line 2
        index = LocalIndex(graph, partition)
        if keep_ei:
            index.ei = {}
        for u in partition.landmarks:                             # lines 3-4
            ii_table, ei_table = _local_full_index(
                graph, partition.region, u, max_queue_entries
            )
            index.ii[u] = ii_table
            if index.ei is not None:
                index.ei[u] = ei_table
            index.eit[u] = _transpose_ei(ei_table)                # line 15
            index.d[u] = _d_row(partition.region, ei_table)
    index.build_seconds = timer.elapsed
    return index


def _local_full_index(
    graph: KnowledgeGraph,
    region: list[int],
    u: int,
    max_queue_entries: int | None,
) -> tuple[CmsTable, CmsTable]:
    """``LocalFullIndex(u)`` (Algorithm 3, lines 5–15)."""
    ii = CmsTable()
    ii.insert(u, 0)  # seeded trivial entry (u, {∅}); see module docstring
    ei = CmsTable()
    queue: deque[tuple[int, int]] = deque(((u, 0),))              # line 7
    enqueued: set[tuple[int, int]] = {(u, 0)}
    first_pop = True
    while queue:                                                  # line 8
        v, mask = queue.popleft()                                 # line 9
        if first_pop:
            # Insert's special case (line 17): the landmark with the
            # empty set proceeds without re-storing.
            proceed = True
            first_pop = False
        else:
            proceed = ii.insert(v, mask)                          # line 10
        if not proceed:
            continue
        for label_id, w in graph.out_edges(v):                    # line 11
            new_mask = mask | (1 << label_id)
            if region[w] == u:                                    # line 12
                state = (w, new_mask)
                if state not in enqueued:
                    if (
                        max_queue_entries is not None
                        and len(enqueued) >= max_queue_entries
                    ):
                        raise IndexingError(
                            f"LocalFullIndex({u}) exceeded "
                            f"{max_queue_entries} queue entries; the region "
                            "is too label-dense — lower k or split labels"
                        )
                    enqueued.add(state)
                    queue.append(state)                           # line 13
            else:
                ei.insert(w, new_mask)                            # line 14
    return ii, ei


def _transpose_ei(ei: CmsTable) -> dict[int, list[int]]:
    """``EI[u] → EIT[u]``: group border vertices by label-set key."""
    transposed: dict[int, list[int]] = {}
    for vertex, masks in ei.items():
        for mask in masks:
            transposed.setdefault(mask, []).append(vertex)
    for vertices in transposed.values():
        vertices.sort()
    return transposed


def _d_row(region: list[int], ei: CmsTable) -> dict[int, int]:
    """``D[u]``: distinct border targets per destination region."""
    correlations: dict[int, int] = {}
    for vertex in ei:
        target_region = region[vertex]
        if target_region != NO_REGION:
            correlations[target_region] = correlations.get(target_region, 0) + 1
    return correlations
