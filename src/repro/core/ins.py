"""INS — the informed search of Algorithm 4.

INS is UIS* with three additions powered by the local index
(:mod:`repro.index.local_index`):

* a **priority heap H** orders the candidates of ``V(S, G)`` so that the
  most promising satisfying vertex is tried first — candidates already
  known reachable (``close = F``) before unexplored ones, then by the
  region-correlation distance estimate ``ρ``, landmarks first
  (Section 5.2's three H rules);
* a **priority queue Q** replaces the global stack, ordering the search
  frontier: ``T``-state vertices first (which is what makes the
  ``B = T`` leg terminate exactly like UIS*'s stack discipline), then
  vertices in the target's region, landmarks, smaller ``ρ``, vertices
  whose region landmark is still unexplored, insertion order (the six
  Q rules);
* **index pruning** at landmarks: an edge into a landmark ``w`` answers
  the whole region at once — ``Check(II[w], t*)`` short-circuits when
  the target lives in ``F(w)``, ``Cut(II[w])`` marks every in-region
  vertex reachable under the constraint without traversing it, and
  ``Push(EIT[w])`` jumps the frontier straight to the region's border
  exits.

Priority keys are computed at push time with lazy deletion for
re-pushes, and ``Push`` short-circuits when it enqueues ``t*`` (both
resolutions of under-specification in the extended abstract; README.md,
*Semantics and resolved under-specifications*, says why INS stays
complete).
"""

from __future__ import annotations

import heapq
import random
import time

from repro.core.base import LSCRAlgorithm, satisfying_vertices
from repro.core.close import CloseMap, F, N, T
from repro.core.query import LSCRQuery
from repro.exceptions import IndexingError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.local_index import LocalIndex, build_local_index
from repro.resilience.deadline import current_deadline

__all__ = ["INS"]

#: Heaps smaller than this are never compacted — rebuild overhead would
#: exceed the cost of just draining the stale entries.
_COMPACT_MIN_HEAP = 64


class _LazyPriorityQueue:
    """Min-heap with per-vertex lazy deletion and periodic compaction.

    "For two elements x and y in Q, if x and y represent a same vertex
    in G, Q deletes the first added element" — re-pushing a vertex
    invalidates its previous entry.  Stale entries are dropped lazily on
    pop; when they outnumber the live ones (long multi-leg LCS searches
    re-push frontier vertices constantly) the heap is rebuilt from the
    live entries alone, so memory stays proportional to the frontier.
    """

    __slots__ = ("_heap", "_live", "_seq")

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._live: dict[int, list] = {}
        self._seq = 0

    def push(self, vertex: int, key: tuple) -> None:
        stale = self._live.get(vertex)
        if stale is not None:
            stale[2] = None  # lazy-delete the first added element
        entry = [key, self._seq, vertex]
        self._seq += 1
        self._live[vertex] = entry
        heapq.heappush(self._heap, entry)
        if len(self._heap) > _COMPACT_MIN_HEAP and len(self._heap) > 2 * len(
            self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live entries only (O(live))."""
        self._heap = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)

    def peek(self) -> int | None:
        while self._heap:
            entry = self._heap[0]
            if entry[2] is not None:
                return entry[2]
            heapq.heappop(self._heap)
        return None

    def pop(self) -> int | None:
        while self._heap:
            entry = heapq.heappop(self._heap)
            vertex = entry[2]
            if vertex is not None:
                del self._live[vertex]
                return vertex
        return None

    def __bool__(self) -> bool:
        return self.peek() is not None


class INS(LSCRAlgorithm):
    """Algorithm 4: local-index-guided informed LSCR search."""

    name = "INS"

    def __init__(
        self,
        graph: KnowledgeGraph,
        index: LocalIndex | None = None,
        rng: random.Random | None = None,
        use_index_pruning: bool = True,
        use_priorities: bool = True,
        candidate_cache: object | None = None,
    ) -> None:
        super().__init__(graph)
        if index is None:
            index = build_local_index(graph)
        if not index.graph.shares_interning(graph):
            # A graph and its frozen CSR snapshots intern identically, so
            # an index built against either answers for both.
            raise IndexingError("the local index was built for a different graph")
        self.index = index
        #: Optional shuffler applied to V(S,G) *before* heap ordering, so
        #: ties break randomly as with a real engine's disordered output.
        self.rng = rng
        #: Optional :class:`~repro.service.cache.CandidateCache`; when
        #: set, repeated constraints skip the SPARQL engine entirely.
        self.candidate_cache = candidate_cache
        #: Ablation switch: disable Check/Cut/Push (landmarks become
        #: ordinary vertices; only the orderings remain).
        self.use_index_pruning = use_index_pruning
        #: Ablation switch: disable the *informed* key components.  Rule
        #: (i) of the Q ordering (T before F) is kept even here — it is
        #: what terminates the B=T legs correctly, not a heuristic.
        self.use_priorities = use_priorities
        if not (use_index_pruning and use_priorities):
            suffixes = []
            if not use_index_pruning:
                suffixes.append("noprune")
            if not use_priorities:
                suffixes.append("noprio")
            self.name = "INS-" + "-".join(suffixes)

    # ------------------------------------------------------------------

    def _run(
        self,
        source: int,
        target: int,
        mask: int,
        query: LSCRQuery,
    ) -> tuple[bool, dict[str, float]]:
        graph = self.graph
        index = self.index

        vsg_started = time.perf_counter()
        # The SPARQL engine, or the shared cache in front of it.
        candidates, members = satisfying_vertices(
            query, graph, self.candidate_cache
        )
        vsg_seconds = time.perf_counter() - vsg_started
        if self.rng is not None:
            candidates = list(candidates)   # ours to order; the cache's is shared
            self.rng.shuffle(candidates)

        close = CloseMap(graph.num_vertices)
        # Request deadline: captured once; `is not None` per pop when off.
        deadline = current_deadline()
        telemetry: dict[str, float] = {
            "vsg_size": len(candidates),
            "vsg_seconds": vsg_seconds,
        }
        lcs_calls = 0
        index_resolutions = 0
        # Vertices first marked by the inlined per-edge writes in lcs()
        # below; CloseMap counts the rest (Cut/Push resolutions, seeds).
        inline_passed = 0

        def finish(verdict: bool) -> tuple[bool, dict[str, float]]:
            telemetry["passed_vertices"] = close.passed_count + inline_passed
            telemetry["lcs_calls"] = lcs_calls
            telemetry["index_resolutions"] = index_resolutions
            return verdict, telemetry

        if source == target and source in (
            candidates if members is None else members
        ):
            return finish(True)

        # ------------------------------------------------------------------
        # Priority queue Q (the frontier; line 2).  Key components follow
        # the six Q rules of Section 5.2; ``t*`` of the current LCS
        # invocation parameterises rules (ii) and (iv).
        # ------------------------------------------------------------------
        frontier = _LazyPriorityQueue()
        # Per-edge invariants, hoisted: the current t* and its region
        # change only between LCS legs; ρ depends only on the region
        # pair, so it is memoised (pre-quantised) across pushes.  The key
        # is packed into one int — tuple comparisons in the heap were a
        # measurable cost — with the six Q rules as bit fields, most
        # significant first:
        #   bit 18: close[u] != T            (rule i)
        #   bit 17: region != t*'s region    (rule ii)
        #   bit 16: u ∉ I                    (rule iii)
        #   bits 1-15: quantised ρ(u, t*)    (rule iv)
        #   bit 0: region landmark explored  (rule v)
        # (rule vi, insertion order, is the queue's sequence tiebreak).
        region_of = index.partition.region
        landmark_set = index._landmark_set
        # Fast path over CloseMap: reads everywhere, plus the inlined
        # per-edge writes in lcs() (monotone by branch structure; their
        # passed count is tracked in inline_passed).  All other writes
        # go via close.
        states = close._states
        current_target = [target]
        current_target_region = [index.region_of(target)]
        # Memoises the whole region-dependent key portion — rule (ii)'s
        # bit plus the quantised ρ field — so a push re-computes only the
        # three state-dependent bits.  Cleared when t* changes.
        region_bits_cache: dict[int, int] = {}

        def region_bits(region: int) -> int:
            target_region = current_target_region[0]
            if region < 0 or target_region < 0:
                rho = 2.0
            elif region == target_region:
                rho = 0.0
            else:
                rho = 1.0 / (1.0 + index.correlation(region, target_region))
            bits = min(32767, int(rho * 16383.5)) << 1            # rule (iv)
            if region < 0 or region != target_region:             # rule (ii)
                bits |= 1 << 17
            region_bits_cache[region] = bits
            return bits

        use_priorities = self.use_priorities

        def frontier_key(vertex: int) -> int:
            key = 0
            if states[vertex] != T:                               # rule (i)
                key |= 1 << 18
            if not use_priorities:
                # Ablation: rules (ii)-(v) off; FIFO within each state
                # class via the queue's sequence tiebreak.
                return key
            region = region_of[vertex]
            bits = region_bits_cache.get(region)
            key |= bits if bits is not None else region_bits(region)
            if vertex not in landmark_set:                        # rule (iii)
                key |= 1 << 16
            if region < 0 or states[region] != N:                 # rule (v)
                key |= 1
            return key

        frontier.push(source, frontier_key(source))               # line 2
        close[source] = F                                         # line 3

        # Landmark regions already resolved through the index, per mode;
        # Cut/Push are idempotent so each (landmark, mode) runs once.
        # The filtered target lists are memoised inside the index itself
        # (per landmark and mask), shared across queries and sessions.
        resolved_f: set[int] = set()
        resolved_t: set[int] = set()

        def resolve_landmark(w: int, mode: int, t_star: int) -> bool:
            """Lines 24-25: Cut(II[w]) and Push(EIT[w]); True if t* found."""
            nonlocal index_resolutions, inline_passed
            done = resolved_t if mode == T else resolved_f
            if w in done or w in resolved_t:
                return False
            done.add(w)
            for x in index.cut_targets(w, mask):          # Cut: mark, no enqueue
                state_x = states[x]
                if state_x != T and (mode == T or state_x == N):
                    states[x] = mode
                    if state_x == N:
                        inline_passed += 1
                    index_resolutions += 1
            found = False
            for x in index.push_targets(w, mask):         # Push: mark + enqueue
                state_x = states[x]
                if (mode == T and state_x != T) or (mode == F and state_x == N):
                    states[x] = mode
                    if state_x == N:
                        inline_passed += 1
                    frontier.push(x, frontier_key(x))
                    index_resolutions += 1
                    if x == t_star:
                        found = True
            return found

        def lcs(s_star: int, t_star: int, mode: int) -> bool:     # line 16
            # As in UIS*, a vertex's remaining edges are drained before an
            # early return: the priority queue is shared across LCS legs
            # and must not lose part of a half-expanded frontier vertex.
            nonlocal index_resolutions
            nonlocal lcs_calls
            nonlocal inline_passed
            lcs_calls += 1
            current_target[0] = t_star
            current_target_region[0] = region_of[t_star]
            region_bits_cache.clear()
            target_region = current_target_region[0]
            resolved = resolved_t if mode == T else resolved_f
            # Hottest loop of the whole system: expansion iterates flat
            # target sequences — on a frozen graph, one vertex-mask AND
            # rejects label-infeasible vertices outright and contiguous
            # CSR label-slices replace the per-vertex dict walk.
            out_targets = graph.out_targets_masked
            prune = self.use_index_pruning
            if mode == T:                                         # lines 17-18
                if s_star == t_star:
                    return True
                close[s_star] = T
                frontier.push(s_star, frontier_key(s_star))
            while True:                                           # line 19
                if deadline is not None:
                    deadline.check(
                        "ins",
                        passed_vertices=close.passed_count + inline_passed,
                        lcs_calls=lcs_calls,
                    )
                top = frontier.peek()
                if top is None:
                    break
                if mode == T and states[top] != T:
                    break
                u = frontier.pop()
                found = False
                for w in out_targets(u, mask):                    # line 21
                    if prune and w in landmark_set:
                        # Line 22: t*.AF = w implies w ∈ I, so the
                        # Check shortcut lives inside the landmark
                        # branch — and the landmark is still resolved
                        # (Cut/Push) so its region stays in the shared
                        # frontier for later LCS legs.
                        if target_region == w and index.check(
                            w, t_star, mask
                        ):                                        # lines 22-23
                            index_resolutions += 1
                            found = True
                        if w not in resolved and w not in resolved_t:
                            if resolve_landmark(w, mode, t_star):  # 24-25
                                found = True
                    else:
                        state_w = states[w]
                        if state_w == N or (state_w == F and mode == T):  # 26
                            states[w] = mode                      # line 27
                            if state_w == N:
                                inline_passed += 1
                            frontier.push(w, frontier_key(w))
                            if w == t_star:                       # lines 28-29
                                found = True
                if found:
                    return True
            return False                                          # line 30

        # ------------------------------------------------------------------
        # Priority heap H over V(S, G) (line 1).  Keys follow the three H
        # rules; entries are re-keyed lazily when their close state has
        # advanced since they were pushed.
        # ------------------------------------------------------------------
        # ρ depends only on the two endpoint regions and one endpoint is
        # fixed per direction, so the H keys are memoised by region —
        # |regions| computations instead of one per (re-)push.
        heap_rho_target: dict[int, float] = {}
        heap_rho_source: dict[int, float] = {}

        def heap_key(vertex: int, state: int) -> tuple:
            if not self.use_priorities:
                return (0,)  # candidate insertion order only
            region = region_of[vertex]
            if state == F:                       # known reachable: rule (i)-(ii)
                rho = heap_rho_target.get(region)
                if rho is None:
                    rho = heap_rho_target[region] = index.rho(vertex, target)
                return (0, rho, 0 if vertex in landmark_set else 1)
            rho = heap_rho_source.get(region)
            if rho is None:
                rho = heap_rho_source[region] = index.rho(source, vertex)
            return (1, rho, 0 if vertex in landmark_set else 1)

        # Build-then-heapify is O(|V(S,G)|) against O(n log n) pushes.
        heap: list[tuple] = [
            (heap_key(v, states[v]), order, v, states[v])
            for order, v in enumerate(candidates)
        ]
        heapq.heapify(heap)

        while heap:                                               # line 4
            key, order, v, pushed_state = heapq.heappop(heap)     # line 5
            state = states[v]
            if state == T:
                # Already on a proved satisfying path whose T-search has
                # been exhausted; nothing new can come from v.
                continue
            if state != pushed_state:
                heapq.heappush(heap, (heap_key(v, state), order, v, state))
                continue
            if state == N:                                        # line 6
                if v == target:                                   # lines 7-8
                    return finish(lcs(source, target, F))
                if lcs(source, v, F):                             # line 9
                    if lcs(v, target, T):                         # lines 10-11
                        return finish(True)
            elif state == F:                                      # lines 12-14
                if lcs(v, target, T):
                    return finish(True)
        return finish(False)                                      # line 15
