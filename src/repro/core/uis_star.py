"""UIS* — the SPARQL-engine-assisted search of Algorithm 2.

UIS* first materialises ``V(S, G)`` (all vertices satisfying the
substructure constraint) through the SPARQL engine, then reduces the
LSCR query to label-constrained reachability:
``∃v ∈ V(S,G): s ⇝_L v ∧ v ⇝_L t``.  The key to its ``O(|V| + |E|)``
bound (Theorem 4.5) is that all these checks share one ``close`` map
through the ``LCS`` subroutine, so every vertex is pushed at most once
per state and passed at most twice:

* ``LCS(s, v, L, F)`` *continues* the forward search from wherever the
  shared frontier currently is, marking newly discovered vertices ``F``
  (Lemma 4.2: ``close[v] ≠ N  ⇔  s ⇝_L v``);
* ``LCS(v, t, L, T)`` runs the "second leg" from a satisfying vertex on
  a stack of its own, marking ``T`` and re-visiting ``F`` vertices at
  most once more.  It either reaches ``t`` — the query is over — or
  exhausts, so it never leaves work behind; an ``F`` entry it upgraded
  is dropped when the forward search pops it (the paper's line 24, done
  lazily: rebuilding the stack after every failed leg would cost
  ``O(|V(S,G)| · |stack|)`` and break the bound).

The paper's Section 6 observation that UIS* often *loses* to UIS comes
from the arbitrary order of ``V(S, G)`` ("the order of processing the
elements in V(S,G) dominates the efficiency", Theorem 4.1): a bad first
candidate drags the search into a useless corner of the graph.  Pass an
``rng`` to shuffle the candidate order per query, reproducing that
behaviour; by default the engine's first-solution order is used.
"""

from __future__ import annotations

import random
import time

from repro.core.base import LSCRAlgorithm, satisfying_vertices
from repro.core.close import F, N, T
from repro.core.query import LSCRQuery
from repro.graph.labeled_graph import KnowledgeGraph
from repro.resilience.deadline import current_deadline

__all__ = ["UISStar"]


class UISStar(LSCRAlgorithm):
    """Algorithm 2: improved uninformed search via ``V(S, G)``."""

    name = "UIS*"

    def __init__(
        self,
        graph: KnowledgeGraph,
        rng: random.Random | None = None,
        candidate_cache: object | None = None,
    ) -> None:
        super().__init__(graph)
        #: Optional shuffler for ``V(S, G)`` (paper: the set is disordered).
        self.rng = rng
        #: Optional :class:`~repro.service.cache.CandidateCache`; when
        #: set, repeated constraints skip the SPARQL engine entirely.
        self.candidate_cache = candidate_cache

    def _run(
        self,
        source: int,
        target: int,
        mask: int,
        query: LSCRQuery,
    ) -> tuple[bool, dict[str, float]]:
        graph = self.graph

        vsg_started = time.perf_counter()
        # The SPARQL engine, or the shared cache in front of it.
        candidates, members = satisfying_vertices(
            query, graph, self.candidate_cache
        )
        vsg_seconds = time.perf_counter() - vsg_started
        if self.rng is not None:
            candidates = list(candidates)   # ours to order; the cache's is shared
            self.rng.shuffle(candidates)

        # Allocation-free hot-loop state: the close surjection lives in a
        # bare bytearray (CloseMap's monotonicity is enforced here by the
        # branch structure itself: F writes only over N, T writes only
        # over N/F) and passed_vertices is counted inline, so the
        # per-edge work is index reads/writes with zero method calls.
        # Expansion iterates flat target sequences — contiguous CSR
        # slices behind a vertex-mask pre-test on frozen graphs.
        states = bytearray(graph.num_vertices)
        out_targets = graph.out_targets_masked
        # Request deadline: captured once; `is not None` per pop when off.
        deadline = current_deadline()
        stack: list[int] = [source]                       # line 1
        states[source] = F                                # line 2
        passed = 1
        lcs_calls = 0

        telemetry = {
            "vsg_size": len(candidates),
            "vsg_seconds": vsg_seconds,
        }

        def finish(answer: bool) -> tuple[bool, dict[str, float]]:
            telemetry["passed_vertices"] = passed
            telemetry["lcs_calls"] = lcs_calls
            return answer, telemetry

        # Trivial path <s>: s == t and s satisfies S (README.md, "the
        # trivial path s = t").
        if source == target and source in (
            candidates if members is None else members
        ):
            return finish(True)

        def lcs(s_star: int, t_star: int, mode: int) -> bool:     # lines 14-24
            """``LCS(s*, t*, L, B)`` — shared-state reachability leg.

            An ``F`` leg continues on the shared stack; a ``T`` leg runs
            on a stack of its own, because it either reaches ``t`` (the
            query is over) or exhausts, leaving everything it reached in
            state ``T`` and nothing behind to clean up.  When ``t*``
            turns up mid-way through a vertex's edge list, the remaining
            edges are still processed before returning: abandoning a
            half-expanded vertex would silently drop part of the
            frontier for later legs.
            """
            nonlocal lcs_calls, passed
            lcs_calls += 1
            frontier = stack
            if mode == T:                                          # line 15
                if s_star == t_star:
                    # s ⇝_L s* and s* satisfies S, so s* = t* answers Q
                    # (guard for close[t]=F candidates; same README rule).
                    return True
                states[s_star] = T                  # was F: s ⇝_L s* is proved
                frontier = [s_star]                                # line 16
            while frontier:                                        # line 17
                if deadline is not None:
                    deadline.check(
                        "uis-star", passed_vertices=passed, lcs_calls=lcs_calls
                    )
                u = frontier.pop()                                 # line 18
                if states[u] != mode:
                    # Line 24, lazily: an F entry a failed T leg has
                    # since upgraded.  That leg exhausted, so every
                    # out-neighbour of u is T and expanding u in mode F
                    # could mark nothing.
                    continue
                found = False
                for w in out_targets(u, mask):                     # line 19
                    state_w = states[w]
                    if state_w < mode:                             # line 20
                        frontier.append(w)
                        states[w] = mode                           # line 21
                        if state_w == N:
                            passed += 1
                        if w == t_star:                            # lines 22-23
                            found = True
                if found:
                    return True
            return False

        for v in candidates:                                       # line 3
            state_v = states[v]
            if state_v == N:                                       # line 4
                # Line 5's `v = s` arm is unreachable: close[s] = F since
                # line 2, so only `v = t` can occur here.
                if v == target:
                    return finish(lcs(source, target, F))          # line 6
                if lcs(source, v, F) and lcs(v, target, T):        # lines 7-8
                    return finish(True)                            # line 9
            elif state_v == F and lcs(v, target, T):               # lines 10-11
                return finish(True)                                # line 12
        return finish(False)                                       # line 13
