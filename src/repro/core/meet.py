"""Meet — a bidirectional search that meets at ``V(S, G)``.

UIS, UIS* and INS grow only the forward ``L``-closure of ``s``, yet an
LSCR answer is ``F(s) ∩ B(t) ∩ V(S, G) ≠ ∅``: some satisfying vertex is
reachable from ``s`` *and* reaches ``t`` under ``L``.  This evaluator —
ours, not the paper's; online bidirectional search is the index-free
baseline of the reachability-indexing survey in PAPERS.md — grows both
closures at once and is what the service runs when a request names no
algorithm.  It has two plans and picks one from the ``|V(S, G)|`` it
already holds:

* **meet** — a forward search from ``s`` and a backward search from
  ``t`` alternate, the side that has marked fewer vertices expanding
  next; the answer is True at the first vertex of ``V(S, G)`` marked by
  both.  Once one side's frontier is empty its closure is complete, and
  every vertex of an ``s ⇝ v ⇝ t`` witness lies in both closures — so
  the answer is False there and then if that closure holds no vertex of
  ``V(S, G)``, and otherwise the other side goes on only through
  vertices the finished side marked: a small closure on either end
  settles a False in a handful of vertices.  A source without an
  out-edge (or a target without an in-edge) under ``L`` is this plan's
  empty-frontier case: the router's O(1) pre-tests answer it first, and
  agree.  Each vertex is marked at most once per side, which is Theorem
  4.5's "passed at most twice" and its ``O(|V| + |E|)``.  When ``s`` or
  ``t`` is itself in ``V(S, G)`` every ``s ⇝ t`` path passes a
  satisfying vertex, so the query is plain label-constrained
  reachability: the sides meet at the first vertex both reach, whether
  it satisfies or not.
* **legs** — with a tiny ``V(S, G)`` the two searches above can only
  meet *at* those few vertices, which degenerates to growing both whole
  closures; there, for each candidate ``v``, two plain
  label-constrained legs ``s ⇝ v`` and ``v ⇝ t`` run, each itself
  bidirectional and free to meet anywhere (a leg fails as soon as
  either of its closures is complete).  A False pays one pair of legs
  per candidate, hence tiny sets only (:data:`LEGS_MAX_CANDIDATES`;
  README, *Choosing an algorithm*, has the measurement).

Telemetry: ``passed_vertices`` counts the vertices marked by either side
(summed over legs), ``lcs_calls`` the legs run — 0 on the meet plan.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Set

from repro.core.base import LSCRAlgorithm, satisfying_vertices
from repro.core.query import LSCRQuery
from repro.graph.labeled_graph import KnowledgeGraph
from repro.resilience.deadline import Deadline, current_deadline

__all__ = ["LEGS_MAX_CANDIDATES", "MeetSearch"]

#: The legs plan runs when ``|V(S, G)|`` is at most this: a measured
#: constant, not an option (the legs plan is 5-14x cheaper up to here and
#: its worst case, one pair of legs per candidate, stays small).  Served
#: end to end only at 1 — README, *Choosing an algorithm*.
LEGS_MAX_CANDIDATES = 4

#: Mark bits of one search: reached from its start, reaches its end.
_FORWARD, _BACKWARD, _BOTH = 1, 2, 3


def _bidirectional(
    graph: KnowledgeGraph,
    mask: int,
    start: int,
    end: int,
    accept: Set[int] | None,
    states: bytearray,
    deadline: Deadline | None,
    progress: Callable[[], dict],
) -> bool:
    """Grow ``F(start)`` and ``B(end)`` under ``mask`` in the zeroed
    ``states`` until a vertex of ``accept`` (None: any vertex) carries
    both marks; whether there is one.

    ``start == end`` meets at once only where that vertex is acceptable;
    otherwise both marks on it stand and the search looks for a cycle
    through an acceptable vertex.  ``progress()`` is the partial-work
    detail of the 504 an expired ``deadline`` raises.
    """
    states[start] |= _FORWARD
    states[end] |= _BACKWARD
    if start == end and (accept is None or start in accept):
        return True
    forward, backward = [start], [end]
    # The vertices each side has marked, its root first.
    reached = ([start], [end])
    sides = (
        (_FORWARD, forward, reached[0], graph.out_targets_masked),
        (_BACKWARD, backward, reached[1], graph.in_targets_masked),
    )
    while forward and backward:
        if deadline is not None and deadline.expired():
            deadline.check("meet", **progress())
        # The side that has marked fewer vertices expands next.
        bit, frontier, marked, expand = sides[len(reached[0]) > len(reached[1])]
        u = frontier.pop()
        for w in expand(u, mask):
            state = states[w]
            if not state & bit:
                states[w] = state | bit
                marked.append(w)
                frontier.append(w)
                if state and (accept is None or w in accept):
                    return True
    # One closure is complete (the forward one if `forward` is empty).
    # A plain leg ends here: that closure does not hold the other end.
    # So does a search whose complete closure holds nothing acceptable.
    if accept is None or accept.isdisjoint(reached[bool(forward)]):
        return False
    # A witness lies inside the complete closure: the other side goes on
    # through the vertices it marked and no others.
    bit, frontier, _, expand = sides[not forward]
    other = _BOTH - bit
    while frontier:
        if deadline is not None and deadline.expired():
            deadline.check("meet", **progress())
        u = frontier.pop()
        if states[u] != _BOTH:
            continue
        for w in expand(u, mask):
            if states[w] == other:
                states[w] = _BOTH
                frontier.append(w)
                if w in accept:
                    return True
    return False


class MeetSearch(LSCRAlgorithm):
    """Bidirectional LSCR search meeting at ``V(S, G)`` (module docstring)."""

    name = "Meet"

    def __init__(
        self,
        graph: KnowledgeGraph,
        candidate_cache: object | None = None,
    ) -> None:
        super().__init__(graph)
        #: Optional :class:`~repro.service.cache.CandidateCache`; when
        #: set, repeated constraints skip the SPARQL engine and share
        #: one membership view.
        self.candidate_cache = candidate_cache

    def _run(
        self,
        source: int,
        target: int,
        mask: int,
        query: LSCRQuery,
    ) -> tuple[bool, dict[str, float]]:
        graph = self.graph
        size = graph.num_vertices

        vsg_started = time.perf_counter()
        # The SPARQL engine, or the shared cache in front of it.
        candidates, members = satisfying_vertices(
            query, graph, self.candidate_cache
        )
        vsg_seconds = time.perf_counter() - vsg_started

        # Request deadline: captured once; `is not None` per pop when off.
        deadline = current_deadline()
        states = bytearray()          # the marks of the search under way
        passed = legs = 0

        def progress() -> dict[str, int]:
            return {
                "passed_vertices": passed + size - states.count(0),
                "lcs_calls": legs,
            }

        def search(start: int, end: int, accept: Set[int] | None) -> bool:
            nonlocal states, passed
            states = bytearray(size)
            met = _bidirectional(
                graph, mask, start, end, accept, states, deadline, progress
            )
            passed += size - states.count(0)
            return met

        def finish(answer: bool) -> tuple[bool, dict[str, float]]:
            return answer, {
                "vsg_size": len(candidates),
                "vsg_seconds": vsg_seconds,
                "passed_vertices": passed,
                "lcs_calls": legs,
            }

        if len(candidates) > LEGS_MAX_CANDIDATES:
            if members is None:
                members = frozenset(candidates)     # no cache: built for this call
            # An endpoint in V(S, G) lies on every s ⇝ t path, so the
            # query is plain L-reachability: the sides may meet anywhere.
            plain = source in members or target in members
            return finish(search(source, target, None if plain else members))
        for v in candidates:
            legs += 1
            if not search(source, v, None):
                continue
            legs += 1
            if search(v, target, None):
                return finish(True)
        return finish(False)
