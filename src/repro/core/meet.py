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
  it satisfies or not, and the witness's satisfying vertex is that
  endpoint (``s`` when both are).
* **legs** — with a tiny ``V(S, G)`` the two searches above can only
  meet *at* those few vertices, which degenerates to growing both whole
  closures; there, for each candidate ``v``, two plain
  label-constrained legs ``s ⇝ v`` and ``v ⇝ t`` run, each itself
  bidirectional and free to meet anywhere (a leg fails as soon as
  either of its closures is complete).  A False pays one pair of legs
  per candidate, hence tiny sets only (:data:`LEGS_MAX_CANDIDATES`;
  README, *Choosing an algorithm*, has the measurement).

Every mark records the vertex it was reached from, one parent map per
direction, so a True verdict carries the path it walked as
``QueryResult.witness`` (``s →F v``, ``v →B t``; legs: the four
half-paths joined) and no second search is needed to explain it.
Telemetry: ``passed_vertices`` counts the vertices marked by either side
(summed over legs), ``lcs_calls`` the legs run — 0 on the meet plan.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Set

from repro.core.base import LSCRAlgorithm, satisfying_vertices
from repro.core.query import LSCRQuery
from repro.core.witness import WitnessPath
from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.labels import iter_mask_bits
from repro.resilience.deadline import Deadline, current_deadline

__all__ = ["LEGS_MAX_CANDIDATES", "MeetSearch"]

#: The legs plan runs when ``|V(S, G)|`` is at most this: a measured
#: constant, not an option (the legs plan is 5-14x cheaper up to here and
#: its worst case, one pair of legs per candidate, stays small).  Served
#: end to end only at 1 — README, *Choosing an algorithm*.
LEGS_MAX_CANDIDATES = 4

#: Mark bits of one search: reached from its start, reaches its end.
_FORWARD, _BACKWARD, _BOTH = 1, 2, 3

#: ``(meeting vertex, forward parents, backward parents)`` of one search.
_Meeting = tuple[int, dict[int, int], dict[int, int]]


def _bidirectional(
    graph: KnowledgeGraph,
    mask: int,
    start: int,
    end: int,
    accept: Set[int] | None,
    states: bytearray,
    deadline: Deadline | None,
    progress: Callable[[], dict],
) -> _Meeting | None:
    """Grow ``F(start)`` and ``B(end)`` under ``mask`` in the zeroed
    ``states`` until a vertex of ``accept`` (None: any vertex) carries
    both marks; None when there is none.

    ``start == end`` meets at once only where that vertex is acceptable;
    otherwise both marks on it stand and the search looks for a cycle
    through an acceptable vertex.  ``progress()`` is the partial-work
    detail of the 504 an expired ``deadline`` raises.
    """
    states[start] |= _FORWARD
    states[end] |= _BACKWARD
    forward_parent: dict[int, int] = {}
    backward_parent: dict[int, int] = {}
    if start == end and (accept is None or start in accept):
        return start, forward_parent, backward_parent
    forward, backward = [start], [end]
    sides = (
        (_FORWARD, forward, forward_parent, graph.out_targets_masked),
        (_BACKWARD, backward, backward_parent, graph.in_targets_masked),
    )
    marked = [1, 1]
    while forward and backward:
        if deadline is not None and deadline.expired():
            deadline.check("meet", **progress())
        side = marked[0] > marked[1]
        bit, frontier, parent, expand = sides[side]
        u = frontier.pop()
        before = len(frontier)
        for w in expand(u, mask):
            state = states[w]
            if not state & bit:
                states[w] = state | bit
                parent[w] = u
                frontier.append(w)
                if state and (accept is None or w in accept):
                    return w, forward_parent, backward_parent
        marked[side] += len(frontier) - before
    # One closure is complete (the forward one if `forward` is empty).
    # A plain leg ends here: that closure does not hold the other end.
    # So does a search whose complete closure holds nothing acceptable.
    finished_root, finished_parent = (
        (end, backward_parent) if forward else (start, forward_parent)
    )
    if (
        accept is None
        or finished_root not in accept
        and accept.isdisjoint(finished_parent)
    ):
        return None
    # A witness lies inside the complete closure: the other side goes on
    # through the vertices it marked and no others.
    bit, frontier, parent, expand = sides[not forward]
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
                parent[w] = u
                frontier.append(w)
                if w in accept:
                    return w, forward_parent, backward_parent
    return None


def _hops(start: int, end: int, meeting: _Meeting) -> list[tuple[int, int]]:
    """The walked path ``start →F v →B end`` as vertex-id pairs."""
    v, forward_parent, backward_parent = meeting
    hops: list[tuple[int, int]] = []
    at = v
    while at != start:
        hops.append((forward_parent[at], at))
        at = forward_parent[at]
    hops.reverse()
    at = v
    while at != end:
        hops.append((at, backward_parent[at]))
        at = backward_parent[at]
    return hops


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

        def search(
            start: int, end: int, accept: Set[int] | None
        ) -> _Meeting | None:
            nonlocal states, passed
            states = bytearray(size)
            meeting = _bidirectional(
                graph, mask, start, end, accept, states, deadline, progress
            )
            passed += size - states.count(0)
            return meeting

        def finish(
            v: int | None, hops: list[tuple[int, int]] = ()
        ) -> tuple[bool, dict[str, float]]:
            """Close the run; ``v`` is the satisfying vertex a True
            answer went through (None for False) on the path ``hops``."""
            telemetry: dict = {
                "vsg_size": len(candidates),
                "vsg_seconds": vsg_seconds,
                "passed_vertices": passed,
                "lcs_calls": legs,
            }
            if v is not None:
                name_of = graph.name_of
                edges = []
                for a, b in hops:
                    label = next(iter_mask_bits(graph.labels_between(a, b) & mask))
                    edges.append((name_of(a), graph.label_name(label), name_of(b)))
                telemetry["witness"] = WitnessPath(tuple(edges), name_of(v))
            return v is not None, telemetry

        if len(candidates) > LEGS_MAX_CANDIDATES:
            if members is None:
                members = frozenset(candidates)     # no cache: built for this call
            # An endpoint in V(S, G) lies on every s ⇝ t path, so the
            # query is plain L-reachability: the sides may meet anywhere.
            endpoint = next((v for v in (source, target) if v in members), None)
            meeting = search(
                source, target, members if endpoint is None else None
            )
            if meeting is None:
                return finish(None)
            return finish(
                meeting[0] if endpoint is None else endpoint,
                _hops(source, target, meeting),
            )
        for v in candidates:
            legs += 1
            first = search(source, v, None)
            if first is None:
                continue
            legs += 1
            second = search(v, target, None)
            if second is not None:
                return finish(
                    v, _hops(source, v, first) + _hops(v, target, second)
                )
        return finish(None)
