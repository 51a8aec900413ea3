"""Label-blind reachability upper bound for the short-circuit router.

The bounds index answers one question — *could* there be any directed
path from ``s`` to ``t``, ignoring labels and constraints entirely — and
answers it in microseconds.  Because every LSCR witness path is in
particular an ``s -> t`` path, ``maybe_reachable(s, t) == False`` is a
**sound definite-No** for the full label-and-substructure query: the
router can refuse without ever starting an evaluator.

Construction condenses the graph's strongly connected components with
one iterative Tarjan pass, then picks a representation by condensation
size:

* ``closure`` — at or below ``closure_limit`` components, an exact
  transitive closure over the condensation as per-component Python-int
  bitsets, filled by one dynamic-programming sweep in reverse
  topological order (Tarjan emits components in exactly that order).
  Queries are a two-load bit test and the answer is *exact* label-blind
  reachability, so the uncertain band is as narrow as it can be.
* ``interval`` — above the limit, GRAIL-style randomized interval
  labels: ``k`` independent post-order DFS traversals over the
  condensation, each recording ``post[c]`` and ``low[c]`` (the minimum
  post-order over everything reachable from ``c``).  ``u`` reaches
  ``v`` only if ``low[u] <= post[v] <= post[u]`` in **every** traversal
  — a necessary condition, so a miss in any traversal is still a sound
  definite-No while a pass merely means "maybe".

Both modes are immutable after construction and safe to share across
threads; the index rides the :class:`~repro.service.epoch.GraphEpoch`,
so every published epoch (live updates, WAL replay, ``replace_graph``)
carries a sound bound for its own snapshot.

An update epoch *derives* its bound from its parent's
(:meth:`BoundsIndex.derive`) rather than re-running Tarjan.  In
``closure`` mode a new vertex is a singleton component and an added
edge ``(u, v)`` ORs ``v``'s closure into every component that reaches
``u`` — the exact closure of parent + adds, with merged SCCs left as
components that reach each other.  A removed edge only shrinks
reachability, so the parent's closure stays a sound upper bound; it is
kept, and the removals are counted until they pass
:data:`REBUILD_REMOVED_FRACTION` of the edges.  Past that, in
``interval`` mode (GRAIL labels cannot absorb an insert), or when the
closure would outgrow ``closure_limit``, derive rebuilds from scratch.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any, Collection, Sequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.constraints.substructure import EdgeIds

__all__ = ["BoundsIndex", "build_bounds"]

#: Condensations at or below this many components get the exact bitset
#: closure; larger graphs fall back to interval labels.  4096 components
#: cost at most 4096 * 512 bytes of bitset — ~2 MiB worst case.
DEFAULT_CLOSURE_LIMIT = 4096

#: Independent randomized DFS traversals in ``interval`` mode.
DEFAULT_INTERVAL_PASSES = 3

#: A derived ``closure`` index keeps its parent's closure across edge
#: removals (still sound, only looser) until the removals since the last
#: build pass this fraction of the graph's edges; then it is rebuilt.
REBUILD_REMOVED_FRACTION = 0.01


def _label_blind_adjacency(graph: Any) -> list[Sequence[int]]:
    """Per-vertex out-target slices, ignoring labels (dups tolerated)."""
    csr = getattr(graph, "_csr_out", None)
    if csr is not None:
        return csr.all_targets
    return [
        [t for _label, t in graph.out_edges(v)]
        for v in range(graph.num_vertices)
    ]


def _condense(adjacency: list[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Iterative Tarjan SCC.

    Returns ``(component_of, condensed)`` where ``component_of[v]`` is
    the component id of vertex ``v`` and ``condensed[c]`` lists ``c``'s
    distinct successor components.  Component ids are assigned in the
    order Tarjan completes them, i.e. **reverse topological order** of
    the condensation: every successor of ``c`` has an id smaller than
    ``c``.  The closure DP below leans on that invariant.
    """
    n = len(adjacency)
    UNVISITED = -1
    index_of = [UNVISITED] * n
    lowlink = [0] * n
    on_stack = [False] * n
    component_of = [UNVISITED] * n
    stack: list[int] = []
    counter = 0
    components = 0

    for root in range(n):
        if index_of[root] != UNVISITED:
            continue
        # Explicit work stack of (vertex, iterator position) frames.
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index_of[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            targets = adjacency[v]
            while pos < len(targets):
                w = targets[pos]
                pos += 1
                if index_of[w] == UNVISITED:
                    work.append((v, pos))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    if index_of[w] < lowlink[v]:
                        lowlink[v] = index_of[w]
            if recurse:
                continue
            if lowlink[v] == index_of[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component_of[w] = components
                    if w == v:
                        break
                components += 1
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]

    condensed: list[set[int]] = [set() for _ in range(components)]
    for v in range(n):
        cv = component_of[v]
        bucket = condensed[cv]
        for w in adjacency[v]:
            cw = component_of[w]
            if cw != cv:
                bucket.add(cw)
    return component_of, [sorted(b) for b in condensed]


class BoundsIndex:
    """Immutable label-blind reachability upper bound over one snapshot."""

    __slots__ = (
        "mode",
        "vertex_count",
        "component_count",
        "build_seconds",
        "removed_since_build",
        "derived",
        "_settings",
        "_component_of",
        "_closure",
        "_post",
        "_low",
    )

    def __init__(
        self,
        graph: Any,
        *,
        closure_limit: int = DEFAULT_CLOSURE_LIMIT,
        interval_passes: int = DEFAULT_INTERVAL_PASSES,
        seed: int = 0,
    ) -> None:
        started = time.perf_counter()
        adjacency = _label_blind_adjacency(graph)
        component_of, condensed = _condense(adjacency)
        #: Edge removals this bound has kept its closure across since the
        #: last build (:meth:`derive`).
        self.removed_since_build = 0
        #: Whether this index came from :meth:`derive` rather than a build.
        self.derived = False
        self._settings = (closure_limit, interval_passes, seed)
        self.vertex_count = len(adjacency)
        self.component_count = len(condensed)
        self._component_of = component_of
        if self.component_count <= closure_limit:
            self.mode = "closure"
            self._closure = self._build_closure(condensed)
            self._post = self._low = None
        else:
            self.mode = "interval"
            self._closure = None
            self._post, self._low = self._build_intervals(
                condensed, passes=max(1, interval_passes), seed=seed
            )
        self.build_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def _build_closure(condensed: list[list[int]]) -> list[int]:
        """Exact per-component reachability bitsets.

        Component ids are in reverse topological order, so walking
        ``0..n`` visits every successor before the component that needs
        it and the DP is a single pass.
        """
        closure = [0] * len(condensed)
        for c, successors in enumerate(condensed):
            bits = 1 << c
            for s in successors:
                bits |= closure[s]
            closure[c] = bits
        return closure

    @staticmethod
    def _build_intervals(
        condensed: list[list[int]], *, passes: int, seed: int
    ) -> tuple[list[list[int]], list[list[int]]]:
        """GRAIL labels: ``passes`` randomized post-order traversals."""
        n = len(condensed)
        rng = random.Random(seed)
        # Roots in topological order (ids descend toward sinks), so one
        # sweep from high ids covers every tree without restarts.
        posts: list[list[int]] = []
        lows: list[list[int]] = []
        for _ in range(passes):
            order = [sorted(s, key=lambda _s: rng.random()) for s in condensed]
            post = [-1] * n
            low = [0] * n
            clock = 0
            for root in range(n - 1, -1, -1):
                if post[root] != -1:
                    continue
                work = [(root, 0)]
                while work:
                    c, pos = work.pop()
                    if pos == 0:
                        low[c] = n  # sentinel: min() identity
                    successors = order[c]
                    recurse = False
                    while pos < len(successors):
                        s = successors[pos]
                        pos += 1
                        if post[s] == -1:
                            work.append((c, pos))
                            work.append((s, 0))
                            recurse = True
                            break
                        if low[s] < low[c]:
                            low[c] = low[s]
                    if recurse:
                        continue
                    post[c] = clock
                    clock += 1
                    if post[c] < low[c]:
                        low[c] = post[c]
                    if work:
                        parent = work[-1][0]
                        if low[c] < low[parent]:
                            low[parent] = low[c]
            posts.append(post)
            lows.append(low)
        return posts, lows

    def derive(
        self,
        graph: Any,
        added: Collection[EdgeIds],
        removed: Collection[EdgeIds],
    ) -> "BoundsIndex":
        """The bound for ``graph``, which is this index's snapshot plus
        the ``added`` and minus the ``removed`` ``(source, label,
        target)`` id triples: derived from this one in ``closure`` mode,
        else rebuilt (the module docstring's rules)."""
        started = time.perf_counter()
        closure_limit, interval_passes, seed = self._settings
        removed_since_build = self.removed_since_build + len(removed)
        first = self.component_count
        grown = graph.num_vertices - self.vertex_count
        if (
            self._closure is None
            or first + grown > closure_limit
            or removed_since_build > REBUILD_REMOVED_FRACTION * graph.num_edges
        ):
            return build_bounds(
                graph,
                closure_limit=closure_limit,
                interval_passes=interval_passes,
                seed=seed,
            )
        component_of, closure = self._component_of, self._closure
        if grown or added:
            component_of = component_of + list(range(first, first + grown))
            closure = closure + [1 << c for c in range(first, first + grown)]
            for u, _label, v in added:
                cu, cv = component_of[u], component_of[v]
                if closure[cu] >> cv & 1:
                    continue
                # Everything that reaches u now reaches what v reaches —
                # v's closure as it stands, since a path through the new
                # edge back to v adds nothing to it.
                reach, bit = closure[cv], 1 << cu
                for c, bits in enumerate(closure):
                    if bits & bit:
                        closure[c] = bits | reach
        derived = object.__new__(BoundsIndex)
        derived.mode = "closure"
        derived.vertex_count = graph.num_vertices
        derived.component_count = first + grown
        derived.removed_since_build = removed_since_build
        derived.derived = True
        derived._settings = self._settings
        derived._component_of = component_of
        derived._closure = closure
        derived._post = derived._low = None
        derived.build_seconds = time.perf_counter() - started
        return derived

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def maybe_reachable(self, s: int, t: int) -> bool:
        """Upper bound: ``False`` means *definitely* no ``s -> t`` path.

        ``True`` is exact label-blind reachability in ``closure`` mode
        and "not excluded" in ``interval`` mode.
        """
        cs = self._component_of[s]
        ct = self._component_of[t]
        if cs == ct:
            return True
        closure = self._closure
        if closure is not None:
            return bool(closure[cs] >> ct & 1)
        for post, low in zip(self._post, self._low):
            if not (low[cs] <= post[ct] <= post[cs]):
                return False
        return True

    def describe(self) -> dict:
        """Shape summary for ``/stats``."""
        return {
            "mode": self.mode,
            "vertices": self.vertex_count,
            "components": self.component_count,
            "build_seconds": round(self.build_seconds, 6),
            "removed_since_build": self.removed_since_build,
            "derived": self.derived,
        }

    def __repr__(self) -> str:
        return (
            f"BoundsIndex(mode={self.mode!r}, |V|={self.vertex_count}, "
            f"|SCC|={self.component_count})"
        )


def build_bounds(
    graph: Any,
    *,
    closure_limit: int = DEFAULT_CLOSURE_LIMIT,
    interval_passes: int = DEFAULT_INTERVAL_PASSES,
    seed: int = 0,
) -> BoundsIndex:
    """Build the label-blind upper bound for one graph snapshot."""
    return BoundsIndex(
        graph,
        closure_limit=closure_limit,
        interval_passes=interval_passes,
        seed=seed,
    )
